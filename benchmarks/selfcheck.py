"""Show that the checks catch a wrong answer.

    python3 benchmarks/selfcheck.py [WORKLOAD ...]

For each workload, copies benchmarks/expected/<workload>.json into
.bench_out/ with one expected value changed, runs one short benchmark
against the copy and requires `failed` > 0 and `correct` false.  Exits 1 if
any workload's checks let the wrong value through.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def _break_verify(data):
    data["stdout"] = data["stdout"].replace("PASS", "FAIL")


def _break_tables(data):
    lines = data["general/unlabeled"].splitlines()
    cells = lines[-1].split(",")
    cells[-1] = str(int(cells[-1]) + 1)  # the largest row total
    lines[-1] = ",".join(cells)
    data["general/unlabeled"] = "\n".join(lines) + "\n"


def _break_convergence(data):
    ratios = data["ratios"]["general/unlabeled/g1"]
    ratios["350"] *= 1.001


def _break_oracle(data):
    data["classes"]["general"]["structures"] += 1


BREAKERS = {
    "verify": _break_verify,
    "tables": _break_tables,
    "convergence": _break_convergence,
    "oracle": _break_oracle,
}


def main(names) -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    status = 0
    for name in names or run.WORKLOADS:
        data = json.loads((run.BENCH_DIR / "expected" / f"{name}.json").read_text())
        BREAKERS[name](data)
        broken = run.OUT_DIR / f"broken-{name}.json"
        broken.write_text(json.dumps(data))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                           "--expected", str(broken)])
        result = json.loads(buf.getvalue().strip().splitlines()[-1]) if rc == 0 else {}
        ratio = result["failed"] / result["attempted"] if result else float("nan")
        caught = rc == 0 and result["failed"] > 0 and result["correct"] is False
        print(f"{name}: broken expectation -> failed {result.get('failed')} of "
              f"{result.get('attempted')} (failed_ratio {ratio:.4g}) "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        status |= not caught
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
