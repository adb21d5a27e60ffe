"""galledtrees benchmark: four workloads, each job in a fresh interpreter.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ../src relative to this
file.  The loop is closed, with one client and one child process at a time.

Set-up: one import warms the bytecode cache (kept under .bench_out/), then
fresh interpreters each time `import galledtrees.cli` (the package and its
CLI module): SETUP_IMPORTS before the first job and, with tracing off,
IMPORTS_PER_JOB after each job, so the samples span the whole run.

Trace 0 starts one cold child per job until S seconds of jobs have run and
reports, as medians over the children: `wall_s` (the job after import),
`setup_s` (the import, pooled over set-up and job children) and
`peak_rss_mb` (the child's peak resident memory).

Trace 1 alternates untraced and traced children for S seconds and reports
the per-layer metrics of the traced children (see tracer.py), with
`trace.overhead_s` = median traced wall_s - median untraced wall_s.

Every child checks its outputs against benchmarks/expected/<workload>.json;
a crash, non-zero exit or timeout counts all of the job's checks as failed.
The last stdout line is the JSON result; the samples, the environment and
the first traced child's spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import NAMES as WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_IMPORTS = 5
IMPORTS_PER_JOB = 3
CHILD_TIMEOUT_S = 100  # a job takes under 15 s; the whole run must end within 180 s


class SetupError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GALLED_MAX_N", None)  # every CLI default applies, as for a user
    # Bytecode is cached in the benchmark's own directory so imports after the
    # warm-up do not recompile, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, env) -> tuple:
    """(report or None, error text); one child, waited for, killed on timeout."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "job.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {err.strip()[-2000:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"no result line: {out[-500:]!r} {err[-1500:]}"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def import_times(env, count, errors) -> list:
    samples = []
    for _ in range(count):
        report, err = run_child(["import"], env)
        if report is None:
            errors.append(f"import galledtrees.cli failed: {err}")
        else:
            samples.append(report["import_s"])
    return samples


def set_up(env) -> list:
    if not (ROOT / "src" / "galledtrees" / "__init__.py").is_file():
        raise SetupError(f"no galledtrees package under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    errors = []
    import_times(env, 1, errors)  # warms the bytecode cache
    samples = import_times(env, SETUP_IMPORTS, errors)
    if errors:
        raise SetupError(errors[0])
    return samples


def measure(workload, seed, seconds, trace, env, expected, setup_samples) -> dict:
    """Run cold children for `seconds`; return their reports and failures.
    With tracing off, import times are appended to `setup_samples`."""
    plain, traced, errors = [], [], []
    checks_per_job = None
    failed_checks = attempted_checks = 0
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    start = time.perf_counter()
    durations = []
    while True:
        with_trace = trace and len(traced) < len(plain)
        args = ["run", workload, str(seed), "1" if with_trace else "0", str(expected)]
        if with_trace and not traced:
            args.append(str(spans_path))
        t0 = time.perf_counter()
        report, err = run_child(args, env)
        if report is None:
            errors.append(err)
            n = checks_per_job or 1
            attempted_checks += n
            failed_checks += n
        else:
            checks_per_job = report["checks"]
            attempted_checks += report["checks"]
            failed_checks += len(report["failures"])
            if report["failures"]:
                errors.append(f"failed checks: {report['failures'][:5]}")
            (traced if with_trace else plain).append(report)
        if not trace:
            setup_samples.extend(import_times(env, IMPORTS_PER_JOB, errors))
        now = time.perf_counter()
        durations.append(now - t0)
        enough = not trace or (plain and traced)
        # Start another child only if it should end within half a job of the
        # deadline, so a run lasts about `seconds` on average.
        if enough and now + statistics.median(durations) / 2 > start + seconds:
            break
        if now - start > seconds + 30:  # a child hung or failed before the trace pair ran
            break
    return {"plain": plain, "traced": traced, "errors": errors,
            "attempted": attempted_checks, "failed": failed_checks}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plain, setup_samples) -> dict:
    return {
        "wall_s": metric(statistics.median(r["wall_s"] for r in plain), "s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(plain, traced) -> dict:
    first = traced[0]["trace"]
    for other in traced[1:]:
        if other["trace"]["growth"] != first["growth"]:
            print("warning: cache growth differs between traced children", file=sys.stderr)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(
            statistics.median(r["trace"]["self_s"][layer] for r in traced), "s")
    calls, growth = first["calls"], first["growth"]
    out.update({
        "counts.calls": metric(calls["counts"], "count"),
        "counts.cache_hit_ratio": metric(first["cache_hit_ratio"]["counts"], "ratio"),
        "counts.rows_computed": metric(growth["rows"], "count"),
        "comb.items_yielded": metric(first["items_yielded"], "count"),
        "series.fraction.calls": metric(calls["series.fraction"], "count"),
        "series.fixed_point_solves": metric(first["fixed_point_solves"], "count"),
        "series.fixed_point_passes": metric(first["fixed_point_passes"], "count"),
        "series.int.calls": metric(calls["series.int"], "count"),
        "series.int.coeff_products": metric(first["coeff_products"], "count"),
        "genfunc.calls": metric(calls["genfunc"], "count"),
        "genfunc.ladder_rungs_computed": metric(growth["rungs"], "count"),
        "genfunc.cache_hit_ratio": metric(first["cache_hit_ratio"]["genfunc"], "ratio"),
        "asym.calls": metric(calls["asym"], "count"),
        "asym.counts_cache_fills": metric(growth["asym_counts"], "count"),
        "oracle.structures_generated": metric(growth["structures"], "count"),
        "oracle.canonical_key_calls": metric(first["canonical_key_calls"], "count"),
        "oracle.validate_calls": metric(first["validate_calls"], "count"),
        "trace.overhead_s": metric(
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "s"),
    })
    return out


def summary(workload, seed, trace, runs, setup_samples, env_record) -> str:
    walls = sorted(r["wall_s"] for r in runs["plain"])
    lines = [
        f"workload {workload} seed {seed} trace {trace}",
        f"  wall_s: median {statistics.median(walls):.4f} s over {len(walls)} cold children "
        f"(min {walls[0]:.4f}, max {walls[-1]:.4f})",
        f"  setup_s: median {statistics.median(setup_samples):.4f} s over "
        f"{len(setup_samples)} imports",
        f"  checks: {runs['attempted']} attempted, {runs['failed']} failed "
        f"(failed_ratio {runs['failed'] / runs['attempted']:.4g})",
        f"  env: {json.dumps(env_record)}",
    ]
    if runs["traced"]:
        self_s = runs["traced"][0]["trace"]["self_s"]
        top = sorted(self_s.items(), key=lambda kv: -kv[1])
        lines.append("  self time (first traced child): "
                     + ", ".join(f"{k} {v:.3f}" for k, v in top))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=None,
                        help="expectations file (default benchmarks/expected/WORKLOAD.json)")
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so run_child kills its child before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    expected = args.expected or BENCH_DIR / "expected" / f"{args.workload}.json"
    if not expected.is_file():
        print(f"benchmark: missing expectations {expected}", file=sys.stderr)
        return 2

    env_record = environment()
    env = child_env()
    try:
        setup_samples = set_up(env)
    except SetupError as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 2
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), env,
                   expected.resolve(), setup_samples)
    for err in runs["errors"][:5]:
        print(f"benchmark: {err}", file=sys.stderr)
    if not runs["plain"] or (args.trace and not runs["traced"]):
        print("benchmark: no child completed its job", file=sys.stderr)
        return 1
    setup_samples += [r["import_s"] for r in runs["plain"]]  # job children import too

    if args.trace:
        metrics = per_layer(runs["plain"], runs["traced"])
    else:
        metrics = end_to_end(runs["plain"], setup_samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record, "setup_samples": setup_samples,
        "children": runs["plain"] + runs["traced"], "errors": runs["errors"],
        "metrics": metrics,
    }
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(summary(args.workload, args.seed, args.trace, runs, setup_samples, env_record))
    print(json.dumps({
        "correct": runs["failed"] == 0,
        "attempted": runs["attempted"],
        "failed": runs["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
