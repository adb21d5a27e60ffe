"""Record the benchmark's expected outputs, once, after cross-checking them.

    PYTHONPATH=src python3 benchmarks/record.py [WORKLOAD ...]

Writes benchmarks/expected/<workload>.json.  Nothing is written for a
workload unless an engine independent of the one the workload runs agrees:

* tables: every cell equals `genfunc.solve_bivariate` (times n! when
  labeled), cells inside the golden CSV equal it, and the simplex-unlabeled
  totals equal `simplex_total_sequence`.
* convergence: the first 40 coefficients of each `fixed_g_counts` array (and
  of each labeled closed-form count) equal `genfunc.closed_small_g`.
* verify: the command exits 0 and prints PASS.
* oracle: histograms equal `counts.count` and the bijection images match.

The per-run checks then compare with these files only, so they stay free of
the series engine.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import workloads as wl

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def record_verify() -> dict:
    out = wl.run_verify(0)
    if out["rc"] != 0 or not out["stdout"].endswith("PASS\n"):
        raise SystemExit(f"verify does not pass:\n{out['stdout']}")
    return {"stdout": out["stdout"]}


def record_tables() -> dict:
    from galledtrees import genfunc

    out = wl.run_tables(0)
    for fam, res in out.items():
        if res["rc"] != 0:
            raise SystemExit(f"table {fam} exited {res['rc']}")
    results = wl.check_tables(out, {fam: res["stdout"] for fam, res in out.items()})
    bad = [name for name, ok in results if not ok]
    if bad:
        raise SystemExit(f"tables disagree with golden data or totals: {bad[:5]}")
    for cls, lab, max_n in wl.TABLE_FAMILIES:
        fam = f"{cls}/{lab}"
        spec = wl._spec(cls, lab)
        bv = genfunc.solve_bivariate(spec, max_n, spec.max_galls(max_n))
        cells = wl.parse_csv(out[fam]["stdout"])
        for (n, col), value in cells.items():
            scale = math.factorial(n) if spec.is_labeled else 1
            if col == "total":
                want = sum(bv.coefficient(n, g) for g in range(spec.max_galls(n) + 1)) * scale
            else:
                want = bv.coefficient(n, int(col[1:])) * scale
            if want != value:
                raise SystemExit(f"{fam} {(n, col)}: recursion {value}, bivariate {want}")
        print(f"tables: {fam} confirmed against solve_bivariate ({len(cells)} cells)")
    return {fam: res["stdout"] for fam, res in out.items()}


def record_convergence() -> dict:
    from galledtrees import asym, genfunc

    out = wl.run_convergence(0)
    for cls, lab in wl.RATIO_FAMILIES:
        spec = wl._spec(cls, lab)
        for g in (1, 2):
            closed = genfunc.closed_small_g(spec, g, 40).integer_coefficients(
                scale_factorials=spec.is_labeled)
            exact = [asym.exact_fixed_g_count(spec, g, n, wl.ORDER) for n in range(1, 41)]
            if exact != closed[1:]:
                raise SystemExit(f"{cls}/{lab} g={g}: large-order counts != closed_small_g")
    ratios = {}
    for cls, lab in wl.RATIO_FAMILIES:
        spec = wl._spec(cls, lab)
        for g in (1, 2):
            ratios[f"{cls}/{lab}/g{g}"] = {
                str(n): asym.ratio_exact_to_estimate(spec, g, n, order=wl.ORDER)
                for n in wl.FIXED_NS + wl.EXTRA_N_GRID
            }
    return {
        "order": wl.ORDER,
        "arrays": wl.fixed_g_arrays(),
        "ratios": ratios,
        "cross/g1": out["cross/g1"],
        "cross/g2": out["cross/g2"],
        "charsys": {k[len("charsys/"):]: v for k, v in out.items() if k.startswith("charsys/")},
        "rho_gamma": out["rho_gamma"],
        "beta": {str(g): out[f"beta/{g}"] for g in range(1, wl.BETA_MAX + 1)},
    }


def record_oracle() -> dict:
    out = wl.run_oracle(0)
    classes = {}
    for cls in ("general", "time-consistent", "simplex-tc"):
        res = out[cls]
        if res["invalid"] or res["unlabeled_vs_counts"] or res["labeled_vs_counts"]:
            raise SystemExit(f"oracle {cls}: invalid structures or disagreement with counts")
        classes[cls] = {k: res[k] for k in ("structures", "unlabeled", "labeled")}
    slices = {}
    for n in wl.SLICE_NS:
        if not out[f"slice/{n}"]["match"]:
            raise SystemExit(f"bijection image mismatch at n={n}")
        slices[str(n)] = out[f"slice/{n}"]["size"]
    return {"classes": classes, "slices": slices}


RECORDERS = {
    "verify": record_verify,
    "tables": record_tables,
    "convergence": record_convergence,
    "oracle": record_oracle,
}


def main(names) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or wl.NAMES:
        data = RECORDERS[name]()
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"recorded {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
