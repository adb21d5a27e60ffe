"""The benchmark's four workloads and the checks on their outputs.

Each workload is one job, run once in a fresh interpreter.  `run(name, seed)`
does the job and returns its raw outputs; `check(name, outputs, expected)`
compares them with the recorded expectations after the timed region.  The
seed only permutes the order of families and calls (and, in `convergence`,
picks three extra n that read arrays already filled), so two seeds do the
same work and run the same number of checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction

NAMES = ("verify", "tables", "convergence", "oracle")

# tables: the exact recursion, general and time-consistent families to today's
# exact-engine limit, simplex families to n = 19.
TABLE_FAMILIES = (
    ("general", "unlabeled", 16),
    ("general", "labeled", 16),
    ("time-consistent", "unlabeled", 16),
    ("time-consistent", "labeled", 16),
    ("simplex-tc", "unlabeled", 19),
    ("simplex-tc", "labeled", 19),
)
GOLDEN_NAME = {
    "general/unlabeled": "general-unlabeled",
    "general/labeled": "general-labeled",
    "simplex-tc/unlabeled": "simplex-unlabeled",
    "simplex-tc/labeled": "simplex-labeled",
}

# convergence: the criterion-7 study at a reduced truncation order.
ORDER = 700
RATIO_FAMILIES = (
    ("general", "unlabeled"),
    ("general", "labeled"),
    ("simplex-tc", "unlabeled"),
    ("simplex-tc", "labeled"),
)
FIXED_NS = (ORDER // 2, ORDER)
# Seed-chosen n come from this grid, for which ratios are recorded.
EXTRA_N_GRID = tuple(n for n in range(175, ORDER + 1, 5) if n not in FIXED_NS)
RATIO_REL_TOL = 1e-9  # floats computed from exact integers; allows libm differences
FLOAT_REL_TOL = 1e-9  # rho, gamma, charsys r / s / delta (bisection to ~1e-12)
BETA_MAX = 8

ORACLE_N = 7
SLICE_NS = tuple(range(2, ORACLE_N + 1))


def _spec(cls: str, labeling: str):
    from galledtrees.counts import Labeling, NetworkClass, TreeClassSpec

    return TreeClassSpec(NetworkClass(cls), Labeling(labeling))


def _cli(argv):
    from galledtrees import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


# -- jobs ------------------------------------------------------------------------


def run_verify(seed: int) -> dict:
    # One fixed command: its stdout must be byte-identical, which pins the
    # order of its scopes, so the seed has nothing to permute here.
    return _cli(["verify", "--scope", "all"])


def run_tables(seed: int) -> dict:
    families = list(TABLE_FAMILIES)
    random.Random(seed).shuffle(families)
    return {
        f"{cls}/{lab}": _cli(["table", "--class", cls, "--labeling", lab,
                              "--max-n", str(max_n), "--format", "csv"])
        for cls, lab, max_n in families
    }


def convergence_ns(seed: int) -> tuple:
    extra = random.Random(seed).sample(EXTRA_N_GRID, 3)
    return FIXED_NS + tuple(sorted(extra))


def run_convergence(seed: int) -> dict:
    from galledtrees import asym

    rng = random.Random(seed)
    ns = convergence_ns(seed)
    calls = []
    for cls, lab in RATIO_FAMILIES:
        for g in (1, 2):
            for n in ns:
                calls.append((f"ratio/{cls}/{lab}/g{g}/n{n}", asym.ratio_exact_to_estimate,
                              (_spec(cls, lab), g, n), {"order": ORDER}))
    for g in (1, 2):
        calls.append((f"cross/g{g}", asym.simplex_to_general_ratio, (g, ORDER),
                      {"order": ORDER}))
    for fam in asym.CharFamily:
        calls.append((f"charsys/{fam.value}", asym.solve_charsys, (fam,), {}))
    calls.append(("rho_gamma", asym.solve_rho_gamma, (), {}))
    for g in range(1, BETA_MAX + 1):
        calls.append((f"beta/{g}", asym.beta, (g,), {}))
    rng.shuffle(calls)
    out = {}
    for key, fn, args, kwargs in calls:
        value = fn(*args, **kwargs)
        if key.startswith("charsys/"):
            value = {"r": value.r, "s": value.s, "delta": value.delta}
        elif key == "rho_gamma":
            value = {"rho": value.rho, "gamma": value.gamma}
        elif key.startswith("beta/"):
            value = str(value)
        out[key] = value
    return out


def run_oracle(seed: int) -> dict:
    from galledtrees import bijections, counts, oracle
    from galledtrees.counts import Labeling, NetworkClass, TreeClassSpec

    rng = random.Random(seed)
    classes = list(NetworkClass)
    rng.shuffle(classes)
    out = {}
    for ncls in classes:
        res = {}
        steps = ["validate", "unlabeled", "labeled"]
        rng.shuffle(steps)
        for step in steps:
            if step == "validate":
                structures = list(oracle.generate_all(ncls, ORACLE_N))
                rng.shuffle(structures)
                res["structures"] = len(structures)
                res["invalid"] = sum(1 for s in structures if not oracle.validate(s, ncls).ok)
                continue
            if step == "unlabeled":
                hist = oracle.count_by_galls(ncls, ORACLE_N)
                spec = TreeClassSpec(ncls, Labeling.UNLABELED)
            else:
                hist = oracle.labeled_count(ncls, ORACLE_N)
                spec = TreeClassSpec(ncls, Labeling.LEAF_LABELED)
            res[step] = {str(g): v for g, v in hist.items()}
            res[f"{step}_vs_counts"] = [
                g for g in range(spec.max_galls(ORACLE_N) + 1)
                if hist.get(g, 0) != counts.count(spec, ORACLE_N, g)
            ]
        out[ncls.value] = res
    ns = list(SLICE_NS)
    rng.shuffle(ns)
    for n in ns:
        image = set(bijections.saturated_general_slice(n))
        want = {
            oracle.canonical_key(s)
            for s in oracle.generate_all(NetworkClass.GENERAL, n)
            if oracle.galls(s) == n - 1
        }
        out[f"slice/{n}"] = {"size": len(image), "match": image == want}
    return out


JOBS = {
    "verify": run_verify,
    "tables": run_tables,
    "convergence": run_convergence,
    "oracle": run_oracle,
}


def run(name: str, seed: int) -> dict:
    return JOBS[name](seed)


# -- checks ----------------------------------------------------------------------
# Each check function returns a list of (description, passed) pairs.  The
# number of checks depends on the workload only, never on the seed.


def _close(got, want, tol) -> bool:
    return isinstance(got, float) and math.isclose(got, want, rel_tol=tol, abs_tol=0.0)


def check_verify(out: dict, expected: dict) -> list:
    return [
        ("verify exit code 0", out["rc"] == 0),
        ("verify stdout byte-identical to the recorded one", out["stdout"] == expected["stdout"]),
    ]


def parse_csv(text: str) -> dict:
    """{(n, column): value} for a `table --format csv` output."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    cells = {}
    for line in lines[1:]:
        row = line.split(",")
        for col, value in zip(header[1:], row[1:]):
            if value:
                cells[(int(row[0]), col)] = int(value)
    return cells


def check_tables(out: dict, expected: dict) -> list:
    from galledtrees import golden
    from galledtrees.counts import simplex_total_sequence

    gold = golden.load_golden()
    results = []
    for cls, lab, max_n in TABLE_FAMILIES:
        fam = f"{cls}/{lab}"
        results.append((f"{fam} exit code 0", out[fam]["rc"] == 0))
        got = parse_csv(out[fam]["stdout"])
        want = parse_csv(expected[fam])
        results.append((f"{fam} has the recorded cells", set(got) == set(want)))
        for cell, value in sorted(want.items(), key=str):
            results.append((f"{fam} {cell} recorded", got.get(cell) == value))
        for (n, g), value in sorted(gold.get(GOLDEN_NAME.get(fam), {}).items(), key=str):
            if n <= max_n:
                col = "total" if g == "total" else f"g{g}"
                results.append((f"{fam} {(n, col)} golden", got.get((n, col)) == value))
    got = parse_csv(out["simplex-tc/unlabeled"]["stdout"])
    totals = simplex_total_sequence(19)
    for n in range(1, 20):
        results.append((f"simplex-tc/unlabeled n={n} total vs simplex_total_sequence",
                        got.get((n, "total")) == totals[n]))
    return results


def digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def fixed_g_arrays() -> dict:
    """Digests of the unlabeled fixed_g_counts arrays the job filled."""
    from galledtrees import asym

    out = {}
    for cls in ("general", "simplex-tc"):
        spec = _spec(cls, "unlabeled")
        for g in (1, 2):
            arr = [asym.exact_fixed_g_count(spec, g, n, ORDER) for n in range(ORDER + 1)]
            out[f"{cls}/g{g}"] = digest(arr)
    return out


def check_convergence(out: dict, expected: dict, seed: int) -> list:
    results = []
    arrays = fixed_g_arrays()
    for key, want in expected["arrays"].items():
        results.append((f"fixed_g_counts {key} digest", arrays.get(key) == want))
    for cls, lab in RATIO_FAMILIES:
        for g in (1, 2):
            for n in convergence_ns(seed):
                key = f"ratio/{cls}/{lab}/g{g}/n{n}"
                want = expected["ratios"][f"{cls}/{lab}/g{g}"][str(n)]
                results.append((key, _close(out.get(key), want, RATIO_REL_TOL)))
    for g in (1, 2):
        key = f"cross/g{g}"
        results.append((key, _close(out.get(key), expected[key], RATIO_REL_TOL)))
    for key, want in expected["charsys"].items():
        got = out.get(f"charsys/{key}", {})
        for field in ("r", "s", "delta"):
            results.append((f"charsys {key} {field}",
                            _close(got.get(field), want[field], FLOAT_REL_TOL)))
    for field in ("rho", "gamma"):
        results.append((field, _close(out.get("rho_gamma", {}).get(field),
                                      expected["rho_gamma"][field], FLOAT_REL_TOL)))
    for g in range(1, BETA_MAX + 1):
        got = out.get(f"beta/{g}")
        results.append((f"beta({g}) exact", got is not None
                        and Fraction(got) == Fraction(expected["beta"][str(g)])))
    return results


def check_oracle(out: dict, expected: dict) -> list:
    results = []
    for cls, want in expected["classes"].items():
        got = out.get(cls, {})
        results.append((f"{cls} structure count", got.get("structures") == want["structures"]))
        results.append((f"{cls} every structure validates", got.get("invalid") == 0))
        for step in ("unlabeled", "labeled"):
            results.append((f"{cls} {step} histogram", got.get(step) == want[step]))
            results.append((f"{cls} {step} histogram equals counts.count",
                            got.get(f"{step}_vs_counts") == []))
    for n in SLICE_NS:
        got = out.get(f"slice/{n}", {})
        results.append((f"general slice n={n} size", got.get("size") == expected["slices"][str(n)]))
        results.append((f"general slice n={n} equals the oracle's", got.get("match") is True))
    return results


def check(name: str, out: dict, expected: dict, seed: int) -> list:
    if name == "verify":
        return check_verify(out, expected)
    if name == "tables":
        return check_tables(out, expected)
    if name == "convergence":
        return check_convergence(out, expected, seed)
    return check_oracle(out, expected)
