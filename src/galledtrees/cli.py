"""Command-line front end.

Subcommands: count, table, series, asym, verify.  Counts are printed as
exact decimal strings (``--pretty`` adds thousands separators for reading).
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 engine or
order limit exceeded, 4 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import asym, bijections, genfunc, golden, oracle
from .counts import (
    EXACT_ENGINE_LIMIT,
    ALL_SPECS,
    Labeling,
    NetworkClass,
    TreeClassSpec,
    build_table,
    count,
    total,
)
from .genfunc import RATIO_MAX_ORDER
from .series import SeriesDivergenceError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_ENGINE_LIMIT = 3
EXIT_NUMERIC = 4

# The -N past which `series` refuses, so that the slowest family, general
# labeled, answers in about 30 s (2-vCPU Xeon, CPython 3.11): 23 s for the
# arbitrary-gall totals at N = 1200 and 24 s for the bivariate table at
# N = 120.  The fixed-g ladder's cost grows with -g too, so its limit is set
# per band of -g, each (g, N) reading "for -g up to g, -N up to N": 6.5, 19,
# 22 and 28 s at the four limits.
SERIES_MAX_ORDER = {"arbitrary": 1200, "bivariate": 120}
FIXED_G_MAX_ORDER = ((5, 1200), (10, 900), (20, 240), (30, 90))

_CLASSES = {
    "general": NetworkClass.GENERAL,
    "time-consistent": NetworkClass.TIME_CONSISTENT,
    "simplex-tc": NetworkClass.SIMPLEX_TC,
}
_LABELINGS = {"unlabeled": Labeling.UNLABELED, "labeled": Labeling.LEAF_LABELED}


def _spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="network_class", choices=sorted(_CLASSES), required=True)
    p.add_argument("--labeling", choices=sorted(_LABELINGS), required=True)


def _spec_of(args) -> TreeClassSpec:
    return TreeClassSpec(_CLASSES[args.network_class], _LABELINGS[args.labeling])


def _fmt(v: int, pretty: bool) -> str:
    return f"{v:,}" if pretty else str(v)


def _over_exact_limit(option: str, n: int, engine: str = "exact-recursion", advice: str =
                      "use the series engine (`series --mode arbitrary`) for larger n",
                      limit: int = EXACT_ENGINE_LIMIT) -> bool:
    """Say so on stderr and return True when n is past the engine's limit."""
    if n <= limit:
        return False
    print(f"{option} {n} exceeds the {engine} limit ({limit}); {advice}", file=sys.stderr)
    return True


def cmd_count(args, parser) -> int:
    if args.n < 1:
        parser.error("-n must be at least 1")
    if args.g is not None and args.g < 0:
        parser.error("-g must be nonnegative")
    if _over_exact_limit("-n", args.n):
        return EXIT_ENGINE_LIMIT
    spec = _spec_of(args)
    if args.g is not None:
        print(_fmt(count(spec, args.n, args.g), args.pretty))
        return EXIT_OK
    row = [count(spec, args.n, g) for g in range(spec.max_galls(args.n) + 1)]
    print(" ".join(_fmt(v, args.pretty) for v in row))
    print(f"total {_fmt(sum(row), args.pretty)}")
    return EXIT_OK


def cmd_table(args, parser) -> int:
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")
    if _over_exact_limit("max-n", args.max_n):
        return EXIT_ENGINE_LIMIT
    spec = _spec_of(args)
    table = build_table(spec, args.max_n)
    gmax = spec.max_galls(args.max_n)
    out = []
    if args.format in ("csv", "tsv"):
        sep = "," if args.format == "csv" else "\t"
        out.append(sep.join(["n"] + [f"g{g}" for g in range(gmax + 1)] + ["total"]))
        for n in range(1, args.max_n + 1):
            row = [str(n)]
            for g in range(gmax + 1):
                row.append(str(table.entries[(n, g)]) if g <= spec.max_galls(n) else "")
            row.append(str(table.row_totals[n]))
            out.append(sep.join(row))
    else:
        records = []
        for n in range(1, args.max_n + 1):
            for g in range(spec.max_galls(n) + 1):
                records.append(
                    {
                        "class": args.network_class,
                        "labeling": args.labeling,
                        "n": n,
                        "g": g,
                        "value": str(table.entries[(n, g)]),
                    }
                )
            records.append(
                {
                    "class": args.network_class,
                    "labeling": args.labeling,
                    "n": n,
                    "g": "total",
                    "value": str(table.row_totals[n]),
                }
            )
        out.append(json.dumps(records, indent=2))
    text = "\n".join(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_series(args, parser) -> int:
    if args.order < 1:
        parser.error("-N must be at least 1")
    if args.max_g is not None and args.max_g < 0:
        parser.error("--max-g must be nonnegative")
    if args.mode == "fixed-g" and (args.g is None or args.g < 1):
        parser.error("--mode fixed-g needs -g >= 1")
    if _over_series_limit(args):
        return EXIT_ENGINE_LIMIT
    spec = _spec_of(args)
    try:
        if args.mode == "bivariate":
            # no family has N galls on N leaves, so a larger cap reads nothing more
            max_g = args.order if args.max_g is None else min(args.max_g, args.order)
            bv = genfunc.solve_bivariate(spec, args.order, max_g)
            scale = (
                (lambda n, c: c * math.factorial(n)) if spec.is_labeled else (lambda n, c: c)
            )
            for n in range(1, args.order + 1):
                gs = range(min(spec.max_galls(n), max_g) + 1)
                row = [scale(n, bv.coefficient(n, m)) for m in gs]
                print(f"n={n}: " + ",".join(str(v) for v in row))
            return EXIT_OK
        if args.mode == "fixed-g":
            s = genfunc.fixed_g_series(spec, args.g, args.order)
        else:
            s = genfunc.arbitrary_galls_series(spec, args.order)
    except SeriesDivergenceError as exc:
        print(f"series solver failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    counts = s.integer_coefficients(scale_factorials=spec.is_labeled)
    if spec.is_labeled:
        print("count-form: " + ",".join(str(v) for v in counts[1:]))
        print("egf: " + ",".join(str(Fraction(s[n])) for n in range(1, args.order + 1)))
    else:
        print(",".join(str(v) for v in counts[1:]))
    return EXIT_OK


def _over_series_limit(args) -> bool:
    """Say so on stderr and return True when -N (or -g) is past its limit."""
    advice = "lower -N"
    if args.mode != "fixed-g":
        engine, limit = f"{args.mode} series", SERIES_MAX_ORDER[args.mode]
    elif args.g >= args.order:  # zeros: no rung is built
        engine, limit = "fixed-g series", FIXED_G_MAX_ORDER[0][1]
    # The last rung below -N sums every weighted partition of g - 1.
    elif _over_exact_limit("-g", args.g, "fixed-g ladder", "a -g at or past -N prints zeros"):
        return True
    else:
        top, limit = next(band for band in FIXED_G_MAX_ORDER if args.g <= band[0])
        engine, advice = f"fixed-g (-g <= {top})", "lower -N or -g"
    return _over_exact_limit("-N", args.order, engine, advice, limit)


def cmd_asym(args, parser) -> int:
    if args.order is not None and args.order < 1:
        parser.error("--order must be at least 1")
    order = {} if args.order is None else {"order": args.order}  # else each task's default
    try:
        if args.task == "constants":
            sc = asym.solve_rho_gamma(**order)
            print(f"rho {sc.rho:.10f}")
            print(f"gamma {sc.gamma:.10f}")
            print(f"residual {sc.residual():.3e}")
            return EXIT_OK
        if args.task == "charsys":
            if not args.family:
                parser.error("charsys needs --family")
            fam = asym.CharFamily(args.family)
            if args.replicate_reported and fam is not asym.CharFamily.SIMPLEX_UNLABELED:
                parser.error("--replicate-reported applies to --family simplex-unlabeled only")
            sol = asym.solve_charsys(fam, **order, replicate_reported=args.replicate_reported)
            print(f"r {sol.r:.10f}")
            print(f"s {sol.s:.10f}")
            if sol.b is not None:
                print(f"b {sol.b:.10f}")
            print(f"phi_t {sol.phi_t:.10f}")
            print(f"phi_ww {sol.phi_ww:.10f}")
            print(f"delta {sol.delta:.10f}")
            res = sol.residuals()
            print(f"residuals {res[0]:.3e} {res[1]:.3e}")
            print(f"truncation-error {sol.truncation_error():.3e}")
            return EXIT_OK
        spec = _spec_of(args)
        if args.g is None or args.g < 1 or args.n is None or args.n < 2:
            parser.error("estimate/ratio need -g >= 1 and -n >= 2")
        if args.task == "estimate":
            log_est = asym.estimate_log(spec, args.g, args.n, **order)
            print(f"log-estimate {log_est:.6f}")
            print(f"estimate {math.exp(min(log_est, 700)):.6e}" if log_est < 700 else
                  f"estimate 10^{log_est / math.log(10):.3f}")
            return EXIT_OK
        # ratio
        if args.g not in (1, 2):
            parser.error("ratio supports -g in {1, 2}")
        if _over_exact_limit("truncation order", args.n if args.order is None else args.order,
                             "ratio", "lower -n or --order", RATIO_MAX_ORDER):
            return EXIT_ENGINE_LIMIT
        ratio = asym.ratio_exact_to_estimate(spec, args.g, args.n, **order)
        if args.terms == 2:  # the estimate times 1 + a / sqrt(n)
            a = asym.second_term_coefficient(spec, args.g)
            factor = 1.0 + a / math.sqrt(args.n)
            if factor <= 0.0:
                raise ValueError(f"two-term estimate is not positive: 1 + a/sqrt(n) <= 0 "
                                 f"for a = {a:.6f} at n = {args.n}")
            ratio /= factor
        print(f"ratio {ratio:.6f}")
        return EXIT_OK
    except (ArithmeticError, ValueError) as exc:
        print(f"asymptotics solver failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _verify_tables(failures):
    check = golden.verify_against_golden()
    for m in check.mismatches:
        failures.append(f"tables: {m}")
    print(f"tables: {len(golden.TABLE_SPECS)} tables, {len(check.mismatches)} mismatches "
          f"({check.cells_checked} cells)")


def _verify_engines(failures):
    checked = 0
    for spec in ALL_SPECS:
        bv = genfunc.solve_bivariate(spec, 12, 11)
        ladders = {g: genfunc.fixed_g_series(spec, g, 12) for g in range(1, 12)}
        base = genfunc.base_tree_series(spec.labeling, 12)
        for n in range(1, 13):
            nf = math.factorial(n) if spec.is_labeled else 1
            for g in range(spec.max_galls(n) + 1):
                rec = count(spec, n, g)
                b = bv.coefficient(n, g) * nf
                f = (base[n] if g == 0 else ladders[g][n]) * nf
                checked += 1
                if not (rec == b == f):
                    failures.append(
                        f"engines: {spec.network_class.value}/{spec.labeling.value} "
                        f"n={n} g={g}: recursion {rec}, bivariate {b}, fixed-g {f}"
                    )
    for spec in ALL_SPECS:
        # the tests check these: "332 comparisons" is pinned in benchmarks/expected/verify.json
        if spec.network_class is NetworkClass.TIME_CONSISTENT:
            continue
        for g in (1, 2):
            a = genfunc.closed_small_g(spec, g, 40)
            b = genfunc.fixed_g_series(spec, g, 40)
            checked += 1
            if a != b.truncate(40):
                failures.append(
                    f"engines: closed form != fixed-g for "
                    f"{spec.network_class.value}/{spec.labeling.value} g={g}"
                )
    print(f"engines: triple agreement on {checked} comparisons, "
          f"{sum(1 for f in failures if f.startswith('engines'))} mismatches")


def _verify_oracle(failures):
    max_n = min(6, oracle._max_leaves_guard())
    checked = 0
    for ncls in NetworkClass:
        for n in range(1, max_n + 1):
            hist = oracle.count_by_galls(ncls, n)
            spec = TreeClassSpec(ncls, Labeling.UNLABELED)
            for g in range(spec.max_galls(n) + 1):
                checked += 1
                if hist.get(g, 0) != count(spec, n, g):
                    failures.append(f"oracle: {ncls.value} unlabeled n={n} g={g}")
            for s in oracle.generate_all(ncls, n):
                rep = oracle.validate(s, ncls)
                checked += 1
                if not rep.ok:
                    failures.append(
                        f"oracle: invalid {ncls.value} structure {oracle.dump_text(s)}: "
                        + "; ".join(rep.violations)
                    )
        for n in range(1, min(5, max_n) + 1):
            hist = oracle.labeled_count(ncls, n)
            spec = TreeClassSpec(ncls, Labeling.LEAF_LABELED)
            for g in range(spec.max_galls(n) + 1):
                checked += 1
                if hist.get(g, 0) != count(spec, n, g):
                    failures.append(f"oracle: {ncls.value} labeled n={n} g={g}")
    print(f"oracle: agreement and validation on {checked} checks "
          f"(n <= {max_n}), {sum(1 for f in failures if f.startswith('oracle'))} mismatches")


def _verify_bijections(failures):
    rep = bijections.check_unlabeled_identities(12)
    for f in rep.failures:
        failures.append(f"bijections: unlabeled {f}")
    rep = bijections.check_labeled_corollaries(12)
    for f in rep.failures:
        failures.append(f"bijections: labeled {f}")
    # the constructive maps are checked against the oracle, so its cap holds here too
    max_n = min(7, oracle._max_leaves_guard())
    for n in range(2, max_n + 1):
        img = set(bijections.saturated_general_slice(n))
        saturated = oracle.generate_all(NetworkClass.GENERAL, n, n - 1)
        want = {oracle.canonical_key(s) for s in saturated}
        if img != want:
            failures.append(f"bijections: general image mismatch at n={n}")
    for m in range(1, (max_n + 1) // 2 + 1):
        img = set(bijections.saturated_simplex_slice(m))
        saturated = oracle.generate_all(NetworkClass.SIMPLEX_TC, 2 * m - 1, m - 1)
        want = {oracle.canonical_key(s) for s in saturated}
        if img != want:
            failures.append(f"bijections: simplex image mismatch at m={m}")
    capped = " (capped by GALLED_MAX_N)" if max_n < 7 else ""
    print(f"bijections: identities to n=12 and constructive maps to n={max_n}{capped}, "
          f"{sum(1 for f in failures if f.startswith('bijections'))} mismatches")


def cmd_verify(args, parser) -> int:
    scopes = (
        ["tables", "engines", "oracle", "bijections"]
        if args.scope == "all"
        else [args.scope]
    )
    if {"oracle", "bijections"} & set(scopes):
        try:
            oracle._max_leaves_guard()
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return EXIT_USAGE
    failures: list[str] = []
    for scope in scopes:
        {
            "tables": _verify_tables,
            "engines": _verify_engines,
            "oracle": _verify_oracle,
            "bijections": _verify_bijections,
        }[scope](failures)
    if failures:
        print(f"FAIL: {failures[0]}")
        for extra in failures[1:]:
            print(f"also: {extra}")
        return EXIT_VERIFY_FAIL
    print("PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galledtrees",
        description="Exact enumeration, generating functions, and asymptotics "
        "for galled phylogenetic networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count networks with n leaves (optionally g galls)")
    _spec_args(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-g", type=int, default=None)
    p.add_argument("--pretty", action="store_true", help="thousands separators")
    p.set_defaults(func=cmd_count, parser=p)

    p = sub.add_parser("table", help="emit the full (n, g) table with row totals")
    _spec_args(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["csv", "tsv", "json"], default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table, parser=p)

    p = sub.add_parser("series", help="exact series coefficients from the "
                       "generating-function engine")
    _spec_args(p)
    p.add_argument("--mode", choices=["bivariate", "fixed-g", "arbitrary"], required=True)
    p.add_argument("-N", dest="order", type=int, required=True, help="truncation order")
    p.add_argument("-g", type=int, default=None, help="gall count for fixed-g mode")
    p.add_argument("--max-g", type=int, default=None, help="u-order cap for bivariate mode")
    p.set_defaults(func=cmd_series, parser=p)

    p = sub.add_parser("asym", help="singular constants, characteristic systems, "
                       "estimates, and exact/estimate ratios")
    p.add_argument("task", choices=["constants", "charsys", "estimate", "ratio"])
    p.add_argument("--family", choices=[f.value for f in asym.CharFamily], default=None)
    p.add_argument("--class", dest="network_class", choices=sorted(_CLASSES),
                   default="general")
    p.add_argument("--labeling", choices=sorted(_LABELINGS), default="unlabeled")
    p.add_argument("-g", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--order", type=int, default=None, help="series truncation order")
    p.add_argument("--terms", type=int, choices=(1, 2), default=1,
                   help="ratio: terms of the singular expansion in the estimate")
    p.add_argument("--replicate-reported", action="store_true",
                   help="simplex-unlabeled charsys: reproduce the quoted "
                   "(phi_t, delta) evaluation")
    p.set_defaults(func=cmd_asym, parser=p)

    p = sub.add_parser("verify", help="golden tables, engine agreement, oracle, bijections")
    p.add_argument("--scope", choices=["tables", "engines", "oracle", "bijections", "all"],
                   default="all")
    p.set_defaults(func=cmd_verify, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, args.parser)  # usage errors name the subcommand


if __name__ == "__main__":
    sys.exit(main())
