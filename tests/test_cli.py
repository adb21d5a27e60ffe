import json
import os
import subprocess
import sys

import pytest

from galledtrees.cli import main
from galledtrees import genfunc, golden
from galledtrees.counts import GENERAL_UNLABELED


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_single_cell(capsys):
    code, out, _ = run(capsys, "count", "--class", "general", "--labeling", "unlabeled",
                       "-n", "5", "-g", "2")
    assert code == 0 and out.strip() == "113"


def test_count_row_with_total(capsys):
    code, out, _ = run(capsys, "count", "--class", "simplex-tc", "--labeling", "labeled",
                       "-n", "5")
    assert code == 0
    assert out.splitlines() == ["105 705 60", "total 870"]


def test_count_pretty(capsys):
    code, out, _ = run(capsys, "count", "--class", "general", "--labeling", "labeled",
                       "-n", "10", "-g", "1", "--pretty")
    assert code == 0 and out.strip() == "4,689,345,150"


def test_count_usage_error(capsys):
    code, _, err = run(capsys, "count", "--class", "general", "--labeling", "unlabeled",
                       "-n", "0")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("count", "--class", "general", "--labeling", "unlabeled", "-n", "0"),
     "-n must be at least 1"),
    (("table", "--class", "general", "--labeling", "unlabeled", "--max-n", "0"),
     "--max-n must be at least 1"),
    (("series", "--class", "general", "--labeling", "unlabeled", "--mode", "arbitrary",
      "-N", "0"), "-N must be at least 1"),
    (("asym", "charsys", "--family", "general-labeled", "--replicate-reported"),
     "--replicate-reported applies to --family simplex-unlabeled only"),
])
def test_usage_errors_name_the_subcommand(capsys, argv, message):
    # an error found by the handler shows the subcommand's usage, not the top level's
    code, out, err = run(capsys, *argv)
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert lines[0].startswith(f"usage: galledtrees {argv[0]} [-h]")
    assert lines[-1] == f"galledtrees {argv[0]}: error: {message}"


def test_count_engine_limit(capsys):
    code, out, _ = run(capsys, "count", "--class", "general", "--labeling", "unlabeled",
                       "-n", "30", "-g", "2")
    assert code == 0
    assert int(out) == genfunc.closed_small_g(GENERAL_UNLABELED, 2, 30)[30]
    code, out, err = run(capsys, "count", "--class", "general", "--labeling", "unlabeled",
                         "-n", "31", "-g", "2")
    assert code == 3 and out == ""
    assert "series" in err


def test_table_csv_matches_golden(capsys):
    code, out, _ = run(capsys, "table", "--class", "general", "--labeling", "unlabeled",
                       "--max-n", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n," + ",".join(f"g{g}" for g in range(12)) + ",total"
    assert len(lines) == 13
    gold = golden.load_golden()["general-unlabeled"]
    row12 = lines[12].split(",")
    assert row12[0] == "12"
    assert [int(v) for v in row12[1:13]] == [gold[(12, g)] for g in range(12)]
    assert int(row12[13]) == gold[(12, "total")]


def test_table_csv_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--class", "simplex-tc", "--labeling", "unlabeled",
                       "--max-n", "9")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rebuilt = [",".join(header)]
    for line in lines[1:]:
        rebuilt.append(",".join(line.split(",")))
    assert "\n".join(rebuilt) == out.strip()


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--class", "general", "--labeling", "labeled",
                       "--max-n", "4", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert {"class": "general", "labeling": "labeled", "n": 3, "g": 1, "value": "21"} in records
    assert {"class": "general", "labeling": "labeled", "n": 4, "g": "total",
            "value": "723"} in records
    # values are strings, never numbers
    assert all(isinstance(r["value"], str) for r in records)
    # round trip: parse and re-emit
    assert json.loads(json.dumps(records)) == records


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "--class", "general", "--labeling", "unlabeled",
                       "--max-n", "1")
    assert code == 0
    assert out.strip().splitlines() == ["n,g0,total", "1,1,1"]


def test_table_engine_limit(capsys):
    code, _, err = run(capsys, "table", "--class", "general", "--labeling", "labeled",
                       "--max-n", "40")
    assert code == 3
    assert "series" in err


def test_series_arbitrary(capsys):
    code, out, _ = run(capsys, "series", "--class", "general", "--labeling", "unlabeled",
                       "--mode", "arbitrary", "-N", "10")
    assert code == 0
    assert out.strip() == "1,2,8,43,255,1637,11004,76634,547539,3992150"


def test_series_fixed_g_labeled(capsys):
    code, out, _ = run(capsys, "series", "--class", "general", "--labeling", "labeled",
                       "--mode", "fixed-g", "-g", "1", "-N", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count-form: 0,2,21,228"
    assert lines[1] == "egf: 0,1,7/2,19/2"


def test_series_fixed_g_ladder_limit(capsys):
    argv = ("series", "--class", "general", "--labeling", "unlabeled", "--mode", "fixed-g")
    code, out, err = run(capsys, *argv, "-g", "31", "-N", "40")
    assert code == 3 and out == ""
    assert err.strip() == ("-g 31 exceeds the fixed-g ladder limit (30); "
                           "a -g at or past -N prints zeros")
    code, out, _ = run(capsys, *argv, "-g", "31", "-N", "31")  # g >= N builds no rung
    assert code == 0 and out.strip() == ",".join(["0"] * 31)
    code, out, _ = run(capsys, *argv, "-g", "3", "-N", "5")
    assert code == 0 and out.strip() == "0,0,0,5,76"


def test_series_bivariate(capsys):
    code, out, _ = run(capsys, "series", "--class", "simplex-tc", "--labeling", "unlabeled",
                       "--mode", "bivariate", "-N", "5")
    assert code == 0
    assert "n=5: 3,11,1" in out


def test_series_bivariate_max_g(capsys):
    argv = ("series", "--class", "general", "--labeling", "unlabeled",
            "--mode", "bivariate", "-N", "4", "--max-g")
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0
    assert out.splitlines() == ["n=1: 1", "n=2: 1", "n=3: 1", "n=4: 2"]
    code, out, _ = run(capsys, *argv, "2")
    assert code == 0
    assert out.splitlines()[-1] == "n=4: 2,16,20"  # g = 3 (5) is past the cap, not 0
    code, _, err = run(capsys, *argv, "-1")
    assert code == 2 and "--max-g" in err


def test_series_usage(capsys):
    code, _, _ = run(capsys, "series", "--class", "general", "--labeling", "unlabeled",
                     "--mode", "fixed-g", "-N", "5")
    assert code == 2


def test_asym_constants(capsys):
    code, out, _ = run(capsys, "asym", "constants")
    assert code == 0
    lines = dict(l.split() for l in out.strip().splitlines())
    assert abs(float(lines["rho"]) - 0.40270) < 5e-6
    assert abs(float(lines["gamma"]) - 1.13003) < 5e-6
    assert float(lines["residual"]) < 1e-9


def test_asym_charsys(capsys):
    code, out, _ = run(capsys, "asym", "charsys", "--family", "simplex-unlabeled")
    assert code == 0
    vals = dict(l.split() for l in out.strip().splitlines() if len(l.split()) == 2)
    assert abs(float(vals["r"]) - 0.2344) < 5e-4
    assert abs(float(vals["delta"]) - 0.38353) < 5e-4


def test_asym_charsys_truncation_error(capsys):
    # the residuals cannot see truncation error; the N versus N // 2 estimate can
    from galledtrees import asym

    code, out, _ = run(capsys, "asym", "charsys", "--family", "general-unlabeled",
                       "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2].startswith("residuals ")
    name, value = lines[-1].split()
    assert name == "truncation-error"
    fam = asym.CharFamily.GENERAL_UNLABELED
    true_error = abs(asym.solve_charsys(fam, 3).delta - asym.solve_charsys(fam, 50).delta)
    assert float(value) >= true_error > 0
    assert max(float(v) for v in lines[-2].split()[1:]) < true_error
    # at order 1 there is no lower order to compare with
    code, out, _ = run(capsys, "asym", "charsys", "--family", "general-unlabeled",
                       "--order", "1")
    assert code == 0 and out.strip().splitlines()[-1] == "truncation-error inf"


def test_asym_charsys_replicated(capsys):
    code, out, _ = run(capsys, "asym", "charsys", "--family", "simplex-unlabeled",
                       "--replicate-reported")
    vals = dict(l.split() for l in out.strip().splitlines() if len(l.split()) == 2)
    assert code == 0 and abs(float(vals["delta"]) - 0.3846) < 5e-4


def test_asym_charsys_replicated_refuses_other_families(capsys):
    for fam in ("general-unlabeled", "simplex-labeled", "time-consistent-labeled"):
        code, out, err = run(capsys, "asym", "charsys", "--family", fam, "--replicate-reported")
        assert code == 2 and out == "" and "--replicate-reported" in err, fam


def test_asym_ratio(capsys):
    code, out, _ = run(capsys, "asym", "ratio", "--class", "general", "--labeling",
                       "labeled", "-g", "1", "-n", "300")
    assert code == 0
    ratio = float(out.split()[1])
    assert abs(ratio - 1) < 0.1


def test_asym_ratio_two_terms(capsys):
    argv = ("asym", "ratio", "--class", "general", "--labeling", "labeled", "-g", "1", "-n", "200")
    _, plain, _ = run(capsys, *argv)
    code, one, _ = run(capsys, *argv, "--terms", "1")
    assert code == 0 and one == plain
    code, two, _ = run(capsys, *argv, "--terms", "2")
    assert code == 0 and two.startswith("ratio ")
    # the second term of the singular expansion brings the estimate closer
    assert abs(float(two.split()[1]) - 1) < abs(float(one.split()[1]) - 1)


def test_asym_ratio_terms_refusals(capsys):
    for terms in ("0", "3"):
        code, out, err = run(capsys, "asym", "ratio", "-g", "1", "-n", "50", "--terms", terms)
        assert code == 2 and out == "" and "--terms" in err
    # the time-consistent class answers, and like the others is refused only
    # where its two-term estimate is not positive (a = -7.98 labeled and
    # -9.01 unlabeled at g = 2)
    for labeling, a in (("unlabeled", "a = -9.013197"), ("labeled", "a = -7.976042")):
        argv = ("asym", "ratio", "--class", "time-consistent", "--labeling", labeling, "-n", "50")
        code, out, _ = run(capsys, *argv, "-g", "1", "--terms", "2")
        assert code == 0 and float(out.split()[1]) > 0
        code, out, err = run(capsys, *argv, "-g", "2", "--terms", "2")
        assert code == 4 and out == "" and a in err
    # a = -5.32 for labeled simplex at g = 2, so 1 + a / sqrt(n) <= 0 up to
    # n = 28, also at n = 3, where no such network exists
    argv = ("asym", "ratio", "--class", "simplex-tc", "--labeling", "labeled", "-g", "2")
    for n in ("3", "10", "28"):
        code, out, err = run(capsys, *argv, "-n", n, "--terms", "2")
        assert code == 4 and out == "", n
        assert "a = -5.317362" in err and f"n = {n}" in err
    code, out, _ = run(capsys, *argv, "-n", "29", "--terms", "2")
    assert code == 0 and float(out.split()[1]) > 0
    code, out, _ = run(capsys, *argv, "-n", "10")  # the one-term ratio stays served
    assert code == 0 and float(out.split()[1]) > 0


def test_asym_ratio_of_a_zero_count(capsys):
    for cls, n in (("general", "2"), ("simplex-tc", "3")):
        code, out, err = run(capsys, "asym", "ratio", "--class", cls, "--labeling",
                             "unlabeled", "-g", "2", "-n", n)
        assert (code, out, err) == (0, "ratio 0.000000\n", "")


def test_asym_ratio_refuses_n_below_two(capsys):
    for labeling in ("unlabeled", "labeled"):
        for n in ("1", "0", "-1"):
            code, out, err = run(capsys, "asym", "ratio", "--class", "general", "--labeling",
                                 labeling, "-g", "1", "-n", n)
            assert code == 2 and out == "" and "-n >= 2" in err, (labeling, n)


def test_asym_estimate(capsys):
    code, out, _ = run(capsys, "asym", "estimate", "--class", "general", "--labeling",
                       "unlabeled", "-g", "1", "-n", "100")
    assert code == 0 and out.startswith("log-estimate")


def test_asym_estimate_of_time_consistent_is_the_general_one(capsys):
    for labeling in ("unlabeled", "labeled"):
        argv = ("asym", "estimate", "--labeling", labeling, "-g", "1", "-n", "100")
        code, out, err = run(capsys, *argv, "--class", "time-consistent")
        assert code == 0 and err == "" and out.startswith("log-estimate")
        assert run(capsys, *argv, "--class", "general") == (0, out, "")


def test_asym_ratio_refuses_an_unlabeled_order_past_the_limit(capsys, monkeypatch):
    # refused before any series is built; the labeled reads are not bounded
    monkeypatch.setattr(genfunc, "_base_and_inverse", lambda order: pytest.fail("built"))
    for extra in (("-n", "8001"), ("-n", "100", "--order", "8001")):
        code, out, err = run(capsys, "asym", "ratio", "--class", "general", "--labeling",
                             "unlabeled", "-g", "2", *extra)
        assert code == 3 and out == "" and "8001" in err and "limit (8000)" in err, extra
    code, out, _ = run(capsys, "asym", "ratio", "--class", "general", "--labeling", "labeled",
                       "-g", "1", "-n", "8001")
    assert code == 0 and out.startswith("ratio ")


def test_verify_scopes(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "tables")
    assert code == 0
    assert "4 tables, 0 mismatches" in out
    code, out, _ = run(capsys, "verify", "--scope", "bijections")
    assert code == 0


def test_verify_caps_the_bijection_slices_at_galled_max_n(capsys, monkeypatch):
    # the slices are checked against the oracle, which refuses n past its cap
    _, out, _ = run(capsys, "verify", "--scope", "bijections")
    assert "constructive maps to n=7, 0 mismatches" in out
    monkeypatch.setenv("GALLED_MAX_N", "6")
    code, out, err = run(capsys, "verify", "--scope", "bijections")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "bijections: identities to n=12 and constructive maps to n=6 "
        "(capped by GALLED_MAX_N), 0 mismatches",
        "PASS",
    ]
    code, out, _ = run(capsys, "verify", "--scope", "oracle")
    assert code == 0 and "(n <= 6), 0 mismatches" in out


@pytest.mark.parametrize("raw", ["x", "0"])
@pytest.mark.parametrize("scope", ["oracle", "bijections", "all"])
def test_verify_refuses_a_malformed_galled_max_n(capsys, monkeypatch, raw, scope):
    monkeypatch.setenv("GALLED_MAX_N", raw)
    code, out, err = run(capsys, "verify", "--scope", scope)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"GALLED_MAX_N must be a positive integer, got {raw!r}"]


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--scope", "tables")
    _, out2, _ = run(capsys, "verify", "--scope", "tables")
    assert out1 == out2


def test_golden_loader_shape():
    gold = golden.load_golden()
    assert set(gold) == set(golden.TABLE_SPECS)
    assert gold["general-unlabeled"][(5, 2)] == 113
    assert gold["simplex-unlabeled"][(25, "total")] == 4911122651176
    assert gold["general-labeled"][(12, "total")] == 43626178967384475
    assert gold["simplex-labeled"][(15, 7)] == 4382752374000


def test_asym_order_below_one_is_a_usage_error(capsys):
    tasks = (
        ("constants",),
        ("charsys", "--family", "general-unlabeled"),
        ("estimate", "-g", "1", "-n", "100"),
        ("ratio", "-g", "1", "-n", "50"),
    )
    for task in tasks:
        for order in ("0", "-3"):
            code, out, err = run(capsys, "asym", *task, "--order", order)
            assert code == 2 and out == "" and "--order" in err, (task, order)


def test_asym_order_is_honoured(capsys):
    from galledtrees import asym

    # the default stdout is that of the documented default orders
    for task, default in ((("constants",), "60"),
                          (("charsys", "--family", "simplex-labeled"), "25"),
                          (("estimate", "-g", "2", "-n", "100"), "60"),
                          (("ratio", "-g", "1", "-n", "50"), "50")):
        _, plain, _ = run(capsys, "asym", *task)
        _, explicit, _ = run(capsys, "asym", *task, "--order", default)
        assert plain == explicit, task
    # estimate reads --order: the unlabeled constants refuse orders below 40
    code, out, err = run(capsys, "asym", "estimate", "-g", "1", "-n", "100", "--order", "39")
    assert code == 4 and out == "" and "order >= 40" in err
    code, out, _ = run(capsys, "asym", "estimate", "-g", "1", "-n", "100", "--order", "45")
    assert code == 0
    log_est = asym.estimate_log(GENERAL_UNLABELED, 1, 100, order=45)
    assert out.splitlines()[0] == f"log-estimate {log_est:.6f}"
    # ratio reads it too: an order below n cannot give the count at n
    for labeling in ("unlabeled", "labeled"):
        code, out, err = run(capsys, "asym", "ratio", "--labeling", labeling, "-g", "1", "-n", "50",
                             "--order", "49")
        assert code == 4 and out == "" and "below requested n" in err, labeling


# Every CLI call imports galledtrees.cli, so the import stays lean: no
# dataclasses (which pulls in inspect, ast, dis and tokenize) and no
# importlib.resources (pathlib, tempfile, shutil, ...) until the golden CSV is
# read.  Run with -S in a fresh interpreter, since a site hook may preload them.
_LEAN_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import galledtrees.cli
loaded = sorted({"dataclasses", "inspect", "importlib.resources"} & set(sys.modules))
from galledtrees import golden
tables = golden.load_golden()
print(json.dumps([loaded, sorted(tables), tables["general-unlabeled"][(5, 2)]]))
"""


def test_cli_import_leaves_dataclasses_inspect_and_resources_out():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    got = subprocess.run([sys.executable, "-S", "-c", _LEAN_IMPORT, src],
                         capture_output=True, text=True, check=True)
    loaded, names, cell = json.loads(got.stdout)
    assert loaded == []
    assert names == sorted(golden.TABLE_SPECS) and cell == 113


def test_value_records_are_named_tuples_with_their_repr():
    from galledtrees.asym import (
        AsymptoticEstimate, CharFamily, CharSysSolution, SingularConstants,
    )

    sol = CharSysSolution(CharFamily.GENERAL_LABELED, 0.25, 0.5, None, 1.5, 2.0, 0.75, 25)
    records = {
        GENERAL_UNLABELED: "TreeClassSpec(network_class=<NetworkClass.GENERAL: 'general'>, "
                           "labeling=<Labeling.UNLABELED: 'unlabeled'>)",
        SingularConstants(0.25, 1.5, 60): "SingularConstants(rho=0.25, gamma=1.5, truncation_n=60)",
        AsymptoticEstimate(-1.5, -1.5, 0.5, True): "AsymptoticEstimate(log_constant=-1.5, "
        "poly_exponent=-1.5, log_base=0.5, includes_factorial=True)",
        sol: "CharSysSolution(family=<CharFamily.GENERAL_LABELED: 'general-labeled'>, r=0.25, "
             "s=0.5, b=None, phi_t=1.5, phi_ww=2.0, delta=0.75, truncation_n=25, mode=None, "
             "replicate_reported=False)",
    }
    for record, text in records.items():
        assert repr(record) == text
        assert record == tuple(record) and hash(record) == hash(tuple(record))
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
