import json
import math

import numpy as np
import pytest

from banachkit import cli
from banachkit.cli import build_parser, main
from banachkit.reports import SuiteReport
from banachkit.suites import SUITES, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_subcommand_prints_value(capsys):
    code, out, _ = run(capsys, "norm", "lorentz:2:1", "--vec", "1,1")
    assert code == 0
    assert out.strip() == "1.70711"


def test_norm_lp_and_gweak(capsys):
    code, out, _ = run(capsys, "norm", "lp:2", "--vec", "3,4")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "norm", "gweak:pow:0.5", "--vec", "2,2")
    assert code == 0
    assert float(out) == pytest.approx(2 * math.sqrt(2), rel=1e-4)


def test_usage_error_names_token(capsys):
    code, _, err = run(capsys, "norm", "bogus:2:2", "--vec", "1,1")
    assert code == 2
    assert "bogus" in err


def test_growth_subcommand(capsys):
    code, out, _ = run(capsys, "growth", "gweak:pow:0.5:64",
                       "--check", "S,L:2,M:2", "--tilde", "2:16", "--gq", "4:16")
    assert code == 0
    assert "S2=1" in out and "L_2=1" in out and "M_2=1" in out
    assert "tilde(2,16) = 4" in out
    assert "gq(4,16) = 2" in out


def test_growth_validation_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1.0\n2 0.5\n")
    code, out, _ = run(capsys, "growth", f"gweak:file:{path}:2")
    assert code == 1
    assert "violation" in out


def test_snum_and_eig(capsys, tmp_path):
    mat = tmp_path / "m.txt"
    np.savetxt(mat, np.diag([3.0, 2.0, 1.0]))
    code, out, _ = run(capsys, "snum", "--matrix-file", str(mat), "--domain", "lp:2:3")
    assert code == 0 and "approximation" in out and "3(exact)" in out
    code, out, _ = run(capsys, "eig", "--matrix-file", str(mat), "--domain", "lp:2:3",
                       "--growth", "gweak:pow:0.5:8")
    assert code == 0 and "moduli: 3, 2, 1" in out


def test_avg_summing_cotype_gauge(capsys):
    code, out, _ = run(capsys, "avg", "--space", "lp:2:4")
    assert code == 0 and out.startswith("2 ")
    code, out, _ = run(capsys, "summing", "--space", "lp:inf:4", "--n", "4", "--budget", "0")
    assert code == 0 and ">= 4" in out
    code, out, _ = run(capsys, "cotype", "--space", "lp:inf:2", "--n", "2", "--budget", "0")
    assert code == 0 and "1.41421" in out
    code, out, _ = run(capsys, "gauge", "--space", "lp:inf:3", "--tau", "1,1,1",
                       "--kind", "summing", "--budget", "4")
    assert code == 0 and "<= 1" in out


def test_pipeline_subcommand(capsys):
    code, out, _ = run(capsys, "pipeline", "--space", "lp:2:32", "--budget", "2",
                       "--samples", "2000")
    assert code == 0
    assert "verdict: all floors dominated" in out


def test_verify_contraction_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "contraction", "--seed", "7")
    assert code == 0
    assert "suite contraction: OK" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "nonsense" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    for name in ("norms", "pipeline", "eigen-decay", "main-theorem"):
        assert name in out


def test_report_json_and_csv(capsys, tmp_path):
    out_json = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "growth", "--seed", "3", "--out", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["suite"] == "growth" and doc["passed"]
    assert all("seed" in r for r in doc["records"])

    out_csv = tmp_path / "r.csv"
    code, _, _ = run(capsys, "verify", "growth", "--seed", "3",
                     "--format", "csv", "--out", str(out_csv))
    text = out_csv.read_text()
    assert text.splitlines()[0].startswith("suite,check,tier")
    assert "growth" in text


def test_tol_and_format_belong_to_verify(capsys):
    for argv in (["snum", "--domain", "lp:2:2", "--format", "csv"],
                 ["norm", "lp:2", "--vec", "1", "--tol", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # verify leaves the budget to each suite unless one is given; the
    # other subcommands keep their default of 32
    parser = build_parser()
    assert parser.parse_args(["verify", "norms"]).budget is None
    assert parser.parse_args(["verify", "norms", "--budget", "32"]).budget == 32
    assert parser.parse_args(["snum", "--domain", "lp:2:2"]).budget == 32


@pytest.mark.parametrize("argv", [["norm", "lp:2", "--vec", "3,4"],
                                  ["growth", "gweak:pow:0.5:8"],
                                  ["avg", "--space", "lp:2:4"]])
def test_budget_is_refused_where_no_search_runs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [["avg", "--space", "lp:2:4", "--variable", "gaussian"],
                                  ["pipeline", "--space", "lp:2:4"]])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sample_counts_below_one_are_usage_errors(capsys, argv, samples):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--samples", samples])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--samples" in err and "Traceback" not in err


def test_one_parser_serves_successive_calls(capsys, monkeypatch, tmp_path):
    report = tmp_path / "report.json"
    calls = [["summing", "--space", "lp:1.5:3", "--n", "2", "--budget", "2",
              "--out", str(report)],
             ["cotype", "--space", "lp:3:3", "--n", "2"],
             ["avg", "--space", "lp:1:3", "--samples", "500", "--variable", "gaussian"],
             ["norm", "bogus:2:2", "--vec", "1,1"],
             ["gauge", "--space", "lp:2:2", "--tau=1,1", "--budget", "1"],
             ["snum", "--domain", "lp:2:3"],
             ["summing", "--space", "lp:1.5:3", "--n", "2"]]

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", build_parser())
            report.unlink(missing_ok=True)
            seen.append((run(capsys, *argv), report.exists()))
        return seen

    fresh = outcomes(fresh=True)
    monkeypatch.setattr(cli, "_PARSER", build_parser())

    def rebuild():
        raise AssertionError("main built another parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    shared = outcomes(fresh=False)
    assert shared == fresh
    assert [code for (code, _, _), _ in shared] == [0, 0, 0, 2, 0, 0, 0]
    # --out only where it was given; --budget back at its default of 32
    assert [wrote for _, wrote in shared] == [True] + [False] * 6
    assert shared[-1][0] == run(capsys, *calls[-1], "--budget", "32")
    # the handler is looked up on each call, so a rebound one runs
    monkeypatch.setattr(cli, "cmd_norm", lambda args: 7)
    assert main(["norm", "lp:2", "--vec", "3,4"]) == 7


def test_reports_reproduce_bitwise_given_seed():
    a = run_suite("rademacher", seed=123)
    b = run_suite("rademacher", seed=123)
    da, db = a.to_dict(), b.to_dict()
    for ra, rb in zip(da["records"], db["records"]):
        ra.pop("runtime"), rb.pop("runtime")
    assert da == db


def test_check_records_carry_wall_clock_runtime():
    a, b = run_suite("norms", seed=0), run_suite("norms", seed=0)
    da, db = a.to_dict(), b.to_dict()
    runtimes = [r.pop("runtime") for r in da["records"]]
    for r in db["records"]:
        r.pop("runtime")
    assert da == db
    assert all(t >= 0 for t in runtimes) and sum(runtimes) > 0
    assert SuiteReport("demo", 0).check("timed", True, runtime=1.5).runtime == 1.5


def test_suite_registry_covers_spec_surfaces():
    for name in ("norms", "growth", "rademacher", "ell", "contraction",
                 "gauss-rademacher", "pi1", "eigen", "pi2-approx", "wc-bracket",
                 "equal-norm", "pipeline", "gauges", "classifier", "iterlog",
                 "eigen-decay", "main-theorem"):
        assert name in SUITES


def test_report_verdict_model():
    rep = SuiteReport("demo", 0)
    rep.check("a", True)
    rep.check("b", False, tier="OBSERVE")
    assert rep.passed  # observe-tier checks never fail the build
    rep.check("c", False)
    assert not rep.passed
