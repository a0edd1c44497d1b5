import json
import math
import os
import signal
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import nubes
from nubes import bounds, chaos, cli, empirical, expfun, sampling
from oracles import csv_bytes, expfun_moments_mp
from test_sampling import no_child_left, no_fork, recording_pool


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestParseConfig:
    def test_stein_check_flags(self):
        cfg = cli.parse_config(
            ["stein-check", "--z-min", "-6", "--z-max", "6", "--z-count", "49", "--output", "x.csv"]
        )
        assert cfg["scenario"] == "stein-check"
        assert cfg["z-min"] == -6.0 and cfg["z-max"] == 6.0 and cfg["z-count"] == 49
        assert cfg["format"] == "csv"

    def test_chaos_compare_flags(self):
        cfg = cli.parse_config(
            ["chaos-compare", "--q", "2", "--alphas", "1", "--samples", "1000000",
             "--seed", "42", "--c-q", "1", "--output", "y.csv"]
        )
        assert cfg["scenario"] == "chaos-compare"
        assert cfg["q"] == 2 and cfg["samples"] == 1_000_000 and cfg["seed"] == 42
        assert cfg["c-q"] == 1.0

    def test_zero_z_count_rejected(self):
        with pytest.raises(cli.UsageError, match="z-count"):
            cli.parse_config(["chaos-compare", "--z-count", "0", "--output", "x.csv"])

    def test_missing_output_rejected(self):
        with pytest.raises(cli.UsageError, match="output"):
            cli.parse_config(["bound-only", "--discrepancy", "1.0"])

    def test_bad_format_rejected(self):
        with pytest.raises(cli.UsageError, match="format"):
            cli.parse_config(["stein-check", "--output", "x", "--format", "xml"])

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 7, "samples": 500, "alphas": [3, 4]}))
        cfg = cli.parse_config(
            ["chaos-compare", "--config", str(cfg_path), "--seed", "9", "--output", "o.csv"]
        )
        assert cfg["seed"] == 9  # flag wins
        assert cfg["samples"] == 500  # file value survives
        assert cli._parse_alphas(cfg["alphas"]) == (3.0, 4.0)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zmin": -1}))
        with pytest.raises(cli.UsageError, match="zmin"):
            cli.parse_config(["chaos-compare", "--config", str(cfg_path), "--output", "o.csv"])

    def test_malformed_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        for text in (b"{not json", b"\xff{}"):  # the second is not UTF-8
            cfg_path.write_bytes(text)
            with pytest.raises(cli.UsageError, match="JSON"):
                cli.parse_config(["chaos-compare", "--config", str(cfg_path), "--output", "o.csv"])

    def test_integral_float_accepted(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"samples": 1e6, "seed": 3.0}')
        cfg = cli.parse_config(["chaos-compare", "--config", str(cfg_path), "--output", "o.csv"])
        assert cfg["samples"] == 1_000_000 and cfg["seed"] == 3

    def test_bad_alphas_rejected(self):
        with pytest.raises(cli.UsageError, match="alphas"):
            cli.parse_config(["chaos-compare", "--alphas", "1,banana", "--output", "o.csv"])

    def test_scenario_required(self):
        assert run_cli([]) == 1


@pytest.mark.parametrize(
    "file_cfg, key",
    [
        ({"seed": True}, "seed"),
        ({"z-min": False}, "z-min"),
        ({"seed": 1.7}, "seed"),
        ({"samples": 2.9}, "samples"),
        ({"output": None}, "output"),
        ({"tail": 3}, "tail"),
        ({"alphas": [True, 2]}, "alphas"),
        ({"alphas": ["1", "x"]}, "alphas"),
        ({"z-min": "abc"}, "z-min"),
    ],
    ids=["bool-for-int", "bool-for-float", "fraction-for-int-seed", "fraction-for-int-samples",
         "null-for-string", "number-for-string", "bool-in-alphas", "string-in-alphas", "string-for-float"],
)
def test_config_value_of_wrong_kind_rejected(file_cfg, key, tmp_path, capsys, monkeypatch):
    # the flag converters would silently truncate or stringify these
    monkeypatch.chdir(tmp_path)  # where {"output": null} would write a file named None
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(file_cfg))
    args = ["chaos-compare", "--config", cfg_path, "--samples", "10"]
    if key != "output":
        args += ["--output", tmp_path / "x.csv"]
    assert run_cli(args) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "None").exists()


class TestSteinCheckScenario:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "stein.csv"
        code = run_cli(
            ["stein-check", "--z-min", "-2", "--z-max", "2", "--z-count", "5",
             "--x-min", "-4", "--x-max", "4", "--x-count", "41", "--output", out]
        )
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF line endings only
        lines = raw.decode().splitlines()
        assert lines[0] == "z,x,f,f_prime,ode_residual,lemma_flags"
        assert len(lines) == 1 + 5 * 41
        first = lines[1].split(",")
        assert float(first[0]) == -2.0 and float(first[1]) == -4.0
        # shortest-repr round trip
        assert repr(float(first[2])) == first[2]
        # z > 0 rows carry the three flag bits
        flagged = [ln for ln in lines[1:] if ln.endswith("111")]
        assert flagged

    def test_json_parameters(self, tmp_path):
        out = tmp_path / "stein.json"
        assert run_cli(["stein-check", "--z-count", "2", "--x-count", "3", "--format", "json", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert list(payload["parameters"]) == ["z-min", "z-max", "z-count", "x-min", "x-max", "x-count"]

    def test_residual_column_small(self, tmp_path):
        out = tmp_path / "stein.csv"
        run_cli(["stein-check", "--z-count", "3", "--x-count", "101", "--output", out])
        rows = out.read_text().splitlines()[1:]
        assert all(abs(float(r.split(",")[4])) <= 1e-9 for r in rows)

    def test_extreme_grid_is_finite(self, tmp_path):
        # the squares in the seam exponent and the envelope overflow at 1e200
        out = tmp_path / "stein.csv"
        argv = ["stein-check", "--z-min", "-1e200", "--z-max", "1e200", "--z-count", "3",
                "--x-min", "-1e200", "--x-max", "1e200", "--x-count", "3", "--output", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert len(rows) == 9 and all(math.isfinite(float(v)) for r in rows for v in r[2:5])


class TestChaosCompareScenario:
    def test_exact_tail_run(self, tmp_path):
        out = tmp_path / "chaos.csv"
        code = run_cli(
            ["chaos-compare", "--q", "2", "--alphas", "1", "--samples", "4000",
             "--seed", "5", "--z-count", "41", "--output", out]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,empirical_cdf,normal_cdf,discrepancy,se,bound,uniform_bound,violated"
        assert len(lines) == 42
        assert all(ln.split(",")[-1] in ("0", "1") for ln in lines[1:])

    def test_markov_requires_moment(self, tmp_path, capsys):
        code = run_cli(
            ["chaos-compare", "--tail", "markov", "--samples", "100", "--output", tmp_path / "x.csv"]
        )
        assert code == 1
        assert "markov-moment" in capsys.readouterr().err

    def test_exact_tail_needs_rank_one(self, tmp_path, capsys):
        code = run_cli(
            ["chaos-compare", "--alphas", "1,1", "--samples", "100", "--output", tmp_path / "x.csv"]
        )
        assert code == 1
        assert "rank-one" in capsys.readouterr().err

    def test_tiny_major_constant_violates(self, tmp_path):
        # an absurdly small c_q drives the bound below the true discrepancy
        out = tmp_path / "violate.csv"
        code = run_cli(
            ["chaos-compare", "--tail", "major", "--c-q", "1e-12", "--samples", "50000",
             "--seed", "1", "--output", out]
        )
        assert code == 2
        assert any(ln.endswith(",1") for ln in out.read_text().splitlines()[1:])


    def test_csv_cells_match_json_values(self, tmp_path):
        # the two writers serialize the same table: floats by repr, booleans as 1/0
        base = ["chaos-compare", "--tail", "major", "--c-q", "1e-3", "--samples", "20000",
                "--seed", "2", "--z-count", "41"]
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert run_cli(base + ["--output", csv_out]) == 2
        assert run_cli(base + ["--format", "json", "--output", json_out]) == 2
        header, *lines = csv_out.read_text().splitlines()
        payload = json.loads(json_out.read_text())
        assert header.split(",") == payload["columns"]
        assert len(lines) == len(payload["rows"])
        for line, row in zip(lines, payload["rows"]):
            expected = [("1" if v else "0") if isinstance(v, bool) else repr(float(v)) for v in row]
            assert line.split(",") == expected
        assert {row[-1] for row in payload["rows"]} == {True, False}


class TestExpfunCompareScenario:
    def test_small_run(self, tmp_path):
        out = tmp_path / "ef.json"
        code = run_cli(
            ["expfun-compare", "--t", "0.05", "--samples", "2000", "--n-steps", "50",
             "--z-count", "21", "--seed", "3", "--format", "json", "--output", out]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["scenario"] == "expfun-compare"
        assert payload["columns"][0] == "z"
        assert len(payload["rows"]) == 21
        assert payload["summary"]["violations"] == 0
        assert "discretization" in payload["summary"]["note"]
        assert "output" not in payload["parameters"]


class TestBoundOnlyScenario:
    def test_markov_curve(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run_cli(
            ["bound-only", "--discrepancy", "1.4142135623730951", "--tail", "markov",
             "--markov-p", "6", "--markov-moment", "755", "--z-count", "11", "--output", out]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,tail_term,gaussian_term,bound,uniform_bound"
        assert len(lines) == 12

    def test_uniform_bound_adds_mean_abs(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli(["bound-only", "--discrepancy", "1.1", "--mean-abs", "0.2", "--z-count", "5",
                        "--format", "json", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["uniform_bound"] == 0.2 + 1.1
        assert {row[-1] for row in payload["rows"]} == {0.2 + 1.1}

    def test_requires_discrepancy(self):
        assert run_cli(["bound-only", "--output", "x.csv"]) == 1

    def test_exact_tail_far_out(self, tmp_path):
        # P(|F| > 100) of F = (N^2 - 1)/sqrt(2) is 7.9e-33; 1 - cdf(x) + cdf(-x) read 0 from |z| = 97.
        # Every |z| here is >= 66.7, so P(|F| > x) = P(|N| > sqrt(1 + sqrt2 x)).
        out = tmp_path / "b.json"
        assert run_cli(["bound-only", "--discrepancy", "1", "--tail", "exact", "--z-min", "-200",
                        "--z-max", "200", "--z-count", "4", "--format", "json", "--output", out]) == 0
        rows = json.loads(out.read_text())["rows"]
        with mpmath.workdps(50):
            for z, tail_term, _, bound, _ in rows:
                want = mpmath.erfc(mpmath.sqrt((1 + mpmath.sqrt(2) * abs(z) / 2) / 2))
                assert tail_term > 0.0 and bound > 0.0
                assert abs(tail_term / want - 1) <= 1e-12, z

    def test_expfun_tail(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run_cli(
            ["bound-only", "--discrepancy", "1.0", "--tail", "expfun", "--a", "0",
             "--t", "0.1", "--z-count", "7", "--output", out]
        )
        assert code == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["bound-only", "--discrepancy", "-1"], "stein_discrepancy"),
        (["bound-only", "--discrepancy", "1", "--mean-abs", "-0.5"], "mean_abs"),
        (["expfun-compare", "--t", "0", "--samples", "10"], "t must be > 0"),
        (["expfun-compare", "--n-steps", "1", "--samples", "10"], "n_steps"),
        (["chaos-compare", "--q", "80", "--tail", "unit", "--samples", "10"], "q=80"),
        (["chaos-compare", "--q", "171", "--tail", "unit", "--samples", "10"], "q=171"),
        (["bound-only", "--discrepancy", "1", "--tail", "expfun", "--t", "1000"], "a=0.0, t=1000.0"),
        (["expfun-compare", "--t", "100", "--samples", "10", "--n-steps", "10"], "a=0.0, t=100.0"),
        (["expfun-compare", "--t", "1e-120", "--samples", "10", "--n-steps", "10"], "a=0.0, t=1e-120 underflow"),
        (["expfun-compare", "--t", "1e-30", "--samples", "100", "--n-steps", "10"],
         "t=1e-30 is below the float64 resolution of F_t"),
    ],
    ids=["discrepancy", "mean-abs", "t", "n-steps", "chaos-fourth-moment-overflow", "chaos-variance-overflow",
         "expfun-moments-overflow", "expfun-rate-overflow", "expfun-variance-underflow",
         "expfun-below-float-resolution"],
)
def test_library_validation_reaches_the_user(args, message, tmp_path, capsys):
    # the CLI leaves these ranges to the library and reports its error on one line
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--output", out]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("nubes: error") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "a, t",
    [(-0.5, 1e-5), (0.0, 1e-6), (0.0, 0.05), (0.0, 1e-7)],
    ids=["coincident-nodes", "tiny-t", "expfun-paths-t", "counts-of-0-or-n"],
)
def test_expfun_summary_moments_match_mpmath(a, t, tmp_path):
    # the moments in the summary are those of the closed forms at 40+ digits,
    # also at a = -1/2 where m_t and sigma_t^2 have coincident nodes; at t = 1e-7,
    # 100 paths leave P_hat at 0 or 1 where the normal tail is 0.005-0.011, and
    # the SE of one sample there flags nothing
    out = tmp_path / "ef.json"
    args = ["expfun-compare", "--a", a, "--t", t, "--samples", "100", "--n-steps", "10", "--format", "json"]
    assert run_cli(args + ["--output", out]) == 0
    summary = json.loads(out.read_text())["summary"]
    m, s2 = expfun_moments_mp(a, t)
    assert abs(summary["m_t"] / m - 1.0) <= 1e-14
    assert abs(summary["sigma2_t"] / s2 - 1.0) <= 1e-14


@pytest.mark.parametrize("t", [1e-46, 1e-50, 1e-60, 1e-100])
def test_expfun_uniform_bound_at_tiny_t(t, tmp_path, capsys):
    # sqrt(4 t^7 e^{8t})/sigma_t^2 is near 6 sqrt(t); t^7 and sigma_t^4 underflow
    # while sigma_t^2 is still a normal float.  expfun-compare rejects these t,
    # whose samples float64 cannot resolve, so the summary's uniform bound is
    # read from the library
    args = ["expfun-compare", "--t", t, "--samples", "100", "--n-steps", "10", "--output", tmp_path / "ef.json"]
    assert run_cli(args) == 1 and "below the float64 resolution" in capsys.readouterr().err
    params = expfun.ExpFunParams(a=0.0, t=t)
    m = expfun.moments(params)
    uniform_bound = math.sqrt(expfun.discrepancy_sq_upper(params, m))
    with mpmath.workdps(50):
        t_mp = mpmath.mpf(t)
        want = mpmath.sqrt(4 * t_mp**7 * mpmath.exp(8 * t_mp)) / mpmath.mpf(m.sigma2_t)
        assert abs(uniform_bound / want - 1) <= 2e-15


def test_expfun_tail_at_small_t(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli(["bound-only", "--discrepancy", "1", "--tail", "expfun", "--t", "1e-7", "--output", out]) == 0
    rows = [list(map(float, r.split(","))) for r in out.read_text().splitlines()[1:]]
    assert rows and all(0.0 <= v < math.inf for r in rows for v in r[1:])


@pytest.mark.parametrize(
    "args",
    [
        ["expfun-compare", "--samples", "2000", "--n-steps", "20"],
        ["bound-only", "--discrepancy", "1", "--tail", "expfun"],
    ],
    ids=["expfun-compare", "bound-only"],
)
def test_expfun_bounds_at_huge_z_warn_nothing(args, tmp_path):
    # z^2 overflows past |z| ~ 1.3e154, where the terms it enters are 0
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(args + ["--z-min=-1e300", "--z-max", "1e300", "--z-count", "3", "--output", out]) == 0
    header, *rows = out.read_text().splitlines()
    bound = header.split(",").index("bound")
    assert [float(r.split(",")[bound]) for r in rows][::2] == [0.0, 0.0]


@pytest.mark.parametrize(
    "args, file_cfg, name",
    [
        (["bound-only", "--discrepancy", "1", "--seed", "1"], None, "--seed"),
        (["stein-check"], {"slack-k": 2}, "slack-k"),
    ],
    ids=["bound-only-seed-flag", "stein-check-slack-k-key"],
)
def test_sampling_options_only_where_sampling_happens(args, file_cfg, name, tmp_path, capsys):
    # seed, samples and slack-k belong to chaos-compare and expfun-compare
    if file_cfg is not None:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(file_cfg))
        args = args + ["--config", cfg_path]
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--output", out]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


COMPARE_COLUMNS = "z,empirical_cdf,normal_cdf,discrepancy,se,bound,uniform_bound,violated"


@pytest.mark.parametrize(
    "args, parameters, columns, summary",
    [
        (["stein-check", "--z-count", "2", "--x-count", "3"],
         "z-min,z-max,z-count,x-min,x-max,x-count",
         "z,x,f,f_prime,ode_residual,lemma_flags",
         "all_envelope_checks_ok"),
        (["chaos-compare", "--samples", "100", "--z-count", "3"],
         "seed,samples,z-min,z-max,z-count,slack-k,q,alphas,tail,c-q,markov-p,markov-moment",
         COMPARE_COLUMNS,
         "fourth_moment,stein_discrepancy,uniform_bound,violations,sampling,numpy"),
        (["expfun-compare", "--samples", "100", "--n-steps", "10", "--z-count", "3"],
         "seed,samples,z-min,z-max,z-count,slack-k,a,t,n-steps",
         COMPARE_COLUMNS,
         "m_t,sigma2_t,n_steps,uniform_bound,violations,note,sampling,numpy"),
        (["bound-only", "--discrepancy", "1", "--z-count", "3"],
         "z-min,z-max,z-count,mean-abs,discrepancy,tail,q,c-q,markov-p,markov-moment,a,t",
         "z,tail_term,gaussian_term,bound,uniform_bound",
         "uniform_bound"),
        # negative values in exponent notation are values, not options
        (["bound-only", "--discrepancy", "1", "--z-min", "-1e3", "--z-count", "3"],
         "z-min,z-max,z-count,mean-abs,discrepancy,tail,q,c-q,markov-p,markov-moment,a,t",
         "z,tail_term,gaussian_term,bound,uniform_bound",
         "uniform_bound"),
        (["chaos-compare", "--alphas", "-1e-3,1", "--tail", "unit", "--samples", "100", "--z-count", "3"],
         "seed,samples,z-min,z-max,z-count,slack-k,q,alphas,tail,c-q,markov-p,markov-moment",
         COMPARE_COLUMNS,
         "fourth_moment,stein_discrepancy,uniform_bound,violations,sampling,numpy"),
        (["expfun-compare", "--a", "-1e-3", "--samples", "100", "--n-steps", "10", "--z-count", "3"],
         "seed,samples,z-min,z-max,z-count,slack-k,a,t,n-steps",
         COMPARE_COLUMNS,
         "m_t,sigma2_t,n_steps,uniform_bound,violations,note,sampling,numpy"),
    ],
    ids=["stein-check", "chaos-compare", "expfun-compare", "bound-only",
         "bound-only-z-min-exponent", "chaos-compare-alphas-exponent", "expfun-compare-a-exponent"],
)
def test_output_layout(args, parameters, columns, summary, tmp_path):
    # JSON keys are emitted in a documented order and CSV shares the JSON columns
    json_out, csv_out = tmp_path / "o.json", tmp_path / "o.csv"
    assert run_cli(args + ["--format", "json", "--output", json_out]) in (0, 2)
    assert run_cli(args + ["--output", csv_out]) in (0, 2)
    payload = json.loads(json_out.read_text())
    assert list(payload) == ["scenario", "parameters", "columns", "rows", "summary"]
    assert ",".join(payload["parameters"]) == parameters
    assert ",".join(payload["columns"]) == columns
    assert ",".join(payload["summary"]) == summary
    assert payload["summary"].get("numpy", np.__version__) == np.__version__
    assert csv_out.read_text().splitlines()[0] == columns


@pytest.mark.parametrize(
    "args, file_cfg, name",
    [
        (["chaos-compare", "--seed", "-1", "--samples", "10"], None, "seed"),
        (["expfun-compare", "--seed", "-1", "--samples", "10", "--n-steps", "10"], None, "seed"),
        (["chaos-compare", "--samples", "0"], None, "samples"),
        (["expfun-compare", "--samples", "0", "--n-steps", "10"], None, "samples"),
        (["chaos-compare", "--slack-k", "-1", "--samples", "10"], None, "slack-k"),
        (["stein-check", "--workers", "0"], None, "workers"),
        (["bound-only", "--discrepancy", "1", "--workers", "0"], None, "workers"),
        (["stein-check"], {"format": "xml"}, "format"),
        (["chaos-compare", "--tail", "expfun", "--samples", "10"], None, "tail"),
        (["bound-only", "--discrepancy", "1", "--tail", "empirical"], None, "tail"),
        (["chaos-compare", "--slack-k", "nan", "--samples", "10"], None, "slack-k"),
        (["bound-only", "--discrepancy", "1", "--z-max", "inf"], None, "z-max"),
        (["chaos-compare", "--z-min=-1e308", "--z-max", "1e308", "--samples", "10"], None,
         "--z-max minus --z-min overflows"),
        (["stein-check", "--x-max", "inf"], None, "x-max"),
        (["stein-check", "--x-min=-1e308", "--x-max", "1e308"], None, "--x-max minus --x-min overflows"),
        (["stein-check", "--x-count", "0"], None, "--x-count must be >= 1"),
        (["stein-check"], [1, 2], "must hold a JSON object"),
        (["stein-check", "--config", "."], None, "cannot read config file"),  # a directory
    ],
    ids=["chaos-seed", "expfun-seed", "chaos-samples", "expfun-samples", "slack-k", "stein-workers",
         "bound-workers", "format-key", "chaos-tail-expfun", "bound-tail-empirical", "slack-k-nan",
         "z-max-inf", "z-span-overflow", "x-max-inf", "x-span-overflow", "x-count-zero", "config-array",
         "config-directory"],
)
def test_rejection_names_the_flag(args, file_cfg, name, tmp_path, capsys):
    if file_cfg is not None:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(file_cfg))
        args = args + ["--config", cfg_path]
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nubes: error") and err.count("\n") == 1
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, name",
    [
        (["--tail", "markov"], "markov-moment"),
        (["--tail", "major"], "c-q"),
        (["--alphas", "1,1"], "rank-one"),
    ],
    ids=["markov-moment", "c-q", "exact-rank-one"],
)
def test_tail_requirements_checked_before_sampling(args, name, tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the tail requirements were checked")

    # every chunk of every sampler runs as this job, whatever the CLI reduces it to
    monkeypatch.setattr(sampling, "_run_chunk", no_sampling)
    with pytest.raises(AssertionError, match="sampled"):  # the patch is on the sampling path
        run_cli(["chaos-compare", "--samples", "100", "--output", tmp_path / "control.csv"])
    out = tmp_path / "x.csv"
    assert run_cli(["chaos-compare", *args, "--samples", "100", "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nubes: error") and err.count("\n") == 1
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["bound-only", "--discrepancy", "1", "--tail", "exact", "--q", "3"],
        ["chaos-compare", "--tail", "exact", "--q", "3", "--samples", "100"],
        ["chaos-compare", "--tail", "exact", "--alphas", "1,0.5", "--samples", "100"],
    ],
    ids=["bound-only-q3", "chaos-compare-q3", "chaos-compare-rank2"],
)
def test_exact_tail_only_for_the_rank_one_q2_law(args, tmp_path, capsys):
    # the exact tail is that of one law; another q or rank must not borrow it
    out = tmp_path / "x.csv"
    assert run_cli([*args, "--output", out]) == 1
    assert capsys.readouterr().err == (
        "nubes: error: --tail exact requires the rank-one q=2 chaos (--q 2 --alphas <one value>)\n"
    )
    assert not out.exists()


def test_chaos_compare_is_scale_invariant(tmp_path):
    # normalize divides by max|alpha| first, so the scale of the input cancels exactly
    outputs = []
    for alpha in ("1e-200", "1", "1e200"):
        out = tmp_path / f"{alpha}.csv"
        assert run_cli(["chaos-compare", "--alphas", alpha, "--samples", "2000", "--z-count", "21",
                        "--output", out]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def _nan_chunk(rng, count, q, alphas):
    return np.full(count, np.nan)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_non_finite_sample_rejected(workers, tmp_path, capsys, monkeypatch):
    # the chunk job checks its samples before it counts them, in a pool worker too
    monkeypatch.setattr(chaos, "_sample_chunk", _nan_chunk)
    out = tmp_path / "x.csv"
    assert run_cli(["chaos-compare", "--samples", "300000", "--workers", workers, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err == "nubes: error in scenario chaos-compare: samples must be finite\n"
    assert not out.exists()


def _kill_own_worker(rng, count, q, alphas):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
def test_dead_worker_is_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(chaos, "_sample_chunk", _kill_own_worker)
    out = tmp_path / "x.csv"
    assert run_cli(["chaos-compare", "--samples", "300000", "--workers", "2", "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nubes: error in scenario chaos-compare: the worker sampling chunk ")
    assert err.endswith(" was killed by SIGKILL\n") and err.count("\n") == 1
    assert not out.exists()
    no_child_left()


def _in_memory_rows(zs, samples, bound, uniform):
    # the library route over the whole sample array: ECDF, discrepancy, certify
    ecdf = empirical.build_ecdf(samples)
    r = empirical.certify(empirical.discrepancy_curve(ecdf, zs), bound, k=3.0).rows
    columns = [r.z, r.empirical_cdf, r.normal_cdf, r.discrepancy, r.standard_error, r.bound,
               np.full(len(r), uniform), r.violated]
    return [list(row) for row in zip(*(c.tolist() for c in columns))]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_streamed_chaos_rows_equal_in_memory_rows(workers, tmp_path):
    out = tmp_path / "c.json"
    args = ["chaos-compare", "--q", "3", "--alphas", "1,0.5", "--tail", "empirical", "--samples", "300000",
            "--seed", "4", "--z-count", "41", "--format", "json", "--workers", workers, "--output", out]
    assert run_cli(args) == 0
    spec = chaos.normalize(chaos.DiagonalChaosSpec(q=3, alphas=(1.0, 0.5)))
    samples = chaos.sample_batch(spec, 300_000, seed=4)
    d = chaos.stein_discrepancy_upper(chaos.fourth_moment(spec), 3)
    zs = np.linspace(-8.0, 8.0, 41)
    inputs = bounds.BoundInputs(mean_abs=0.0, stein_discrepancy=d, tail=bounds.EmpiricalTail.from_samples(samples))
    expected = _in_memory_rows(zs, samples, bounds.evaluate_curve(inputs, zs).bounds, d)
    assert json.loads(out.read_text())["rows"] == expected


@pytest.mark.parametrize("workers", ["1", "2"])
def test_streamed_expfun_rows_equal_in_memory_rows(workers, tmp_path):
    out = tmp_path / "e.json"
    args = ["expfun-compare", "--a", "-1", "--t", "1", "--samples", "5000", "--n-steps", "20", "--seed", "6",
            "--z-count", "41", "--format", "json", "--workers", workers, "--output", out]
    assert run_cli(args) == 0
    params = expfun.ExpFunParams(a=-1.0, t=1.0)
    m = expfun.moments(params)
    f = expfun.sample_batch(params, 20, 5000, seed=6)
    zs = np.linspace(-5.0, 5.0, 41)
    uniform = math.sqrt(expfun.discrepancy_sq_upper(params, m))
    expected = _in_memory_rows(zs, expfun.standardize(f, m), expfun.clt_rate_bound(params, m, zs), uniform)
    assert json.loads(out.read_text())["rows"] == expected


def _run_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this nubes."""
    src = os.path.dirname(os.path.dirname(nubes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout


@pytest.mark.parametrize("workers", ["1", "2"])
def test_runtime_never_imports_scipy(workers):
    # the runtime needs numpy only; scipy is a test dependency.  The sampled
    # runs span several chunks, so at --workers 2 a pool does the sampling.
    runs = [["stein-check", "--z-count", "3", "--x-count", "21"],
            ["chaos-compare", "--samples", "300000", "--z-count", "11"],
            ["expfun-compare", "--samples", "10000", "--n-steps", "20", "--z-count", "11"],
            ["bound-only", "--discrepancy", "1", "--tail", "exact", "--z-count", "11"]]
    code = ("import os, sys\n"
            "from nubes import cli\n"
            f"for argv in {runs!r}:\n"
            f"    assert cli.main(argv + ['--workers', '{workers}', '--output', os.devnull]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _run_python(code).strip() == "[]"


def test_no_run_imports_numpy_ma_or_concurrent():
    # both cost 10-25 ms to import; np.unique imports numpy.ma.  The sampled
    # runs span several chunks, so at --workers 2 the pool does the sampling.
    runs = [["stein-check", "--z-count", "3", "--x-count", "21"],
            ["bound-only", "--discrepancy", "1", "--z-count", "11"],
            ["chaos-compare", "--samples", "300000", "--z-count", "11"],
            ["expfun-compare", "--samples", "10000", "--n-steps", "20", "--z-count", "11"]]
    code = ("import os, sys\n"
            "from nubes import cli\n"
            f"for argv in {runs!r}:\n"
            "    for workers in ('1', '2'):\n"
            "        for fmt in ('csv', 'json'):\n"
            "            argv_ = argv + ['--workers', workers, '--format', fmt, '--output', os.devnull]\n"
            "            assert cli.main(argv_) == 0, argv_\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'concurrent' or m.split('.')[:2] == ['numpy', 'ma']))\n")
    assert _run_python(code).strip() == "[]"


def _peak_rss_kib(samples: int) -> int:
    code = ("import resource, sys\n"
            "from nubes import cli\n"
            # in this process, where ru_maxrss sees it (a pool worker's memory is its own)
            f"assert cli.main(['chaos-compare', '--samples', '{samples}', '--workers', '1', "
            f"'--output', {os.devnull!r}]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    return int(_run_python(code))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_memory_does_not_grow_with_samples():
    # chunks are reduced to counts in their own jobs; holding 4e6 samples
    # (plus a sorted copy) would add about 64 MiB
    growth_kib = _peak_rss_kib(4_000_000) - _peak_rss_kib(100_000)
    assert growth_kib < 16 * 1024


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        args = ["chaos-compare", "--samples", "20000", "--seed", "11", "--z-count", "31"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", out1]) == 0
        assert run_cli(args + ["--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_invariance_json(self, tmp_path):
        base = ["expfun-compare", "--t", "0.05", "--samples", "3000", "--n-steps", "40",
                "--seed", "13", "--z-count", "11", "--format", "json"]
        out1, out3 = tmp_path / "w1.json", tmp_path / "w3.json"
        assert run_cli(base + ["--workers", "1", "--output", out1]) == 0
        assert run_cli(base + ["--workers", "3", "--output", out3]) == 0
        assert out1.read_bytes() == out3.read_bytes()


class TestDefaultWorkers:
    """--workers defaults to every usable CPU; --workers 1 samples in this process."""

    # three chunks each: 2^18 samples and 4,096 paths per chunk
    RUNS = {
        "chaos": ["chaos-compare", "--samples", "600000", "--seed", "5", "--z-count", "21"],
        "expfun": ["expfun-compare", "--t", "0.05", "--samples", "8193", "--n-steps", "20",
                   "--seed", "5", "--z-count", "21", "--format", "json"],
    }

    @pytest.fixture
    def sizes(self, monkeypatch):
        """Sizes of the pools started, which run in this process; two usable CPUs."""
        sizes = []
        monkeypatch.setattr(sampling, "_run_forked", recording_pool(sizes))
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        return sizes

    @pytest.mark.parametrize("scenario", sorted(RUNS))
    def test_default_pool_is_the_usable_cpu_count(self, scenario, tmp_path, sizes):
        assert run_cli(self.RUNS[scenario] + ["--output", tmp_path / "out"]) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("scenario", sorted(RUNS))
    def test_one_worker_starts_no_pool(self, scenario, tmp_path, sizes):
        assert run_cli(self.RUNS[scenario] + ["--workers", "1", "--output", tmp_path / "out"]) == 0
        assert sizes == []

    @pytest.mark.parametrize("scenario", sorted(RUNS))
    def test_default_and_one_worker_write_the_same_bytes(self, scenario, tmp_path):
        # a real pool on a host with more than one usable CPU
        default, one = tmp_path / "default", tmp_path / "one"
        assert run_cli(self.RUNS[scenario] + ["--output", default]) == 0
        assert run_cli(self.RUNS[scenario] + ["--workers", "1", "--output", one]) == 0
        assert default.read_bytes() == one.read_bytes()


class TestCsvBytes:
    """The CSV writer against the reference writer (tests/oracles.py) on the
    record array each scenario hands to `cli._write`."""

    @staticmethod
    def _written(args, tmp_path, monkeypatch):
        tables = []
        write = cli._write

        def spy(cfg, summary, rows):
            tables.append(rows)
            write(cfg, summary, rows)

        monkeypatch.setattr(cli, "_write", spy)
        out = tmp_path / "out.csv"
        assert run_cli(args + ["--output", out]) in (0, 2)
        return out.read_bytes(), tables[0]

    @pytest.mark.parametrize(
        "args",
        [
            # the Gaussian and tail terms underflow to subnormals and 0.0 here, which repr writes
            ["bound-only", "--discrepancy", "1.4142135623730951", "--tail", "exact",
             "--z-min", "-80", "--z-max", "80", "--z-count", "16001"],
            ["stein-check", "--z-count", "13", "--x-count", "401"],  # a string column
            ["chaos-compare", "--tail", "major", "--c-q", "1e-3", "--samples", "20000",
             "--seed", "2", "--z-count", "41"],  # a boolean column, with both values
            ["expfun-compare", "--t", "0.05", "--samples", "2000", "--n-steps", "50", "--z-count", "21"],
        ],
        ids=["bound-only-underflow", "stein-check", "chaos-compare", "expfun-compare"],
    )
    def test_scenario_bytes(self, args, tmp_path, monkeypatch):
        written, rows = self._written(args, tmp_path, monkeypatch)
        assert written == csv_bytes(rows)

    def test_fallback_cells_are_written(self, tmp_path, monkeypatch):
        args = ["bound-only", "--discrepancy", "1.4142135623730951", "--tail", "exact",
                "--z-min", "-80", "--z-max", "80", "--z-count", "16001"]
        _, rows = self._written(args, tmp_path, monkeypatch)
        gauss = rows["gaussian_term"]
        assert np.any(gauss == 0.0)
        assert np.any((gauss > 0.0) & (gauss < np.finfo(float).tiny))

    def test_every_column_kind(self, tmp_path):
        rows = np.rec.fromarrays(
            [np.array([1.5, -0.0, np.nan, 5e-324, 1e16]), np.array([3, -7, 0, 2**62, 10]),
             np.array([True, False, True, False, True]), np.array(["a", "", "héllo", "111", "x y"])],
            names="f,count,ok,label",
        )
        out = tmp_path / "kinds.csv"
        cli._write({"format": "csv", "output": str(out)}, {}, rows)
        assert out.read_bytes() == csv_bytes(rows)
        assert out.read_text(encoding="utf-8").splitlines()[2] == "-0.0,-7,0,"

    def test_empty_table(self, tmp_path):
        rows = np.rec.fromarrays([np.array([]), np.array([], dtype=bool)], names="z,violated")
        out = tmp_path / "empty.csv"
        cli._write({"format": "csv", "output": str(out)}, {}, rows)
        assert out.read_bytes() == b"z,violated\n"

    @pytest.mark.parametrize(
        "args",
        [["stein-check", "--z-count", "5", "--x-count", "101"],
         ["chaos-compare", "--samples", "5000", "--z-count", "21"],
         ["chaos-compare", "--samples", "5000", "--z-count", "21", "--format", "json"]],
        ids=["stein-check", "chaos-compare", "chaos-compare-json"],
    )
    def test_stdout_equals_file(self, args, tmp_path, capsysbinary):
        out = tmp_path / "out.csv"
        assert run_cli(args + ["--output", out]) == 0
        capsysbinary.readouterr()
        assert run_cli(args + ["--output", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "nubes", "stein-check", "--z-count", "2",
         "--x-count", "11", "--output", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("z,x,f,f_prime")
