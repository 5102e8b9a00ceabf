"""Command-line interface: formats, values, determinism, error handling."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concomitant_measures import cli, cpi, empirical, inaccuracy
from concomitant_measures.cli import TABLE1_REFERENCE, TABLE2_REFERENCE, main
from concomitant_measures.marginals import MARGINAL_FAMILIES
from concomitant_measures.numerics import MeasureResult
from oracles import log_tilt_integral

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestMeasure:
    def test_inaccuracy_value(self, capsys):
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "os:r=1,n=3", "--alpha", "1", "--measure", "inaccuracy",
        )
        assert code == 0
        assert err == ""
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(0.75, abs=1e-12)
        assert rows[0]["method"] == "closed_form"

    def test_alpha_zero_gives_entropy_and_ce(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=2",
            "--gos", "os:r=2,n=5", "--alpha", "0",
        )
        assert code == 0
        rows = {r["measure"]: r for r in parse_csv(out)}
        assert set(rows) == {"inaccuracy", "reversed_inaccuracy", "cpi", "reversed_cpi", "bounds"}
        H = 1.0 + math.log(2.0)
        ce = (math.pi**2 / 6.0 - 1.0) * 2.0
        assert float(rows["inaccuracy"]["value"]) == pytest.approx(H, abs=1e-10)
        assert float(rows["reversed_inaccuracy"]["value"]) == pytest.approx(H, abs=1e-10)
        assert float(rows["cpi"]["value"]) == pytest.approx(ce, abs=1e-10)
        assert float(rows["reversed_cpi"]["value"]) == pytest.approx(ce, abs=1e-10)
        assert rows["bounds"]["value"] == "equal"

    def test_record_cpi_closed_form(self, capsys):
        # coeff = alpha (2^(1-2) - 1) = -0.5: 0.25 - 0.5 * 5/36
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "uniform:theta=1",
            "--gos", "record:r=2", "--alpha", "1", "--measure", "cpi",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(
            0.25 - 0.5 * 5.0 / 36.0, abs=1e-12
        )

    def test_csv_json_value_equality(self, capsys):
        argv = ["measure", "--marginal", "rayleigh:sigma=0.8", "--gos", "record:r=3",
                "--alpha", "-0.7"]
        code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        csv_rows = parse_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key, jval in j.items():
                if isinstance(jval, float):
                    assert float(c[key]) == jval  # identical at 15 significant digits
                else:
                    assert c[key] == ("" if jval is None else str(jval))

    def test_paper_precision_is_table_only(self, capsys):
        for argv in (["measure", "--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3", "--alpha", "0.33"],
                     ["simulate", "--marginal", "exponential:theta=1", "--gos", "record:r=2", "--alpha", "0.5",
                      "--n", "20", "--replicates", "100"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--paper-precision"])
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert captured.out == ""
            assert "unrecognized arguments: --paper-precision" in captured.err

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "exponential:thet=1",
            "--gos", "os:r=1,n=3", "--alpha", "1",
        )
        assert code == 2
        assert out == ""
        assert "unknown parameter 'thet'" in err

    @pytest.mark.parametrize("marginal, gos, repeated", [
        ("exponential:theta=1,theta=2", "os:r=1,n=3", "'theta' at position 20 in 'exponential:theta=1,theta=2'"),
        ("genexp:lam=1,lambda=2", "os:r=1,n=3", "'lam' at position 13 in 'genexp:lam=1,lambda=2'"),
        ("exponential:theta=1", "os:r=1,n=3,r=2", "'r' at position 11 in 'os:r=1,n=3,r=2'"),
    ])
    def test_repeated_spec_parameter_exit_2(self, capsys, marginal, gos, repeated):
        code, out, err = run_cli(
            capsys, "measure", "--marginal", marginal, "--gos", gos, "--alpha", "0.5",
        )
        assert (code, out) == (2, "")
        assert err == f"cmeasure: spec error: repeated parameter {repeated}\n"

    def test_all_is_not_a_measure_name(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["measure", "--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3",
                  "--alpha", "0.5", "--measure", "all"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'all'" in captured.err

    @pytest.mark.parametrize("marginal, gos", [
        ("exponential:theta=inf", "os:r=1,n=3"),
        ("exponential:theta=nan", "os:r=1,n=3"),
        ("exponential:theta=1", "r=1,n=3,m=inf,k=1"),
        ("exponential:theta=1", "r=inf,n=3"),
        ("exponential:theta=1", "record:r=inf"),
    ])
    def test_non_finite_spec_value_exit_2(self, capsys, marginal, gos):
        code, out, err = run_cli(
            capsys, "measure", "--marginal", marginal, "--gos", gos, "--alpha", "0.5",
        )
        assert code == 2
        assert out == ""
        assert "non-finite value" in err

    def test_large_n_does_not_hang(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "r=1,n=1e9", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        assert parse_csv(out)[0]["gos"] == "os:r=1,n=1000000000"

    def test_large_record_index_does_not_hang(self, capsys):
        # past r = 2^16, C* of a record is 2^(1-r) - 1, here -1 to the last bit
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "record:r=1e12", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["gos"] == "record:r=1000000000000"
        assert float(row["value"]) == 1.25

    def test_large_order_statistic_index_does_not_hang(self, capsys):
        # past r = 2^16, C* of an order statistic is (n - 2r + 1)/(n + 1)
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "os:r=1e12,n=1e12", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["gos"] == "os:r=1000000000000,n=1000000000000"
        assert float(row["value"]) == pytest.approx(1.25, abs=1e-11)

    @pytest.mark.parametrize("gos", ["r=1e12,n=1e12,m=-1,k=1e9", "r=2000000,n=2000000,m=-1,k=1e-20"])
    def test_large_k_record_index_does_not_hang(self, capsys, gos):
        # past r = 2^16, C* of a k-record is 2 (k/(k+1))^r - 1, here -1; at
        # k = 1e-20, 1/(k+1) rounds to 1
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", gos, "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.25, abs=1e-11)

    def test_large_index_with_m_below_minus_one_does_not_hang(self, capsys):
        # past r = 2^16, C* for m < -1 is a log-gamma ratio too; the
        # exponential's inaccuracy is 1 - alpha C*/2, and C* is
        # 0.965933726541869319 (mpmath)
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "r=17179869184,n=17179869184,m=-1.0000001,k=1e12", "--alpha", "0.5",
            "--measure", "inaccuracy",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.0 - 0.25 * 0.965933726541869319, abs=1e-15)

    def test_gos_whose_gamma_1_overflows(self, capsys):
        # (n-1)(m+1) overflows, every factor is 1 - 1e-300 or closer, so C*
        # is 1 to the last bit and the value is 1 - alpha/2
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "r=5,n=1e10,m=1e300,k=1", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert (code, err) == (0, "")
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_specs_formatted_once_per_call(self, capsys, monkeypatch, fmt):
        calls = {"format_marginal": 0, "format_gos": 0}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(spec):
                calls[name] += 1
                return original(spec)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3",
            "--alpha", "0.5", "--format", fmt,
        )
        assert code == 0
        records = json.loads(out) if fmt == "json" else parse_csv(out)
        assert [rec["measure"] for rec in records] == list(cli.MEASURES)
        assert calls == {"format_marginal": 1, "format_gos": 1}

    def test_numerical_failure_exit_3(self, capsys):
        # the heavy tail at beta = 1.2 exhausts the quadrature budget
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "invweibull:theta=1,beta=1.2",
            "--gos", "os:r=1,n=3", "--alpha", "0.5", "--measure", "reversed_cpi",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("cmeasure: numerical failure: ")
        # the measure's estimate CE - Int F log(1 + c(1 - F)) dy, not the integral's
        assert "reversed_cpi best estimate 3.5634665" in err
        assert "Traceback" not in err

    def test_echoed_spec_round_trips(self, capsys):
        values = []
        for theta in ("1.2345671", "1.2345674"):
            code, out, _ = run_cli(
                capsys, "measure", "--marginal", f"exponential:theta={theta}",
                "--gos", "r=2,n=5,m=0.30000000000000004,k=2", "--alpha", "0.5",
                "--measure", "inaccuracy",
            )
            assert code == 0
            row = parse_csv(out)[0]
            assert row["marginal"] == f"exponential:theta={theta}"
            assert row["gos"] == "r=2,n=5,m=0.30000000000000004,k=2"
            values.append(row["value"])
        assert values[0] != values[1]

    @pytest.mark.parametrize("measure", ["reversed_inaccuracy", "reversed_cpi"])
    def test_overflow_in_a_kernel_exit_1(self, capsys, measure):
        # sigma**2 overflows in the Rayleigh kernels, which only the
        # quadrature routes evaluate
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "rayleigh:sigma=1e200",
            "--gos", "os:r=1,n=3", "--alpha", "0.5", "--measure", measure,
        )
        assert (code, out) == (1, "")
        assert err.startswith("cmeasure: arithmetic error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("measure, value", [("cpi", "6.06596554967854e+199"), ("bounds", "above_CE")])
    def test_closed_forms_at_a_huge_scale(self, capsys, measure, value):
        # CE and CE2 scale with sigma and never evaluate the kernels
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "rayleigh:sigma=1e200",
            "--gos", "os:r=1,n=3", "--alpha", "0.5", "--measure", measure,
        )
        assert (code, err) == (0, "")
        row = parse_csv(out)[0]
        assert (row["value"], row["method"]) == (value, "closed_form")

    # at lam = 1e308, 2 lam + 1 overflows in phi's psi(2 lam + 1); from lam =
    # 4.5e307, 4 lam does in its (lam - 1) / (4 lam)
    @pytest.mark.parametrize("theta, lam", [("1e300", "1e300"), ("1e200", "1e150"), ("1e-300", "1e-300"),
                                            ("1", "1e308"), ("1", "6e307")])
    def test_genexp_inaccuracy_where_lam_theta_leaves_the_double_range(self, capsys, theta, lam):
        # reference: -Int_0^1 (1 + c (1 - 2u)) log f(Q(u)) du with
        # c = alpha C* = 0.25, f(Q(u)) = lam theta (1 - u^(1/lam)) u^(1 - 1/lam)
        mp = pytest.importorskip("mpmath")
        code, out, err = run_cli(
            capsys, "measure", "--marginal", f"genexp:theta={theta},lam={lam}",
            "--gos", "os:r=1,n=3", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert (code, err) == (0, "")
        with mp.workdps(40):
            L, T = mp.mpf(float(lam)), mp.mpf(float(theta))
            ref = -mp.quad(lambda u: (1 + (1 - 2 * u) / 4) * (
                mp.log(L * T) + mp.log(-mp.expm1(mp.log(u) / L)) + (1 - 1 / L) * mp.log(u)), [0, 0.5, 1])
            assert abs(float(parse_csv(out)[0]["value"]) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("theta, beta", [("1e-300", "1e30"), ("1e300", "1e-10")])
    def test_invweibull_inaccuracy_where_theta_over_beta_leaves_the_double_range(self, capsys, theta, beta):
        # reference: -Int_0^1 (1 + c (1 - 2u)) log f(Q(u)) du with c = 0.25,
        # log f(Q(u)) = log beta - log theta + (1 + 1/beta) log(-log u) + log u
        mp = pytest.importorskip("mpmath")
        code, out, err = run_cli(
            capsys, "measure", "--marginal", f"invweibull:theta={theta},beta={beta}",
            "--gos", "os:r=1,n=3", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert (code, err) == (0, "")
        with mp.workdps(40):
            B, T = mp.mpf(float(beta)), mp.mpf(float(theta))
            ref = -mp.quad(lambda u: (1 + (1 - 2 * u) / 4) * (
                mp.log(B) - mp.log(T) + (1 + 1 / B) * mp.log(-mp.log(u)) + mp.log(u)), [0, 0.5, 1])
            assert abs(float(parse_csv(out)[0]["value"]) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("sigma", ["1e-300", "1e-200"])
    def test_rayleigh_reversed_inaccuracy_where_sigma_squared_underflows(self, capsys, sigma):
        # H - T: H = 1 + gamma/2 + log(sigma / sqrt 2) and T = E log(1 + c (1 - 2U))
        # with c = 0.25, which does not depend on the scale
        mp = pytest.importorskip("mpmath")
        code, out, err = run_cli(
            capsys, "measure", "--marginal", f"rayleigh:sigma={sigma}",
            "--gos", "os:r=1,n=3", "--alpha", "0.5", "--measure", "reversed_inaccuracy",
        )
        assert (code, err) == (0, "")
        with mp.workdps(40):
            ref = 1 + mp.euler / 2 + mp.log(mp.mpf(float(sigma))) - mp.log(2) / 2 - log_tilt_integral(0.25, 0, mp)
            assert abs(float(parse_csv(out)[0]["value"]) - ref) <= 1e-13 * abs(ref)

    def test_value_that_prints_out_of_range_exit_1(self, capsys, monkeypatch):
        # the largest double rounds up to inf at the 15 printed digits
        def huge(mdl, p):
            return MeasureResult(sys.float_info.max, "closed_form")

        monkeypatch.setattr(inaccuracy, "inaccuracy_gos", huge)
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3",
            "--alpha", "0.5", "--measure", "bounds", "--measure", "inaccuracy",
        )
        assert (code, out) == (1, "")
        assert err == "cmeasure: arithmetic error: value is out of floating-point range\n"

    def test_bounds_row_carries_no_evaluations(self, capsys, monkeypatch):
        made = []

        def recording(*args):
            made.append(MeasureResult(*args))
            return made[-1]

        monkeypatch.setattr(cpi, "MeasureResult", recording)
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3",
            "--alpha", "0.5", "--measure", "bounds",
        )
        assert code == 0
        assert [(r.value, r.method, r.evaluations) for r in made] == [("above_CE", "closed_form", 0)]

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "os:r=1,n=3", "--alpha", "1.5",
        )
        assert code == 1
        assert out == ""
        assert "alpha" in err


class TestTable:
    def test_table1_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--table", "1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 72
        cell = {
            (int(r["n"]), float(r["theta2"]), float(r["alpha"]), r["statistic"]): r for r in rows
        }
        got = cell[(10, 0.5, -1.0, "mean")]
        assert float(got["reference"]) == 1.429
        assert float(got["computed"]) == pytest.approx(1.429, abs=1e-3)
        got = cell[(20, 1.0, 0.5, "mean")]
        assert float(got["reference"]) == 0.557
        assert float(got["computed"]) == pytest.approx(0.557, abs=1e-3)
        got = cell[(20, 1.0, 0.5, "variance")]
        assert float(got["reference"]) == 0.019
        assert float(got["computed"]) == pytest.approx(0.019, abs=1e-3)

    def test_table2_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--table", "2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 24
        cell = {(int(r["n"]), float(r["alpha"]), r["statistic"]): r for r in rows}
        got = cell[(15, -0.5, "mean")]
        assert float(got["reference"]) == 0.264
        assert float(got["computed"]) == pytest.approx(0.264, abs=1e-3)
        got = cell[(15, -0.5, "variance")]
        assert float(got["reference"]) == 0.005
        assert float(got["computed"]) == pytest.approx(0.005, abs=1e-3)

    @pytest.mark.parametrize("paper", [False, True])
    @pytest.mark.parametrize("table", [1, 2])
    def test_computed_is_the_printed_scalar_moment(self, capsys, table, paper):
        # the batched kernels print, cell by cell, the 15-digit text of the
        # scalar moment (after the 3-decimal rounding of --paper-precision)
        flags = ["--paper-precision"] if paper else []
        code, out_csv, _ = run_cli(capsys, "table", "--table", str(table), *flags)
        assert code == 0
        code, out_json, _ = run_cli(capsys, "table", "--table", str(table), "--format", "json", *flags)
        assert code == 0
        rows, records = parse_csv(out_csv), json.loads(out_json)
        assert len(rows) == len(records) == 2 * len(TABLE1_REFERENCE if table == 1 else TABLE2_REFERENCE)
        for row, rec in zip(rows, records):
            n, theta2, alpha = rec["n"], rec["theta2"], rec["alpha"]
            if table == 1:
                moments = empirical.moments_mtbged(n, theta2, alpha, 2)
            else:
                moments = empirical.moments_mtbud(n, alpha, 2)
            value = moments[("mean", "variance").index(rec["statistic"])]
            text = f"{round(value, 3) if paper else value:.15g}"
            assert (row["computed"], rec["computed"]) == (text, float(text))

    @pytest.mark.parametrize("argv", [
        ["table", "--table", "1"],
        ["table", "--table", "2", "--paper-precision"],
        ["measure", "--marginal", "rayleigh:sigma=0.8", "--gos", "record:r=3", "--alpha", "-0.7"],
        # Rayleigh has no exact moments: None fields print empty in CSV, null in JSON
        ["simulate", "--marginal", "rayleigh:sigma=1", "--gos", "record:r=2", "--alpha", "0.5",
         "--n", "20", "--replicates", "100"],
    ])
    def test_csv_floats_are_the_15_digit_text_of_the_json_values(self, capsys, argv):
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows, records = parse_csv(out_csv), json.loads(out_json)
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert list(row) == list(rec)
            for key, value in rec.items():
                expected = "" if value is None else f"{value:.15g}" if isinstance(value, float) else str(value)
                assert row[key] == expected

    def test_reference_tables_complete(self):
        assert len(TABLE1_REFERENCE) == 36
        assert len(TABLE2_REFERENCE) == 12

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(capsys, "table", "--table", "3")
        assert code == 1
        assert "unknown table" in err


class TestSimulate:
    def test_minimum_replicates(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--marginal", "uniform:theta=1", "--gos", "record:r=2",
            "--alpha", "-1", "--n", "10", "--replicates", "50",
        )
        assert code == 1
        assert "replicates" in err

    def test_simulate_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--marginal", "uniform:theta=1", "--gos", "record:r=2",
            "--alpha", "-1", "--n", "10", "--replicates", "200", "--seed", "5",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert int(row["seed"]) == 5
        assert float(row["empirical_mean"]) == pytest.approx(0.285, abs=0.03)
        assert row["theoretical_mean"] != ""

    @pytest.mark.parametrize("lam", ["1e16", "1e17", "1e300"])
    def test_genexp_at_large_shape(self, capsys, lam):
        # GenExp's quantile stays finite where u^(1/lam) rounds to 1
        code, out, err = run_cli(
            capsys, "simulate", "--marginal", f"genexp:theta=1,lam={lam}", "--gos", "record:r=2",
            "--alpha", "0.5", "--n", "20", "--replicates", "100",
        )
        assert (code, err) == (0, "")
        row = parse_csv(out)[0]
        for field in ("empirical_mean", "empirical_variance", "analytic_cpi", "bias"):
            assert math.isfinite(float(row[field])), (field, row[field])

    def test_seed_environment_variable_is_ignored(self, capsys, monkeypatch):
        # --seed is the one seed knob: a CM_SEED left in the environment
        # changes nothing, and the default is seed 0
        argv = ["simulate", "--marginal", "uniform:theta=1", "--gos", "record:r=2",
                "--alpha", "-1", "--n", "10", "--replicates", "150"]
        monkeypatch.setenv("CM_SEED", "11")
        env_run = run_cli(capsys, *argv)
        monkeypatch.delenv("CM_SEED")
        assert env_run == run_cli(capsys, *argv, "--seed", "0")
        assert env_run[0] == 0
        assert parse_csv(env_run[1])[0]["seed"] == "0"

    def test_replicates_past_2_32_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--marginal", "exponential:theta=1", "--gos", "record:r=2",
            "--alpha", "0.5", "--n", "20", "--replicates", str(2**32 + 1),
        )
        assert (code, out, err) == (1, "", "cmeasure: need 100 <= replicates <= 2**32, got 4294967297\n")

    def test_negative_seed_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--marginal", "exponential:theta=1", "--gos", "record:r=2",
            "--alpha", "0.5", "--n", "20", "--replicates", "100", "--seed", "-1",
        )
        assert (code, out, err) == (1, "", "cmeasure: seed must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 7.28 PiB for an array with shape (1000000000000000,) "
                     "and data type float64"),
         "cmeasure: Unable to allocate 7.28 PiB for an array with shape (1000000000000000,) "
         "and data type float64\n"),
        (MemoryError(), "cmeasure: out of memory\n"),
    ])
    def test_allocation_failure_exit_1(self, capsys, monkeypatch, exc, message):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "mc_validate", fail)
        code, out, err = run_cli(
            capsys, "simulate", "--marginal", "exponential:theta=1", "--gos", "record:r=2",
            "--alpha", "0.5", "--n", "1000000000000000", "--replicates", "100",
        )
        assert code == 1
        assert out == ""
        assert err == message

    def test_byte_identical_runs(self):
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        cmd = [
            sys.executable, "-m", "concomitant_measures", "simulate",
            "--marginal", "genexp:theta=1,lam=1", "--gos", "record:r=2",
            "--alpha", "0.5", "--n", "50", "--replicates", "120",
            "--seed", "3", "--format", "json",
        ]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == b""


class TestParserReuse:
    """The parser is built once per process; no call may change what a later
    call prints, whatever the earlier call was."""

    MEASURE = ["measure", "--marginal", "rayleigh:sigma=0.8", "--gos", "record:r=3", "--alpha", "-0.7"]

    @staticmethod
    def run(argv, entry=main):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("first, first_code, then", [
        (MEASURE[:-1] + ["x"], 2, MEASURE),
        (["measure", "--help"], 0, MEASURE),
        # the append action must not carry "cpi" over: all five measures again
        (MEASURE + ["--measure", "cpi"], 0, MEASURE),
        (MEASURE + ["--format", "json"], 0, MEASURE),
        (["simulate", "--marginal", "uniform:theta=1", "--gos", "record:r=2", "--alpha", "-1",
          "--n", "10", "--replicates", "100"], 0, ["table", "--table", "2"]),
    ])
    def test_a_call_leaks_nothing_into_the_next(self, first, first_code, then):
        cli._build_parser.cache_clear()
        alone = self.run(then)
        assert alone[0] == 0
        cli._build_parser.cache_clear()
        code, out, err = self.run(first)
        assert code == first_code
        assert (out if code == 0 else err) != ""
        assert self.run(then) == alone
        assert cli._build_parser.cache_info().misses == 1


class TestOneParse:
    """A known command's arguments are parsed once, by that command's own
    parser; the top-level parser serves help and errors alone, with the same
    bytes as when it parsed every call."""

    OK = ["--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3", "--alpha", "0.5"]
    SIM = ["simulate", "--marginal", "uniform:theta=1", "--gos", "record:r=2", "--alpha", "-1",
           "--n", "20", "--replicates", "100"]
    CORPUS = [
        ["-h"], ["--help"], ["--he"], [], ["bogus"], ["Measure", *OK], ["tab", "--table", "1"],
        ["-x", "measure", *OK], ["-h", "measure"], ["--", "measure", *OK],
        ["measure", *OK], ["measure", "-h"], ["table", "--help"], ["simulate", "-h"],
        ["measure", "--marg", "exponential:theta=1", "--gos", "os:r=1,n=3", "--al", "0.5"],
        ["measure", "--m", "exponential", "--gos", "os:r=1,n=3", "--alpha", "0.5"],
        ["measure", "--marginal=logistic", "--gos=record:r=2", "--alpha=-0.5", "--format=json"],
        ["measure", *OK[:-1], "-0.5", "--measure", "cpi", "--measure", "bounds"],
        ["measure", "--", *OK], ["measure", *OK, "--measure", "nope"], ["measure", *OK[2:]],
        ["measure", *OK[:-1], "x"], ["measure", *OK, "--format", "xml"],
        ["measure", *OK, "--paper-precision"], ["measure", *OK, "--foo", "bar"], ["measure", *OK, "extra"],
        ["measure", "--marginal", "exponential:thet=1", *OK[2:]],
        ["table", "--t", "1", "--paper-precision"], ["table", "--table", "2", "--format", "json"],
        ["table", "--table", "3"], ["table"], SIM, [*SIM, "--seed", "-1"], [*SIM[:-1], "99"],
    ]

    @staticmethod
    def reference(argv):
        """The top-level parser's full parse_args of ``argv``, then main's run
        of the command it names."""
        parser, commands = cli._build_parser()
        args = parser.parse_args(argv)  # help and errors exit here
        with mock.patch.object(commands[args.command], "parse_known_args", return_value=(args, [])):
            return main(argv)

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_same_bytes_as_the_top_level_parse(self, argv):
        assert TestParserReuse.run(argv) == TestParserReuse.run(argv, self.reference)

    def test_the_top_level_parser_reads_no_command_call(self, monkeypatch):
        parser, _ = cli._build_parser()
        monkeypatch.setattr(parser, "parse_known_args", mock.Mock(side_effect=AssertionError("top-level parse")))
        for argv in (["measure", *self.OK], ["table", "--table", "2"], self.SIM):
            code, out, err = TestParserReuse.run(argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith("command,")
        code, out, err = TestParserReuse.run(["measure", *self.OK, "--foo"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: cmeasure [-h]")
        assert err.endswith("cmeasure: error: unrecognized arguments: --foo\n")


class TestOutOfRange:
    """Parameters beyond the floating-point range end in exit 1 with one
    stderr line: no traceback, no warning and no non-finite value printed."""

    @pytest.mark.parametrize("argv, message", [
        ("measure --marginal rayleigh:sigma=1e200 --gos os:r=1,n=3 --alpha 0.5 --measure reversed_cpi",
         "cmeasure: arithmetic error: (34, 'Numerical result out of range')"),
        ("simulate --marginal uniform:theta=1e308 --gos record:r=2 --alpha 0.5 --n 10 --replicates 100",
         "cmeasure: arithmetic error: empirical_mean is out of floating-point range"),
        ("simulate --marginal exponential:theta=1e307 --gos record:r=2 --alpha 0.5 --n 10 --replicates 100",
         "cmeasure: arithmetic error: empirical_mean is out of floating-point range"),
    ])
    def test_console_exit_1(self, argv, message):
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        run = subprocess.run([sys.executable, "-m", "concomitant_measures", *argv.split()],
                             capture_output=True, text=True, env=env)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == message + "\n"

    @pytest.mark.parametrize("marginal, message", [
        ("uniform:theta=1e308", "cmeasure: arithmetic error: empirical_mean is out of floating-point range"),
        ("exponential:theta=1e308", "cmeasure: arithmetic error: empirical_mean is out of floating-point range"),
    ])
    def test_pooled_simulate_exit_1(self, monkeypatch, capsys, marginal, message):
        # the replicate chunks run on pool threads under the caller's
        # np.errstate: the quantile's overflow to inf at theta = 1e308 warns
        # nowhere
        monkeypatch.setattr(empirical, "_worker_count", lambda: 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--marginal", marginal, "--gos", "record:r=2",
                                     "--alpha", "0.5", "--n", str(empirical._POOL_MIN_N), "--replicates", "100")
        assert (code, out, err) == (1, "", message + "\n")


def test_uniform_near_float_max_prints_finite_cpi(capsys):
    # CE(Y_(2:2)) = 2 theta / 9 is formed without the overflowing 2 theta;
    # CPI = theta ((1 + c)/4 - c/9) with c = alpha C* = 0.35
    code, out, err = run_cli(
        capsys, "measure", "--marginal", "uniform:theta=1e308", "--gos", "os:r=1,n=3",
        "--alpha", "0.7", "--measure", "cpi", "--format", "json",
    )
    assert (code, err) == (0, "")
    [record] = json.loads(out)
    assert record["method"] == "closed_form"
    assert math.isfinite(record["value"])
    assert record["value"] == pytest.approx(1e308 * (1.35 / 4.0 - 0.35 / 9.0), rel=1e-14)


def test_uniform_scale_whose_square_overflows_simulates(capsys):
    # the exact variance scales as theta^2 = 1e308, formed with the scale last
    code, out, err = run_cli(
        capsys, "simulate", "--marginal", "uniform:theta=1e154", "--gos", "record:r=2",
        "--alpha", "0.5", "--n", "20", "--replicates", "100", "--format", "json",
    )
    assert (code, err) == (0, "")
    [record] = json.loads(out)
    assert all(math.isfinite(v) for v in record.values() if isinstance(v, float))
    variance = 1e308 * empirical.moments_mtbud(20, 0.5, 2)[1]
    assert record["theoretical_variance"] == pytest.approx(variance, rel=1e-14)


def test_uniform_scale_whose_sample_variance_squares_past_the_range_simulates(capsys):
    # the replicates' squared deviations overflow; their variance does not
    code, out, err = run_cli(
        capsys, "simulate", "--marginal", "uniform:theta=1e155", "--gos", "record:r=2",
        "--alpha", "0.5", "--n", "20", "--replicates", "100", "--format", "json",
    )
    assert (code, err) == (0, "")
    [record] = json.loads(out)
    assert record["empirical_variance"] == pytest.approx(5.17288639591949e306, rel=1e-14)


@st.composite
def _number(draw):
    # a spec value token: mostly a positive double from the smallest
    # subnormal to near the largest, else its negative, a signed zero or a
    # non-finite token
    x = draw(st.floats(5e-324, 1.7e308))
    return draw(st.sampled_from([repr(x)] * 12 + [repr(-x), "0", "-0", "inf", "-inf", "nan"]))


@st.composite
def _measure_argv(draw):
    name = draw(st.sampled_from(sorted(MARGINAL_FAMILIES)))
    params = ",".join(f"{f.name}={draw(_number())}" for f in dataclasses.fields(MARGINAL_FAMILIES[name]))
    marginal = f"{name}:{params}" if params else name
    r = draw(st.one_of(st.integers(1, 100), st.integers(1, 2**70)))
    n = r + draw(st.one_of(st.integers(-2, 100), st.integers(0, 2**70)))
    m = draw(st.one_of(st.just(-1.0), st.floats(-1e3, -1.0), st.floats(-1.0, 1e3)))
    k = 10.0 ** draw(st.floats(-300, 300))
    gos = draw(st.sampled_from([f"os:r={r},n={n}", f"record:r={r}", f"r={r},n={n},m={m!r},k={k!r}"]))
    alpha = draw(st.sampled_from([draw(st.floats(-1.5, 1.5))] * 9 + [math.nan]))
    return ["measure", "--marginal", marginal, "--gos", gos, f"--alpha={alpha!r}",
            "--measure", draw(st.sampled_from(list(cli.MEASURES)))]


@given(argv=_measure_argv())
@settings(max_examples=60, deadline=None)
def test_every_input_ends_in_finite_output_or_one_error_line(argv):
    # a console run shows warnings on stderr, so here they count as failures
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert time.perf_counter() - start < 10.0
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        for cell in (cell for row in csv.reader(io.StringIO(out)) for cell in row):
            try:
                value = float(cell)  # reads nan and inf too
            except ValueError:
                continue  # a name, a spec, a bounds label or an empty field
            assert math.isfinite(value)
    else:
        assert code in (1, 2, 3)
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
