"""Command-line interface: formats, values, determinism, error handling."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from concomitant_measures import cli, empirical
from concomitant_measures.cli import TABLE1_REFERENCE, TABLE2_REFERENCE, main
from concomitant_measures.numerics import MeasureResult

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

    def test_paper_precision_rounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1", "--gos", "os:r=1,n=3",
            "--alpha", "0.33", "--measure", "inaccuracy", "--paper-precision",
        )
        value = parse_csv(out)[0]["value"]
        assert value == "0.917"  # 1 - 0.165/2; the stored double sits just below 0.9175

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
        # C* is -1 to the last bit long before r = 1e12 factors
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "record:r=1e12", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["gos"] == "record:r=1000000000000"
        assert float(row["value"]) == 1.25

    def test_large_order_statistic_index_does_not_hang(self, capsys):
        # past r = 2^20, C* of an order statistic is (n - 2r + 1)/(n + 1)
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "os:r=1e12,n=1e12", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["gos"] == "os:r=1000000000000,n=1000000000000"
        assert float(row["value"]) == pytest.approx(1.25, abs=1e-11)

    def test_large_k_record_index_does_not_hang(self, capsys):
        # past r = 2^20, C* of a k-record is 2 (k/(k+1))^r - 1
        code, out, _ = run_cli(
            capsys, "measure", "--marginal", "exponential:theta=1",
            "--gos", "r=1e12,n=1e12,m=-1,k=1e9", "--alpha", "0.5", "--measure", "inaccuracy",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.25, abs=1e-11)

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
        assert [rec["measure"] for rec in records] == list(cli.MEASURE_NAMES)
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

    def test_value_that_prints_out_of_range_exit_1(self, capsys, monkeypatch):
        # the largest double rounds up to inf at the 15 printed digits
        def huge(mdl, p):
            return MeasureResult(sys.float_info.max, "closed_form")

        monkeypatch.setattr(cli, "inaccuracy_gos", huge)
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

        monkeypatch.setattr(cli, "MeasureResult", recording)
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

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = ["simulate", "--marginal", "uniform:theta=1", "--gos", "record:r=2",
                "--alpha", "-1", "--n", "10", "--replicates", "150"]
        monkeypatch.setenv("CM_SEED", "11")
        _, out_env, _ = run_cli(capsys, *argv)
        monkeypatch.delenv("CM_SEED")
        _, out_default, _ = run_cli(capsys, *argv)
        _, out_explicit, _ = run_cli(capsys, *argv, "--seed", "11")
        assert parse_csv(out_env)[0]["seed"] == "11"
        assert parse_csv(out_env) == parse_csv(out_explicit)
        assert parse_csv(out_default)[0]["seed"] == "0"

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
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
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


class TestOutOfRange:
    """Parameters beyond the floating-point range end in exit 1 with one
    stderr line: no traceback, no warning and no non-finite value printed."""

    @pytest.mark.parametrize("argv, message", [
        ("measure --marginal rayleigh:sigma=1e200 --gos os:r=1,n=3 --alpha 0.5 --measure reversed_cpi",
         "cmeasure: arithmetic error: (34, 'Numerical result out of range')"),
        ("simulate --marginal uniform:theta=1e308 --gos record:r=2 --alpha 0.5 --n 10 --replicates 100",
         "cmeasure: arithmetic error: (34, 'Numerical result out of range')"),
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
        ("uniform:theta=1e308", "cmeasure: arithmetic error: (34, 'Numerical result out of range')"),
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
