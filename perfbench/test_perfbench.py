"""Tests of the benchmark itself: generators, oracle, tracer, harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# --- workload generators -----------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = workloads.make_ops(workload, 5, 2)
    assert a == workloads.make_ops(workload, 5, 2)
    assert a != workloads.make_ops(workload, 6, 2)
    assert json.loads(json.dumps(a)) == a  # plain data, as the worker receives it


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_design(workload):
    def design(op):
        if workload == "quad_sweep":
            return op["route"], op["family"], op["params"].get("beta"), op["params"].get("lam")
        if workload == "cli_sweep":
            return op["kind"]
        return op["family"], op["n"], op["replicates"]

    rounds = [workloads.make_round(workload, 3, k) for k in range(4)]
    designs = [sorted(map(str, map(design, r))) for r in rounds]
    assert all(d == designs[0] for d in designs)


def test_mix_summary_states_heavy_tail_share():
    ops = workloads.make_ops("quad_sweep", 1, 1)
    mix = workloads.mix_summary("quad_sweep", ops)
    heavy = sum(op["family"] == "invweibull" for op in ops)
    assert mix["heavy_tail_share"] == heavy / len(ops)
    assert set(mix["invweibull_beta_share"]) == {"1.2", "1.5", "2", "3"}


def test_timed_quad_ops_leave_out_the_probed_defects():
    ops = workloads.make_ops("quad_sweep", 8, 20)
    pairs = {(op["route"], op["family"], op["params"].get("beta")) for op in ops}
    assert not any(family == "genexp" and route.endswith(".reversed") for route, family, _ in pairs)
    assert ("cpi.reversed", "invweibull") not in {(route, family) for route, family, _ in pairs}
    assert {beta for route, family, beta in pairs if route == "cpi.quadrature" and family == "invweibull"} == {
        2.0, 3.0}
    assert {op["defect"] for op in workloads.DEFECT_PROBE} == set(run.KNOWN_DEFECTS)
    probe = [{k: v for k, v in op.items() if k != "defect"} for op in workloads.DEFECT_PROBE]
    assert not any(op in probe for op in ops)


def test_quad_ops_come_from_the_checked_input_set():
    checked = {json.dumps(op, sort_keys=True) for op in workloads.quad_inputs()}
    ops = workloads.make_ops("quad_sweep", 9, 30)
    assert all(json.dumps(op, sort_keys=True) in checked for op in ops)
    assert len({json.dumps(op["params"], sort_keys=True) for op in ops if op["family"] == "rayleigh"
                and op["route"].startswith("marginals.")}) > 55  # the CE ops stay cold


@pytest.mark.parametrize("family,shape", workloads.QUAD_SHAPES)
def test_quad_inaccuracy_stays_away_from_zero(family, shape):
    # A + (1 - u0) log s + c B over the scale range and |c| <= 1
    s = oracle.Shape(family, shape)
    a, b = s.functional("A"), abs(s.functional("B"))
    scales = workloads.QUAD_SCALE_RANGE if workloads.SCALE_PARAM[family] else (1.0,)
    assert min(abs(a + (1 - s.u0) * mp.log(x)) - b for x in scales) >= 0.2


def test_cli_sizes_span_the_stated_range():
    ops = workloads.make_ops("cli_sweep", 2, 50)
    ns = [op["n"] for op in ops if op["kind"] in ("os", "general")]
    assert min(ns) >= 3 and max(ns) <= 1e5 and max(ns) > 3e4
    assert max(op["n"] for op in ops if op["kind"] == "record") <= workloads.CLI_RECORD_R_MAX


# --- oracle ------------------------------------------------------------------------------

EULER = mp.euler


def _analytic(family, shape):
    """Closed forms of A (entropy on y > 0), CE and CE2 at unit scale."""
    if family == "exponential":
        return {"A": 1, "CE": mp.pi**2 / 6 - 1, "CE2": 2 * (mp.pi**2 / 6 - mp.mpf(1.25))}
    if family == "logistic":
        return {"A": 1}
    if family == "rayleigh":
        return {"A": 1 + EULER / 2 - mp.log(2) / 2}
    if family == "genexp":
        lam = mp.mpf(shape["lam"])
        return {"A": -mp.log(lam) + mp.digamma(lam + 1) + EULER + (lam - 1) / lam,
                "CE": lam * mp.psi(1, lam + 1), "CE2": 2 * lam * mp.psi(1, 2 * lam + 1)}
    if family == "uniform":
        return {"A": 0, "CE": mp.mpf(1) / 4, "CE2": mp.mpf(2) / 9}
    beta = mp.mpf(shape["beta"])
    g = mp.gamma(1 - 1 / beta) / beta
    return {"A": 1 + EULER * (1 + 1 / beta) - mp.log(beta), "CE": g, "CE2": 2 ** (1 / beta) * g}


@pytest.mark.parametrize("family,shape", workloads.QUAD_SHAPES)
def test_oracle_functionals_match_closed_forms(family, shape):
    s = oracle.Shape(family, shape)
    for name, exact in _analytic(family, shape).items():
        assert abs(s.functional(name) - exact) <= mp.mpf(10) ** -18 * max(1, abs(exact)), name
    # -F (1 - F) log F = -F log F + F^2 log F, term by term
    assert abs(s.functional("D") - (s.functional("CE") - s.functional("CE2") / 2)) < mp.mpf(10) ** -18


@pytest.mark.parametrize("family,shape", workloads.QUAD_SHAPES)
def test_oracle_b_matches_the_published_decomposition(family, shape):
    # I = (1 + c) H + 2 c phi, so B = H + 2 phi with the library's analytic
    # H and phi (series digamma: good to ~1e-13)
    from concomitant_measures.marginals import MARGINAL_FAMILIES

    m = MARGINAL_FAMILIES[family](**shape)
    assert float(oracle.Shape(family, shape).functional("B")) == pytest.approx(
        m.shannon_entropy() + 2 * m.phi_f(), abs=5e-13)


@pytest.mark.parametrize("c", [-1.0, -0.37, 0.25, 1.0])
def test_oracle_reversed_cpi_integral_exponential(c):
    # Int (1 - e^-y) log(1 + c e^-y) dy = -Li2(-c) - ((1 + c) log(1 + c) - c) / c
    c = mp.mpf(c)
    exact = -mp.polylog(2, -c) - (oracle._xlogx(1 + c) - c) / c
    got = oracle.Shape("exponential", {}).reversed_cpi_integral(c)
    assert abs(got - exact) < mp.mpf(10) ** -18


def test_oracle_log_tilt_integral():
    for c in (-1.0, -0.3, 0.6, 1.0):
        for u0 in (0.0, 0.5):
            exact = mp.quad(lambda u: mp.log(1 + c * (1 - 2 * u)), [u0, 1])
            assert abs(oracle.log_tilt_integral(mp.mpf(c), mp.mpf(u0)) - exact) < mp.mpf(10) ** -15


@pytest.mark.parametrize("gos", [[3, 7, 0.0, 1.0], [4, 4, -1.0, 1.0], [2, 9, -1.0, 3.0],
                                 [5, 12, 0.5, 2.0], [7, 20, 2.0, 1.0], [3, 6, -0.5, 0.5]])
def test_oracle_c_star_matches_the_product(gos):
    r, n, m, k = gos
    prod = Fraction(1)
    for j in range(1, r + 1):
        g = Fraction(k) + (n - j) * (Fraction(m) + 1)
        prod *= g / (g + 1)
    assert abs(oracle.c_star(*gos) - oracle._mpf(2 * prod - 1)) < mp.mpf(10) ** -18


def test_oracle_table_cells_reproduce_published_values():
    from concomitant_measures.cli import TABLE1_REFERENCE, TABLE2_REFERENCE

    cells = oracle.table_cells(1)
    for (n, theta2, alpha), (mean, var) in TABLE1_REFERENCE.items():
        assert abs(cells[(n, theta2, alpha, "mean")] - mean) <= oracle.TABLE_ATOL
        assert abs(cells[(n, theta2, alpha, "variance")] - var) <= oracle.TABLE_ATOL
    cells = oracle.table_cells(2)
    for (n, alpha), (mean, var) in TABLE2_REFERENCE.items():
        assert abs(cells[(n, 1.0, alpha, "mean")] - mean) <= oracle.TABLE_ATOL
        assert abs(cells[(n, 1.0, alpha, "variance")] - var) <= oracle.TABLE_ATOL


def test_replicate_recompute_matches_mc_validate():
    op = {"family": "exponential", "params": {"theta": 1.3}, "gos": [2, 2, -1.0, 1.0], "alpha": 0.5,
          "n": 20, "replicates": 100, "stream_seed": 9, "stream_id": 4}
    rep = json.loads(worker.Executor("mc_simulate").run(op))
    checker = run.Checker("mc_simulate")
    checker.mc_recompute([op], [json.dumps(rep)])
    assert checker.harness_errors == []
    rep["empirical_mean"] *= 1 + 1e-9
    checker.mc_recompute([op], [json.dumps(rep)])
    assert len(checker.harness_errors) == 1


# --- correctness rule --------------------------------------------------------------


def _quad_op(family, route, seed=4):
    ops = [*workloads.make_round("quad_sweep", seed, 0), *workloads.DEFECT_PROBE]
    op = next(o for o in ops
              if o["family"] == family and o["route"] == route and o["params"].get("beta", 0) < 1.5)
    ref, _ = oracle.Oracle().measure(op["route"], op["family"], op["params"], op["gos"], op["alpha"])
    return op, float(ref)


def test_checker_counts_raised_and_wrong_ops():
    op, ref = _quad_op("exponential", "cpi.quadrature")
    checker = run.Checker("quad_sweep")
    outputs = [f"{ref!r} 1e-12 quadrature", f"{ref + 1e-10!r} 1e-12 quadrature", "raised QuadratureError: x"]
    assert checker.check([op, op, op], outputs) == 2
    assert checker.bound_misses == {"cpi.quadrature": 1}
    # a miss of 100x the claim is a known class; an exception outside the
    # heavy tail is not
    assert checker.known == {"false_convergence": 1} and len(checker.unexpected) == 1


@pytest.mark.parametrize("family, route", [("uniform", "inaccuracy.quantile_form"),
                                           ("exponential", "cpi.quadrature"),
                                           ("genexp", "inaccuracy.reversed")])
def test_grossly_wrong_light_tailed_value_is_unexpected(family, route):
    op, ref = _quad_op(family, route)
    checker = run.Checker("quad_sweep")
    assert checker.check([op], [f"{ref * 1.01 + 1e-3!r} 1e-14 quadrature"]) == 1
    assert checker.known == {} and len(checker.unexpected) == 1


def test_heavy_tail_class_is_limited():
    op, ref = _quad_op("invweibull", "cpi.quadrature")
    assert op["params"]["beta"] == 1.2
    checker = run.Checker("quad_sweep")
    outputs = ["raised QuadratureError: x", f"{ref * (1 + 5e-5)!r} 1e-10 quadrature",
               f"{ref * 1.01!r} 1e-10 quadrature"]
    assert checker.check([op, op, op], outputs) == 3
    assert checker.known == {"heavy_tail": 2} and len(checker.unexpected) == 1


def test_tail_is_a_fixed_percentile_with_ten_samples_beyond():
    lat = [float(i) for i in range(1000)]
    assert run.tail(lat, 95.0) == (949.0, pytest.approx(95.0), 50)
    value, pct, beyond = run.tail(lat, 99.7)  # only 3 beyond p99.7: falls back
    assert beyond == sum(x > value for x in lat) == run.TAIL_SAMPLES_BEYOND
    assert pct == pytest.approx(99.0)


# --- tracer ------------------------------------------------------------------------------


def _some_ops():
    quad = [o for o in workloads.make_round("quad_sweep", 7, 0)
            if not (o["family"] == "invweibull" and o["params"]["beta"] < 2)][:12]
    cli = workloads.make_round("cli_sweep", 7, 0)[:6]
    mc = [dict(o, n=20, replicates=100) for o in workloads.make_round("mc_simulate", 7, 0)[:3]]
    return {"quad_sweep": quad, "cli_sweep": cli, "mc_simulate": mc}


def test_tracer_patches_every_import_site_and_restores_all():
    import concomitant_measures as cm
    from concomitant_measures import cli, cpi, empirical, fgm, inaccuracy, marginals, numerics

    worker.Executor("cli_sweep")  # imports every module
    cli.main  # noqa: B018
    before = tracer.snapshot()
    original_integrate, original_c_star = numerics.integrate, fgm.c_star
    t = tracer.Tracer()
    t.install()
    try:
        for mod in (cm, marginals, inaccuracy, cpi):
            assert mod.integrate is not original_integrate
        for mod in (inaccuracy, cpi, empirical, fgm, cm):
            assert mod.c_star is not original_c_star
        assert tracer.patched_attributes(before)
    finally:
        t.restore()
    assert tracer.patched_attributes(before) == []
    assert numerics.integrate is original_integrate


def test_untraced_run_patches_nothing():
    before = tracer.snapshot()
    for workload, ops in _some_ops().items():
        execute = worker.Executor(workload).run
        worker.run_ops(execute, ops)
    assert tracer.patched_attributes(before) == []


def test_traced_and_untraced_outputs_are_byte_identical():
    for workload, ops in _some_ops().items():
        execute = worker.Executor(workload).run
        _, plain = worker.run_ops(execute, ops)
        t = tracer.Tracer()
        t.install()
        try:
            _, traced = worker.run_ops(execute, ops, t)
        finally:
            t.restore()
        assert traced == plain, workload
        layers = t.layer_metrics()
        assert set(layers) >= {"numerics.integrate.calls", "marginals.kernel.points_per_call", "cli.main.calls"}
        assert all(s[4] == -1 or s[4] < s[0] for s in t.spans)  # a parent opens before its child


def test_self_times_add_up_to_the_root_spans():
    t = tracer.Tracer()
    ops = _some_ops()["quad_sweep"][:4]
    execute = worker.Executor("quad_sweep").run
    t.install()
    try:
        worker.run_ops(execute, ops, t)
    finally:
        t.restore()
    roots = sum(end - start for _, _, start, end, parent, _ in t.spans if parent == -1)
    assert math.isclose(sum(t.self_s.values()), roots, rel_tol=1e-9)


# --- contract -----------------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    layers = set(tracer.Tracer().layer_metrics()) | {f"{r}.bound_misses" for r in run.ROUTES}
    layers |= {"cli.stdout_bytes", "trace.overhead_share"} | {f"defects.{d}" for d in run.KNOWN_DEFECTS}
    assert {m["name"] for m in spec["per_layer"]} == layers
