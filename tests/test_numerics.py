"""Quadrature, psi functions, and RNG stream contracts.

Expected values here are independent oracles: analytic antiderivatives for
the integrals and special values / functional equations for psi.
"""

import functools
import inspect
import math
import os
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concomitant_measures import numerics
from concomitant_measures.empirical import mc_validate
from concomitant_measures.fgm import record_value
from concomitant_measures.marginals import Exponential, InverseWeibull, log_cdf_integral
from concomitant_measures.numerics import (
    _WG,
    _WGK,
    _XGK,
    MeasureResult,
    QuadratureError,
    RngStream,
    digamma,
    integrate,
    trigamma,
)
from oracles import GeneratorStream, integrate_per_panel, kronrod_panel

EULER = 0.5772156649015328606

# a tolerance that 1/sqrt(u) on (0, 1) cannot meet within a 30-panel budget
BUDGET_EXHAUSTED = {"_REL_TOL": 1e-14, "_ABS_TOL": 1e-16, "_MAX_INTERVALS": 30}


class TestIntegrate:
    def test_polynomial_exact(self):
        res = integrate(lambda u: u, 0.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-13)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations >= 15

    def test_takes_no_options(self):
        assert list(inspect.signature(integrate).parameters) == ["f", "lo", "hi"]
        assert (numerics._REL_TOL, numerics._ABS_TOL, numerics._MAX_INTERVALS) == (1e-10, 1e-12, 2000)

    def test_g7_k15_tables_meet_the_rule_s_definition(self):
        # in 40-digit mpmath on the double tables: K15 integrates x^k over
        # [-1, 1] through k = 22 and G7, on the odd-indexed nodes, through
        # k = 13, each within 1 eps; each misses the next even power, which
        # shows that the nodes are paired with the right weights
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps

        def error(nodes, weights, k):
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else 0
            return abs(mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for x, w in zip(nodes, weights)) - exact)

        # mirrored about a +0.0 centre
        assert np.array_equal(_XGK, -_XGK[::-1]) and np.array_equal(np.signbit(_XGK), np.arange(15) < 7)
        assert np.array_equal(_WGK, _WGK[::-1]) and np.array_equal(_WG, _WG[::-1])
        with mp.workdps(40):
            assert max(error(_XGK, _WGK, k) for k in range(23)) <= eps
            assert max(error(_XGK[1::2], _WG, k) for k in range(14)) <= eps
            assert error(_XGK, _WGK, 24) > 1e-9 and error(_XGK[1::2], _WG, 14) > 1e-5

    def test_results_are_measure_records(self, monkeypatch):
        res = integrate(lambda u: u, 0.0, 1.0)
        assert res == MeasureResult(res.value, "quadrature", res.abs_error_estimate, 15)
        # the count is not part of the printed record
        assert repr(res) == repr(MeasureResult(res.value, "quadrature", res.abs_error_estimate))
        monkeypatch.setattr(numerics, "_MAX_INTERVALS", 4)
        with pytest.raises(QuadratureError) as info:
            integrate(lambda u: 1.0 / u, 0.0, 1.0)
        best = info.value.best
        assert best == MeasureResult(best.value, "quadrature", best.abs_error_estimate, 15 + 3 * 30)

    def test_round_off_floor_is_a_python_float(self):
        # a constant makes the Gauss and Kronrod sums agree, so the floor wins
        res = integrate(np.ones_like, 0.0, 1.0)
        assert res.abs_error_estimate > 0.0
        assert type(res.abs_error_estimate) is float

    def test_log_endpoint_singularity(self):
        # antiderivative: u^2/2 log(1-u) integrates by parts to -3/4
        res = integrate(lambda u: u * np.log1p(-u), 0.0, 1.0)
        assert res.value == pytest.approx(-0.75, rel=1e-10)

    def test_plain_log(self):
        assert integrate(lambda u: np.log(u), 0.0, 1.0).value == pytest.approx(-1.0, rel=1e-10)
        assert integrate(lambda u: u * np.log(u), 0.0, 1.0).value == pytest.approx(-0.25, rel=1e-10)

    def test_semi_infinite(self):
        assert integrate(lambda y: np.exp(-y), 0.0, math.inf).value == pytest.approx(1.0, rel=1e-10)
        # Int_0^inf y e^-y dy = 1, Gaussian integral = sqrt(pi/2)
        assert integrate(lambda y: y * np.exp(-y), 0.0, math.inf).value == pytest.approx(1.0, rel=1e-10)
        assert integrate(lambda y: np.exp(-0.5 * y * y), 0.0, math.inf).value == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-10
        )

    def test_shifted_semi_infinite(self):
        assert integrate(lambda y: np.exp(-(y - 2.0)), 2.0, math.inf).value == pytest.approx(
            1.0, rel=1e-10
        )

    def test_algebraic_endpoint_singularity(self):
        assert integrate(lambda u: 1.0 / np.sqrt(u), 0.0, 1.0).value == pytest.approx(
            2.0, rel=1e-9
        )

    def test_error_estimate_is_a_bound_on_test_corpus(self):
        for f, lo, hi, truth in [
            (lambda u: u * np.log1p(-u), 0.0, 1.0, -0.75),
            (lambda y: np.exp(-y), 0.0, math.inf, 1.0),
            (lambda u: np.log(u), 0.0, 1.0, -1.0),
        ]:
            res = integrate(f, lo, hi)
            assert abs(res.value - truth) <= max(10.0 * res.abs_error_estimate, 1e-12)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            integrate(lambda u: u, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda u: u, -math.inf, 1.0)
        # finite limits whose width or midpoint overflows: rejected before
        # any node is formed, so no floating-point warning leaks (pytest
        # turns one into an error)
        for lo, hi in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)), (1e308, 1.7e308),
                       (-1.7e308, -1e308)):
            with pytest.raises(ValueError, match="finite hi - lo and hi \\+ lo"):
                integrate(lambda x: np.exp(-x * x), lo, hi)

    def test_panels_near_the_largest_double_do_not_overflow(self):
        # the right end's chain has both bounds above 0.9e308, where p + q
        # overflows; midpoints and half-widths come from halved bounds
        L = 1.7e308
        res = integrate(lambda x: 1e-300 * np.log(L - x), 0.0, L)
        assert abs(res.value - 1e-300 * L * (math.log(L) - 1.0)) <= res.abs_error_estimate

    def test_nan_integrand_identifies_abscissa(self):
        with pytest.raises(QuadratureError, match="non-finite value at y="):
            integrate(lambda y: np.where(np.abs(y - 0.3) < 0.005, np.nan, 1.0), 0.0, 1.0)

    def test_budget_exhaustion_attaches_best_estimate(self, monkeypatch):
        for name, value in BUDGET_EXHAUSTED.items():
            monkeypatch.setattr(numerics, name, value)
        with pytest.raises(QuadratureError) as info:
            integrate(lambda u: 1.0 / np.sqrt(u), 0.0, 1.0)
        best = info.value.best
        assert best is not None
        assert best.value == pytest.approx(2.0, rel=1e-2)

    def test_divergent_integral_flagged(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_INTERVALS", 150)
        with pytest.raises(QuadratureError, match="divergent") as info:
            integrate(lambda u: 1.0 / u, 0.0, 1.0)
        assert info.value.best is not None

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-10.0, 10.0, allow_nan=False),
        b=st.floats(-10.0, 10.0, allow_nan=False),
    )
    def test_linearity(self, a, b):
        f = lambda u: np.sin(3.0 * u)  # noqa: E731
        g = lambda u: np.exp(-u) * u  # noqa: E731
        lhs = integrate(lambda u: a * f(u) + b * g(u), 0.0, 1.0)
        rhs = a * integrate(f, 0.0, 1.0).value + b * integrate(g, 0.0, 1.0).value
        tol = 10.0 * max(1e-12, 1e-10 * abs(rhs))
        assert lhs.value == pytest.approx(rhs, abs=tol)


def _nan_in_dead_zone():
    """(1 + y)^-1.2 on [0, inf), NaN at y = 1 on every call but the first.

    y = 1 is the mapped midpoint t = 1/2, a node of the first panel only and
    an endpoint after that.  Later calls reach y = 1 only at nodes that round
    onto t = 1, where the map falls back to y = lo + t: the dead zone."""
    calls = []

    def f(y):
        calls.append(None)
        out = (1.0 + y) ** -1.2
        return out if len(calls) == 1 else np.where(y == 1.0, np.nan, out)

    return f


def _nodes(lo, hi):
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * _XGK


# the first bisection of (0, 1): one node in each half
_LEFT_NODE, _RIGHT_NODE = _nodes(0.0, 0.5)[3], _nodes(0.5, 1.0)[10]


def _leftmost_panel(lo, hi, bisections):
    """The leftmost panel ``bisections`` levels below (lo, hi)."""
    for _ in range(bisections):
        hi = 0.5 * (lo + hi)
    return lo, hi


# a node of the leftmost panel three bisections below (-1, 2.5), where the
# "smooth" integrand bisects only twice: reached through the left end's
# bisection chain, evaluated ahead of need, never used
_UNUSED_NODE = _nodes(*_leftmost_panel(-1.0, 2.5, 3))[3]
# likewise eight bisections below, on the left end's bisection chain
_UNUSED_CHAIN_NODE = _nodes(*_leftmost_panel(-1.0, 2.5, 8))[3]
# a node ten bisections below (0, 1) on the left end's chain, which log(u)
# refines past: evaluated ahead of need, then used
_CHAIN_NODE = _nodes(*_leftmost_panel(0.0, 1.0, 10))[3]


def _strictly_inside(lo, hi, f):
    """``f``, raising ValueError at any node outside (lo, hi), as
    ``MarginalFamily.quantile`` does outside (0, 1)."""

    def g(u):
        if not np.all((u > lo) & (u < hi)):
            raise ValueError(f"node outside ({lo}, {hi})")
        return f(u)

    return g


# (integrand factory, lo, hi, numerics constants to set for the case); a
# factory because some integrands count their calls
BATCHING_CORPUS = {
    "smooth": (lambda: lambda u: np.sin(3.0 * u) + np.exp(-u) * u, -1.0, 2.5, {}),
    "smooth_tight": (lambda: lambda u: np.cos(7.0 * u) ** 2, 0.0, 4.0, {"_REL_TOL": 1e-13}),
    "log_endpoint": (lambda: lambda u: u * np.log1p(-u), 0.0, 1.0, {}),
    "plain_log": (lambda: np.log, 0.0, 1.0, {}),
    "semi_infinite_shifted": (lambda: lambda y: np.exp(-(y - 2.0)) * np.log1p(y), 2.0, math.inf, {}),
    "semi_infinite_negative_lo": (lambda: lambda y: np.exp(-0.5 * y * y), -1.5, math.inf, {}),
    "heavy_tail_shifted": (lambda: lambda y: (1.0 + y * y) ** -0.8, 0.5, math.inf,
                           {"_MAX_INTERVALS": 300}),
    "budget_exhausted": (lambda: lambda u: 1.0 / np.sqrt(u), 0.0, 1.0, BUDGET_EXHAUSTED),
    "divergent": (lambda: lambda u: 1.0 / u, 0.0, 1.0, {"_MAX_INTERVALS": 150}),
    "nan_at_finite_node": (lambda: lambda y: np.where(np.abs(y - 0.3) < 0.005, np.nan, 1.0), 0.0, 1.0, {}),
    "nan_in_both_halves": (
        lambda: lambda y: np.where(np.isin(y, [_LEFT_NODE, _RIGHT_NODE]), np.nan, np.log(y)), 0.0, 1.0, {}
    ),
    "inf_in_right_half": (lambda: lambda y: np.where(y == _RIGHT_NODE, np.inf, np.log(y)), 0.0, 1.0, {}),
    "nan_at_mapped_node": (lambda: lambda y: np.where(y > 50.0, np.nan, np.exp(-y)), 0.0, math.inf, {}),
    "nan_in_dead_zone": (_nan_in_dead_zone, 0.0, math.inf, {}),
    "jacobian_overflow": (lambda: lambda y: np.full_like(y, 1e300), 0.0, math.inf, {}),
    "nan_at_unused_node": (
        lambda: lambda u: np.where(u == _UNUSED_NODE, np.nan, np.sin(3.0 * u) + np.exp(-u) * u), -1.0, 2.5, {}
    ),
    "nan_at_unused_chain_node": (
        lambda: lambda u: np.where(u == _UNUSED_CHAIN_NODE, np.nan, np.sin(3.0 * u) + np.exp(-u) * u), -1.0, 2.5, {}
    ),
    "nan_at_chain_node": (lambda: lambda u: np.where(u == _CHAIN_NODE, np.nan, np.log(u)), 0.0, 1.0, {}),
    # log singularities at both ends, refined so deep at 2.0 that nodes of
    # the chain's deepest panels would round onto it
    "strictly_inside_log_ends": (
        lambda: _strictly_inside(0.25, 2.0, lambda u: np.log(u - 0.25) * np.log(2.0 - u)), 0.25, 2.0,
        {"_REL_TOL": 1e-15},
    ),
}


def _outcome(integrator, factory, lo, hi, constants):
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(numerics, name, value)
        try:
            return integrator(factory(), lo, hi)
        except QuadratureError as exc:
            return (str(exc), exc.best)


def _same(a, b):
    """Equal with every float bitwise the same and of the same type."""
    return repr(a) == repr(b) and a == b


class TestBatchedEvaluation:
    """``integrate`` evaluates a panel's halves, and a touched end's bisection
    chain, in one integrand call; the sequential scheme with one call per
    panel is the reference, and every result, error message and best
    estimate must equal it."""

    @pytest.mark.parametrize("name", sorted(BATCHING_CORPUS))
    def test_bitwise_equal_to_per_panel_reference(self, name):
        factory, lo, hi, constants = BATCHING_CORPUS[name]
        assert _same(_outcome(integrate, factory, lo, hi, constants),
                     _outcome(integrate_per_panel, factory, lo, hi, constants))

    def test_corpus_reaches_the_error_paths(self):
        outcomes = {name: _outcome(integrate, *case) for name, case in BATCHING_CORPUS.items()}
        assert outcomes["nan_in_both_halves"][0].endswith(f"y={_LEFT_NODE!r}")
        assert outcomes["inf_in_right_half"][0].endswith(f"y={_RIGHT_NODE!r}")
        assert outcomes["nan_in_dead_zone"][0].endswith("y=np.float64(1.0)")
        # the message names the node in y, not in the mapped variable t
        assert float(outcomes["nan_at_mapped_node"][0].split("(")[-1].rstrip(")")) > 50.0
        assert float(outcomes["jacobian_overflow"][0].split("(")[-1].rstrip(")")) > 1e4
        assert "divergent" in outcomes["divergent"][0]
        assert outcomes["budget_exhausted"][1] is not None
        assert outcomes["nan_at_chain_node"][0].endswith(f"y={_CHAIN_NODE!r}")
        assert isinstance(outcomes["strictly_inside_log_ends"], MeasureResult)

    def test_heavy_tail_budget_exhaustion(self):
        # CE of InverseWeibull(beta=1.2): the y^-1.2 tail exhausts the budget
        m = InverseWeibull(1.0, 1.2)
        term = lambda F, logF: -F * logF  # noqa: E731
        outcomes = []
        for integrator in (integrate, integrate_per_panel):
            with pytest.raises(QuadratureError, match="tolerance not reached") as info:
                log_cdf_integral(m, term, integrator)
            outcomes.append((str(info.value), info.value.best))
        assert _same(*outcomes)
        assert outcomes[0][1].evaluations == 59_985

    @pytest.mark.parametrize(
        "name", ["smooth", "log_endpoint", "plain_log", "semi_infinite_shifted", "budget_exhausted"]
    )
    def test_one_call_per_bisection(self, name):
        # the first call evaluates the first panel with its first batch (its
        # halves and both ends' chains, none of whose panels is narrow
        # enough here to be filtered out), then one call per pop whose
        # halves are not cached: those two halves at least, at most the
        # halves plus the bisection chain of the one end the panel touches;
        # fewer calls than bisections, and along a log endpoint about one
        # per _EDGE_DEPTH bisections; the count stays the sequential one
        factory, lo, hi, constants = BATCHING_CORPUS[name]
        inner = factory()
        sizes = []

        def f(x):
            assert x.ndim == 1
            sizes.append(x.size)
            return inner(x)

        result = _outcome(integrate, lambda: f, lo, hi, constants)
        evaluations = result[1].evaluations if isinstance(result, tuple) else result.evaluations
        bisections, rest = divmod(evaluations - 15, 30)
        assert rest == 0 and bisections >= 2
        most = 15 * (2 + 2 * numerics._EDGE_DEPTH)
        assert sizes[0] == 15 * (3 + 4 * numerics._EDGE_DEPTH)
        assert all(size in range(30, most + 1, 15) for size in sizes[1:])
        assert len(sizes) - 1 < bisections
        if name in ("log_endpoint", "plain_log"):
            assert len(sizes) - 1 <= math.ceil(bisections / numerics._EDGE_DEPTH)

    def test_pop_away_from_both_ends_evaluates_only_its_halves(self, monkeypatch):
        # a kink at 0.3 makes the loop pop panels that touch neither end of
        # (0, 1): the call of each such pop evaluates its two halves alone
        plan, inside, sizes = numerics._batch_plan, [], []

        def spy(a, b, lo, hi, *rest):
            inside.append(lo < a and b < hi)
            return plan(a, b, lo, hi, *rest)

        def g(u):
            return np.sqrt(np.abs(u - 0.3))

        def f(u):
            sizes.append(u.size)
            return g(u)

        monkeypatch.setattr(numerics, "_batch_plan", spy)
        assert _same(integrate(f, 0.0, 1.0), integrate_per_panel(g, 0.0, 1.0))
        interior = [size for away, size in zip(inside, sizes, strict=True) if away]
        assert interior and set(interior) == {30}

    def test_nan_at_a_node_evaluated_ahead_of_need_does_not_raise(self):
        for name, node in (("nan_at_unused_node", _UNUSED_NODE), ("nan_at_unused_chain_node", _UNUSED_CHAIN_NODE)):
            factory, lo, hi, constants = BATCHING_CORPUS[name]
            inner = factory()
            seen = []

            def f(u, inner=inner, node=node, seen=seen):
                seen.append(node in u)
                return inner(u)

            result = _outcome(integrate, lambda: f, lo, hi, constants)
            assert isinstance(result, MeasureResult) and result.evaluations == 75
            assert any(seen)

    def test_only_nodes_the_loop_takes_reach_an_endpoint(self):
        # (1-u)^-0.9, zeroed from u = 1 on, refines the right end until its
        # nodes round onto 1.0; the ones evaluated ahead of need never do
        ends = {}
        for integrator in (integrate, integrate_per_panel):
            count = ends[integrator] = []

            def f(u, count=count):
                count.append(np.count_nonzero((u <= 0.0) | (u >= 1.0)))
                return np.where(u < 1.0, (1.0 - u) ** -0.9, 0.0)

            with pytest.raises(QuadratureError, match="tolerance not reached after 59985"):
                integrator(f, 0.0, 1.0)
        assert sum(ends[integrate]) == sum(ends[integrate_per_panel]) > 0

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(-0.9, 2.0),
        b=st.floats(0.0, 3.0),
        c=st.floats(-0.9, 2.0),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-3, 10.0),
        semi_infinite=st.booleans(),
    )
    def test_power_log_integrands_equal_the_per_panel_reference(self, a, b, c, lo, width, semi_infinite):
        # g(u) = u^a |log u|^b (1-u)^c on (0, 1), singular at either end:
        # on a finite (lo, hi) in u = (y - lo)/(hi - lo), and on [lo, inf)
        # in u = s/(1 + s), s = y - lo, which the tail map turns back into g
        def g(u):
            return u**a * np.abs(np.log(u)) ** b * (1.0 - u) ** c

        if semi_infinite:
            hi = math.inf
            factory = lambda: lambda y: g((y - lo) / (1.0 + (y - lo))) / (1.0 + (y - lo)) ** 2  # noqa: E731
        else:
            hi = lo + width
            factory = lambda: lambda y: g((y - lo) / (hi - lo))  # noqa: E731
        assert _same(_outcome(integrate, factory, lo, hi, {}), _outcome(integrate_per_panel, factory, lo, hi, {}))

    def test_kronrod_edge_rows_equal_the_per_row_rule(self):
        # (lo, hi, the integrand's 15 values); the np.float64 bounds must
        # give np.float64 results, as the per-row rule does
        rows = [
            (0.0, 1.0, np.zeros(15)),
            (0.0, 2.0, np.full(15, 3.25)),  # constant: resasc == 0
            (-1.0, 1.0, np.full(15, 1e300)),
            (0.0, 1.0, np.where(np.arange(15) % 2 == 0, 1e200, -1e200)),
            (0.0, 1e-310, np.linspace(1.0, 2.0, 15)),  # subnormal half-width
            (np.float64(0.25), np.float64(0.75), np.exp(_XGK)),
        ]
        values = np.array([fx for _, _, fx in rows])
        nodes = np.array([_nodes(lo, hi) for lo, hi, _ in rows])
        batched = numerics._kronrod_rows(lambda x: (x, values, values), nodes)
        for (lo, hi, fx), row in zip(rows, batched):
            assert _same(numerics._finish_row(row, lo, hi), kronrod_panel(lambda x, fx=fx: fx, lo, hi))


class TestBatchPlans:
    """``integrate`` keeps each batch's panels and read-only nodes
    (``_batch_plan``) per process, keyed on the popped panel, the interval,
    the edge depth and the argument types; no result may depend on what the
    cache holds."""

    def test_cold_warm_and_thrashed_cache_equal_the_per_panel_reference(self, monkeypatch):
        expected = {name: _outcome(integrate_per_panel, *case) for name, case in BATCHING_CORPUS.items()}
        for name, case in BATCHING_CORPUS.items():
            numerics._batch_plan.cache_clear()
            cold = _outcome(integrate, *case)
            hits = numerics._batch_plan.cache_info().hits
            warm = _outcome(integrate, *case)
            assert numerics._batch_plan.cache_info().hits > hits
            assert _same(cold, expected[name]) and _same(warm, expected[name]), name
        # a one-plan cache evicts on every miss
        thrashed = functools.lru_cache(maxsize=1, typed=True)(numerics._batch_plan.__wrapped__)
        monkeypatch.setattr(numerics, "_batch_plan", thrashed)
        for name, case in BATCHING_CORPUS.items():
            assert _same(_outcome(integrate, *case), expected[name]), name
        assert thrashed.cache_info().misses > len(BATCHING_CORPUS)

    def test_numpy_float_limits_keep_numpy_float_results(self):
        f = BATCHING_CORPUS["smooth"][0]()
        plain = integrate(f, -1.0, 2.5)  # caches plans with Python-float bounds
        res = integrate(f, np.float64(-1.0), np.float64(2.5))
        assert type(res.value) is np.float64 and type(res.abs_error_estimate) is np.float64
        assert _same(res, integrate_per_panel(f, np.float64(-1.0), np.float64(2.5)))
        assert (res.value, res.abs_error_estimate) == (plain.value, plain.abs_error_estimate)
        bounds, _ = numerics._batch_plan(np.float64(-1.0), np.float64(2.5), np.float64(-1.0), np.float64(2.5),
                                         True, numerics._EDGE_DEPTH)
        assert {type(v) for panel in bounds for v in panel} == {np.float64}

    @pytest.mark.parametrize("name", ["log_endpoint", "plain_log", "nan_in_both_halves", "nan_at_mapped_node"])
    def test_negative_zero_lower_limit(self, name):
        # -0.0 and 0.0 are equal cache keys; either may fill the cache first
        factory, lo, hi, constants = BATCHING_CORPUS[name]
        assert lo == 0.0
        for order in ((-0.0, 0.0), (0.0, -0.0)):
            numerics._batch_plan.cache_clear()
            first, second = (_outcome(integrate, factory, z, hi, constants) for z in order)
            assert _same(first, second)
            assert _same(first, _outcome(integrate_per_panel, factory, order[0], hi, constants))

    def test_integrand_writing_into_its_argument(self):
        # the cached nodes are shared between calls, so the integrand gets a
        # copy: neither this result nor a later one may see the write
        def writing(g):
            def f(x):
                out = g(x)
                x[:] = np.nan
                return out
            return f

        for g, lo, hi in ((np.log, 0.0, 1.0), (lambda y: np.exp(-y) * np.log1p(y), 0.0, math.inf)):
            expected = integrate_per_panel(g, lo, hi)
            numerics._batch_plan.cache_clear()
            assert _same(integrate(writing(g), lo, hi), expected)
            assert _same(integrate(writing(g), lo, hi), expected)
            assert _same(integrate(g, lo, hi), expected)

    @pytest.mark.parametrize("edge_depth", [0, 5])
    def test_patched_edge_depth_reads_no_stale_plan(self, edge_depth):
        # the results are the same at any depth, so the first call's size
        # shows which plan was read: the patched depth's, not a cached one
        for name in ("log_endpoint", "plain_log", "strictly_inside_log_ends"):
            factory, lo, hi, constants = BATCHING_CORPUS[name]
            _outcome(integrate, factory, lo, hi, constants)
            sizes = []

            def f(x, inner=factory()):
                sizes.append(x.size)
                return inner(x)

            patched = {**constants, "_EDGE_DEPTH": edge_depth}
            assert _same(_outcome(integrate, lambda: f, lo, hi, patched),
                         _outcome(integrate_per_panel, factory, lo, hi, patched))
            assert sizes[0] == 15 * (3 + 4 * edge_depth)


class TestPsi:
    def test_special_values(self):
        assert digamma(1.0) == pytest.approx(-EULER, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER, abs=1e-12)
        # duplication formula at x = 1/2: psi(1/2) = -gamma - 2 log 2
        assert digamma(0.5) == pytest.approx(-EULER - 2.0 * math.log(2.0), abs=1e-12)

    def test_series_oracle(self):
        # psi(x) = -gamma + sum_k (1/(k+1) - 1/(k+x)), truncated with the
        # (x-1)/K tail correction
        K = 2_000_000
        for x in (0.25, 1.75, 3.5):
            k = np.arange(0, K, dtype=float)
            approx = -EULER + float(np.sum(1.0 / (k + 1.0) - 1.0 / (k + x))) + (x - 1.0) / K
            assert digamma(x) == pytest.approx(approx, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_exact_identities(self, n):
        # psi and psi' at integers and half-integers from exact rational sums
        eps = np.finfo(float).eps
        odd = [Fraction(1, 2 * k - 1) for k in range(1, n + 1)]
        cases = [
            (digamma(n), -EULER + float(sum(Fraction(1, k) for k in range(1, n)))),
            (digamma(n + 0.5), -EULER - 2.0 * math.log(2.0) + float(2 * sum(odd))),
            (trigamma(n), math.pi**2 / 6.0 - float(sum(Fraction(1, k * k) for k in range(1, n)))),
            (trigamma(n + 0.5), math.pi**2 / 2.0 - float(4 * sum(f * f for f in odd))),
        ]
        for value, ref in cases:
            assert abs(value - ref) <= 8.0 * eps * max(1.0, abs(ref))

    def test_recurrence_grid(self):
        xs = np.logspace(-3, 6, 1000)
        for x in xs:
            x = float(x)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12

    def test_reflection_grid(self):
        # psi(1-x) - psi(x) = pi cot(pi x), kept away from the poles
        for x in np.linspace(0.06, 0.94, 1000):
            x = float(x)
            lhs = digamma(1.0 - x) - digamma(x)
            rhs = math.pi / math.tan(math.pi * x)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)
        with pytest.raises(ValueError):
            trigamma(-0.5)

    def test_trigamma_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-12)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)

    def test_trigamma_recurrence(self):
        for x in np.logspace(-2, 4, 200):
            x = float(x)
            assert abs(trigamma(x) - trigamma(x + 1.0) - 1.0 / (x * x)) < 1e-11 * max(
                1.0, trigamma(x)
            )

    def test_against_mpmath(self):
        # a log grid over the whole range, the zero of psi and the points
        # around the recurrence's switch to the series at x = 10
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        xs = [*np.logspace(-3, 300, 4008), 0.5, 1.0, 1.4616321449683622, 1.5, 2.0, 2.5, 3.0, 10.0 - 1e-6, 10.0]
        worst_psi = worst_psi1 = 0.0
        with mp.workdps(40):
            for x in map(float, xs):
                psi, psi1 = mp.digamma(x), mp.psi(1, x)
                worst_psi = max(worst_psi, float(abs(digamma(x) - psi) / max(1, abs(psi))) / eps)
                worst_psi1 = max(worst_psi1, float(abs(trigamma(x) - psi1) / psi1) / eps)
        assert worst_psi <= 6.0 and worst_psi1 <= 6.0, (worst_psi, worst_psi1)

    def test_bernoulli_table(self):
        # B_0 .. B_14 (B_1 = -1/2), each the double nearest the exact value
        mp = pytest.importorskip("mpmath")
        assert numerics._BERNOULLI == tuple(float(mp.bernoulli(k)) for k in range(15))


class TestRngStream:
    def test_determinism(self):
        a = RngStream(seed=12345, stream_id=3)
        b = RngStream(seed=12345, stream_id=3)
        assert [a.uniforms(1)[0] for _ in range(10)] == [b.uniforms(1)[0] for _ in range(10)]

    def test_distinct_streams(self):
        a = RngStream(seed=12345, stream_id=0).uniforms(32)
        b = RngStream(seed=12345, stream_id=1).uniforms(32)
        assert not np.array_equal(a, b)

    def test_open_interval(self):
        u = RngStream(seed=0).uniforms(1_000_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_repr(self):
        assert repr(RngStream(12345, 3)) == "RngStream(seed=12345, stream_id=3)"
        assert repr(RngStream(np.uint8(7))) == "RngStream(seed=7, stream_id=0)"

    def test_mean_clt_bound(self):
        u = RngStream(seed=0).uniforms(1_000_000)
        assert abs(u.mean() - 0.5) < 0.002

    @pytest.mark.parametrize("args, message", [
        ((-1,), "seed must be a non-negative integer, got -1"),
        ((1, -2), "stream_id must be a non-negative integer, got -2"),
    ])
    def test_negative_seed_names_its_input(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RngStream(*args)

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, False, "1", np.float64(1.0), np.True_], ids=repr)
    def test_non_integer_seed_rejected(self, seed):
        # int() truncated 1.7 and True to seed 1
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
            RngStream(seed)

    @pytest.mark.parametrize("stream_id", [2.5, 2.0, True, "2", np.float32(2.0)], ids=repr)
    def test_non_integer_stream_id_rejected(self, stream_id):
        with pytest.raises(ValueError, match=r"^stream_id must be a non-negative integer, got "):
            RngStream(1, stream_id)

    def test_numpy_integer_seed_and_stream_id(self):
        a, b = RngStream(np.uint64(2**63 + 5), np.int32(7)), RngStream(2**63 + 5, 7)
        assert (type(a.seed), type(a.stream_id)) == (int, int)
        assert _same_bits(a.uniforms(100), b.uniforms(100))

    @pytest.mark.parametrize("index", [2.5, 2.0, True, False, "2", np.float64(2.0)], ids=repr)
    def test_non_integer_substream_index_rejected(self, index):
        # int() truncated 2.5 to substream 2 and True to substream 1
        with pytest.raises(ValueError, match=r"^index must be a non-negative integer, got "):
            RngStream(1).substream(index)

    def test_negative_substream_index_names_its_input(self):
        with pytest.raises(ValueError, match=r"^index must be a non-negative integer, got -1$"):
            RngStream(1).substream(-1)

    def test_numpy_integer_substream_index(self):
        for index in (np.uint8(7), np.int64(7), np.uint64(7)):
            assert _same_bits(RngStream(1).substream(index).uniforms(50), RngStream(1).substream(7).uniforms(50))

    def test_substream_is_order_independent(self):
        s = RngStream(seed=99)
        late = s.substream(7).uniforms(4)
        s2 = RngStream(seed=99)
        for i in range(7):
            s2.substream(i).uniforms(100)  # interleaved other work
        again = s2.substream(7).uniforms(4)
        np.testing.assert_array_equal(late, again)

    def test_ks_against_uniform_on_fixed_seeds(self):
        # 1% asymptotic critical value, n = 1e4; at least 9 of 10 seeds pass
        crit = 1.6276 / math.sqrt(10_000)
        passed = 0
        for seed in range(10):
            u = np.sort(RngStream(seed).uniforms(10_000))
            i = np.arange(1, u.size + 1)
            d = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
            passed += d < crit
        assert passed >= 9


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRngStreamMatchesGenerator:
    """Raw PCG64 outputs give the values Generator.integers(0, 2**53) gave."""

    SEEDS = [(0, 0), (12345, 3), (2**32, 0), (2**32 + 7, 5), (2**64 + 11, 1), (2**100 - 3, 2)]

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    @pytest.mark.parametrize("size", [0, 1, 2, 53, 100_000])
    def test_uniforms(self, seed, stream_id, size):
        a = RngStream(seed, stream_id).uniforms(size)
        b = GeneratorStream(seed, stream_id).uniforms(size)
        assert _same_bits(a, b)

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    def test_interleaved_draws_advance_alike(self, seed, stream_id):
        a, b = RngStream(seed, stream_id), GeneratorStream(seed, stream_id)
        for size in (3, 0, 1, 17, 2, 1000, 53):
            assert _same_bits(a.uniforms(1), b.uniforms(1))
            assert _same_bits(a.uniforms(size), b.uniforms(size))
            assert _same_bits(a.uniforms(1), b.uniforms(1))

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    def test_substreams(self, seed, stream_id):
        a, b = RngStream(seed, stream_id), GeneratorStream(seed, stream_id)
        for i in (0, 1, 2, 999, 2**40):
            assert _same_bits(a.substream(i).uniforms(257), b.substream(i).uniforms(257))
            assert _same_bits(
                a.substream(i).substream(3).uniforms(5), b.substream(i).substream(3).uniforms(5)
            )


class TestBlockUniforms:
    """Row j of block_uniforms(start, out) is substream(start + j).uniforms(n),
    bit for bit, against np.random.SeedSequence through GeneratorStream."""

    @staticmethod
    def _parents(seed, stream_id):
        """(RngStream, GeneratorStream) pairs: the stream and its substream 5."""
        a, b = RngStream(seed, stream_id), GeneratorStream(seed, stream_id)
        return [(a, b), (a.substream(5), b.substream(5))]

    @staticmethod
    def _check(parent, reference, start, rows, n):
        out = np.full((rows, n), np.nan)
        parent.block_uniforms(start, out)
        expected = np.array([reference.substream(start + j).uniforms(n) for j in range(rows)])
        assert _same_bits(out, expected.reshape(rows, n))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 11, 2**100 - 3, 2**128 + 5])
    @pytest.mark.parametrize("stream_id", [0, 999, 2**32, 2**33 + 1])
    def test_rows_are_substreams(self, seed, stream_id):
        for parent, reference in self._parents(seed, stream_id):
            for start, rows in ((0, 0), (0, 1), (7, 1), (0, 37), (123_456, 9)):
                for n in (0, 1, 20):
                    self._check(parent, reference, start, rows, n)

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (2**100 - 3, 2**33 + 1)])
    def test_block_straddling_index_2_32(self, seed, stream_id):
        # rows up to index 2^32 - 1 are served; a block reaching 2^32 raises
        for parent, reference in self._parents(seed, stream_id):
            for start, rows in ((2**32 - 3, 3), (2**32 - 1, 1), (2**32, 0)):
                self._check(parent, reference, start, rows, 20)
            for start, rows in ((2**32 - 3, 4), (2**32 - 1, 2), (2**32, 1), (2**40, 3)):
                self._check_rejected(parent, start, np.full((rows, 20), np.nan), self.BAD_START)

    # the messages of block_uniforms' two input checks
    BAD_START = r"^need 0 <= start and start \+ rows <= 2\*\*32, got start="
    BAD_OUT = r"^out must be a 2-d C-contiguous float64 array, got "

    @staticmethod
    def _check_rejected(parent, start, out, message):
        before = out.copy()
        with pytest.raises(ValueError, match=message):
            parent.block_uniforms(start, out)
        assert _same_bits(out, before)

    def test_leaves_the_stream_unchanged(self):
        a, b = RngStream(3, 1), RngStream(3, 1)
        a.uniforms(5)
        b.uniforms(5)
        a.block_uniforms(0, np.empty((4, 10)))
        assert _same_bits(a.uniforms(50), b.uniforms(50))

    def test_concurrent_calls_on_one_stream(self):
        self._fill_concurrently(n=4000, rows=2)

    def test_concurrent_calls_on_one_stream_below_jump_max_n(self):
        self._fill_concurrently(n=20, rows=16)

    @staticmethod
    def _fill_concurrently(n, rows):
        # more threads than this machine has CPUs fill interleaved blocks
        # from one fresh stream at once, switching as often as they can
        stream, total = RngStream(17, 3), 512
        workers = (os.cpu_count() or 1) + 1
        expected = np.empty((total, n))
        RngStream(17, 3).block_uniforms(0, expected)
        got = np.full((total, n), np.nan)
        barrier = threading.Barrier(workers)

        def fill(first):
            barrier.wait()
            for start in range(first, total, workers * rows):
                stream.block_uniforms(start, got[start : start + rows])

        threads = [threading.Thread(target=fill, args=(k * rows,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert _same_bits(got, expected)

    # sample sizes of the array-arithmetic path and the first of the per-row one
    JUMP_NS = [1, 2, 3, 5, 37, numerics._JUMP_MAX_N - 1, numerics._JUMP_MAX_N]

    @pytest.mark.parametrize("n", JUMP_NS)
    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (2**32, 999), (2**100 - 3, 2**33 + 1), (2**128 + 5, 7)])
    def test_rows_are_substreams_at_every_path(self, seed, stream_id, n):
        for parent, reference in self._parents(seed, stream_id):
            for start, rows in ((0, 1), (5, 3), (123_456, 41)):
                self._check(parent, reference, start, rows, n)

    @pytest.mark.parametrize("n", JUMP_NS)
    def test_straddling_index_2_32_at_every_path(self, n):
        # the top of the uint32 index range either way; one row past it raises
        for parent, reference in self._parents(2**64 + 11, 2**33 + 1):
            for start, rows in ((2**32 - 5, 5), (2**32 - 1, 1)):
                self._check(parent, reference, start, rows, n)
            for start, rows in ((2**32 - 5, 8), (2**32 - 1, 2)):
                self._check_rejected(parent, start, np.full((rows, n), np.nan), self.BAD_START)

    @pytest.mark.parametrize("n", [numerics._JUMP_MAX_N - 1, numerics._JUMP_MAX_N])
    def test_path_depends_on_n_alone(self, monkeypatch, n):
        calls = []
        block = numerics._pcg64_block
        monkeypatch.setattr(numerics, "_pcg64_block", lambda *args: calls.append(n) or block(*args))
        for start, rows in ((0, 1), (0, 300), (2**32 - 3, 3)):
            RngStream(1).block_uniforms(start, np.empty((rows, n)))
        assert len(calls) == (3 if n < numerics._JUMP_MAX_N else 0)

    def test_adding_half_an_ulp_rounds_as_uniforms(self):
        # block_uniforms adds 2^-54 to k 2^-53 where uniforms scales k + 1/2:
        # both round (2k + 1) 2^-54, ties to even from k = 2^52 on, and
        # k = 2^53 - 1 gives 1.0 either way
        k = np.concatenate([np.arange(5), 2**52 + np.arange(-4, 5), 2**53 - np.arange(1, 9),
                            np.random.default_rng(3).integers(0, 2**53, 10_000)]).astype(np.uint64)
        added = k.astype(float) * 2.0**-53
        added += 2.0**-54
        assert _same_bits(added, (k + 0.5) * 2.0**-53)
        assert added[np.argmax(k)] == 1.0

    @pytest.mark.parametrize("n", [20, 4000])
    def test_non_contiguous_out(self, n):
        # out must be a 2-d C-contiguous float64 array: anything else raises
        # before a value is written, whichever way the row length picks
        a = RngStream(9, 2)
        for out in (np.full((n, 6), np.nan).T, np.full((6, 2 * n), np.nan)[:, ::2],
                    np.full((6, n), np.nan, dtype=np.float32), np.full(n, np.nan),
                    np.full((1, 6, n), np.nan)):
            self._check_rejected(a, 40, out, self.BAD_OUT)

    @pytest.mark.parametrize("n", [20, 4000])
    def test_negative_start(self, n):
        for start in (-1, -(2**40)):
            self._check_rejected(RngStream(9, 2), start, np.full((3, n), np.nan), self.BAD_START)

    @pytest.mark.parametrize("n", [20, 4000])
    @pytest.mark.parametrize("start", [1.5, 1.0, True, "1", np.float64(1.0)], ids=repr)
    def test_non_integer_start_rejected(self, n, start):
        # rows were filled from int(start): 1 for 1.5 and True
        message = r"^start must be a non-negative integer, got "
        self._check_rejected(RngStream(9, 2), start, np.full((3, n), np.nan), message)

    @pytest.mark.parametrize("n", [20, 4000])
    def test_numpy_integer_start(self, n):
        expected = np.empty((3, n))
        RngStream(9, 2).block_uniforms(5, expected)
        for start in (np.uint8(5), np.int64(5), np.uint64(5)):
            out = np.full((3, n), np.nan)
            RngStream(9, 2).block_uniforms(start, out)
            assert _same_bits(out, expected)

    def test_no_floating_point_or_overflow_warnings(self):
        # uint64 arithmetic wraps silently on arrays, not on numpy scalars;
        # the per-row path adds 2^-54 in floats
        for n in (20, numerics._JUMP_MAX_N):
            out = np.empty((300, n))
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                RngStream(2**100 - 3, 5).block_uniforms(2**32 - 300, out)
                report = mc_validate(Exponential(1.0), record_value(2), 0.5, n, 200, RngStream(4))
            expected = np.array([GeneratorStream(2**100 - 3, 5).substream(2**32 - 300 + j).uniforms(n)
                                 for j in range(300)])
            assert _same_bits(out, expected)
            assert math.isfinite(report.empirical_mean)
