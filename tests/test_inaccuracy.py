"""Inaccuracy measures: decomposition vs quadrature, closed forms, identities.

Published display formulas act as one oracle and direct quadrature of
-Int g log f as another; the decomposition must agree with both.  Derived
constants are frozen from analytic antiderivatives computed independently.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concomitant_measures import cpi, inaccuracy, numerics
from concomitant_measures.cpi import cpi_gos, reversed_cpi
from concomitant_measures.fgm import (
    FgmModel,
    GosParams,
    c_star,
    order_statistics,
    record_value,
)
from concomitant_measures.inaccuracy import (
    extremes_inaccuracy,
    inaccuracy_gos,
    quantile_form_inaccuracy,
    reversed_inaccuracy,
)
from concomitant_measures.marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    Uniform,
)
from concomitant_measures.numerics import MeasureResult, QuadratureError, digamma, integrate
from oracles import LOGISTIC_TILT_CONSTANT, closed_form_inaccuracy

EULER = 0.5772156649015328606

FAMILIES = [
    Exponential(1.3),
    Logistic(),
    Rayleigh(0.8),
    GeneralizedExponential(1.2, 2.5),
    Uniform(1.7),
    InverseWeibull(1.1, 2.0),
]


def model(marginal, alpha):
    return FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=alpha)


class TestDecomposition:
    def test_alpha_zero_gives_entropy(self):
        for m in FAMILIES:
            res = inaccuracy_gos(model(m, 0.0), order_statistics(2, 9))
            assert res.value == pytest.approx(m.shannon_entropy(), abs=1e-14)
            assert res.method == "closed_form"
            assert res.abs_error_estimate == 0.0

    def test_exponential_spot_value(self):
        res = inaccuracy_gos(model(Exponential(1.0), 1.0), order_statistics(1, 3))
        assert res.value == pytest.approx(0.75, abs=1e-12)

    def test_closed_vs_quadrature(self):
        for m in FAMILIES:
            for alpha, p in [(-1.0, order_statistics(1, 4)), (0.7, record_value(3)),
                             (0.5, GosParams(2, 5, 1.0, 2.0))]:
                a = inaccuracy_gos(model(m, alpha), p)
                b = inaccuracy_gos(model(m, alpha), p, method="quadrature")
                assert b.method == "quadrature"
                assert a.value == pytest.approx(b.value, rel=1e-8)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            inaccuracy_gos(model(Uniform(1.0), 0.5), order_statistics(1, 2), method="series")


class TestClosedForms:
    def test_exponential_display_formula(self):
        # (1 + log theta) - coeff/2 against the generic decomposition
        for theta in (0.5, 1.0, 2.7):
            for coeff in (-0.9, -0.3, 0.0, 0.4, 1.0):
                m = Exponential(theta)
                display = closed_form_inaccuracy(m, coeff)
                assert display == pytest.approx((1.0 + math.log(theta)) - 0.5 * coeff, abs=1e-14)
                generic = (1.0 + coeff) * m.shannon_entropy() + 2.0 * coeff * m.phi_f()
                assert display == pytest.approx(generic, abs=1e-12)

    def test_gbed_trivial(self):
        assert closed_form_inaccuracy(Exponential(1.0), 0.0) == pytest.approx(1.0)

    def test_logistic_constant_at_published_precision(self):
        # engine constant 1/4 + log(2)/2 = 0.596574...; published rounding is 0.6
        assert LOGISTIC_TILT_CONSTANT == pytest.approx(0.5965735902799727, abs=1e-15)
        assert abs(LOGISTIC_TILT_CONSTANT - 0.6) < 5e-3
        assert round(LOGISTIC_TILT_CONSTANT, 1) == 0.6
        # the quadrature-built value agrees with the engine constant exactly
        measured = integrate(
            lambda u: (1.0 - 2.0 * u) * np.log(u * (1.0 - u)), 0.5, 1.0
        ).value
        assert measured == pytest.approx(LOGISTIC_TILT_CONSTANT, abs=1e-10)

    def test_logistic_zero_coefficient(self):
        assert closed_form_inaccuracy(Logistic(), 0.0) == pytest.approx(1.0)

    def test_rayleigh_display_formula(self):
        for sigma in (0.5, 1.0, 3.0):
            m = Rayleigh(sigma)
            for coeff in (-1.0, -0.2, 0.6):
                display = closed_form_inaccuracy(m, coeff)
                expected = (
                    coeff * (math.log(math.sqrt(2.0)) - 0.5)
                    + 1.0 + 0.5 * EULER + math.log(sigma / math.sqrt(2.0))
                )
                assert display == pytest.approx(expected, abs=1e-14)
                generic = (1.0 + coeff) * m.shannon_entropy() + 2.0 * coeff * m.phi_f()
                assert display == pytest.approx(generic, abs=1e-12)

    def test_genexp_display_formula_and_lam1_consistency(self):
        # D(1) = B(2) - B(1) = 1/2, so lam=1, theta=1 gives 1 - coeff/2 (the
        # exponential formula)
        B = lambda l: digamma(l + 1.0) - digamma(1.0)  # noqa: E731
        assert B(2.0) - B(1.0) == pytest.approx(0.5, abs=1e-12)
        for coeff in (-0.8, 0.0, 0.5, 1.0):
            v = closed_form_inaccuracy(GeneralizedExponential(1.0, 1.0), coeff)
            assert v == pytest.approx(1.0 - 0.5 * coeff, abs=1e-12)
            assert v == pytest.approx(closed_form_inaccuracy(Exponential(1.0), coeff), abs=1e-12)
        for theta, lam, coeff in [(0.7, 2.0, 0.3), (2.0, 4.5, -0.9), (1.2, 0.6, 1.0)]:
            m = GeneralizedExponential(theta, lam)
            generic = (1.0 + coeff) * m.shannon_entropy() + 2.0 * coeff * m.phi_f()
            assert closed_form_inaccuracy(m, coeff) == pytest.approx(generic, abs=1e-12)

    def test_uniform_is_constant_in_coefficient(self):
        for coeff in (-1.0, 0.0, 1.0):
            assert closed_form_inaccuracy(Uniform(2.0), coeff) == pytest.approx(math.log(2.0))

    def test_matches_measure_for_gos_coefficient(self):
        p = order_statistics(2, 7)
        for m in FAMILIES:
            for alpha in (-0.8, 0.4):
                coeff = alpha * c_star(p)
                assert closed_form_inaccuracy(m, coeff) == pytest.approx(
                    inaccuracy_gos(model(m, alpha), p).value, abs=1e-12
                )


class TestReversed:
    def test_alpha_zero(self):
        for m in FAMILIES:
            res = reversed_inaccuracy(model(m, 0.0), order_statistics(1, 5))
            assert res.value == pytest.approx(m.shannon_entropy(), abs=1e-12)

    def test_c_star_zero(self):
        res = reversed_inaccuracy(model(Exponential(1.0), 1.0), order_statistics(1, 1))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", FAMILIES + [Uniform(1.0)], ids=repr)
    @pytest.mark.parametrize("alpha, p", [
        (0.0, order_statistics(1, 3)),  # alpha = 0
        (0.5, order_statistics(2, 3)),  # C* = 0
        (-1.0, order_statistics(2, 3)),  # c = -0.0
    ])
    def test_zero_tilt_is_exactly_the_entropy(self, m, alpha, p):
        # the integrand log1p(0) vanishes identically, so the quadrature adds
        # exactly zero and no error after its first 15-node panel
        assert c_star(order_statistics(2, 3)) == 0.0
        res = reversed_inaccuracy(model(m, alpha), p)
        expected = MeasureResult(m.shannon_entropy(), "quadrature", 0.0, 15)
        assert res == expected
        assert repr(res) == repr(expected)

    def test_uniform_oracle(self):
        # H = 0 and -Int_0^1 log(1 + 0.5 (1-2u)) du = 1 - (3/2) log(3/2) - (1/2) log 2
        # by the antiderivative of log(3/2 - u)
        expected = 1.0 - 1.5 * math.log(1.5) - 0.5 * math.log(2.0)
        res = reversed_inaccuracy(model(Uniform(1.0), 1.0), order_statistics(1, 3))
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_extreme_tilt_log_singularity_handled(self):
        # alpha C* = -1 puts a log singularity at u = 1; still integrable
        res = reversed_inaccuracy(model(Uniform(1.0), -1.0), order_statistics(1, 1000000))
        assert math.isfinite(res.value)

    def test_direct_quadrature_oracle(self):
        # -Int f log g in y-space as an independent route
        m = Exponential(1.0)
        mdl = model(m, 0.8)
        p = order_statistics(1, 4)
        c = 0.8 * c_star(p)

        def integrand(y):
            g = m.pdf(y) * (1.0 + c * (1.0 - 2.0 * m.cdf(y)))
            return -m.pdf(y) * np.log(np.maximum(g, 1e-300))

        direct = integrate(integrand, 0.0, math.inf).value
        assert reversed_inaccuracy(mdl, p).value == pytest.approx(direct, rel=1e-8)


class TestQuantileForm:
    def test_uniform_is_zero(self):
        for alpha, p in [(0.0, order_statistics(1, 2)), (1.0, order_statistics(1, 3)),
                         (-0.7, record_value(4))]:
            res = quantile_form_inaccuracy(model(Uniform(1.0), alpha), p)
            assert res.value == pytest.approx(0.0, abs=1e-10)
            assert res.method == "quantile_form"

    def test_matches_decomposition(self):
        p = order_statistics(1, 3)
        for m in FAMILIES:
            for alpha in (0.0, 1.0, -0.6):
                a = inaccuracy_gos(model(m, alpha), p).value
                b = quantile_form_inaccuracy(model(m, alpha), p).value
                assert b == pytest.approx(a, rel=1e-8, abs=1e-9)

    def test_entropy_identity_at_alpha_zero(self):
        # E log q(U) = H(Y)
        for m in FAMILIES:
            res = quantile_form_inaccuracy(model(m, 0.0), order_statistics(2, 2))
            assert res.value == pytest.approx(m.shannon_entropy(), rel=1e-8, abs=1e-9)

    def test_heavy_tail_extreme_tilt(self):
        # deep refinement near u = 1 must not step onto the endpoint; value
        # frozen from an independent 30-digit quadrature of -Int g log f
        res = quantile_form_inaccuracy(model(InverseWeibull(1.1, 2.0), -1.0), record_value(5))
        assert res.value == pytest.approx(0.7619982739342558, rel=1e-8)

    def test_tiny_scale_heavy_tail_within_its_bound(self):
        # theta^beta underflows in the pdf there; reference from a 30-digit
        # tanh-sinh quadrature of E[log q(U) (1 + c (1 - 2U))], c = 1/4
        res = quantile_form_inaccuracy(model(InverseWeibull(1e-300, 1.2), 0.5), order_statistics(1, 3))
        assert abs(res.value - -689.0923131937782) <= res.abs_error_estimate

    @pytest.mark.parametrize("lam", [1e6, 1e12, 1e300])
    def test_genexp_at_large_shape_within_its_bound(self, lam):
        # the pdf lost its factor (1 - e^-t)^(lam - 1) near the mode: at lam
        # = 1e300 the route returned 0.40393 +/- 3.5e-11, and at 1e12 it raised
        m = model(GeneralizedExponential(1.0, lam), 0.5)
        res = quantile_form_inaccuracy(m, order_statistics(1, 3))
        closed = inaccuracy_gos(m, order_statistics(1, 3))
        assert abs(res.value - closed.value) <= res.abs_error_estimate


@pytest.mark.parametrize("route", [reversed_inaccuracy, quantile_form_inaccuracy])
def test_exhausted_budget_raises_even_with_a_tight_best_estimate(monkeypatch, route):
    # a best estimate within 1e-7 of scale certifies nothing; of the measure
    # routes only reversed_cpi reports one (tests/test_cpi.py).  The reversed
    # route restates it as its measure, H - integral, with H = 1 here.
    best = MeasureResult(0.5, "quadrature", 1e-12, 59_985)

    def exhausted(f, lo, hi):
        raise QuadratureError("tolerance not reached", best=best)

    monkeypatch.setattr(numerics, "integrate", exhausted)
    monkeypatch.setattr(inaccuracy, "integrate", exhausted)
    with pytest.raises(QuadratureError, match="tolerance not reached") as info:
        route(model(Exponential(1.0), 0.5), order_statistics(1, 3))
    if route is reversed_inaccuracy:
        assert info.value.best == replace(best, value=1.0 - 0.5)
        assert str(info.value).endswith("; reversed_inaccuracy best estimate 0.5 +/- 1.000e-12")
        assert info.value.__cause__.best is best
    else:
        assert info.value.best is best


def test_reversed_route_reraises_a_failure_without_a_best_estimate(monkeypatch):
    # a non-finite integrand value leaves no estimate to restate as H - integral
    error = QuadratureError("integrand returned a non-finite value at y=0.5")

    def failing(f, lo, hi):
        raise error

    monkeypatch.setattr(inaccuracy, "integrate", failing)
    with pytest.raises(QuadratureError) as info:
        reversed_inaccuracy(model(Exponential(1.0), 0.5), order_statistics(1, 3))
    assert info.value is error and info.value.best is None


@pytest.mark.parametrize("module, route", [
    (inaccuracy, lambda mdl, p: inaccuracy_gos(mdl, p, "quadrature")),
    (inaccuracy, reversed_inaccuracy),
    (inaccuracy, quantile_form_inaccuracy),
    (cpi, lambda mdl, p: cpi_gos(mdl, p, "quadrature")),
    (cpi, reversed_cpi),
], ids=["inaccuracy", "reversed_inaccuracy", "quantile_form", "cpi", "reversed_cpi"])
def test_quadrature_routes_carry_the_evaluations_of_their_integral(monkeypatch, module, route):
    calls = []

    def recording(*args):
        calls.append(integrate(*args))
        return calls[-1]

    monkeypatch.setattr(module, "integrate", recording)
    res = route(model(InverseWeibull(1.1, 2.0), 0.5), order_statistics(1, 3))
    assert len(calls) == 1
    assert res.evaluations == calls[0].evaluations >= 15
    assert res.abs_error_estimate == calls[0].abs_error_estimate


def test_closed_forms_carry_no_evaluations():
    mdl, p = model(Rayleigh(0.8), 0.5), order_statistics(1, 3)
    assert inaccuracy_gos(mdl, p).evaluations == 0
    assert cpi_gos(mdl, p).evaluations == 0
    assert extremes_inaccuracy(Rayleigh(0.8), [0.4, 0.9], "max").evaluations == 0


class TestExtremesMeasure:
    def test_single_pair(self):
        for which in ("min", "max"):
            res = extremes_inaccuracy(Exponential(1.0), [0.9], which)
            assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_zero_sum(self):
        for which in ("min", "max"):
            res = extremes_inaccuracy(Exponential(1.0), [0.4, -0.4], which)
            assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_homogeneous_spot_value(self):
        # coefficient (n-1)/((n+1)n) * sum = 0.5 for three alphas of 1
        res = extremes_inaccuracy(Exponential(1.0), [1.0, 1.0, 1.0], "min")
        assert res.value == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("alphas", [[math.nan, 0.5], [0.5, math.inf], [-math.inf]])
    def test_non_finite_alpha_rejected(self, alphas):
        # the FgmModel rule: no NaN value from a NaN alpha
        with pytest.raises(ValueError, match="alpha"):
            extremes_inaccuracy(Exponential(1.0), alphas, "min")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=12))
    def test_min_max_sum_identity(self, alphas):
        m = Rayleigh(1.2)
        total = (
            extremes_inaccuracy(m, alphas, "min").value
            + extremes_inaccuracy(m, alphas, "max").value
        )
        assert total == pytest.approx(2.0 * m.shannon_entropy(), abs=1e-10)


class TestIdentities:
    def test_midpoint_identity(self):
        # I(r=n) + I(r=1) = 2 H(Y) for ordinary order statistics
        for m in FAMILIES:
            for alpha in (-1.0, 0.3, 1.0):
                for n in (2, 3, 5, 10):
                    total = (
                        inaccuracy_gos(model(m, alpha), order_statistics(n, n)).value
                        + inaccuracy_gos(model(m, alpha), order_statistics(1, n)).value
                    )
                    assert total == pytest.approx(2.0 * m.shannon_entropy(), abs=1e-10)

    def test_rank_scaling_invariance(self):
        # (r, n) -> (r lam, (n+1) lam - 1) leaves the measure unchanged
        m = Exponential(1.0)
        for alpha in (-0.7, 1.0):
            for r, n in [(1, 3), (2, 5), (4, 9)]:
                base = inaccuracy_gos(model(m, alpha), order_statistics(r, n)).value
                for lam in (1, 2, 3):
                    scaled = inaccuracy_gos(
                        model(m, alpha), order_statistics(r * lam, (n + 1) * lam - 1)
                    ).value
                    assert scaled == pytest.approx(base, abs=1e-12)

    def test_record_reduction_formula(self):
        # (m=-1, k=1) reduces to the 2^(1-r) - 1 coefficient exactly
        for m in FAMILIES:
            H, phi = m.shannon_entropy(), m.phi_f()
            for alpha in (-1.0, 0.5):
                for r in (1, 2, 5, 8):
                    expected = (1.0 + alpha * (2.0 ** (1 - r) - 1.0)) * H + 2.0 * alpha * (
                        2.0 ** (1 - r) - 1.0
                    ) * phi
                    got = inaccuracy_gos(model(m, alpha), record_value(r)).value
                    assert got == pytest.approx(expected, abs=1e-12)


class TestSignLaws:
    def test_extreme_difference_gbed(self):
        # A_alpha(n) = I(n:n) - I(1:n) = alpha (n-1)/(n+1) for the exponential
        for alpha in (-1.0, -0.4, 0.0, 0.4, 1.0):
            for n in (1, 2, 3, 7, 15):
                mdl = model(Exponential(1.0), alpha)
                diff = (
                    inaccuracy_gos(mdl, order_statistics(n, n)).value
                    - inaccuracy_gos(mdl, order_statistics(1, n)).value
                )
                assert diff == pytest.approx(alpha * (n - 1) / (n + 1), abs=1e-12)
                if n == 1 or alpha == 0.0:
                    assert diff == pytest.approx(0.0, abs=1e-12)
                elif alpha > 0.0:
                    assert diff > 0.0
                else:
                    assert diff < 0.0

    def test_entropy_difference_gbed(self):
        # B_{alpha,n}(r) = I - H = -(alpha/2)(n - 2r + 1)/(n + 1)
        H = 1.0
        for alpha in (-1.0, -0.5, 0.5, 1.0):
            for n in (3, 6, 11):
                for r in range(1, n + 1):
                    mdl = model(Exponential(1.0), alpha)
                    B = inaccuracy_gos(mdl, order_statistics(r, n)).value - H
                    assert B == pytest.approx(
                        -0.5 * alpha * (n - 2 * r + 1) / (n + 1), abs=1e-12
                    )
                    if alpha < 0.0 and r < (n + 1) / 2 or alpha > 0.0 and r > (n + 1) / 2:
                        assert B > 0.0
                    if alpha < 0.0 and r > (n + 1) / 2 or alpha > 0.0 and r < (n + 1) / 2:
                        assert B < 0.0

    def test_monotone_in_r_for_odd_n(self):
        mdl = model(Exponential(1.0), 1.0)
        for n in (5, 9):
            values = [inaccuracy_gos(mdl, order_statistics(r, n)).value for r in range(1, n + 1)]
            half = (n + 1) // 2
            assert all(a < b for a, b in zip(values[: half - 1], values[1:half]))

    def test_logistic_extreme_difference(self):
        # D_alpha(n) = 2 alpha (n-1)/(n+1) * tilt constant; published slope 1.2
        for alpha in (-1.0, 0.6, 1.0):
            for n in (2, 4, 9):
                mdl = model(Logistic(), alpha)
                diff = (
                    inaccuracy_gos(mdl, order_statistics(n, n)).value
                    - inaccuracy_gos(mdl, order_statistics(1, n)).value
                )
                expected = 2.0 * alpha * LOGISTIC_TILT_CONSTANT * (n - 1) / (n + 1)
                assert diff == pytest.approx(expected, abs=1e-12)
                assert abs(2.0 * LOGISTIC_TILT_CONSTANT - 1.2) < 0.01
                if n > 1 and alpha != 0.0:
                    assert (diff > 0.0) == (alpha > 0.0)

    def test_rayleigh_extreme_difference(self):
        # W_alpha(n) = 2 alpha (0.5 - log sqrt 2)(n-1)/(n+1)
        for alpha in (-1.0, 0.8):
            for n in (2, 3, 8):
                mdl = model(Rayleigh(1.0), alpha)
                diff = (
                    inaccuracy_gos(mdl, order_statistics(n, n)).value
                    - inaccuracy_gos(mdl, order_statistics(1, n)).value
                )
                expected = 2.0 * alpha * (0.5 - math.log(math.sqrt(2.0))) * (n - 1) / (n + 1)
                assert diff == pytest.approx(expected, abs=1e-12)
                if alpha != 0.0 and n > 1:
                    assert (diff > 0.0) == (alpha > 0.0)

    def test_genexp_extreme_difference(self):
        # Q_{alpha,lam}(n) = alpha (n-1)/(n+1) [2 D(lam) - (lam-1)/lam]
        B = lambda l: digamma(l + 1.0) - digamma(1.0)  # noqa: E731
        for lam in (0.5, 1.0, 2.0, 5.0):
            D = B(2.0 * lam) - B(lam)
            bracket = 2.0 * D - (lam - 1.0) / lam
            assert bracket > 0.0
            for alpha in (-1.0, 0.7):
                for n in (2, 6):
                    mdl = model(GeneralizedExponential(1.0, lam), alpha)
                    diff = (
                        inaccuracy_gos(mdl, order_statistics(n, n)).value
                        - inaccuracy_gos(mdl, order_statistics(1, n)).value
                    )
                    assert diff == pytest.approx(alpha * (n - 1) / (n + 1) * bracket, abs=1e-12)
                    if alpha != 0.0 and n > 1:
                        assert (diff > 0.0) == (alpha > 0.0)

    def test_record_recursion_gbed(self):
        # successive record concomitants differ by alpha 2^(-r); the sign of
        # the published table is flipped relative to the coefficient algebra,
        # and direct quadrature confirms the 1 - (alpha/2)(2^(1-r) - 1) form
        mdl = model(Exponential(1.0), 1.0)
        quad = inaccuracy_gos(mdl, record_value(2), method="quadrature").value
        assert quad == pytest.approx(1.25, rel=1e-9)  # = 1 - (1/2)(2^-1 - 1)
        for alpha in (-1.0, -0.5, 0.5, 1.0):
            mdl = model(Exponential(1.0), alpha)
            for r in range(2, 11):
                step = (
                    inaccuracy_gos(mdl, record_value(r)).value
                    - inaccuracy_gos(mdl, record_value(r - 1)).value
                )
                assert step == pytest.approx(alpha * 2.0 ** (-r), abs=1e-12)
