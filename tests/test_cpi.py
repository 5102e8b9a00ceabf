"""Cumulative past inaccuracy: decomposition, closed forms, bounds, differences."""

import math
from dataclasses import replace

import numpy as np
import pytest

from concomitant_measures.cpi import (
    check_cpi_bounds,
    cpi_gos,
    reversed_cpi,
)
from concomitant_measures.fgm import (
    FgmModel,
    GosParams,
    c_star,
    order_statistics,
    parse_gos,
    record_value,
)
from concomitant_measures.marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    Uniform,
    log_cdf_integral,
)
from concomitant_measures.numerics import MeasureResult, QuadratureError, integrate
from oracles import closed_form_cpi
from test_golden import ALPHAS as GOLDEN_ALPHAS
from test_golden import GOS as GOLDEN_GOS

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
    def test_alpha_zero_gives_ce(self):
        for m in FAMILIES:
            res = cpi_gos(model(m, 0.0), order_statistics(2, 9))
            assert res.value == pytest.approx(m.cumulative_entropy(), abs=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown method 'simpson'$"):
            cpi_gos(model(Exponential(1.0), 0.5), order_statistics(1, 3), "simpson")

    def test_method_tags(self):
        p = order_statistics(1, 3)
        for m in FAMILIES:
            res = cpi_gos(model(m, 0.5), p)
            assert (res.method, res.abs_error_estimate) == ("closed_form", 0.0)
        assert cpi_gos(model(Exponential(1.0), 0.5), p, method="quadrature").method == "quadrature"

    @pytest.mark.parametrize("m", [Logistic(), Rayleigh(1.0), Rayleigh(0.8)], ids=repr)
    def test_closed_form_within_the_quadrature_bound(self, m):
        # the two routes share no code: CE and CE2 are closed forms here too
        eps = np.finfo(float).eps
        for gos in GOLDEN_GOS:
            for alpha in GOLDEN_ALPHAS:
                mdl, p = model(m, float(alpha)), parse_gos(gos)
                closed = cpi_gos(mdl, p).value
                quad = cpi_gos(mdl, p, method="quadrature")
                assert abs(closed - quad.value) <= quad.abs_error_estimate + 8 * eps * abs(closed)

    def test_uniform_closed_form(self):
        # theta/4 + alpha C* 5 theta/36
        for theta in (0.5, 1.0, 2.0):
            for alpha in (-1.0, -0.3, 0.6, 1.0):
                for r, n in [(1, 3), (2, 5), (4, 7)]:
                    got = cpi_gos(model(Uniform(theta), alpha), order_statistics(r, n)).value
                    cs = (n - 2 * r + 1) / (n + 1)
                    assert got == pytest.approx(
                        theta / 4.0 + alpha * cs * 5.0 * theta / 36.0, abs=1e-12
                    )

    def test_exponential_closed_form(self):
        # (pi^2/6 - 1) theta + (alpha theta / 4) (n - 2r + 1)/(n + 1)
        for theta in (0.5, 2.0):
            for alpha in (-1.0, 0.5):
                for r, n in [(1, 3), (3, 8)]:
                    got = cpi_gos(model(Exponential(theta), alpha), order_statistics(r, n)).value
                    cs = (n - 2 * r + 1) / (n + 1)
                    expected = (math.pi**2 / 6.0 - 1.0) * theta + alpha * theta / 4.0 * cs
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_closed_vs_quadrature(self):
        for m in FAMILIES:
            for alpha, p in [(-1.0, order_statistics(1, 4)), (0.7, record_value(3)),
                             (0.5, GosParams(2, 5, 1.0, 2.0))]:
                a = cpi_gos(model(m, alpha), p)
                b = cpi_gos(model(m, alpha), p, method="quadrature")
                assert a.value == pytest.approx(b.value, rel=1e-8)

    @pytest.mark.parametrize("lam", [1e6, 1e12])
    def test_genexp_quadrature_at_large_shape_within_its_bound(self, lam):
        # log F rounded to 0 where 1 - e^-t rounds to 1: at lam = 1e12 the
        # route returned 0 +/- 0, and at 1e6 it raised
        m, p = model(GeneralizedExponential(1.0, lam), 0.5), order_statistics(1, 3)
        res = cpi_gos(m, p, method="quadrature")
        assert abs(res.value - cpi_gos(m, p).value) <= res.abs_error_estimate

    def test_record_reduction(self):
        for m in FAMILIES:
            ce, ce2 = m.cumulative_entropy(), m.cumulative_entropy_max2()
            for alpha in (-1.0, 0.5):
                for r in (1, 2, 5):
                    c = 2.0 ** (1 - r) - 1.0
                    expected = (1.0 + alpha * c) * ce - 0.5 * alpha * c * ce2
                    got = cpi_gos(model(m, alpha), record_value(r)).value
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_invweibull_divergent_ce_raises(self):
        with pytest.raises(ValueError, match="beta"):
            cpi_gos(model(InverseWeibull(1.0, 0.8), 0.5), order_statistics(1, 3))


class TestClosedFormFamilies:
    def test_uniform_trivial(self):
        assert closed_form_cpi(Uniform(1.0), 0.0) == pytest.approx(0.25)

    def test_exponential_at_unit_coefficient(self):
        assert closed_form_cpi(Exponential(1.0), 1.0) == pytest.approx(
            math.pi**2 / 6.0 - 1.0 + 0.25, abs=1e-12
        )

    def test_invweibull_trivial(self):
        assert closed_form_cpi(InverseWeibull(1.0, 2.0), 0.0) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=1e-12
        )

    def test_invweibull_requires_beta_above_one(self):
        with pytest.raises(ValueError, match="beta"):
            closed_form_cpi(InverseWeibull(1.0, 1.0), 0.5)

    def test_no_closed_form_families_raise(self):
        with pytest.raises(ValueError, match="no closed-form"):
            closed_form_cpi(Rayleigh(1.0), 0.5)
        with pytest.raises(ValueError, match="no closed-form"):
            closed_form_cpi(Logistic(), 0.5)

    def test_matches_measure_for_gos_coefficient(self):
        p = record_value(2)
        for m in (Uniform(1.5), Exponential(0.7), InverseWeibull(1.0, 2.5),
                  GeneralizedExponential(1.1, 3.0)):
            for alpha in (-0.8, 0.4):
                coeff = alpha * c_star(p)
                assert closed_form_cpi(m, coeff) == pytest.approx(
                    cpi_gos(model(m, alpha), p).value, abs=1e-12
                )


class TestReversedCpi:
    def test_alpha_zero(self):
        for m in FAMILIES:
            res = reversed_cpi(model(m, 0.0), order_statistics(1, 5))
            assert res.value == pytest.approx(m.cumulative_entropy(), abs=1e-12)

    def test_c_star_zero(self):
        res = reversed_cpi(model(Uniform(1.0), 1.0), order_statistics(1, 1))
        assert res.value == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("m", FAMILIES, ids=repr)
    @pytest.mark.parametrize("alpha, p", [
        (0.0, order_statistics(1, 3)),  # alpha = 0
        (0.5, order_statistics(2, 3)),  # C* = 0
        (-1.0, order_statistics(2, 3)),  # c = -0.0
    ])
    def test_zero_tilt_is_exactly_the_cumulative_entropy(self, m, alpha, p):
        # the integrand F log1p(0) vanishes identically, so the quadrature adds
        # exactly zero to the closed-form CE and has no error after its first
        # 15-node panel
        assert c_star(order_statistics(2, 3)) == 0.0
        res = reversed_cpi(model(m, alpha), p)
        expected = MeasureResult(m.cumulative_entropy(), "quadrature", 0.0, 15)
        assert res == expected
        assert repr(res) == repr(expected)

    @pytest.mark.parametrize("beta", [0.8, 1.0])
    @pytest.mark.parametrize("alpha, p", [
        (0.0, order_statistics(1, 3)),
        (0.5, order_statistics(2, 3)),
    ])
    def test_zero_tilt_still_needs_a_finite_cumulative_entropy(self, beta, alpha, p):
        with pytest.raises(ValueError, match="cumulative entropy of InverseWeibull diverges"):
            reversed_cpi(model(InverseWeibull(1.0, beta), alpha), p)

    def test_uniform_oracle(self):
        # CE = 1/4 and Int_0^1 u log(1 + (1-u)/2) du = 4.5 log(3/2) - 7/4
        # (antiderivative after w = (3 - u)/2), so the value is 2 - 4.5 log 1.5
        res = reversed_cpi(model(Uniform(1.0), 1.0), order_statistics(1, 3))
        assert res.value == pytest.approx(2.0 - 4.5 * math.log(1.5), abs=1e-10)

    def test_heavy_tail_marginal(self):
        # quantile densities of the inverse Weibull blow up at u = 1; the
        # y-parametrization must still converge; value frozen from an
        # independent 30-digit quadrature of CE - Int F log(1 + c(1 - F)) dy
        res = reversed_cpi(model(InverseWeibull(1.1, 2.0), 0.5), order_statistics(1, 4))
        assert res.value == pytest.approx(0.7403087059602023, rel=1e-9)

    def test_genexp_at_large_shape(self):
        # CE - Int F log(1 + c (1 - F)) dy in 40-digit mpmath, the integral
        # split about the mass near y = log lam; the route returned CE alone,
        # 0.9999999999995 +/- 0, while the cdf rounded to 1 there
        res = reversed_cpi(model(GeneralizedExponential(1.0, 1e12), 0.5), order_statistics(1, 3))
        assert abs(res.value - 0.83491766223264888) <= res.abs_error_estimate

    def test_every_family_finite_at_nonzero_tilt(self):
        for m in FAMILIES:
            for alpha in (-1.0, 1.0):
                res = reversed_cpi(model(m, alpha), order_statistics(1, 4))
                assert math.isfinite(res.value)
                assert res.abs_error_estimate >= 0.0

    def test_direct_quadrature_oracle(self):
        # -Int F log G dy as the independent route
        m = Exponential(1.0)
        mdl = model(m, 0.8)
        p = order_statistics(1, 4)
        c = 0.8 * c_star(p)

        def integrand(y):
            F = m.cdf(y)
            G = F * (1.0 + c * (1.0 - F))
            return np.where(F > 0.0, -F * np.log(np.maximum(G, 1e-300)), 0.0)

        direct = integrate(integrand, 0.0, math.inf).value
        assert reversed_cpi(mdl, p).value == pytest.approx(direct, rel=1e-7)


class TestHeavyTailStopgap:
    """reversed_cpi reports an exhausted budget's best estimate when its bound
    is within 1e-7 of scale, and raises otherwise (ROADMAP item 2)."""

    def test_tight_best_estimate_is_reported(self):
        m, p, alpha = InverseWeibull(1.0, 1.5), GosParams(3, 3, -1.0, 1.0), -1.0
        c = alpha * c_star(p)
        with pytest.raises(QuadratureError, match="tolerance not reached") as info:
            log_cdf_integral(m, lambda F, logF: F * np.log1p(c * (1.0 - F)), integrate)
        best = info.value.best
        expected = MeasureResult(
            m.cumulative_entropy() - best.value, "quadrature", best.abs_error_estimate, best.evaluations
        )
        res = reversed_cpi(model(m, alpha), p)
        assert res == expected
        assert repr(res) == repr(expected)

    def test_loose_best_estimate_raises(self):
        with pytest.raises(QuadratureError, match="tolerance not reached") as info:
            reversed_cpi(model(InverseWeibull(1.0, 1.2), 1.0), order_statistics(2, 5))
        best = info.value.__cause__.best  # the integral's, which the stopgap tests
        assert best.abs_error_estimate > 1e-7 * max(1.0, abs(best.value))

    def test_loose_best_estimate_is_restated_as_the_measure(self):
        # the exhausted integral is R = Int F log(1 + c(1 - F)) dy; the error
        # carries the measure's estimate CE - R with R's bound
        m, alpha, p = InverseWeibull(1.0, 1.2), 0.5, order_statistics(1, 3)
        c = alpha * c_star(p)
        with pytest.raises(QuadratureError) as integral:
            log_cdf_integral(m, lambda F, logF: F * np.log1p(c * (1.0 - F)), integrate)
        with pytest.raises(QuadratureError) as info:
            reversed_cpi(model(m, alpha), p)
        r, best = integral.value.best, info.value.best
        assert best == replace(r, value=m.cumulative_entropy() - r.value)
        assert best.value == pytest.approx(3.5634665068125306, rel=1e-12)
        assert str(info.value) == (
            f"{integral.value}; reversed_cpi best estimate {best.value!r} +/- {best.abs_error_estimate:.3e}"
        )
        assert info.value.__cause__.best == r


class TestBounds:
    def test_alpha_zero_equal(self):
        assert check_cpi_bounds(model(Uniform(1.0), 0.0), order_statistics(1, 3)) == "equal"

    def test_uniform_above(self):
        assert check_cpi_bounds(model(Uniform(1.0), 1.0), order_statistics(1, 3)) == "above_CE"

    def test_record_below(self):
        assert check_cpi_bounds(model(Exponential(1.0), 1.0), record_value(2)) == "below_CE"

    def test_tolerance_scales_with_ce(self):
        # CE = 6.45e-14 and CPI = 7.07e-14: far below 1e-12, yet not equal
        mdl = model(Exponential(1e-13), 0.5)
        p = order_statistics(1, 3)
        assert cpi_gos(mdl, p).value > mdl.marginal_y.cumulative_entropy()
        assert check_cpi_bounds(mdl, p) == "above_CE"

    def test_order_statistics_proposition_grid(self):
        # r <= (n+1)/2: below CE for alpha < 0, above for alpha > 0
        for m in FAMILIES:
            for n in (3, 4, 7, 10):
                for r in range(1, (n + 1) // 2 + 1):
                    p = order_statistics(r, n)
                    strict = c_star(p) != 0.0
                    lo = check_cpi_bounds(model(m, -1.0), p)
                    hi = check_cpi_bounds(model(m, 1.0), p)
                    if strict:
                        assert lo == "below_CE"
                        assert hi == "above_CE"
                    else:
                        assert lo == hi == "equal"

    def test_record_proposition_grid(self):
        # records with r >= 2: below CE for alpha > 0, above for alpha < 0
        for m in FAMILIES:
            for r in (2, 3, 5):
                p = record_value(r)
                assert check_cpi_bounds(model(m, 1.0), p) == "below_CE"
                assert check_cpi_bounds(model(m, -1.0), p) == "above_CE"

    def test_consistent_with_computed_measure(self):
        for m in (Uniform(2.0), Exponential(0.5)):
            for alpha in (-0.9, 0.9):
                for p in (order_statistics(1, 5), record_value(3)):
                    verdict = check_cpi_bounds(model(m, alpha), p)
                    gap = cpi_gos(model(m, alpha), p).value - m.cumulative_entropy()
                    if verdict == "above_CE":
                        assert gap > 0.0
                    elif verdict == "below_CE":
                        assert gap < 0.0
                    else:
                        assert gap == pytest.approx(0.0, abs=1e-12)


class TestDifferences:
    def test_uniform_extreme_difference(self):
        # D(n) = CPI(n:n) - CPI(1:n) = 5 alpha theta (1 - n) / (18 (n + 1))
        for theta in (0.5, 1.0, 2.0):
            for alpha in (-1.0, -0.4, 0.4, 1.0):
                for n in (2, 3, 8):
                    mdl = model(Uniform(theta), alpha)
                    diff = (
                        cpi_gos(mdl, order_statistics(n, n)).value
                        - cpi_gos(mdl, order_statistics(1, n)).value
                    )
                    assert diff == pytest.approx(
                        5.0 * alpha * theta * (1 - n) / (18.0 * (n + 1)), abs=1e-12
                    )
                    if n > 1 and alpha != 0.0:
                        assert (diff > 0.0) == (alpha < 0.0)

    def test_exponential_extreme_difference(self):
        # Q(n) = alpha theta (1 - n) / (2 (n + 1))
        for theta in (0.5, 2.0):
            for alpha in (-1.0, 0.7):
                for n in (2, 5, 9):
                    mdl = model(Exponential(theta), alpha)
                    diff = (
                        cpi_gos(mdl, order_statistics(n, n)).value
                        - cpi_gos(mdl, order_statistics(1, n)).value
                    )
                    assert diff == pytest.approx(
                        alpha * theta * (1 - n) / (2.0 * (n + 1)), abs=1e-12
                    )
                    if alpha != 0.0 and n > 1:
                        assert (diff > 0.0) == (alpha < 0.0)

    def test_invweibull_extreme_difference_scaling(self):
        # D(n) = 2 alpha theta (1-n) / (beta (n+1)) Gamma((beta-1)/beta) (1 - 2^(1/beta - 1));
        # the factor 2 follows from C*(n,n) - C*(1,n) = -2(n-1)/(n+1), exactly as
        # in the uniform and exponential differences above
        for beta in (1.5, 2.0, 3.0):
            lead = math.gamma((beta - 1.0) / beta) / beta * (1.0 - 2.0 ** (1.0 / beta - 1.0))
            assert lead > 0.0
            for theta in (0.8, 1.6):
                for alpha in (-1.0, 0.5, 1.0):
                    for n in (2, 6):
                        mdl = model(InverseWeibull(theta, beta), alpha)
                        diff = (
                            cpi_gos(mdl, order_statistics(n, n)).value
                            - cpi_gos(mdl, order_statistics(1, n)).value
                        )
                        expected = 2.0 * alpha * theta * (1 - n) / (n + 1) * lead
                        assert diff == pytest.approx(expected, abs=1e-12)
                        if alpha != 0.0 and n > 1:
                            assert (diff > 0.0) == (alpha < 0.0)
