"""Marginal families: distribution functions, functionals, and their oracles.

Analytic functionals are checked against independent quadrature routes:
H and phi against u-space integrals of log f(Q(u)), CE and CE2 against the
defining y-space integrals.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from concomitant_measures.marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    MARGINAL_FAMILIES,
    SpecFormatError,
    Uniform,
    format_marginal,
    format_number,
    parse_marginal,
)
from concomitant_measures.numerics import integrate
from oracles import integrate_per_panel, log_cdf_closed_form

EULER = 0.5772156649015328606

ALL_FAMILIES = [
    Exponential(1.3),
    Logistic(),
    Rayleigh(0.8),
    GeneralizedExponential(1.2, 2.5),
    Uniform(1.7),
    InverseWeibull(1.1, 2.0),
]


def within_ulps(x: float, ref, ulps: int = 2) -> bool:
    return abs(x - ref) <= ulps * math.ulp(x)


def quad_entropy(m):
    u0 = m.cdf(0.0)
    return integrate(lambda u: -np.log(m.pdf(m.quantile(u))), u0, 1.0).value


def quad_phi(m):
    u0 = m.cdf(0.0)
    return integrate(lambda u: u * np.log(m.pdf(m.quantile(u))), u0, 1.0).value


def quad_ce(m, power=1):
    hi = m.support()[1]

    def integrand(y):
        logF = m.log_cdf(y)
        return np.where(np.isfinite(logF), -power * np.exp(power * logF) * logF, 0.0)

    # rel 1e-9 oracle: heavy algebraic cdf tails (inverse Weibull at low beta)
    # sit near the resolution floor of the semi-infinite map at rel 1e-10
    return integrate_per_panel(integrand, 0.0, hi, rel_tol=1e-9).value


class TestPointValues:
    def test_pdf(self):
        assert Exponential(1.0).pdf(0.0) == pytest.approx(1.0)
        assert Uniform(2.0).pdf(1.0) == pytest.approx(0.5)
        assert Rayleigh(1.0).pdf(1.0) == pytest.approx(math.exp(-0.5))

    def test_cdf(self):
        assert Exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5)
        assert Logistic().cdf(0.0) == pytest.approx(0.5)
        assert InverseWeibull(1.0, 2.0).cdf(1.0) == pytest.approx(math.exp(-1.0))

    def test_quantile(self):
        assert Uniform(3.0).quantile(0.25) == pytest.approx(0.75)
        assert Exponential(2.5).quantile(1.0 - math.exp(-1.0)) == pytest.approx(2.5)
        assert Logistic().quantile(0.5) == pytest.approx(0.0)

    def test_outside_support_pdf_is_zero(self):
        assert Exponential(1.0).pdf(-1.0) == 0.0
        assert Uniform(1.0).pdf(2.0) == 0.0
        assert InverseWeibull(1.0, 2.0).pdf(-0.5) == 0.0

    def test_quantile_domain_error(self):
        for m in ALL_FAMILIES:
            with pytest.raises(ValueError):
                m.quantile(0.0)
            with pytest.raises(ValueError):
                m.quantile(1.0)


@pytest.mark.parametrize("m", ALL_FAMILIES, ids=lambda m: type(m).__name__)
class TestDistributionContracts:
    def test_pdf_normalizes(self, m):
        lo, hi = m.support()
        lo = max(lo, -60.0)  # logistic mass below -60 is ~1e-26
        res = integrate(lambda y: m.pdf(y), lo, hi)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_pdf_is_cdf_derivative(self, m):
        for u in (0.15, 0.4, 0.6, 0.85):
            y = m.quantile(u)
            h = 1e-6 * max(1.0, abs(y))
            numeric = (m.cdf(y + h) - m.cdf(y - h)) / (2.0 * h)
            assert numeric == pytest.approx(m.pdf(y), rel=1e-5, abs=1e-6)

    def test_cdf_monotone_with_limits(self, m):
        u = np.linspace(0.001, 0.999, 200)
        y = m.quantile(u)
        F = m.cdf(y)
        assert np.all(np.diff(F) > 0.0)
        lo, hi = m.support()
        left = lo if math.isfinite(lo) else -1e9
        right = hi if math.isfinite(hi) else 1e9
        assert m.cdf(left) == pytest.approx(0.0, abs=1e-12)
        assert m.cdf(right) == pytest.approx(1.0, abs=1e-12)

    def test_round_trips(self, m):
        u = np.linspace(1e-6, 1.0 - 1e-6, 101)
        assert np.allclose(m.cdf(m.quantile(u)), u, atol=1e-10)
        y = m.quantile(np.linspace(0.01, 0.99, 57))
        assert np.allclose(m.quantile(m.cdf(y)), y, rtol=1e-8, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(1e-9, 1.0 - 1e-9, allow_nan=False))
    def test_round_trip_property(self, m, u):
        assert m.cdf(m.quantile(u)) == pytest.approx(u, abs=1e-10)


@pytest.mark.parametrize(
    "m",
    ALL_FAMILIES
    + [InverseWeibull(1.0, 1.2), InverseWeibull(1.0, 3.0)]
    # theta^beta underflows, or y^(-beta-1) overflows, where the density is finite
    + [InverseWeibull(1e-300, 0.5), InverseWeibull(1e-300, 1.2), InverseWeibull(1e-200, 3.0)],
    ids=repr,
)
def test_kernels_defined_from_subnormal_to_huge_arguments(m):
    # where a tail factor underflows, a power of y may overflow: no inf * 0
    y = np.logspace(-320, 308, 2000)
    with np.errstate(all="ignore"):
        pdf, cdf, log_cdf = m.pdf(y), m.cdf(y), m.log_cdf(y)
    assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)
    assert np.all(np.isfinite(cdf))
    assert not np.any(np.isnan(log_cdf))


# every sign and magnitude of y, the support's edge at 0, subnormals and the
# non-finite values
LOG_CDF_GRID = np.concatenate([
    [-math.inf, -1.7976931348623157e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.2250738585072014e-308],
    np.logspace(-320, 308, 4000),
    [1.7976931348623157e308, math.inf, math.nan],
])


# Rayleigh's sigma**2 overflows from sigma ~ 1.3e154, so its scales stop at 1e150
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1e-3, 1.0, 7.5, 1e20, 1e100, 1e150])
@pytest.mark.parametrize("cls", [Exponential, Rayleigh, Uniform])
def test_log_cdf_is_log_of_cdf_bit_for_bit(cls, scale):
    m = cls(scale)
    with np.errstate(all="ignore"):
        got, ref = m.log_cdf(LOG_CDF_GRID), log_cdf_closed_form(m, LOG_CDF_GRID)
    assert np.array_equal(got, ref, equal_nan=True)


def test_logistic_log_cdf_on_both_tails():
    # log F = -log(1 + e^-y) on either side of 0, against mpmath
    mp = pytest.importorskip("mpmath")
    y = np.concatenate([-np.logspace(3, -300, 80), [0.0], np.logspace(-300, 3, 80)])
    with mp.workdps(50):
        ref = [float(-mp.log1p(mp.exp(-mp.mpf(v)))) for v in y]
    np.testing.assert_allclose(Logistic().log_cdf(y), ref, rtol=2 * np.finfo(float).eps, atol=0.0)


KERNELS = ("pdf", "cdf", "log_cdf", "quantile")


@pytest.mark.parametrize("m", ALL_FAMILIES, ids=lambda m: type(m).__name__)
class TestKernelBoundary:
    """The base class turns floats and arrays into the families' array-only
    kernels and back, and checks the quantile argument once."""

    def test_families_define_only_the_array_kernels(self, m):
        # _log_cdf is log of _cdf except in the families whose own form keeps
        # a tail that log(cdf) loses
        own_log_cdf = type(m) in (GeneralizedExponential, Logistic, InverseWeibull)
        for name in KERNELS:
            assert name not in type(m).__dict__
            assert ("_" + name in type(m).__dict__) == (name != "log_cdf" or own_log_cdf)

    @pytest.mark.parametrize("x", [0.3, np.float64(0.3), np.array(0.3)], ids=["float", "np.float64", "0-d"])
    def test_scalar_in_float_out(self, m, x):
        for name in KERNELS:
            assert type(getattr(m, name)(x)) is float

    @pytest.mark.parametrize("shape", [(5,), (3, 4)])
    def test_arrays_keep_their_shape(self, m, shape):
        u = np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape)
        y = m.quantile(u)
        for name in KERNELS:
            x = u if name == "quantile" else y
            out = getattr(m, name)(x)
            assert type(out) is np.ndarray and out.shape == shape
            # numpy's SIMD loops may differ from its scalar ones in the last bit
            scalars = [getattr(m, name)(float(v)) for v in x.ravel()]
            np.testing.assert_allclose(out.ravel(), scalars, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("u", [[0.2, 1.0, 0.5], [[0.2, 0.3], [0.0, 0.5]], [0.5, -0.1], [0.5, 1.5],
                                   math.nan, [0.5, math.nan], math.inf])
    def test_quantile_rejects_any_argument_outside_the_open_unit_interval(self, m, u):
        with pytest.raises(ValueError, match="strictly inside"):
            m.quantile(u)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=9),
                      elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    def test_quantile_into_out_is_bitwise_the_plain_quantile(self, m, u):
        expected = m.quantile(u)
        other = np.full_like(u, np.nan)
        assert m.quantile(u, out=other) is other
        in_place = u.copy()
        assert m.quantile(in_place, out=in_place) is in_place
        for y in (other, in_place):
            assert np.array_equal(y.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
    def test_quantile_raises_before_writing_out(self, m, bad):
        u = np.array([[0.25, 0.5], [bad, 0.75]])
        before = u.copy()
        other = np.full_like(u, 7.0)
        for out in (other, u):
            with pytest.raises(ValueError, match="strictly inside"):
                m.quantile(u, out=out)
        assert np.array_equal(other, np.full_like(u, 7.0))
        assert np.array_equal(u.view(np.uint64), before.view(np.uint64))


# shapes above _GENEXP_LOG_FORM_LAM = 4, with the relative error allowed
# against mpmath: below lam ~ 1e3 the rounding of log(u) / lam (or of 1 / lam)
# costs up to |log(u) / lam| ulps as u -> 0; from there on a few ulps
GENEXP_LARGE_LAM = [(4.000000000000001, 1.2e-14), (5.0, 1.2e-14), (16.0, 1.2e-14), (100.0, 1.2e-14),
                    (1e6, 4.5e-16), (1e12, 4.5e-16), (1e16, 4.5e-16), (1e17, 4.5e-16),
                    (1e100, 4.5e-16), (1e300, 4.5e-16), (1.7976931348623157e308, 4.5e-16)]
# from 1e-300 to 1 - 2^-53, both ends included, with subnormals
GENEXP_U = np.concatenate([[5e-324, 2.2250738585072014e-308], np.logspace(-300, -1, 80),
                           1.0 - np.logspace(-1, -15.9, 80), [0.5, 0.9, 1.0 - 2.0**-53]])


@pytest.mark.parametrize("theta", [1.0, 0.3])
@pytest.mark.parametrize("lam, rel", GENEXP_LARGE_LAM, ids=[repr(lam) for lam, _ in GENEXP_LARGE_LAM])
class TestGenExpQuantileAtLargeShape:
    """Q(u) = -log(1 - u^(1/lam)) / theta where 1 - u^(1/lam) cancels."""

    def test_against_mpmath(self, theta, lam, rel):
        mp = pytest.importorskip("mpmath")
        ref = []
        with mp.workdps(50):
            for u in GENEXP_U:
                a = mp.log(mp.mpf(float(u))) / mp.mpf(lam)
                log1mx = mp.log(-mp.expm1(a)) if a > -mp.log(2) else mp.log1p(-mp.exp(a))
                ref.append(float(-log1mx / mp.mpf(theta)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf, no RuntimeWarning
            y = GeneralizedExponential(theta, lam).quantile(GENEXP_U)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, ref, rtol=rel, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=9),
                      elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    def test_quantile_into_out_is_bitwise_the_plain_quantile(self, theta, lam, rel, u):
        m = GeneralizedExponential(theta, lam)
        expected = m.quantile(u)
        assert np.all(np.isfinite(expected))
        in_place = u.copy()
        assert m.quantile(in_place, out=in_place) is in_place
        assert np.array_equal(in_place.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("theta", [1.0, 0.3, 7.0, 1e-300, 1e300])
@pytest.mark.parametrize("lam", [lam for lam, _ in GENEXP_LARGE_LAM], ids=repr)
def test_genexp_pdf_at_large_shape(theta, lam):
    # f = lam theta e^-t (1 - e^-t)^(lam - 1), t = theta y, where 1 - e^-t
    # rounds to 1 near the mode.  log f sums log theta, log lam - t and
    # (lam - 1) log(1 - e^-t), so the relative error allowed is 8 eps times
    # 1 + |log f| + |log theta|, plus half the subnormal spacing; the
    # reference takes t as the double theta y that the kernel forms
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    log_lam = math.log(lam)
    t = np.concatenate([np.logspace(-300, 0, 40), np.linspace(0.05, log_lam + 40.0, 200),
                        [log_lam - 1.0, log_lam, log_lam + 1.0, 800.0, 1e4]])
    y = t / theta
    y = y[y > 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = GeneralizedExponential(theta, lam).pdf(y)
    with mp.workdps(50):
        for yi, fi in zip(y, f):
            ti = mp.mpf(theta * yi)
            log_base = mp.log1p(-mp.exp(-ti)) if ti > mp.log(2) else mp.log(-mp.expm1(-ti))
            log_f = mp.log(lam) + mp.log(theta) - ti + (lam - 1) * log_base
            ref = mp.exp(log_f)
            allowed = 8 * eps * (1 + abs(log_f) + abs(mp.log(theta))) * ref + mp.ldexp(1, -1075)
            assert abs(fi - ref) <= allowed, (yi, fi, float(ref))


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.5, 4.0])
def test_genexp_pdf_keeps_the_power_form_up_to_4(lam):
    # at and below lam = 4 the pdf keeps the bits of the golden grid
    y = np.concatenate([np.logspace(-300, 3, 500), [0.0, -1.0, np.inf]])
    t = 0.7 * np.maximum(y, 0.0)
    expected = np.where(y > 0.0, lam * 0.7 * np.exp(-t) * (-np.expm1(-t)) ** (lam - 1.0), 0.0)
    assert np.array_equal(GeneralizedExponential(0.7, lam).pdf(y), expected)


@pytest.mark.parametrize("theta", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("lam", [4.000000000000001, 5.0, 1e3, 1e6, 1e12, 1e100, 1e300, 1.7976931348623157e308],
                         ids=repr)
def test_genexp_cdf_at_large_shape(theta, lam):
    # log F = lam log(1 - e^-t), t = theta y, where 1 - e^-t rounds to 1 in
    # the left tail.  log F is allowed 4 eps relative plus lam times the
    # smallest subnormal, which e^-t underflows to; F = exp(log F) is allowed
    # 4 eps (1 + |log F|) relative plus the smallest subnormal.  The
    # reference takes t as the double theta y that the kernel forms
    mp = pytest.importorskip("mpmath")
    eps, tiny = np.finfo(float).eps, 2.0**-1074
    y = np.concatenate([np.logspace(-300, 3, 300), np.linspace(680.0, 800.0, 121), [40.0, 690.0]])
    m = GeneralizedExponential(theta, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_F, F = m.log_cdf(y), m.cdf(y)
    with mp.workdps(50):
        for yi, lf, fi in zip(y, log_F, F):
            ti = mp.mpf(theta * yi)
            ref = lam * (mp.log1p(-mp.exp(-ti)) if ti > 1 else mp.log(-mp.expm1(-ti)))
            if ref < -np.finfo(float).max:
                assert lf == -math.inf and fi == 0.0, (yi, lf, fi)
                continue
            assert abs(lf - ref) <= 4 * eps * abs(ref) + lam * tiny, (yi, lf, float(ref))
            assert abs(fi - mp.exp(ref)) <= 4 * eps * (1 + abs(ref)) * mp.exp(ref) + tiny, (yi, fi, float(ref))


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.5, 4.0])
def test_genexp_cdf_keeps_the_power_form_up_to_4(lam):
    # at and below lam = 4 the cdf and log F keep the bits of the golden grid
    y = np.concatenate([np.logspace(-300, 3, 500), np.linspace(680.0, 800.0, 121), [0.0, -1.0, np.inf]])
    base = -np.expm1(-0.7 * np.maximum(y, 0.0))
    m = GeneralizedExponential(0.7, lam)
    assert np.array_equal(m.cdf(y), np.where(y > 0.0, base**lam, 0.0))
    assert np.array_equal(m.log_cdf(y), np.where(y > 0.0, lam * np.log(np.maximum(base, 1e-300)), -np.inf))


class TestFunctionalValues:
    def test_entropy_values(self):
        assert Exponential(1.0).shannon_entropy() == pytest.approx(1.0)
        for theta in (0.5, 2.0, 7.0):
            assert Exponential(theta).shannon_entropy() == pytest.approx(1.0 + math.log(theta))
        assert Logistic().shannon_entropy() == pytest.approx(1.0)
        assert Uniform(1.0).shannon_entropy() == pytest.approx(0.0)

    def test_phi_values(self):
        assert Uniform(1.0).phi_f() == pytest.approx(0.0)
        assert Exponential(1.0).phi_f() == pytest.approx(-0.75)
        # half-line value for the logistic; rounds to the published -0.8
        assert Logistic().phi_f() == pytest.approx(-0.625 - math.log(2.0) / 4.0, abs=1e-15)
        assert round(Logistic().phi_f(), 1) == -0.8

    @pytest.mark.parametrize("lam", [6e307, 1e308, 1.7976931348623157e308])
    def test_genexp_phi_where_2_lam_overflows(self, lam):
        # phi = log(lam theta)/2 - (lam - 1)/(4 lam) - (psi(2 lam + 1) + gamma)/2,
        # which tends to -log(2)/2 - 1/4 - gamma/2 at theta = 1
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            L = mp.mpf(lam)
            ref = mp.log(L) / 2 - (L - 1) / (4 * L) - (mp.digamma(2 * L + 1) + mp.euler) / 2
            assert abs(ref - (-mp.log(2) / 2 - mp.mpf(1) / 4 - mp.euler / 2)) < 1e-30
        assert abs(GeneralizedExponential(1.0, lam).phi_f() - float(ref)) <= 1e-12

    def test_ce_values(self):
        for theta in (0.5, 1.0, 3.0):
            assert Uniform(theta).cumulative_entropy() == pytest.approx(theta / 4.0)
            assert Uniform(theta).cumulative_entropy_max2() == pytest.approx(2.0 * theta / 9.0)
            assert Exponential(theta).cumulative_entropy() == pytest.approx(
                (math.pi**2 / 6.0 - 1.0) * theta
            )
            assert Exponential(theta).cumulative_entropy_max2() == pytest.approx(
                2.0 * (math.pi**2 / 6.0 - 1.25) * theta
            )
        assert InverseWeibull(1.0, 2.0).cumulative_entropy() == pytest.approx(
            math.sqrt(math.pi) / 2.0
        )
        assert InverseWeibull(1.0, 2.0).cumulative_entropy_max2() == pytest.approx(
            math.sqrt(2.0) * math.sqrt(math.pi) / 2.0
        )

    def test_genexp_reduces_to_rate_exponential_at_lam_1(self):
        g = GeneralizedExponential(theta=2.0, lam=1.0)
        assert g.shannon_entropy() == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
        assert g.cumulative_entropy() == pytest.approx((math.pi**2 / 6.0 - 1.0) / 2.0, abs=1e-12)
        assert g.cumulative_entropy_max2() == pytest.approx(
            2.0 * (math.pi**2 / 6.0 - 1.25) / 2.0, abs=1e-12
        )

    @pytest.mark.parametrize("theta, lam", [(1e300, 1e300), (1e200, 1e150), (1e-300, 1e-300)])
    def test_genexp_where_lam_theta_leaves_the_double_range(self, theta, lam):
        # the measure is finite although lam * theta overflows or underflows;
        # the reference integrates log f(Q(u)) in u, with
        # f(Q(u)) = lam theta (1 - u^(1/lam)) u^(1 - 1/lam)
        mp = pytest.importorskip("mpmath")
        g = GeneralizedExponential(theta, lam)
        with mp.workdps(40):
            L, T = mp.mpf(lam), mp.mpf(theta)
            log_f = lambda u: mp.log(L * T) + mp.log(-mp.expm1(mp.log(u) / L)) + (1 - 1 / L) * mp.log(u)  # noqa: E731
            H = -mp.quad(log_f, [0, 0.5, 1])
            phi = mp.quad(lambda u: u * log_f(u), [0, 0.5, 1])
            assert abs(g.shannon_entropy() - H) <= 1e-12 * abs(H)
            assert abs(g.phi_f() - phi) <= 1e-12 * abs(phi)

    def test_ce_nonnegative(self):
        for m in ALL_FAMILIES:
            assert m.cumulative_entropy() >= 0.0
            assert m.cumulative_entropy_max2() >= 0.0

    def test_uniform_ce_scale_equivariance_exact(self):
        base = Uniform(1.0).cumulative_entropy()
        for c in (2.0, 3.5, 10.0):
            assert Uniform(c).cumulative_entropy() == c * base

    def test_logistic_ce_against_the_dilogarithm(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            li2 = mp.polylog(2, mp.mpf(1) / 2)
            assert within_ulps(Logistic().cumulative_entropy(), li2)
            assert within_ulps(Logistic().cumulative_entropy_max2(), 2 * li2 - 1 + mp.log(2))

    def test_rayleigh_ce_constants_against_quadrature_and_series(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            F = lambda y: -mp.expm1(-y * y / 2)  # noqa: E731
            by_quad = [mp.quad(lambda y: -p * F(y) ** p * mp.log(F(y)), [0, 2, 8, mp.inf]) for p in (1, 2)]
            by_series = [
                mp.sqrt(mp.pi / 2) * mp.nsum(lambda k: (k**-0.5 - (k + 1) ** -0.5) / k, [1, mp.inf],
                                             method="euler-maclaurin"),
                mp.sqrt(2 * mp.pi) * mp.nsum(lambda k: (k**-0.5 - 2 * (k + 1) ** -0.5 + (k + 2) ** -0.5) / k,
                                             [1, mp.inf], method="euler-maclaurin"),
            ]
            m = Rayleigh(1.0)
            for got, quad, series in zip((m.cumulative_entropy(), m.cumulative_entropy_max2()), by_quad, by_series):
                assert within_ulps(got, quad)
                assert within_ulps(got, series)

    def test_rayleigh_entropy_against_quadrature(self):
        # the closed form uses psi(1) = -gamma; quadrature settles the sign
        for sigma in (0.5, 1.0, 2.0):
            m = Rayleigh(sigma)
            assert m.shannon_entropy() == pytest.approx(quad_entropy(m), abs=1e-9)


@pytest.mark.parametrize(
    "family_grid",
    [
        [Exponential(t) for t in np.logspace(-1.3, 1.3, 100)],
        [Logistic()],
        [Rayleigh(s) for s in np.logspace(-1.3, 1.3, 100)],
        [GeneralizedExponential(t, l) for t in np.logspace(-1, 1, 10) for l in np.linspace(0.4, 6.0, 10)],
        [Uniform(t) for t in np.logspace(-1.3, 1.3, 100)],
        [InverseWeibull(t, b) for t in np.logspace(-1, 1, 10) for b in np.linspace(1.6, 5.0, 10)],
    ],
    ids=["Exponential", "Logistic", "Rayleigh", "GeneralizedExponential", "Uniform", "InverseWeibull"],
)
def test_functionals_agree_with_quadrature_on_grid(family_grid):
    for m in family_grid:
        H = m.shannon_entropy()
        assert H == pytest.approx(quad_entropy(m), rel=1e-8, abs=1e-9)
        assert m.phi_f() == pytest.approx(quad_phi(m), rel=1e-8, abs=1e-9)
        assert m.cumulative_entropy() == pytest.approx(quad_ce(m, 1), rel=1e-8)
        assert m.cumulative_entropy_max2() == pytest.approx(quad_ce(m, 2), rel=1e-8)


class TestDomainErrors:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Rayleigh(-1.0)
        with pytest.raises(ValueError):
            GeneralizedExponential(1.0, 0.0)
        with pytest.raises(ValueError):
            GeneralizedExponential(1.0, -2.0)
        with pytest.raises(ValueError):
            Uniform(-0.1)
        with pytest.raises(ValueError):
            InverseWeibull(1.0, 0.0)

    @pytest.mark.parametrize("make, name", [
        (lambda: Exponential(math.inf), "theta"),
        (lambda: Rayleigh(math.nan), "sigma"),
        (lambda: InverseWeibull(beta=math.inf), "beta"),
        (lambda: InverseWeibull(theta=-math.inf), "theta"),
        (lambda: GeneralizedExponential(1.0, math.nan), "lam"),
        (lambda: Uniform(math.inf), "theta"),
    ])
    def test_non_finite_parameters_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()

    def test_invweibull_ce_requires_beta_above_1(self):
        m = InverseWeibull(1.0, 0.9)
        with pytest.raises(ValueError, match="beta"):
            m.cumulative_entropy()
        with pytest.raises(ValueError, match="beta"):
            m.cumulative_entropy_max2()
        # entropy-type functionals stay valid below the CE threshold
        assert math.isfinite(m.shannon_entropy())
        assert math.isfinite(m.phi_f())


class TestSpecStrings:
    def test_parse_examples(self):
        assert parse_marginal("exponential:theta=1") == Exponential(1.0)
        assert parse_marginal("invweibull:theta=1,beta=2") == InverseWeibull(1.0, 2.0)
        assert parse_marginal("logistic") == Logistic()
        assert parse_marginal("genexp:theta=2,lambda=1.5") == GeneralizedExponential(2.0, 1.5)

    def test_round_trip(self):
        for m in ALL_FAMILIES:
            assert parse_marginal(format_marginal(m)) == m

    @settings(max_examples=300, deadline=None)
    @given(
        cls=st.sampled_from([c for c in MARGINAL_FAMILIES.values() if c is not Logistic]),
        data=st.data(),
    )
    def test_round_trip_any_parameter(self, cls, data):
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        m = cls(**{f.name: data.draw(positive, label=f.name) for f in dataclasses.fields(cls)})
        assert parse_marginal(format_marginal(m)) == m

    def test_format_rejects_an_unregistered_family(self):
        # a subclass is not the family it extends: its spec would parse back
        # to the base class
        @dataclasses.dataclass(frozen=True)
        class Shifted(Exponential):
            pass

        with pytest.raises(ValueError, match=r"^not a registered marginal family: .*Shifted\(theta=2\.0\)$"):
            format_marginal(Shifted(2.0))

    def test_echo_digits(self):
        assert format_marginal(InverseWeibull(1.5, 3.0)) == "invweibull:theta=1.5,beta=3"
        assert format_marginal(Exponential(1e200)) == "exponential:theta=1e+200"
        assert format_marginal(Exponential(1.2345671)) == "exponential:theta=1.2345671"
        assert format_marginal(Exponential(0.1 + 0.2)) == "exponential:theta=0.30000000000000004"

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_format_number_is_shortest_round_trip(self, x):
        text = format_number(x)
        assert float(text) == x
        digits = max(6, len(text.split("e")[0].lstrip("-").replace(".", "").lstrip("0")))
        assert text == f"{x:.{digits}g}"
        assert all(float(f"{x:.{p}g}") != x for p in range(6, digits))

    def test_errors_name_field_and_token(self):
        with pytest.raises(SpecFormatError, match="unknown marginal family 'gauss'"):
            parse_marginal("gauss:mu=0")
        with pytest.raises(SpecFormatError, match="unknown parameter 'thet'"):
            parse_marginal("exponential:thet=1")
        with pytest.raises(SpecFormatError, match="non-numeric value 'abc'"):
            parse_marginal("exponential:theta=abc")
        with pytest.raises(SpecFormatError, match="malformed parameter token"):
            parse_marginal("exponential:theta")

    @pytest.mark.parametrize("spec, message", [
        ("exponential:theta=1,theta=2", "repeated parameter 'theta' at position 20 in "),
        ("exponential:theta=1,THETA=1", "repeated parameter 'theta' at position 20 in "),
        ("genexp:lam=1,lambda=2", "repeated parameter 'lam' at position 13 in "),
        ("invweibull:theta=1,beta=2,theta=1", "repeated parameter 'theta' at position 26 in "),
    ])
    def test_repeated_parameter_is_an_error(self, spec, message):
        with pytest.raises(SpecFormatError) as info:
            parse_marginal(spec)
        assert str(info.value) == f"{message}{spec!r}"
