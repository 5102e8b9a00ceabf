"""FGM model, C* coefficient, concomitant laws, and samplers."""

import math
import warnings
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from concomitant_measures import fgm
from concomitant_measures.empirical import ks_critical_value, ks_statistic
from concomitant_measures.fgm import (
    FgmModel,
    GosParams,
    _invert_tilted_uniform,
    c_star,
    concomitant_cdf,
    concomitant_pdf,
    extremes_coefficient,
    extremes_pdf,
    format_gos,
    order_statistics,
    parse_gos,
    record_value,
    sample_concomitant,
    sample_joint,
)
from concomitant_measures.marginals import Exponential, SpecFormatError, Uniform
from concomitant_measures.numerics import RngStream, integrate
from oracles import GeneratorStream, c_star_loop, integrate_per_panel, spearman_rho


def _loop_cases(r):
    """(n, m, k) for order statistics, records and general (m, k) at index r."""
    return [(r, 0.0, 1.0), (r, -1.0, 1.0), (2 * r + 1, 0.0, 1.0), (10**12, 0.0, 1.0),
            (3 * r, -0.5, 2.0), (r + 5, 2.5, 0.3), (10**19, 0.5, 1.0)]


def c_star_mpmath(r, n, m, k):
    """C* in mpmath from the exact m and k.

    For m = -1 it is 2 (k/(k+1))^r - 1.  Otherwise, over j = 1..r the
    factors gamma_j/(gamma_j + 1) are x/(x + d) for x = x0, .., x0 + r - 1,
    with d = 1/|m+1| and x0 the smallest gamma_j times d, so log prod =
    T(x0) - T(x0 + r), T(x) = lnG(x + d) - lnG(x).  The working precision
    is 40 digits beyond those of the terms that cancel.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + len(str(n)) + max(0, int(math.log10(k)))):
        c = mp.mpf(m) + 1
        if c == 0:
            return 2 * (k / (k + mp.mpf(1))) ** r - 1
        x0 = (k + (n - (r if c > 0 else 1)) * c) / abs(c)
        with mp.workdps(40 + len(str(int(x0 + r)))):
            d = 1 / abs(c)
            return 2 * mp.exp(mp.loggamma(x0 + d) - mp.loggamma(x0) - mp.loggamma(x0 + r + d)
                              + mp.loggamma(x0 + r)) - 1


class TestCStar:
    def test_spot_values(self):
        assert c_star(order_statistics(1, 1)) == pytest.approx(0.0, abs=1e-15)
        assert c_star(order_statistics(1, 3)) == pytest.approx(0.5, abs=1e-15)
        assert c_star(GosParams(3, 10, -1.0, 1.0)) == pytest.approx(-0.75, abs=1e-15)

    def test_order_statistics_reduction(self):
        # product form == (n - 2r + 1)/(n + 1) for m=0, k=1
        for n in range(1, 31):
            for r in range(1, n + 1):
                expected = (n - 2 * r + 1) / (n + 1)
                assert c_star(order_statistics(r, n)) == pytest.approx(expected, abs=1e-12)

    def test_record_reduction(self):
        for r in range(1, 31):
            assert c_star(record_value(r)) == pytest.approx(2.0 ** (1 - r) - 1.0, abs=1e-12)

    def test_bounded_and_decreasing_in_r(self):
        for m in (-1.0, -0.5, 0.0, 1.0, 2.0):
            for k in (0.5, 1.0, 2.0):
                for n in (1, 4, 9, 20):
                    try:
                        values = [c_star(GosParams(r, n, m, k)) for r in range(1, n + 1)]
                    except ValueError:
                        continue
                    assert all(abs(v) <= 1.0 for v in values)
                    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("r", [1, 2, 7, 1000, 65_535, 65_536])
    def test_bitwise_equal_to_the_loop(self, r):
        # the closed forms are a few ulps off the loop; up to r0 c_star must not be.
        # n from 2^63 on takes the Python-integer gammas; with m just above -1
        # their factors stay below 1 there, so the product is not all ones
        assert r <= fgm._C_STAR_EXACT_R
        past_int64 = [(2**63, -1.0 + 2.0**-40, 1.0), (10**22, -1.0 + 2.0**-50, 0.5), (2**64 + 3, 0.0, 1.0)]
        for n, m, k in _loop_cases(r) + past_int64:
            value = c_star(GosParams(r, n, m, k))
            assert type(value) is float
            assert value == c_star_loop(r, n, m, k), (r, n, m, k)

    @pytest.mark.parametrize("r", [65_537, 100_000])
    def test_past_r0_equal_to_the_exact_value(self, r):
        # order statistics and records correctly rounded, the rest within 2^-50 of mpmath
        for n, m, k in _loop_cases(r):
            value = c_star(GosParams(r, n, m, k))
            assert type(value) is float
            if k == 1.0 and m in (0.0, -1.0):
                exact = Fraction(n - 2 * r + 1, n + 1) if m == 0.0 else Fraction(2, 2**r) - 1
                assert value == float(exact), (r, n, m, k)
            else:
                assert abs(value - c_star_mpmath(r, n, m, k)) <= 2.0**-50, (r, n, m, k)

    def test_bitwise_equal_to_the_loop_past_underflow(self):
        # once the product is <= 2^-55, 2 prod - 1 rounds to -1.0 for good;
        # up to r0 c_star must give the loop's -1.0, past it the exact one
        cases = [(r, n, m, k) for m, n, k in [(-1.0, 400, 0.01), (-1.0, 400, 0.5), (-1.0, 400, 1.0),
                                              (-1.0, 400, 3.0), (-0.9, 400, 0.01), (-0.9, 400, 0.5),
                                              (-0.5, 400, 1.0), (2.0, 50, 1.0)]
                 for r in range(1, n + 1, 3)]
        cases += [(r, r, -1.0, 40.0) for r in (1_543, 1_544)]
        minus_one = 0
        for r, n, m, k in cases:
            expected = c_star_loop(r, n, m, k)
            assert c_star(GosParams(r, n, m, k)) == expected, (r, n, m, k)
            minus_one += expected == -1.0
        assert minus_one > 300
        for r in (65_537, 131_073):
            # (40/41)^r < e^-1600, so C* is -1 to the last bit
            assert c_star(GosParams(r, r, -1.0, 40.0)) == -1.0 == float(c_star_mpmath(r, r, -1.0, 40.0))

    @pytest.mark.parametrize("r, n", [(1, 1), (7, 20), (65_537, 10**12)])
    @pytest.mark.parametrize("first, second", [((-0.0, 1), (0.0, 1.0)), ((0.0, 1.0), (-0.0, 1)),
                                               ((0.5, 1), (0.5, 1.0)), ((0.5, 1.0), (0.5, 1)),
                                               ((-1.0, 1), (-1, 1.0)), ((-1, 1.0), (-1.0, 1)),
                                               ((np.float32(2**-30), 1.0), (2**-30, 1.0)),
                                               ((2**-30, 1.0), (np.float32(2**-30), 1.0))])
    def test_equal_keys_written_differently_give_the_loop(self, request, r, n, first, second):
        # the memo serves the second key from the first; each must be the
        # value in double precision (a float32 m + 1.0 would round): up to
        # r0 the loop's, past it an uncached call's on float64 m and k, within
        # 2^-50 of mpmath
        fgm.c_star.cache_clear()
        request.addfinalizer(fgm.c_star.cache_clear)
        for m, k in (first, second):
            assert GosParams(r, n, m, k) == GosParams(r, n, *first)
            value = c_star(GosParams(r, n, m, k))
            if r <= fgm._C_STAR_EXACT_R:
                assert value == c_star_loop(r, n, float(m), float(k)), (r, n, m, k)
            else:
                assert value == c_star.__wrapped__(GosParams(r, n, float(m), float(k))), (r, n, m, k)
                assert abs(value - c_star_mpmath(r, n, float(m), float(k))) <= 2.0**-50, (r, n, m, k)
        assert fgm.c_star.cache_info().hits == 1

    @pytest.mark.parametrize("r, n", [(2**16 + 1, 2**16 + 1), (2**16 + 1, 2**17 + 1), (2**16 + 1, 3 * 2**16 + 7),
                                      (2**16 + 1, 10**12), (2**16 + 1, 10**19),
                                      (2**20 + 1, 2**20 + 1), (2**20 + 1, 2**21 + 1),
                                      (2**20 + 1, 3 * 2**20 + 7), (2**20 + 1, 10**12), (2**20 + 1, 10**19),
                                      (10**12, 10**12), (10**12, 2 * 10**12 - 1), (10**12, 3 * 10**12 + 1),
                                      (10**12, 10**19 - 1), (10**12, 10**19), (5 * 10**18, 10**19),
                                      (10**19, 10**19)])
    def test_order_statistics_past_the_product_are_correctly_rounded(self, r, n):
        assert fgm._C_STAR_EXACT_R == 2**16
        value = c_star(order_statistics(r, n))
        assert type(value) is float
        assert value == float(Fraction(n - 2 * r + 1, n + 1))

    def test_order_statistics_keep_the_product_up_to_r0(self):
        # there the loop's value is off the exact one from the 7th digit on
        r = fgm._C_STAR_EXACT_R
        exact = float(Fraction(1, 2 * r + 1))  # (n - 2r + 1)/(n + 1) at n = 2r
        assert c_star(order_statistics(r, 2 * r)) == c_star_loop(r, 2 * r, 0.0, 1.0) != exact

    @pytest.mark.parametrize("k", [1e-300, 1e-20, 1.5, 1e3, 1e6, 1e9])
    @pytest.mark.parametrize("r", [2**16 + 1, 2**20 + 1, 2**21, 10**7, 10**9, 10**10, 10**12])
    def test_k_records_past_the_product_match_mpmath(self, r, k):
        # every gamma_j is k, so C* = 2 (k/(k+1))^r - 1 (Kamps 1995); below
        # k = 2^-53, 1/(k+1) rounds to 1
        mp = pytest.importorskip("mpmath")
        value = c_star(GosParams(r, r, -1.0, k))
        assert type(value) is float
        with mp.workdps(40):
            kk = mp.mpf(k)
            ref = 2 * (kk / (kk + 1)) ** r - 1
            assert abs(value - ref) <= 2.0**-51, (r, k, value, ref)

    @pytest.mark.parametrize("m, k", [(-0.999, 7.5), (-0.5, 2.0), (0.0, 0.5), (0.0, 3.0), (1.0, 1.0),
                                      (3.7, 1e-3), (1e3, 1.0), (1e9, 1e-3), (-0.3, 3153.7)])
    @pytest.mark.parametrize("r, n", [(2**16 + 1, 2**16 + 1), (2**16 + 1, 10**7), (2**16 + 1, 2**63 + 5),
                                      (2**20 + 1, 2**20 + 1), (2**20 + 1, 2**20 + 64), (2**20 + 1, 10**7),
                                      (2**20 + 1, 10**12), (2**20 + 5, 2**63 + 5), (10**7, 10**7),
                                      (10**9, 10**12), (10**12, 10**12), (10**12, 10**12 + 3),
                                      (10**12, 10**15), (10**15, 10**18), (10**18, 10**18)])
    def test_general_gos_past_the_product_match_mpmath(self, r, n, m, k):
        # log prod = lnG(a) - lnG(a - r) + lnG(b - r) - lnG(b), a = n + k/(m+1),
        # b = n + (k+1)/(m+1); the working precision is 30 digits beyond the
        # integer digits of n, which those log-gamma values cancel
        mp = pytest.importorskip("mpmath")
        value = c_star(GosParams(r, n, m, k))
        assert type(value) is float
        with mp.workdps(30 + len(str(n))):
            m1 = mp.mpf(m) + 1
            a, b = n + mp.mpf(k) / m1, n + (mp.mpf(k) + 1) / m1
            ref = 2 * mp.exp(mp.loggamma(a) - mp.loggamma(a - r) + mp.loggamma(b - r) - mp.loggamma(b)) - 1
            assert abs(value - ref) <= 2.0**-50, (r, n, m, k, value, ref)

    @pytest.mark.parametrize("m", [-1.0000001, -1.5, -2.0, -1e3])
    @pytest.mark.parametrize("q", [1.02, 3.0, 1e4, 1e9])
    @pytest.mark.parametrize("r, n", [(2**16 + 1, 2**16 + 1), (2**16 + 1, 10**7), (10**7, 10**7),
                                      (10**9, 10**12), (10**12, 10**12)])
    def test_m_below_minus_one_past_the_product_match_mpmath(self, r, n, m, q):
        # gamma_1 = k - (n-1)|m+1| = k (1 - 1/q) is at least k/100, so it
        # carries all but a few bits of k into the start x0 = gamma_1 / |m+1|
        k = q * (n - 1) * -(m + 1.0)
        value = c_star(GosParams(r, n, m, k))
        assert type(value) is float
        assert abs(value - c_star_mpmath(r, n, m, k)) <= 2.0**-50, (r, n, m, k)

    @pytest.mark.parametrize("k", [13_107_200_000_000_002.0, 13_107_200_000_000_004.0])
    def test_m_below_minus_one_at_the_edge_of_validity(self, k):
        # gamma_1 = k - 2^17 * 1e11 is 2 or 4, exactly; k/|m+1| - (n-1) would
        # round both starts x0 = gamma_1 / |m+1| to the same 2^-35
        r = n = 2**17 + 1
        assert abs(c_star(GosParams(r, n, -1.0 - 1e11, k)) - c_star_mpmath(r, n, -1.0 - 1e11, k)) <= 2.0**-50

    def test_m_below_minus_one_with_a_huge_index_does_not_hang(self):
        # about 1.7e10 factors, none below 1 - 1e-12
        p = GosParams(2**34, 2**34, -1.0000001, 1e12)
        assert abs(c_star(p) - c_star_mpmath(2**34, 2**34, -1.0000001, 1e12)) <= 2.0**-50

    @pytest.mark.parametrize("r, n, m", [(5, 10**10, 1e300), (3, 3, 1e308), (2**16, 2**16, 1e305)])
    def test_gamma_1_beyond_double_takes_the_gamma_ratio(self, r, n, m):
        # (n-1)(m+1) overflows, so the loop's first factor is inf/inf
        assert math.isnan(c_star_loop(r, n, m, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = c_star(GosParams(r, n, m, 1.0))
        assert abs(value - c_star_mpmath(r, n, m, 1.0)) <= 2.0**-50, value

    def test_general_gos_past_the_product_take_no_factors(self, monkeypatch):
        p = GosParams(10**12, 10**12, 1.0, 1.0)

        def no_gamma(self, j):
            raise AssertionError("gamma_j formed")

        monkeypatch.setattr(GosParams, "gamma", no_gamma)
        fgm.c_star.cache_clear()
        try:
            assert -1.0 < c_star(p) < -0.99
        finally:
            fgm.c_star.cache_clear()

    @pytest.mark.parametrize("m", [-1.0 + 2.0**-53, -1.0 - 2.0**-52])
    def test_general_gos_past_the_product_with_k_over_m_plus_1_beyond_double(self, m):
        # k/|m+1| overflows; every factor gamma_j/(gamma_j + 1) rounds to 1
        p = GosParams(2**21, 2**21, m, 1e300)
        assert c_star(p) == 1.0 == c_star_loop(2**21, 2**21, m, 1e300)

    def test_general_gos_past_the_product_with_a_first_factor_below_2_to_minus_56(self):
        # gamma_r = k = 1e-300 and k/(m+1) underflows to 0; C* is -1 without
        # dividing by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c_star(GosParams(2**20 + 1, 2**20 + 1, 1e300, 1e-300)) == -1.0

    @pytest.mark.parametrize("m, k", [(-0.5, 2.0), (1.0, 1.0), (2.5, 0.3)])
    def test_general_gos_keep_the_product_up_to_r0(self, m, k):
        r = fgm._C_STAR_EXACT_R
        for n in (r, 3 * r):
            assert c_star(GosParams(r, n, m, k)) == c_star_loop(r, n, m, k)

    @pytest.mark.parametrize("k", [1e6, 1e9])
    def test_k_records_keep_the_product_up_to_r0(self, k):
        # there the loop's value is off the power form from the 10th digit on
        r = fgm._C_STAR_EXACT_R
        power = 2.0 * math.exp(-r * math.log1p(1.0 / k)) - 1.0
        assert c_star(GosParams(r, r, -1.0, k)) == c_star_loop(r, r, -1.0, k) != power

    @given(data=st.data())
    @settings(max_examples=300, deadline=timedelta(milliseconds=500))
    def test_every_valid_gos_gives_a_coefficient_in_range(self, data):
        # both sides of r0, n beyond int64, m on both sides of -1 and k over
        # the double range; a product of 2^16 Python-integer gammas (n >=
        # 2^63) takes a few ms, an O(r) path past r0 would take seconds
        r = data.draw(st.one_of(st.integers(1, 2**16), st.integers(2**16 + 1, 10**18)), "r")
        n = r + data.draw(st.one_of(st.integers(0, 100), st.integers(0, 2**70)), "n - r")
        k = 10.0 ** data.draw(st.floats(-300, 300), "log10 k")
        form = data.draw(st.sampled_from(["os", "k-record", "m > -1", "m < -1"]), "form")
        c = 10.0 ** data.draw(st.floats(-16, 300), "log10 |m+1|")
        if form == "m < -1":
            # gamma_1 > 0 needs k > (n-1)|m+1|; from just above that bound
            m = -1.0 - c
            k = max(k, (n - 1) * -(m + 1.0) * (1.0 + 10.0 ** data.draw(st.floats(-16, 3), "log10 margin")))
        else:
            m = {"os": 0.0, "k-record": -1.0, "m > -1": c - 1.0}[form]
            k = 1.0 if form == "os" else k
        try:
            p = GosParams(r, n, m, k)
        except ValueError:
            reject()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = c_star.__wrapped__(p)
        assert type(value) is float
        assert -1.0 <= value <= 1.0, p

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            GosParams(1, 3, -2.0, 1.0)

    def test_huge_n_constructs_in_constant_time(self):
        assert GosParams(r=1, n=10**12).gamma(1) == 10**12

    def test_gamma_violation_reported_at_j1(self):
        # gamma_j increases with j when m < -1, so j = 1 is the first violation
        with pytest.raises(ValueError, match="violated at j=1 "):
            GosParams(2, 10**9, -1.5, 1.0)

    def test_gos_params_validation(self):
        with pytest.raises(ValueError):
            GosParams(0, 3)
        with pytest.raises(ValueError):
            GosParams(4, 3)
        with pytest.raises(ValueError):
            GosParams(1, 3, 0.0, 0.0)
        with pytest.raises(ValueError):
            GosParams(1.5, 3)  # type: ignore[arg-type]

    @pytest.mark.parametrize("m, k, name", [(math.inf, 1.0, "m"), (0.0, math.inf, "k"),
                                            (math.nan, 1.0, "m"), (0.0, math.nan, "k")])
    def test_non_finite_m_and_k_rejected(self, m, k, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            GosParams(1, 3, m, k)

    @pytest.mark.parametrize("r, n, m, k, name", [(1, 10**400, 0.0, 1.0, "n"), (1, 3, 10**400, 1.0, "m"),
                                                  (1, 3, -(10**400), 1.0, "m"), (1, 3, 0.0, 10**400, "k")],
                             ids=["n", "m", "-m", "k"])
    def test_ints_past_the_float_range_rejected(self, r, n, m, k, name):
        # float(10**400) raises OverflowError; GosParams raises ValueError
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            GosParams(r, n, m, k)


class TestFgmModel:
    def test_alpha_bound(self):
        with pytest.raises(ValueError):
            FgmModel(Uniform(1.0), Uniform(1.0), 1.5)

    def test_joint_pdf_nonnegative_on_grid(self):
        for alpha in (-1.0, -0.3, 0.7, 1.0):
            model = FgmModel(Exponential(1.0), Uniform(2.0), alpha)
            x = np.linspace(0.01, 5.0, 40)
            y = np.linspace(0.01, 1.99, 40)
            vals = model.joint_pdf(x[:, None], y[None, :])
            assert np.all(vals >= 0.0)

    def test_joint_pdf_integrates_to_one(self):
        model = FgmModel(Exponential(1.0), Exponential(2.0), 0.8)

        def outer(xs):
            return np.array([
                integrate_per_panel(lambda y: model.joint_pdf(x, y), 0.0, math.inf, rel_tol=1e-9).value
                for x in np.atleast_1d(xs)
            ])

        total = integrate_per_panel(outer, 0.0, math.inf, rel_tol=1e-7, abs_tol=1e-9)
        assert total.value == pytest.approx(1.0, abs=1e-6)


class TestConcomitantLaws:
    def test_alpha_zero_is_marginal(self):
        m = Exponential(1.3)
        model = FgmModel(m, m, 0.0)
        p = order_statistics(2, 7)
        y = np.linspace(0.0, 6.0, 50)
        np.testing.assert_allclose(concomitant_pdf(model, p, y), m.pdf(y), atol=1e-14)

    def test_c_star_zero_is_marginal(self):
        m = Exponential(1.0)
        model = FgmModel(m, m, 1.0)
        assert concomitant_pdf(model, order_statistics(1, 1), 1.0) == pytest.approx(math.exp(-1.0))

    def test_spot_value(self):
        m = Exponential(1.0)
        model = FgmModel(m, m, 1.0)
        assert concomitant_pdf(model, order_statistics(1, 3), 0.0) == pytest.approx(1.5)

    def test_cdf_spot_value(self):
        u = Uniform(1.0)
        model = FgmModel(u, u, 1.0)
        assert concomitant_cdf(model, order_statistics(1, 3), 0.5) == pytest.approx(0.625)

    def test_cdf_limits_and_monotonicity(self):
        m = Exponential(0.7)
        for alpha, p in [(-1.0, order_statistics(1, 4)), (1.0, record_value(3))]:
            model = FgmModel(m, m, alpha)
            y = np.linspace(0.0, 15.0, 400)
            G = concomitant_cdf(model, p, y)
            assert G[0] == pytest.approx(0.0, abs=1e-12)
            assert G[-1] == pytest.approx(1.0, abs=1e-6)
            assert np.all(np.diff(G) >= -1e-12)
            assert concomitant_cdf(model, p, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_nonnegative_at_extreme_alpha(self):
        m = Uniform(1.0)
        for p in [order_statistics(1, 9), record_value(6)]:
            for alpha in (-1.0, 1.0):
                model = FgmModel(m, m, alpha)
                y = np.linspace(0.0, 1.0, 201)
                assert np.all(concomitant_pdf(model, p, y) >= 0.0)

    def test_pdf_integrates_to_one(self):
        for m in (Exponential(1.3), Uniform(2.0)):
            hi = m.support()[1]
            for alpha, p in [(1.0, order_statistics(1, 5)), (-0.6, record_value(4))]:
                model = FgmModel(m, m, alpha)
                res = integrate(lambda y: concomitant_pdf(model, p, y), 0.0, hi)
                assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_pdf_by_finite_differences(self):
        m = Exponential(1.0)
        model = FgmModel(m, m, 0.8)
        p = order_statistics(1, 5)
        for y in (0.2, 0.9, 2.1):
            h = 1e-6
            numeric = (concomitant_cdf(model, p, y + h) - concomitant_cdf(model, p, y - h)) / (2 * h)
            assert numeric == pytest.approx(concomitant_pdf(model, p, y), rel=1e-6)

    def test_mixture_identity(self):
        # averaging over r = 1..n at (m=0, k=1) recovers the marginal exactly
        m = Exponential(1.0)
        model = FgmModel(m, m, 1.0)
        y = np.linspace(0.0, 8.0, 101)
        for n in (2, 5, 8):
            avg = np.mean(
                [concomitant_pdf(model, order_statistics(r, n), y) for r in range(1, n + 1)],
                axis=0,
            )
            np.testing.assert_allclose(avg, m.pdf(y), atol=1e-12)


class TestTiltedInversion:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(-1.0, 1.0, allow_nan=False),
        u=st.floats(1e-12, 1.0 - 1e-12, allow_nan=False),
    )
    def test_round_trip(self, a, u):
        v = float(_invert_tilted_uniform(a, u))
        assert 0.0 <= v <= 1.0
        assert v * (1.0 + a * (1.0 - v)) == pytest.approx(u, abs=1e-9)


class TestSamplers:
    def test_independence_at_alpha_zero(self):
        m = Uniform(1.0)
        model = FgmModel(m, m, 0.0)
        x, y = sample_joint(model, RngStream(5), size=100_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01

    def test_spearman_matches_alpha_over_3(self):
        m = Uniform(1.0)
        for alpha in (-1.0, 0.5, 1.0):
            model = FgmModel(m, m, alpha)
            x, y = sample_joint(model, RngStream(42, 1), size=50_000)
            assert spearman_rho(x, y) == pytest.approx(alpha / 3.0, abs=0.02)

    def test_marginals_pass_ks(self):
        model = FgmModel(Exponential(2.0), Uniform(1.0), 0.9)
        x, y = sample_joint(model, RngStream(7), size=100_000)
        crit = ks_critical_value(100_000)
        assert ks_statistic(x, Exponential(2.0).cdf) < crit
        assert ks_statistic(y, Uniform(1.0).cdf) < crit

    def test_size_is_required(self):
        model = FgmModel(Uniform(1.0), Uniform(1.0), 0.5)
        with pytest.raises(TypeError, match="size"):
            sample_joint(model, RngStream(0))
        with pytest.raises(TypeError, match="size"):
            sample_concomitant(model, order_statistics(1, 3), RngStream(0))
        x, y = sample_joint(model, RngStream(0), 1)
        assert x.shape == y.shape == (1,)
        assert 0.0 < x[0] < 1.0 and 0.0 < y[0] < 1.0

    def test_concomitant_alpha_zero_ks(self):
        m = Exponential(1.0)
        model = FgmModel(m, m, 0.0)
        y = sample_concomitant(model, order_statistics(2, 6), RngStream(11), size=100_000)
        assert ks_statistic(y, m.cdf) < ks_critical_value(100_000)

    def test_concomitant_ecdf_matches_cdf(self):
        u = Uniform(1.0)
        model = FgmModel(u, u, 1.0)
        p = order_statistics(1, 3)
        y = sample_concomitant(model, p, RngStream(3), size=100_000)
        assert np.mean(y <= 0.5) == pytest.approx(0.625, abs=0.01)
        assert ks_statistic(y, lambda t: concomitant_cdf(model, p, t)) < ks_critical_value(100_000)

    def test_concomitant_record_mean_matches_quadrature(self):
        m = Exponential(1.0)
        model = FgmModel(m, m, -1.0)
        p = record_value(2)
        n = 100_000
        y = sample_concomitant(model, p, RngStream(17), size=n)
        mean = integrate(lambda t: t * concomitant_pdf(model, p, t), 0.0, math.inf).value
        second = integrate(lambda t: t * t * concomitant_pdf(model, p, t), 0.0, math.inf).value
        sd = math.sqrt(second - mean**2)
        assert y.mean() == pytest.approx(mean, abs=3.0 * sd / math.sqrt(n))

    @pytest.mark.parametrize("p, alpha", [(GosParams(2, 5, 1.0, 2.0), 1.0), (GosParams(2, 4, -0.5, 1.5), -1.0),
                                          (GosParams(3, 7, 2.0, 0.5), 0.7)], ids=repr)
    def test_general_gos_concomitant_matches_independent_draws(self, p, alpha):
        # Y_[r] drawn without the concomitant cdf: X_(r) by Kamps's
        # representation 1 - F(X_(r)) = prod_{j <= r} B_j, B_j ~ Beta(gamma_j, 1),
        # then Y given X from the FGM conditional.  Its KS distance to the
        # concomitant cdf the sampler inverts must be within the 1 % value
        m = Exponential(1.0)
        model = FgmModel(m, m, alpha)
        n = 100_000
        rng = np.random.default_rng(2024)
        survival = np.prod([rng.beta(p.gamma(j), 1.0, n) for j in range(1, p.r + 1)], axis=0)
        a = alpha * (1.0 - 2.0 * (1.0 - survival))
        y = m.quantile(_invert_tilted_uniform(a, rng.uniform(size=n)))
        assert ks_statistic(y, lambda t: concomitant_cdf(model, p, t)) < ks_critical_value(n)
        # and the sampler inverts that cdf on the stream's uniforms
        u = RngStream(9).uniforms(n)
        expected = m.quantile(_invert_tilted_uniform(alpha * c_star(p), u))
        assert sample_concomitant(model, p, RngStream(9), n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, size", [(42, 1), (2**33, 1000)])
    def test_draws_match_generator_stream(self, seed, size):
        model = FgmModel(Exponential(2.0), Uniform(1.0), 0.9)
        for a, b in zip(sample_joint(model, RngStream(seed, 1), size),
                        sample_joint(model, GeneratorStream(seed, 1), size)):
            assert a.tobytes() == b.tobytes()
        for p in (order_statistics(2, 6), record_value(3)):
            a = sample_concomitant(model, p, RngStream(seed), size)
            b = sample_concomitant(model, p, GeneratorStream(seed), size)
            assert a.tobytes() == b.tobytes()


class TestExtremes:
    def test_single_pair_is_marginal(self):
        m = Exponential(1.0)
        y = np.linspace(0.0, 5.0, 50)
        for which in ("min", "max"):
            np.testing.assert_allclose(extremes_pdf(m, [0.7], which, y), m.pdf(y), atol=1e-15)

    def test_zero_alpha_sum_is_marginal(self):
        m = Exponential(1.0)
        y = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(
            extremes_pdf(m, [0.5, -0.5, 0.8, -0.8], "min", y), m.pdf(y), atol=1e-15
        )

    def test_homogeneous_matches_concomitant(self):
        m = Exponential(1.0)
        n, alpha = 5, 0.8
        model = FgmModel(m, m, alpha)
        y = np.linspace(0.0, 6.0, 80)
        np.testing.assert_allclose(
            extremes_pdf(m, [alpha] * n, "min", y),
            concomitant_pdf(model, order_statistics(1, n), y),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            extremes_pdf(m, [alpha] * n, "max", y),
            concomitant_pdf(model, order_statistics(n, n), y),
            atol=1e-12,
        )

    def test_integrates_to_one(self):
        m = Exponential(1.0)
        res = integrate(lambda y: extremes_pdf(m, [0.9, -0.2, 0.4], "max", y), 0.0, math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            extremes_coefficient([], "min")
        with pytest.raises(ValueError):
            extremes_coefficient([1.2], "min")
        with pytest.raises(ValueError):
            extremes_coefficient([0.5], "median")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coefficient_rejects_non_finite_alphas(self, bad):
        # |nan| > 1 is False, so the bound must be written to fail on NaN
        for alphas in ([bad], [bad, 0.5], [0.5, bad, -0.2]):
            for which in ("min", "max"):
                with pytest.raises(ValueError, match=r"\|alpha_j\| must be <= 1"):
                    extremes_coefficient(alphas, which)


class TestGosSpecStrings:
    def test_parse(self):
        assert parse_gos("os:r=2,n=5") == order_statistics(2, 5)
        assert parse_gos("record:r=3") == record_value(3)
        assert parse_gos("r=2,n=5,m=1,k=2") == GosParams(2, 5, 1.0, 2.0)
        assert parse_gos("r=2,n=5") == order_statistics(2, 5)

    def test_round_trip(self):
        for p in (order_statistics(2, 5), record_value(3), GosParams(1, 4, 2.0, 0.5)):
            assert parse_gos(format_gos(p)) == p

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.floats(allow_nan=False, allow_infinity=False),
        k=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_round_trip_any_m_k(self, m, k):
        # r = n = 1 makes gamma_1 = k, so every finite m and positive k is valid
        p = GosParams(1, 1, m, k)
        assert parse_gos(format_gos(p)) == p

    def test_round_trip_digits(self):
        assert format_gos(GosParams(2, 5, 1.0, 2.0)) == "r=2,n=5,m=1,k=2"
        assert format_gos(GosParams(2, 5, 0.1 + 0.2, 1.0 / 3.0)) == (
            "r=2,n=5,m=0.30000000000000004,k=0.3333333333333333"
        )

    @pytest.mark.parametrize("r, n", [(True, 2), (1, True), (True, True), (False, 3)])
    def test_bool_r_or_n_rejected(self, r, n):
        # format_gos would print r=True, which parse_gos rejects
        with pytest.raises(ValueError, match="^r and n must be integers$"):
            GosParams(r, n)

    @pytest.mark.parametrize("r, n", [(2.0, 5), (2, 5.0), (np.float64(2.0), 5), (2, np.bool_(True)), ("2", 5)])
    def test_non_integer_r_or_n_rejected(self, r, n):
        with pytest.raises(ValueError, match="^r and n must be integers$"):
            GosParams(r, n)

    @pytest.mark.parametrize("cast", [np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
    def test_numpy_integer_r_and_n(self, request, cast):
        # stored as Python ints: equal, hashed alike (c_star's memo serves the
        # second call from the first), printed alike
        p = GosParams(cast(2), cast(5))
        assert type(p.r) is int and type(p.n) is int
        assert p == GosParams(2, 5) and hash(p) == hash(GosParams(2, 5))
        assert format_gos(p) == "os:r=2,n=5" and repr(p) == repr(GosParams(2, 5))
        fgm.c_star.cache_clear()
        request.addfinalizer(fgm.c_star.cache_clear)
        assert c_star(p) == c_star(GosParams(2, 5))
        assert fgm.c_star.cache_info().hits == 1
        assert record_value(np.int64(3)) == record_value(3)

    def test_canonical_shorthands(self):
        assert format_gos(GosParams(2, 5, 0.0, 1.0)) == "os:r=2,n=5"
        assert format_gos(GosParams(3, 3, -1.0, 1.0)) == "record:r=3"

    def test_errors(self):
        with pytest.raises(SpecFormatError, match="unknown GOS shorthand"):
            parse_gos("quantile:r=1")
        with pytest.raises(SpecFormatError, match="missing fields"):
            parse_gos("r=2")
        with pytest.raises(SpecFormatError, match="non-numeric"):
            parse_gos("r=x,n=3")
        with pytest.raises(SpecFormatError, match="must be an integer"):
            parse_gos("r=1.5,n=3")
        with pytest.raises(SpecFormatError, match="must be an integer, got 1.0000001 "):
            parse_gos("r=1.0000001,n=3")

    @pytest.mark.parametrize("spec, message", [
        ("os:r=1,n=3,r=2", "repeated parameter 'r' at position 11 in "),
        ("os:r=1,n=3,r=1", "repeated parameter 'r' at position 11 in "),
        ("record:r=2,r=3", "repeated parameter 'r' at position 11 in "),
        ("r=2,n=5,m=1,k=2,k=3", "repeated parameter 'k' at position 16 in "),
        ("n=5,r=2,N=6", "repeated parameter 'n' at position 8 in "),
    ])
    def test_repeated_parameter_is_an_error(self, spec, message):
        with pytest.raises(SpecFormatError) as info:
            parse_gos(spec)
        assert str(info.value) == f"{message}{spec!r}"
