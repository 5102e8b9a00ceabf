"""Spacings estimators, exact moments, CLT diagnostics, Monte Carlo harness."""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concomitant_measures import empirical
from concomitant_measures.empirical import (
    _MC_BLOCK,
    _POOL_MIN_N,
    empirical_cpi,
    empirical_cpi_record,
    empirical_cumulative_entropy,
    empirical_cumulative_entropy_max2,
    ks_critical_value,
    ks_statistic,
    lyapunov_ratio,
    mc_validate,
    moments_mtbged,
    moments_mtbud,
    spacings,
    standard_normal_cdf,
    theoretical_moments,
)
from concomitant_measures.fgm import GosParams, order_statistics, record_value
from concomitant_measures.marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    Uniform,
)
from concomitant_measures.numerics import RngStream
from oracles import GeneratorStream, mc_replicates_loop, spearman_rho

samples = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=40
)


class TestEstimator:
    def test_spacings(self):
        np.testing.assert_allclose(spacings([3.0, 1.0, 2.0]), [1.0, 1.0])
        with pytest.raises(ValueError):
            spacings([1.0])

    def test_constant_sample_is_zero(self):
        assert empirical_cpi([2.0, 2.0, 2.0, 2.0], 0.7, order_statistics(1, 3)) == 0.0

    def test_hand_evaluated_sum(self):
        # n=3, unit spacings: (1/3) log 3 + (2/3) log(3/2)
        expected = (1.0 / 3.0) * math.log(3.0) + (2.0 / 3.0) * math.log(1.5)
        assert empirical_cpi([1.0, 2.0, 3.0], 0.0, order_statistics(1, 3)) == pytest.approx(
            expected, abs=1e-15
        )

    def test_record_hand_evaluated_sum(self):
        # r=2 tilts by [1 - (1 - j/3)/2]: factors 2/3 and 5/6
        expected = (1.0 / 3.0) * math.log(3.0) * (2.0 / 3.0) + (2.0 / 3.0) * math.log(1.5) * (
            5.0 / 6.0
        )
        assert empirical_cpi_record([1.0, 2.0, 3.0], 1.0, 2) == pytest.approx(expected, abs=1e-15)

    def test_record_r1_is_alpha_free(self):
        vals = [1.0, 1.7, 2.2, 5.0]
        base = empirical_cpi_record(vals, 0.0, 1)
        for alpha in (-1.0, 0.3, 1.0):
            assert empirical_cpi_record(vals, alpha, 1) == pytest.approx(base, abs=1e-15)

    def test_unsorted_input_sorted_internally(self):
        p = order_statistics(2, 5)
        assert empirical_cpi([3.0, 1.0, 2.0], 0.5, p) == empirical_cpi([1.0, 2.0, 3.0], 0.5, p)

    def test_alpha_bound(self):
        with pytest.raises(ValueError):
            empirical_cpi([1.0, 2.0], 1.5, order_statistics(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(values=samples, c=st.floats(0.01, 50.0))
    def test_scaling_in_spacings(self, values, c):
        p = order_statistics(1, 3)
        base = empirical_cpi(values, 0.0, p)
        scaled = empirical_cpi([c * v for v in values], 0.0, p)
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(values=samples)
    def test_linear_in_alpha(self, values):
        # the +/-1 average collapses to the alpha = 0 value
        plus = empirical_cpi_record(values, 1.0, 2)
        minus = empirical_cpi_record(values, -1.0, 2)
        mid = empirical_cpi_record(values, 0.0, 2)
        assert 0.5 * (plus + minus) == pytest.approx(mid, rel=1e-12, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(values=samples, alpha=st.floats(-1.0, 1.0), r=st.integers(1, 8))
    def test_decomposes_into_empirical_entropies(self, values, alpha, r):
        c = 2.0 ** (1 - r) - 1.0
        lhs = empirical_cpi_record(values, alpha, r)
        rhs = (1.0 + alpha * c) * empirical_cumulative_entropy(values) - (
            alpha / 2.0
        ) * c * empirical_cumulative_entropy_max2(values)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMoments:
    def test_mtbged_reference_cells(self):
        # printed reference values carry the 3rd decimal with mixed
        # rounding/truncation, hence the one-ulp-of-print tolerance
        for (n, theta2, alpha, r), (mean_ref, var_ref) in {
            (10, 0.5, -1.0, 2): (1.429, 0.241),
            (20, 2.0, 1.0, 2): (0.247, 0.004),
            (15, 1.0, 0.5, 2): (0.548, 0.025),
        }.items():
            mean, var = moments_mtbged(n, theta2, alpha, r)
            assert mean == pytest.approx(mean_ref, abs=1e-3)
            assert var == pytest.approx(var_ref, abs=1e-3)

    def test_mtbud_reference_cells(self):
        for (n, alpha, r), (mean_ref, var_ref) in {
            (10, -1.0, 2): (0.285, 0.008),
            (20, 1.0, 2): (0.171, 0.001),
            (15, 0.5, 2): (0.200, 0.003),
        }.items():
            mean, var = moments_mtbud(n, alpha, r)
            assert mean == pytest.approx(mean_ref, abs=1e-3)
            assert var == pytest.approx(var_ref, abs=1e-3)

    def test_mtbged_scale_laws_exact(self):
        for n, alpha in [(10, -1.0), (20, 0.5)]:
            m1, v1 = moments_mtbged(n, 1.0, alpha, 2)
            m2, v2 = moments_mtbged(n, 2.0, alpha, 2)
            assert m2 == pytest.approx(m1 / 2.0, abs=1e-12)
            assert v2 == pytest.approx(v1 / 4.0, abs=1e-12)

    def test_decreasing_in_alpha_for_r2(self):
        grid = (-1.0, -0.5, 0.5, 1.0)
        for n in (10, 15, 20):
            means = [moments_mtbged(n, 1.0, a, 2)[0] for a in grid]
            vars_ = [moments_mtbged(n, 1.0, a, 2)[1] for a in grid]
            assert all(x > y for x, y in zip(means, means[1:]))
            assert all(x > y for x, y in zip(vars_, vars_[1:]))
            means = [moments_mtbud(n, a, 2)[0] for a in grid]
            vars_ = [moments_mtbud(n, a, 2)[1] for a in grid]
            assert all(x > y for x, y in zip(means, means[1:]))
            assert all(x > y for x, y in zip(vars_, vars_[1:]))

    def test_mtbged_decreasing_in_theta(self):
        for n in (10, 15, 20):
            for alpha in (-1.0, 0.5):
                means = [moments_mtbged(n, t, alpha, 2)[0] for t in (0.5, 1.0, 2.0)]
                assert all(x > y for x, y in zip(means, means[1:]))

    def test_variance_vanishes_with_n(self):
        v10 = moments_mtbud(10, -1.0, 2)[1]
        v100 = moments_mtbud(100, -1.0, 2)[1]
        v10000 = moments_mtbud(10_000, -1.0, 2)[1]
        assert v10000 < v100 < v10
        assert v10000 < 1e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            moments_mtbged(1, 1.0, 0.5, 2)
        with pytest.raises(ValueError):
            moments_mtbged(10, 0.0, 0.5, 2)
        with pytest.raises(ValueError):
            moments_mtbud(1, 0.5, 2)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_sample_size_below_two_rejected(self, n):
        p = record_value(2)
        for marginal in (Exponential(2.0), GeneralizedExponential(0.5, 1.0), Uniform(1.0)):
            with pytest.raises(ValueError, match=r"^need n >= 2$"):
                theoretical_moments(marginal, p, 0.5, n)
        for moments in (lambda: moments_mtbged(n, 1.0, 0.5, 2), lambda: moments_mtbud(n, 0.5, 2),
                        lambda: lyapunov_ratio(n, 1.0, 0.5, 2),
                        lambda: mc_validate(Uniform(1.0), p, 0.5, n, 100, RngStream(0))):
            with pytest.raises(ValueError, match=r"^need n >= 2$"):
                moments()

    def test_theoretical_moments_dispatch(self):
        p = record_value(2)
        # scale-theta exponential == rate-1/theta model
        a = theoretical_moments(Exponential(2.0), p, 0.5, 12)
        b = moments_mtbged(12, 0.5, 0.5, 2)
        assert a == pytest.approx(b, abs=1e-12)
        # lam = 1 generalized exponential carries its rate directly
        c = theoretical_moments(GeneralizedExponential(0.5, 1.0), p, 0.5, 12)
        assert c == pytest.approx(b, abs=1e-12)
        assert theoretical_moments(GeneralizedExponential(0.5, 2.0), p, 0.5, 12) is None
        assert theoretical_moments(Rayleigh(1.0), p, 0.5, 12) is None
        # uniform scale enters linearly in the mean, quadratically in the var
        u1 = theoretical_moments(Uniform(1.0), p, -1.0, 10)
        u3 = theoretical_moments(Uniform(3.0), p, -1.0, 10)
        assert u3[0] == pytest.approx(3.0 * u1[0], abs=1e-12)
        assert u3[1] == pytest.approx(9.0 * u1[1], abs=1e-12)
        assert u1 == pytest.approx(moments_mtbud(10, -1.0, 2), abs=1e-15)


class TestCltDiagnostics:
    def test_lyapunov_positive(self):
        for n in (2, 10, 100):
            assert lyapunov_ratio(n, 1.0, 0.5, 2) > 0.0

    def test_lyapunov_monotone_decreasing(self):
        ns = [10 * 2**k for k in range(11)]  # 10 .. 10240
        vals = [lyapunov_ratio(n, 1.0, 0.5, 2) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_lyapunov_rate(self):
        ratio = lyapunov_ratio(1000, 1.0, 0.5, 2) / lyapunov_ratio(10, 1.0, 0.5, 2)
        target = 100.0 ** (-1.0 / 6.0)
        assert abs(ratio - target) / target < 0.20

    def test_normal_cdf(self):
        phi = standard_normal_cdf(np.array([0.0, 1.959964]))
        assert phi.shape == (2,)
        assert phi[0] == pytest.approx(0.5)
        assert phi[1] == pytest.approx(0.975, abs=1e-6)

    def test_ks_statistic_exact_fit(self):
        u = np.linspace(0.005, 0.995, 100)
        assert ks_statistic(u, lambda x: x) < 0.01
        assert ks_critical_value(100) == pytest.approx(1.6276 / 10.0, abs=1e-3)

    def test_spearman_perfect_rank_agreement(self):
        x = np.array([0.3, 1.2, 5.0, 2.2])
        assert spearman_rho(x, 10.0 * x) == pytest.approx(1.0)
        assert spearman_rho(x, -x) == pytest.approx(-1.0)


class TestMcValidate:
    def test_replicate_minimum(self):
        with pytest.raises(ValueError, match="replicates"):
            mc_validate(Uniform(1.0), record_value(2), -1.0, 10, 50, RngStream(0))

    def test_determinism(self):
        a = mc_validate(Uniform(1.0), record_value(2), -1.0, 10, 200, RngStream(4))
        b = mc_validate(Uniform(1.0), record_value(2), -1.0, 10, 200, RngStream(4))
        assert a == b

    @pytest.mark.parametrize("marginal, p, alpha", [
        (Exponential(1.3), record_value(3), 0.5),
        (Rayleigh(2.0), GosParams(2, 9, -0.5, 2.0), -1.0),
    ])
    def test_replicates_are_empirical_cpi_of_their_substreams(self, marginal, p, alpha):
        stream = RngStream(11, 3)
        vals = np.array([empirical_cpi(marginal.quantile(stream.substream(i).uniforms(25)), alpha, p)
                         for i in range(120)])
        report = mc_validate(marginal, p, alpha, 25, 120, RngStream(11, 3))
        assert report.empirical_mean == float(vals.mean())
        assert report.empirical_variance == float(vals.var(ddof=1))

    def test_mtbud_mean_matches_reference(self):
        report = mc_validate(Uniform(1.0), record_value(2), -1.0, 10, 10_000, RngStream(7))
        assert abs(report.empirical_mean - 0.285) < 3.0 * math.sqrt(0.008 / 10_000)
        assert report.theoretical_mean == pytest.approx(moments_mtbud(10, -1.0, 2)[0])
        assert report.ks_normality is not None

    def test_mtbged_variance_matches_reference(self):
        report = mc_validate(
            GeneralizedExponential(1.0, 1.0), record_value(2), 1.0, 20, 10_000, RngStream(123)
        )
        assert abs(report.empirical_variance - 0.016) / 0.016 < 0.10
        assert report.theoretical_variance == pytest.approx(moments_mtbged(20, 1.0, 1.0, 2)[1])

    def test_bias_against_theoretical_mean(self):
        report = mc_validate(Uniform(1.0), record_value(2), 0.5, 15, 500, RngStream(9))
        assert report.bias == pytest.approx(
            report.empirical_mean - report.theoretical_mean, abs=1e-15
        )

    def test_report_without_known_moments(self):
        report = mc_validate(Rayleigh(1.0), record_value(2), 0.5, 12, 150, RngStream(2))
        assert report.theoretical_mean is None
        assert report.ks_normality is None
        assert report.bias == pytest.approx(report.empirical_mean - report.analytic_cpi, abs=1e-15)

    def test_general_gos_configuration_accepted(self):
        report = mc_validate(Uniform(1.0), order_statistics(2, 6), 0.8, 10, 150, RngStream(3))
        assert math.isfinite(report.empirical_mean)
        assert report.theoretical_mean is not None  # uniform spacing law covers any C*


# one marginal per family, each with its (GOS, alpha)
MC_FAMILIES = [
    (Exponential(1.3), record_value(3), 0.5),
    (Logistic(), order_statistics(2, 5), -1.0),
    (Rayleigh(2.0), GosParams(2, 9, -0.5, 2.0), -0.7),
    (GeneralizedExponential(1.0, 1.0), record_value(2), 1.0),
    (Uniform(1.5), order_statistics(3, 4), 0.8),
    (InverseWeibull(1.0, 2.5), record_value(2), -0.3),
]


def mc_case(n, replicates, block, workers=None):
    """One MC_CASES entry; ``workers`` forces the worker count, None keeps
    this machine's, and the id names only a forced one."""
    suffix = "" if workers is None else f"-workers{workers}"
    return pytest.param(n, replicates, block, workers, id=f"{n}-{replicates}-{block}{suffix}")


# (n, replicates, block size[, worker count]); most span several blocks, the
# last one partial.  From _POOL_MIN_N on the replicates are split into one
# chunk per worker; 3 does not divide 100.
MC_CASES = [
    mc_case(2, 100, _MC_BLOCK),         # 16,384 rows per block: one block
    mc_case(2, 150, 64),                # 32 rows: 4 blocks and 22 rows
    mc_case(3, 100, _MC_BLOCK),
    mc_case(3, 150, 64),                # 21 rows: 7 blocks and 3 rows
    mc_case(25, 3000, _MC_BLOCK),       # 1,310 rows: 2 blocks and 380 rows
    mc_case(200, 400, _MC_BLOCK),       # 163 rows: 2 blocks and 74 rows
    # one replicate per block
    *(mc_case(_MC_BLOCK // 2 + 1, 100, _MC_BLOCK, workers) for workers in (None, 1, 2, 3)),
    *(mc_case(_MC_BLOCK + 7, 100, _MC_BLOCK, workers) for workers in (None, 1, 2, 3)),
    mc_case(_POOL_MIN_N - 1, 100, _MC_BLOCK, 3),  # 8 rows per block, one chunk
    mc_case(_POOL_MIN_N, 100, _MC_BLOCK, 3),      # 8 rows per block, 3 chunks
]


def force_workers(monkeypatch, workers):
    if workers is not None:
        monkeypatch.setattr(empirical, "_worker_count", lambda: workers)


class TestMcValidateMatchesLoop:
    """The replicate blocks give the reports of one replicate at a time."""

    @pytest.mark.parametrize("marginal, p, alpha", MC_FAMILIES,
                             ids=["exponential", "logistic", "rayleigh", "genexp", "uniform", "invweibull"])
    @pytest.mark.parametrize("n, replicates, block, workers", MC_CASES)
    def test_report_equals_per_replicate_loop(self, monkeypatch, marginal, p, alpha, n, replicates, block,
                                              workers):
        monkeypatch.setattr(empirical, "_MC_BLOCK", block)
        force_workers(monkeypatch, workers)
        seed = 2**40 + n
        report = mc_validate(marginal, p, alpha, n, replicates, RngStream(seed, 2))
        vals = mc_replicates_loop(marginal, p, alpha, n, replicates, GeneratorStream(seed, 2))
        assert report.empirical_mean == float(vals.mean())
        assert report.empirical_variance == float(vals.var(ddof=1))
        if report.theoretical_mean is None:
            assert report.ks_normality is None
            assert report.bias == float(vals.mean()) - report.analytic_cpi
        else:
            z = (vals - report.theoretical_mean) / math.sqrt(report.theoretical_variance)
            assert report.ks_normality == ks_statistic(z, standard_normal_cdf)
            assert report.bias == float(vals.mean()) - report.theoretical_mean

    @pytest.mark.parametrize("n, replicates, block, workers", MC_CASES[1:6])
    def test_blocks_seed_without_substream(self, monkeypatch, n, replicates, block, workers):
        # every replicate index is below 2^32, so no block builds a substream
        def no_substream(self, index):
            raise AssertionError(f"substream({index}) called")

        marginal, p, alpha = MC_FAMILIES[0]
        vals = mc_replicates_loop(marginal, p, alpha, n, replicates, GeneratorStream(11, 4))
        monkeypatch.setattr(empirical, "_MC_BLOCK", block)
        monkeypatch.setattr(RngStream, "substream", no_substream)
        report = mc_validate(marginal, p, alpha, n, replicates, RngStream(11, 4))
        assert report.empirical_mean == float(vals.mean())
        assert report.empirical_variance == float(vals.var(ddof=1))


class _ChunkError(Exception):
    pass


class _FailingQuantile(Exponential):
    """An exponential marginal whose quantile raises, naming its thread."""

    def quantile(self, u):
        raise _ChunkError(threading.current_thread().name)


class TestMcValidatePool:
    """From _POOL_MIN_N on, mc_validate runs one chunk of replicates per
    worker on a persistent thread pool."""

    @pytest.mark.parametrize("n, workers, chunks", [
        (_POOL_MIN_N - 1, 3, [(0, 100)]),
        (_POOL_MIN_N, 1, [(0, 100)]),
        (_POOL_MIN_N, 2, [(0, 50), (50, 100)]),
        (_POOL_MIN_N, 3, [(0, 33), (33, 66), (66, 100)]),
    ])
    def test_chunks_partition_the_replicates(self, monkeypatch, n, workers, chunks):
        force_workers(monkeypatch, workers)
        fill = empirical._fill_replicates
        seen = []

        def spy(marginal, w, stream, vals, start, stop):
            seen.append((start, stop, threading.current_thread() is threading.main_thread()))
            fill(marginal, w, stream, vals, start, stop)

        monkeypatch.setattr(empirical, "_fill_replicates", spy)
        mc_validate(Exponential(1.3), record_value(3), 0.5, n, 100, RngStream(1))
        assert sorted(seen) == [(a, b, len(chunks) == 1) for a, b in chunks]

    def test_chunk_error_reaches_the_caller(self, monkeypatch, capfd):
        force_workers(monkeypatch, 2)
        with pytest.raises(_ChunkError) as raised:
            mc_validate(_FailingQuantile(1.0), record_value(2), 0.5, _POOL_MIN_N, 100, RngStream(1))
        assert raised.value.args[0].startswith("mc_validate")  # raised on a pool thread
        assert capfd.readouterr().err == ""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a multi-threaded process
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        force_workers(monkeypatch, 2)
        args = (Exponential(1.3), record_value(3), 0.5, _POOL_MIN_N, 100)
        report = mc_validate(*args, RngStream(5, 1))
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if mc_validate(*args, RngStream(5, 1)) == report else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's pooled mc_validate did not finish in 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0
