"""Empirical CPI from sample spacings, exact moments, and Monte Carlo validation.

Ordering a Y-sample Z_(1) <= ... <= Z_(n) and writing U_j = Z_(j+1) - Z_(j)
for the spacings, the empirical CPI of the r-th GOS concomitant is

    I_hat = sum_{j=1}^{n-1} U_j (j/n) (-log(j/n)) [1 + alpha C* (1 - j/n)].

Ties contribute zero spacings and therefore vanish from the sum.  The same
weights define spacings-based estimators of CE(Y) and CE(Y_(2:2)), and I_hat
is exactly their alpha-C* combination, mirroring the population identity.

Two sampling models admit exact moment formulas for I_hat in the record case:
exponential marginals with rate theta2 (spacings are independent exponentials
with mean 1/(theta2 (n-j))) and the standard uniform (spacings are Beta(1, n);
the variance formula treats them as independent, which overstates the true
variance -- uniform spacings are negatively correlated -- so variance-level
Monte Carlo gates should use the exponential model).
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cpi as _cpi
from .fgm import FgmModel, GosParams, c_star, format_gos, record_value
from .marginals import (
    Exponential,
    GeneralizedExponential,
    MarginalFamily,
    Uniform,
    format_marginal,
)
from .numerics import RngStream

__all__ = [
    "spacings",
    "empirical_cpi",
    "empirical_cpi_record",
    "empirical_cumulative_entropy",
    "empirical_cumulative_entropy_max2",
    "moments_mtbged",
    "moments_mtbud",
    "theoretical_moments",
    "lyapunov_ratio",
    "ValidationReport",
    "mc_validate",
    "ks_statistic",
    "ks_critical_value",
    "standard_normal_cdf",
]


def spacings(values) -> np.ndarray:
    """Gaps between consecutive order statistics of a sample (sorted
    internally), along the last axis."""
    z = np.sort(np.asarray(values, dtype=float))
    if z.size < 2:
        raise ValueError("need a sample of size >= 2")
    return np.diff(z)


def _spacing_sum(samples, weights) -> np.ndarray:
    """sum_j U_j w_j over the spacings U of each sample along the last axis,
    with w = weights(n) for samples of size n: every spacings estimator."""
    u = spacings(samples)
    return np.sum(u * weights(u.shape[-1] + 1), axis=-1)


def empirical_cpi(values, alpha: float, p: GosParams) -> float:
    """Spacings estimator of CPI for the concomitant configuration ``p``.

    The j/n weights use the sample size; the tilt coefficient C* comes from
    ``p``.  Requires |alpha| <= 1 and n >= 2.
    """
    if not abs(alpha) <= 1.0:
        raise ValueError(f"|alpha| must be <= 1, got {alpha}")
    coeff = alpha * c_star(p)
    return float(_spacing_sum(values, lambda n: _estimator_weights(n, coeff)))


def empirical_cpi_record(values, alpha: float, r: int) -> float:
    """Record-case estimator: tilt coefficient alpha (2^(1-r) - 1)."""
    return empirical_cpi(values, alpha, record_value(r))


def empirical_cumulative_entropy(values) -> float:
    """Spacings estimator of CE(Y): sum U_j (j/n)(-log(j/n))."""
    return float(_spacing_sum(values, lambda n: _estimator_weights(n, 0.0)))


def empirical_cumulative_entropy_max2(values) -> float:
    """Spacings estimator of CE(Y_(2:2)): sum U_j (j/n)^2 (-2 log(j/n))."""

    def weights(n):
        j = np.arange(1, n) / n
        return -2.0 * j**2 * np.log(j)

    return float(_spacing_sum(values, weights))


def _estimator_weights(n: int, coeff: float) -> np.ndarray:
    """Weights (j/n)(-log(j/n)) [1 + coeff (1 - j/n)] of the n - 1 spacings of
    the CPI estimator; coeff = alpha C*, and coeff = 0 gives the CE estimator."""
    if n < 2:
        raise ValueError("need n >= 2")
    j = np.arange(1, n) / n
    return j * (-np.log(j)) * (1.0 + coeff * (1.0 - j))


def _exponential_spacing_means(n: int, rate: float, coeff: float) -> np.ndarray:
    # weight times mean of spacing j, which for an exponential(rate) sample is
    # an independent Exp with mean 1/(rate (n-j))
    return _estimator_weights(n, coeff) / (rate * np.arange(n - 1, 0, -1))


def _exponential_moments(n: int, rate: float, coeff: float) -> tuple[float, float]:
    mu = _exponential_spacing_means(n, rate, coeff)
    return float(mu.sum()), float((mu**2).sum())


def _uniform_moments(n: int, coeff: float, scale: float) -> tuple[float, float]:
    # spacings of a uniform(0, scale) sample ~ scale * Beta(1, n), treated as
    # independent for the variance (see module docstring)
    w = _estimator_weights(n, coeff)
    mean = scale * float(w.sum()) / (n + 1)
    var = scale**2 * n / ((n + 1) ** 2 * (n + 2)) * float((w**2).sum())
    return mean, var


def moments_mtbged(n: int, theta2: float, alpha: float, r: int) -> tuple[float, float]:
    """Exact (mean, variance) of the record-case estimator, exponential marginal
    with rate theta2 (the lam = 1 generalized-exponential model)."""
    return theoretical_moments(GeneralizedExponential(theta2), record_value(r), alpha, n)


def moments_mtbud(n: int, alpha: float, r: int) -> tuple[float, float]:
    """(mean, independence-approximation variance) of the record-case estimator,
    standard uniform marginal."""
    return theoretical_moments(Uniform(), record_value(r), alpha, n)


def theoretical_moments(
    marginal: MarginalFamily, p: GosParams, alpha: float, n: int
) -> tuple[float, float] | None:
    """Exact estimator moments where the spacing law is known, else None.

    Covers exponential-type marginals (Exponential scale theta == rate
    1/theta; GeneralizedExponential with lam = 1) and Uniform(0, theta), for
    any GOS configuration via its C*.
    """
    coeff = alpha * c_star(p)
    if isinstance(marginal, Exponential):
        return _exponential_moments(n, 1.0 / marginal.theta, coeff)
    if isinstance(marginal, GeneralizedExponential) and marginal.lam == 1.0:
        return _exponential_moments(n, marginal.theta, coeff)
    if isinstance(marginal, Uniform):
        return _uniform_moments(n, coeff, scale=marginal.theta)
    return None


def lyapunov_ratio(n: int, theta2: float, alpha: float, r: int) -> float:
    """Third-moment Lyapunov quotient for the record-case estimator under the
    exponential spacing model; decays like n^(-1/6).

    Uses E|W - EW|^3 = 2 e^(-1) (6 - e) (EW)^3 for exponential W.
    """
    mu = _exponential_spacing_means(n, theta2, alpha * c_star(record_value(r)))
    s2 = float((mu**2).sum())
    s3 = 2.0 / math.e * (6.0 - math.e) * float((mu**3).sum())
    return s3 ** (1.0 / 3.0) / math.sqrt(s2)


# --- diagnostics ---------------------------------------------------------------


def standard_normal_cdf(z):
    """Phi at each entry of the 1-d array ``z``, as an array."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.asarray(z, dtype=float)])


def ks_statistic(values, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_n - F|."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def ks_critical_value(n: int) -> float:
    """Asymptotic KS critical value at the 1% level: sqrt(-log(0.01/2) / 2) / sqrt(n)."""
    return math.sqrt(-0.5 * math.log(0.01 / 2.0)) / math.sqrt(n)


# --- Monte Carlo validation harness ---------------------------------------------

# sample values per block of replicates in mc_validate (256 KiB of float64)
_MC_BLOCK = 1 << 15
# sample size from which mc_validate spreads its replicates over one thread
# per CPU; below it the per-row seeding of block_uniforms, which holds the
# GIL, outweighs the numpy work that releases it (README, crossover table)
_POOL_MIN_N = 4096


def _worker_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool():
    """The thread pool of mc_validate, made at its first pooled call."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_worker_count(), thread_name_prefix="mc_validate")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's pool threads: it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _fill_replicates(marginal, w, stream, vals, start, stop) -> None:
    """vals[start:stop] = the estimator with weights ``w`` on the samples of
    replicates start..stop-1, in blocks of about _MC_BLOCK sample values."""
    n = len(w) + 1
    rows = max(1, _MC_BLOCK // n)
    u = np.empty((min(rows, stop - start), n))
    for first in range(start, stop, rows):
        block = u[: min(rows, stop - first)]
        stream.block_uniforms(first, block)
        vals[first : first + len(block)] = _spacing_sum(marginal.quantile(block), lambda _: w)


@dataclass(frozen=True)
class ValidationReport:
    """Replicated-estimator summary produced by :func:`mc_validate`."""

    marginal: str
    gos: str
    alpha: float
    n: int
    replicates: int
    seed: int
    empirical_mean: float
    empirical_variance: float
    theoretical_mean: float | None
    theoretical_variance: float | None
    analytic_cpi: float
    bias: float
    ks_normality: float | None


def mc_validate(
    marginal: MarginalFamily,
    p: GosParams,
    alpha: float,
    n: int,
    replicates: int,
    stream: RngStream,
) -> ValidationReport:
    """Replicate the spacings estimator on fresh Y-samples and summarise.

    Replicate i draws from ``stream.substream(i)``, so the value of every
    replicate is pinned by (seed, stream_id, i) alone -- reproducible under
    any parallel execution layout.  Requires ``replicates >= 100``.

    Replicates are computed in blocks of about 2^15 sample values (at least
    one replicate per block): one :meth:`RngStream.block_uniforms` call seeds
    the block's substreams together and draws their uniforms, then one
    quantile call and one row-wise spacing sum, the kernel ``empirical_cpi``
    runs on a single sample, serve the whole block.  Memory stays bounded for
    any ``replicates``, and every replicate value is the one a separate
    ``empirical_cpi`` of its own substream's sample gives, bit for bit.

    From n = 4096 on, the replicates are split into one contiguous chunk per
    CPU in the process's affinity mask, each run on a thread of a pool made
    once per process, with its own block buffer and the caller's context
    (``np.errstate`` included).  The report is the same for any number of
    CPUs; an exception raised in a chunk is raised here once every chunk
    has ended.
    """
    if replicates < 100:
        raise ValueError(f"need replicates >= 100, got {replicates}")
    model = FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=alpha)
    # empirical_cpi of each replicate, with its weights computed once
    w = _estimator_weights(n, alpha * c_star(p))
    vals = np.empty(replicates)
    workers = _worker_count() if n >= _POOL_MIN_N else 1
    if workers == 1:
        _fill_replicates(marginal, w, stream, vals, 0, replicates)
    else:
        bounds = [replicates * k // workers for k in range(workers + 1)]
        chunks = [
            _pool().submit(contextvars.copy_context().run, _fill_replicates, marginal, w, stream, vals, a, b)
            for a, b in zip(bounds, bounds[1:])
        ]
        for error in [chunk.exception() for chunk in chunks]:
            if error is not None:
                raise error
    emp_mean = float(vals.mean())
    emp_var = float(vals.var(ddof=1))
    mo = theoretical_moments(marginal, p, alpha, n)
    theo_mean, theo_var = mo if mo is not None else (None, None)
    analytic = _cpi.cpi_gos(model, p).value
    bias = emp_mean - (theo_mean if theo_mean is not None else analytic)
    ks = None
    if theo_var is not None and theo_var > 0.0:
        z = (vals - theo_mean) / math.sqrt(theo_var)
        ks = ks_statistic(z, standard_normal_cdf)
    return ValidationReport(
        marginal=format_marginal(marginal),
        gos=format_gos(p),
        alpha=alpha,
        n=n,
        replicates=replicates,
        seed=stream.seed,
        empirical_mean=emp_mean,
        empirical_variance=emp_var,
        theoretical_mean=theo_mean,
        theoretical_variance=theo_var,
        analytic_cpi=analytic,
        bias=bias,
        ks_normality=ks,
    )
