"""Reference implementations the library is tested against.

- Published-style closed forms of the measures, one family at a time.  They
  are written out independently of the generic H/phi and CE/CE2 compositions
  of the library, so tests can cross-check the two.  ``coeff`` is the tilt
  coefficient alpha C*.
- ``c_star_loop``: C* as the plain product loop over j = 1..r.
- ``integrate_per_panel``: the adaptive G7/K15 scheme with one integrand call
  per panel, the reference for the batched evaluation in ``numerics``;
  ``kronrod_panel``, its rule on one panel, the reference for
  ``numerics._kronrod_rows`` with ``numerics._finish_row``.
- ``GeneratorStream``: the uniform stream drawn through ``Generator.integers``,
  the reference for ``numerics.RngStream``.
- ``mc_replicates_loop``: the Monte Carlo replicates one at a time, the
  reference for the replicate blocks of ``empirical.mc_validate``.
- ``spearman_rho``: the rank correlation the joint-sampler tests check
  against alpha/3.
- ``standard_normal_cdf_loop``: Phi one numpy scalar at a time, the reference
  for ``empirical.standard_normal_cdf``.
- ``log_tilt_integral``: Int_{u0}^1 log(1 + c (1 - 2u)) du in closed form,
  the expectation that ``reversed_inaccuracy`` takes by quadrature.
- ``log_cdf_closed_form``: log F of Exponential, Rayleigh and Uniform written
  out as log(1 - e^-t) and log min(y/theta, 1), the reference that these
  families' log of cdf matches bit for bit.
"""

import heapq
import math

import numpy as np

from concomitant_measures import numerics
from concomitant_measures.fgm import c_star
from concomitant_measures.marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    Uniform,
    _safe_log,
)
from concomitant_measures.numerics import (
    _WG,
    _WGK,
    _XGK,
    MeasureResult,
    QuadratureError,
    digamma,
    trigamma,
)

EULER = 0.5772156649015328606

# Exact value of the logistic tilt constant; 0.6 is its common 1-decimal
# rounding.  The library never uses the rounded figure.
LOGISTIC_TILT_CONSTANT = 0.25 + 0.5 * math.log(2.0)


def closed_form_inaccuracy(marginal, coeff: float) -> float:
    """Family-specific closed forms of I(g_[r], f_Y)."""
    if isinstance(marginal, Exponential):
        return (1.0 + math.log(marginal.theta)) - 0.5 * coeff
    if isinstance(marginal, Logistic):
        return 1.0 - coeff * LOGISTIC_TILT_CONSTANT
    if isinstance(marginal, Rayleigh):
        return (
            coeff * (math.log(math.sqrt(2.0)) - 0.5)
            + 1.0
            + 0.5 * EULER
            + math.log(marginal.sigma / math.sqrt(2.0))
        )
    if isinstance(marginal, GeneralizedExponential):
        lam, theta = marginal.lam, marginal.theta
        B = lambda l: digamma(l + 1.0) - digamma(1.0)  # noqa: E731
        D = B(2.0 * lam) - B(lam)
        return (
            -math.log(lam * theta)
            + B(lam)
            - coeff * D
            + (lam - 1.0) / lam * (1.0 + 0.5 * coeff)
        )
    if isinstance(marginal, Uniform):
        # the tilt integrates out exactly: I = H(Y) for every coefficient
        return math.log(marginal.theta)
    if isinstance(marginal, InverseWeibull):
        H = marginal.shannon_entropy()
        return H + coeff * (0.5 - (1.0 + 1.0 / marginal.beta) * math.log(2.0))
    raise ValueError(f"no closed-form inaccuracy for {type(marginal).__name__}")


def closed_form_cpi(marginal, coeff: float) -> float:
    """Family-specific closed forms of I(G_[r], F_Y)."""
    if isinstance(marginal, Uniform):
        return marginal.theta / 4.0 + coeff * 5.0 * marginal.theta / 36.0
    if isinstance(marginal, Exponential):
        return (math.pi**2 / 6.0 - 1.0) * marginal.theta + coeff * marginal.theta / 4.0
    if isinstance(marginal, InverseWeibull):
        if not marginal.beta > 1.0:
            raise ValueError(f"CPI requires beta > 1, got beta={marginal.beta}")
        theta, beta = marginal.theta, marginal.beta
        lead = theta / beta * math.gamma((beta - 1.0) / beta)
        return lead * (1.0 + coeff * (1.0 - 2.0 ** (1.0 / beta - 1.0)))
    if isinstance(marginal, GeneralizedExponential):
        lam, theta = marginal.lam, marginal.theta
        return lam / theta * (
            (1.0 + coeff) * trigamma(lam + 1.0) - coeff * trigamma(2.0 * lam + 1.0)
        )
    raise ValueError(f"no closed-form CPI for {type(marginal).__name__}")


def c_star_loop(r: int, n: int, m: float, k: float) -> float:
    """C* = 2 prod_{j<=r} gamma_j / (gamma_j + 1) - 1, multiplied left to right."""
    prod = 1.0
    for j in range(1, r + 1):
        g = k + (n - j) * (m + 1.0)
        prod *= g / (g + 1.0)
    return 2.0 * prod - 1.0


def kronrod_panel(f, lo, hi):
    """G7/K15 (integral, error estimate) of one panel from one 15-node call
    of ``f``, each sum a 1-d ``@``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _XGK
    with np.errstate(all="ignore"):
        fx = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        bad = x[~np.isfinite(fx)][0]
        raise QuadratureError(f"integrand returned a non-finite value at y={bad!r}")
    resk = float(_WGK @ fx)
    resg = float(_WG @ fx[1::2])
    resabs = float(_WGK @ np.abs(fx))
    reskh = 0.5 * resk
    resasc = float(_WGK @ np.abs(fx - reskh))
    err = abs(resk - resg) * half
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * float(np.finfo(float).eps) * resabs * half)
    return resk * half, err


def integrate_per_panel(f, lo, hi, rel_tol=None, abs_tol=None, max_intervals=None):
    """``numerics.integrate`` as it was with one 15-node integrand call per
    panel and the non-finite checks inside the semi-infinite map.

    An argument left out takes the value of the matching ``numerics``
    constant at the time of the call, so at the defaults the result equals
    ``integrate``'s bit for bit.
    """
    rel_tol = numerics._REL_TOL if rel_tol is None else rel_tol
    abs_tol = numerics._ABS_TOL if abs_tol is None else abs_tol
    max_intervals = numerics._MAX_INTERVALS if max_intervals is None else max_intervals
    if math.isinf(hi):
        inner = f

        def f(t, _g=inner, _lo=lo):
            w = 1.0 - t
            dead = w < 1e-16
            wsafe = np.where(dead, 1.0, w)
            with np.errstate(all="ignore"):
                y = _lo + t / wsafe
                fy = np.asarray(_g(y), dtype=float)
                fx = np.where(dead, 0.0, fy / (wsafe * wsafe))
            for values in (fy, fx):
                if not np.all(np.isfinite(values)):
                    bad = y[~np.isfinite(values)][0]
                    raise QuadratureError(f"integrand returned a non-finite value at y={bad!r}")
            return fx

        lo, hi = 0.0, 1.0

    evals = 15
    val, err = kronrod_panel(f, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total_val, total_err = val, err
    half_budget_val = None

    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if len(heap) >= max_intervals:
            best = MeasureResult(total_val, "quadrature", total_err, evals)
            diverging = (
                half_budget_val is not None
                and abs(total_val) > 1.1 * max(abs(half_budget_val), abs_tol)
            )
            reason = "integral appears divergent" if diverging else "tolerance not reached"
            raise QuadratureError(
                f"{reason} after {evals} evaluations "
                f"(best estimate {total_val!r} +/- {total_err:.3e})",
                best=best,
            )
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = kronrod_panel(f, a, m)
        v2, e2 = kronrod_panel(f, m, b)
        evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1))
        heapq.heappush(heap, (-e2, m, b, v2, e2))
        if half_budget_val is None and len(heap) >= max_intervals // 2:
            half_budget_val = total_val

    return MeasureResult(total_val, "quadrature", total_err, evals)


class GeneratorStream:
    """``numerics.RngStream`` as it was: each uniform is
    ``(Generator.integers(0, 2**53) + 0.5) * 2**-53``, drawn through a numpy
    ``Generator`` over the same seeded PCG64."""

    def __init__(self, seed, stream_id=0, _key=None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key = _key if _key is not None else (self.stream_id,)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self._key))
        )

    def uniforms(self, size):
        return (self._gen.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53

    def substream(self, index):
        return GeneratorStream(self.seed, self.stream_id, _key=self._key + (int(index),))


def mc_replicates_loop(marginal, p, alpha, n, replicates, stream):
    """The replicate vector of ``empirical.mc_validate`` with one quantile
    call, sort, clip at 0 (the measures' y > 0 domain), diff and weighted
    sum per replicate."""
    j = np.arange(1, n) / n
    w = j * (-np.log(j)) * (1.0 + alpha * c_star(p) * (1.0 - j))
    vals = np.empty(replicates)
    for i in range(replicates):
        y = marginal.quantile(stream.substream(i).uniforms(n))
        vals[i] = np.sum(np.diff(np.maximum(np.sort(y), 0.0)) * w)
    return vals


def spearman_rho(x, y) -> float:
    """Spearman rank correlation (no ties): Pearson correlation of the ranks."""
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def standard_normal_cdf_loop(z):
    """Phi at each entry of the 1-d array ``z``, one element at a time."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.asarray(z, dtype=float)])


def log_tilt_integral(c, u0, mp):
    """Int_{u0}^1 log(1 + c (1 - 2u)) du for 0 < |c| < 1, in mpmath: with
    w = 1 + c (1 - 2u), the antiderivative of log w in w is w log w - w."""
    c, u0 = mp.mpf(c), mp.mpf(u0)
    w0, w1 = 1 + c * (1 - 2 * u0), 1 - c
    return ((w0 * mp.log(w0) - w0) - (w1 * mp.log(w1) - w1)) / (2 * c)


def log_cdf_closed_form(m, y):
    """log F(y) of an Exponential, Rayleigh or Uniform family, -inf for y <= 0
    (and NaN y), floored by ``_safe_log`` where F = 0."""
    y = np.asarray(y, dtype=float)
    if isinstance(m, Uniform):
        return np.where(y > 0.0, _safe_log(np.minimum(y / m.theta, 1.0)), -np.inf)
    if isinstance(m, Exponential):
        t = np.maximum(y, 0.0) / m.theta
    elif isinstance(m, Rayleigh):
        t = np.maximum(y, 0.0) ** 2 / (2.0 * m.sigma**2)
    else:
        raise ValueError(f"no closed-form log F for {type(m).__name__}")
    return np.where(y > 0.0, _safe_log(-np.expm1(-t)), -np.inf)
