"""Univariate marginal families with analytic information functionals.

Each family provides the kernels pdf/cdf/log_cdf/quantile plus four
functionals used throughout the measure modules:

============================  =========================================================
``shannon_entropy()``         H = -Int_0^hi f log f dy
``phi_f()``                   Int_{F(0)}^1 u log f(Q(u)) du
``cumulative_entropy()``      CE = -Int_0^hi F log F dy
``cumulative_entropy_max2()`` CE2 = -Int_0^hi F^2 log F^2 dy (cdf of a 2-sample max)
============================  =========================================================

All four integrate over y > 0, the domain on which the inaccuracy-type
measures are defined.  For the five nonnegative families this coincides with
the full support; the standard logistic keeps its full-line pdf/cdf/quantile
but its functionals are the y > 0 values (H(Y) is exactly 1 under this
convention, not the full-line value 2 -- every closed-form identity in the
measure modules requires this reading).

All four are closed forms for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .numerics import MeasureResult, digamma, integrate, trigamma

__all__ = [
    "Exponential",
    "Logistic",
    "Rayleigh",
    "GeneralizedExponential",
    "Uniform",
    "InverseWeibull",
    "MARGINAL_FAMILIES",
    "SpecFormatError",
    "log_cdf_integral",
    "parse_fields",
    "format_number",
    "parse_marginal",
    "format_marginal",
]

_EULER = 0.5772156649015328606
_LI2_HALF = 0.58224052646501250590  # dilogarithm Li2(1/2) = pi^2/12 - (log 2)^2/2
# GeneralizedExponential's quantile and pdf take their log forms above this
# shape; at and below it, the plain forms keep the bits of the golden grid
# (lam <= 1.5) and of the benchmark's inputs (lam <= 2.5)
_GENEXP_LOG_QUANTILE_LAM = 4.0
# ln 2, and ln 2 = _LN2_HI + _LN2_LO to 1e-26 with k _LN2_HI exact for
# |k| < 2^21 (fdlibm's split), for GeneralizedExponential's pdf
_LN2 = math.log(2.0)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


class SpecFormatError(ValueError):
    """A marginal/GOS spec string failed to parse; names the offending token."""


def _safe_log(x):
    """log x, floored so that x = 0 gives a finite log for its zero weight to
    cancel."""
    return np.log(np.maximum(x, 1e-300))


def _log_product(a, b):
    """log(a b) for a, b > 0, as log a + log b where a b is not a normal double."""
    p = a * b
    return math.log(p) if 2.0**-1022 <= p < math.inf else math.log(a) + math.log(b)


def _log_ratio(a, b):
    """log(a / b) for a, b > 0, as log a - log b where a / b is not a normal double."""
    q = a / b
    return math.log(q) if 2.0**-1022 <= q < math.inf else math.log(a) - math.log(b)


class MarginalFamily:
    """Shared behaviour; concrete families are frozen dataclasses below.

    A family defines the kernels ``_pdf``, ``_cdf`` and ``_quantile`` on
    float arrays of any shape, ``_log_cdf`` only where log(cdf) loses digits
    in a tail, and ``support`` where it is not (0, inf); ``_quantile(u,
    out)`` writes into ``out``, which may be u, and returns it.  The public
    kernels own the boundary: they take a float or an array, return a float
    for 0-d input and an array of the input's shape otherwise, and
    ``quantile`` requires every argument strictly inside (0, 1).
    """

    def __post_init__(self):
        # every family parameter is a scale or a shape: finite and positive
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if not value > 0.0:
                raise ValueError(f"{f.name} must be > 0, got {value}")

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def pdf(self, y):
        return _float_or_array(self._pdf, y)

    def cdf(self, y):
        return _float_or_array(self._cdf, y)

    def log_cdf(self, y):
        """log F(y); cdf-based integrands depend on it."""
        return _float_or_array(self._log_cdf, y)

    def _log_cdf(self, y):
        return np.where(y > 0.0, _safe_log(self._cdf(y)), -np.inf)

    def quantile(self, u, out=None):
        """Q(u); with ``out``, a float64 array of u's shape (u itself
        allowed), Q(u) is written there and ``out`` returned."""
        u = np.asarray(u, dtype=float)
        # NaN fails the comparison too; nothing is written to out before it
        if not np.all((u > 0.0) & (u < 1.0)):
            raise ValueError("quantile argument must lie strictly inside (0, 1)")
        y = self._quantile(u, np.empty_like(u) if out is None else out)
        return float(y) if out is None and u.ndim == 0 else y

    # CE and CE2 are closed forms in every family
    def ce_error_estimate(self) -> float:
        return 0.0

    def ce2_error_estimate(self) -> float:
        return 0.0


def _float_or_array(kernel, x):
    x = np.asarray(x, dtype=float)
    out = kernel(x)
    return float(out) if x.ndim == 0 else out


def log_cdf_integral(m: MarginalFamily, term: Callable, quad: Callable = integrate) -> MeasureResult:
    """``quad`` of term(F, log F) over y in (0, hi), the measure domain.

    F = exp(log F) comes from the family's ``log_cdf``; nodes with F = 0
    contribute zero, the 0 log 0 = 0 convention.
    """

    def integrand(y):
        logF = m.log_cdf(y)
        return np.where(np.isfinite(logF), term(np.exp(logF), logF), 0.0)

    return quad(integrand, 0.0, m.support()[1])


@dataclass(frozen=True)
class Exponential(MarginalFamily):
    """Exponential with scale theta: F(y) = 1 - exp(-y/theta)."""

    theta: float = 1.0

    def _pdf(self, y):
        return np.where(y >= 0.0, np.exp(-y / self.theta) / self.theta, 0.0)

    def _cdf(self, y):
        return np.where(y >= 0.0, -np.expm1(-y / self.theta), 0.0)

    def _quantile(self, u, out):
        np.negative(u, out=out)
        np.log1p(out, out=out)
        out *= -self.theta
        return out

    def shannon_entropy(self):
        return 1.0 + math.log(self.theta)

    def phi_f(self):
        return -0.5 * math.log(self.theta) - 0.75

    def cumulative_entropy(self):
        return (math.pi**2 / 6.0 - 1.0) * self.theta

    def cumulative_entropy_max2(self):
        return 2.0 * (math.pi**2 / 6.0 - 1.25) * self.theta


@dataclass(frozen=True)
class Logistic(MarginalFamily):
    """Standard logistic: F(y) = 1/(1 + exp(-y)), support all of R.

    The information functionals are the y > 0 values (see module docstring).
    With u = F(y), CE = -Int_{1/2}^1 log u / (1 - u) du = Li2(1/2) and
    CE2 = 2 Li2(1/2) - 1 + log 2.
    """

    def support(self):
        return (-math.inf, math.inf)

    def _pdf(self, y):
        e = np.exp(-np.abs(y))  # symmetric form, no overflow on either tail
        return e / (1.0 + e) ** 2

    def _cdf(self, y):
        e = np.exp(-np.abs(y))  # stable on both tails
        return np.where(y >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _quantile(self, u, out):
        t = np.negative(u, out=np.empty_like(u))
        np.log1p(t, out=t)
        np.log(u, out=out)
        out -= t
        return out

    def _log_cdf(self, y):
        # -log(1 + e^(-y)), stable on both tails
        return np.where(y >= 0.0, -np.log1p(np.exp(-np.abs(y))), y - np.log1p(np.exp(-np.abs(y))))

    def shannon_entropy(self):
        return 1.0

    def phi_f(self):
        return -0.625 - 0.25 * math.log(2.0)

    def cumulative_entropy(self):
        return _LI2_HALF

    def cumulative_entropy_max2(self):
        return 2.0 * _LI2_HALF - 1.0 + math.log(2.0)


@dataclass(frozen=True)
class Rayleigh(MarginalFamily):
    """Rayleigh with scale sigma: F(y) = 1 - exp(-y^2 / (2 sigma^2))."""

    sigma: float = 1.0

    def _pdf(self, y):
        v = self.sigma**2
        return np.where(y >= 0.0, y / v * np.exp(-(y**2) / (2.0 * v)), 0.0)

    def _cdf(self, y):
        return np.where(y > 0.0, -np.expm1(-(y**2) / (2.0 * self.sigma**2)), 0.0)

    def _quantile(self, u, out):
        np.negative(u, out=out)
        np.log1p(out, out=out)
        out *= -2.0
        np.sqrt(out, out=out)
        out *= self.sigma
        return out

    def shannon_entropy(self):
        return 1.0 + 0.5 * _EULER + math.log(self.sigma / math.sqrt(2.0))

    def phi_f(self):
        return -0.5 * math.log(self.sigma) - 0.75 + 0.5 * math.log(2.0) - 0.25 * _EULER

    # CE = kappa1 sigma and CE2 = kappa2 sigma; expanding -log F in powers of
    # exp(-y^2 / (2 sigma^2)) gives
    #   kappa1 = sqrt(pi/2) sum_{k>=1} (1/k) (k^(-1/2) - (k+1)^(-1/2)),
    #   kappa2 = sqrt(2 pi) sum_{k>=1} (1/k) (k^(-1/2) - 2 (k+1)^(-1/2) + (k+2)^(-1/2)).
    def cumulative_entropy(self):
        return 0.53687701136439642053 * self.sigma

    def cumulative_entropy_max2(self):
        return 0.51599767390113522386 * self.sigma


@dataclass(frozen=True)
class GeneralizedExponential(MarginalFamily):
    """Exponentiated exponential with rate theta: F(y) = (1 - exp(-theta y))^lam.

    lam = 1 recovers the rate-theta exponential.  Note the rate convention
    here versus the scale convention of :class:`Exponential`; both appear in
    the bivariate models this package reproduces.
    """

    theta: float = 1.0
    lam: float = 1.0

    def _pdf(self, y):
        t = self.theta * np.maximum(y, 0.0)
        if self.lam > _GENEXP_LOG_QUANTILE_LAM:
            # base = 1 - e^-t rounds to 1 near the mode, and base^(lam - 1)
            # with it.  So f = exp(log(lam theta) - t + (lam - 1) log(base)),
            # with log(base) as log1p(-e^-t) above t = ln 2 and as
            # log(-expm1(-t)) below (Maechler 2012), each on clipped input,
            # and log(lam theta) - t as (k ln 2 - t) + log(mu nu) for
            # lam theta = mu nu 2^k: near the mode t ~ log(lam theta),
            # rounding log(lam theta) would cost up to 2^10 eps
            s = np.where(t > 0.0, t, 1.0)  # dummy 1 where masked out below
            far, near = np.maximum(s, _LN2), np.minimum(s, _LN2)
            log_base = np.where(s > _LN2, np.log1p(-np.exp(-far)), np.log(-np.expm1(-near)))
            (mu, i), (nu, j) = math.frexp(self.lam), math.frexp(self.theta)
            log_scale = (i + j) * _LN2_LO + math.log(mu * nu)
            with np.errstate(over="ignore"):  # (lam - 1) log(base) = -inf gives f = 0
                val = np.exp(((i + j) * _LN2_HI - s) + log_scale + (self.lam - 1.0) * log_base)
        else:
            base = np.where(t > 0.0, -np.expm1(-t), 1.0)  # dummy 1 where masked out below
            val = self.lam * self.theta * np.exp(-t) * base ** (self.lam - 1.0)
        return np.where(y > 0.0, val, 0.0)

    def _cdf(self, y):
        base = -np.expm1(-self.theta * np.maximum(y, 0.0))
        return np.where(y > 0.0, base**self.lam, 0.0)

    def _quantile(self, u, out):
        if self.lam > _GENEXP_LOG_QUANTILE_LAM:
            # -log(1 - x) with x = u^(1/lam); where x > 1/2, 1 - x cancels, so
            # take log(1 - x) as log(-expm1(a)), a = log(u) / lam (Maechler
            # 2012), and where a is tiny, as log(-a) = log(-log u) - log lam,
            # which does not underflow
            x, ell = u ** (1.0 / self.lam), np.log(u)
            a = ell / self.lam
            v = np.where(x > 0.5, np.log(-np.expm1(np.minimum(a, -1e-20))), np.log1p(-np.minimum(x, 0.5)))
            np.negative(np.where(a > -1e-20, np.log(-ell) - math.log(self.lam), v), out=out)
        else:
            if out is not u:
                out[...] = u
            out **= 1.0 / self.lam  # as u ** (1 / lam), which may take a shortcut such as sqrt
            np.negative(out, out=out)
            np.log1p(out, out=out)
            np.negative(out, out=out)
        out /= self.theta
        return out

    def _log_cdf(self, y):
        t = self.theta * np.maximum(y, 0.0)  # lam log(base), where base**lam underflows
        return np.where(y > 0.0, self.lam * _safe_log(-np.expm1(-t)), -np.inf)

    def shannon_entropy(self):
        B = digamma(self.lam + 1.0) + _EULER
        return -_log_product(self.lam, self.theta) + B + (self.lam - 1.0) / self.lam

    def phi_f(self):
        # psi(2 lam + 1) by the duplication formula where 2 lam + 1 overflows
        x = 2.0 * self.lam + 1.0
        psi = digamma(x) if x < math.inf else (
            0.5 * (digamma(self.lam) + digamma(self.lam + 0.5)) + math.log(2.0) + 0.5 / self.lam)
        return (
            0.5 * _log_product(self.lam, self.theta)
            - 0.25 * (self.lam - 1.0) / self.lam  # not / (4 lam), which overflows
            - 0.5 * (psi + _EULER)
        )

    def cumulative_entropy(self):
        return self.lam / self.theta * trigamma(self.lam + 1.0)

    def cumulative_entropy_max2(self):
        return 2.0 * self.lam / self.theta * trigamma(2.0 * self.lam + 1.0)


@dataclass(frozen=True)
class Uniform(MarginalFamily):
    """Uniform on (0, theta)."""

    theta: float = 1.0

    def support(self):
        return (0.0, self.theta)

    def _pdf(self, y):
        return np.where((y >= 0.0) & (y <= self.theta), 1.0 / self.theta, 0.0)

    def _cdf(self, y):
        return np.clip(y / self.theta, 0.0, 1.0)

    def _quantile(self, u, out):
        return np.multiply(u, self.theta, out=out)

    def shannon_entropy(self):
        return math.log(self.theta)

    def phi_f(self):
        return -0.5 * math.log(self.theta)

    def cumulative_entropy(self):
        return self.theta / 4.0

    def cumulative_entropy_max2(self):
        return self.theta / 4.5  # not 2 theta / 9, which overflows for theta > 9e307


@dataclass(frozen=True)
class InverseWeibull(MarginalFamily):
    """Inverse Weibull (Frechet): F(y) = exp(-(theta/y)^beta), y > 0.

    CE and CE2 are finite only for beta > 1 (Gamma((beta-1)/beta) has a pole
    at beta = 1); the CE-type accessors raise below that threshold while
    pdf/cdf/quantile and the entropy functionals remain valid.
    """

    theta: float = 1.0
    beta: float = 2.0

    def _pdf(self, y):
        # NaN off the support fails the tail test below, so one test gives 0
        # there and where the tail underflows (yy^(-beta-1) may overflow
        # there, and inf * 0 is NaN)
        yy = np.where(y > 0.0, y, np.nan)
        z = (self.theta / yy) ** self.beta
        tail = np.exp(-z)
        val = self.beta * self.theta**self.beta * yy ** (-self.beta - 1.0) * tail
        if not np.isfinite(val).all():  # theta^beta underflows or yy^(-beta-1) overflows
            val = np.where(np.isfinite(val), val, self.beta / yy * (z * tail))
        return np.where(tail > 0.0, val, 0.0)

    def _cdf(self, y):
        return np.exp(self._log_cdf(y))

    def _quantile(self, u, out):
        np.log(u, out=out)
        np.negative(out, out=out)
        out **= -1.0 / self.beta
        out *= self.theta
        return out

    def _log_cdf(self, y):
        yy = np.where(y > 0.0, y, 1.0)  # -(theta/y)^beta, where cdf underflows or rounds to 1
        return np.where(y > 0.0, -((self.theta / yy) ** self.beta), -np.inf)

    def shannon_entropy(self):
        return 1.0 + _EULER * (1.0 + 1.0 / self.beta) + _log_ratio(self.theta, self.beta)

    def phi_f(self):
        return (
            0.5 * _log_ratio(self.beta, self.theta)
            - 0.5 * (1.0 + 1.0 / self.beta) * (_EULER + math.log(2.0))
            - 0.25
        )

    def _require_finite_ce(self):
        if not self.beta > 1.0:
            raise ValueError(
                f"cumulative entropy of InverseWeibull diverges for beta <= 1 (got beta={self.beta})"
            )

    def cumulative_entropy(self):
        self._require_finite_ce()
        return self.theta / self.beta * math.gamma((self.beta - 1.0) / self.beta)

    def cumulative_entropy_max2(self):
        self._require_finite_ce()
        return 2.0 ** (1.0 / self.beta) * self.theta / self.beta * math.gamma(
            (self.beta - 1.0) / self.beta
        )


# --- spec-string parsing -------------------------------------------------------
#
# Format: "family:param=value,param=value", e.g. "exponential:theta=1",
# "invweibull:theta=1,beta=2".  "lambda" is accepted as an alias for "lam".

MARGINAL_FAMILIES = {
    "exponential": Exponential,
    "logistic": Logistic,
    "rayleigh": Rayleigh,
    "genexp": GeneralizedExponential,
    "uniform": Uniform,
    "invweibull": InverseWeibull,
}

_ALIASES = {"lambda": "lam"}


def parse_fields(text: str, spec: str, start: int, allowed: set[str]) -> dict[str, float]:
    """Parse ``text`` = "name=value,..." into finite floats keyed by name.

    ``text`` is the part of ``spec`` that begins at index ``start``; errors
    name the offending token and its position in ``spec``.  Names are
    case-insensitive ("lambda" is read as "lam"), must be in ``allowed`` and
    may appear once each.  Blank text has no fields.
    """
    out: dict[str, float] = {}
    if not text.strip():
        return out
    pos = start
    for token in text.split(","):
        name, eq, value = token.partition("=")
        name = name.strip().lower()
        key = _ALIASES.get(name, name)
        where = f"at position {pos} in {spec!r}"
        if not eq or not key:
            raise SpecFormatError(f"malformed parameter token {token!r} {where}; expected name=value")
        if key not in allowed:
            raise SpecFormatError(
                f"unknown parameter {name!r} {where}; allowed: {', '.join(sorted(allowed)) or 'none'}"
            )
        if key in out:
            raise SpecFormatError(f"repeated parameter {key!r} {where}")
        try:
            number = float(value)
        except ValueError:
            raise SpecFormatError(
                f"parameter {key!r} has non-numeric value {value.strip()!r} {where}"
            ) from None
        if not math.isfinite(number):
            raise SpecFormatError(f"parameter {key!r} has non-finite value {value.strip()!r} {where}")
        out[key] = number
        pos += len(token) + 1
    return out


def format_number(x: float) -> str:
    """The shortest of ``:g`` (6 digits) up to ``:.17g`` that parses back to ``x``."""
    return next(t for t in (f"{x:.{p}g}" for p in range(6, 18)) if float(t) == x)


def parse_marginal(spec: str) -> MarginalFamily:
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    cls = MARGINAL_FAMILIES.get(name)
    if cls is None:
        raise SpecFormatError(
            f"unknown marginal family {name!r} at position 0 in {spec!r}; "
            f"expected one of {sorted(MARGINAL_FAMILIES)}"
        )
    return cls(**parse_fields(rest, spec, len(name) + 1, {f.name for f in fields(cls)}))


def format_marginal(m: MarginalFamily) -> str:
    """Canonical spec string; parse_marginal(format_marginal(m)) == m."""
    for name, cls in MARGINAL_FAMILIES.items():
        if type(m) is cls:
            params = ",".join(f"{f.name}={format_number(getattr(m, f.name))}" for f in fields(m))
            return f"{name}:{params}" if params else name
    raise ValueError(f"not a registered marginal family: {m!r}")
