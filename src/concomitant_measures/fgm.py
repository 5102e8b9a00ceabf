"""Morgenstern (FGM) bivariate model and concomitants of generalized order statistics.

The joint pdf is f_X f_Y [1 + alpha (2 F_X - 1)(2 F_Y - 1)] with |alpha| <= 1.
Concomitant distributions of the r-th generalized order statistic depend on
the model only through the coefficient

    C*(r, n, m, k) = 2 prod_{j<=r} gamma_j / (gamma_j + 1) - 1,
    gamma_j = k + (n - j)(m + 1),

which reduces to (n - 2r + 1)/(n + 1) for ordinary order statistics
(m=0, k=1) and to 2^(1-r) - 1 for upper records (m=-1, k=1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .marginals import MarginalFamily, SpecFormatError, format_number, parse_fields
from .numerics import _BERNOULLI, RngStream, _as_int

__all__ = [
    "GosParams",
    "FgmModel",
    "order_statistics",
    "record_value",
    "c_star",
    "concomitant_pdf",
    "concomitant_cdf",
    "sample_joint",
    "sample_concomitant",
    "extremes_coefficient",
    "extremes_pdf",
    "parse_gos",
    "format_gos",
]


@dataclass(frozen=True)
class GosParams:
    """Index (r) and model parameters (n, m, k) of a generalized order statistic."""

    r: int
    n: int
    m: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        # numerics._as_int's rule, stored as Python ints so that equal
        # indices compare, hash and print alike
        try:
            for name in ("r", "n"):
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        except ValueError:
            raise ValueError("r and n must be integers") from None
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        # gamma works in floats, so an int past the float range counts as
        # infinite (math.isfinite raises OverflowError on it)
        for name in ("n", "m", "k"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.k > 0.0:
            raise ValueError(f"k must be > 0, got {self.k}")
        # gamma_j is monotone in j and gamma_n = k > 0, so any violation
        # shows at j = 1
        if not self.gamma(1) > 0.0:
            raise ValueError(
                f"gamma_j = k + (n-j)(m+1) must be positive for all j; "
                f"violated at j=1 for {self!r}"
            )

    def gamma(self, j: int) -> float:
        # in double precision whatever the type of m and k, so that equal
        # parameters give equal gammas (c_star is memoised on them)
        return float(self.k) + (self.n - j) * (float(self.m) + 1.0)

    def is_order_statistics(self) -> bool:
        return self.m == 0.0 and self.k == 1.0

    def is_record(self) -> bool:
        return self.m == -1.0 and self.k == 1.0


def order_statistics(r: int, n: int) -> GosParams:
    """The r-th of n ordinary order statistics."""
    return GosParams(r=r, n=n, m=0.0, k=1.0)


def record_value(r: int) -> GosParams:
    """The r-th upper record value (n is immaterial; gamma_j = 1 for all j)."""
    return GosParams(r=r, n=r, m=-1.0, k=1.0)


# up to this r, C* is one product of r factors; past it, an O(1) form
_C_STAR_EXACT_R = 1 << 16
# distinct GosParams whose C* is kept; one measure or table call needs one
_C_STAR_CACHE = 256


@functools.lru_cache(maxsize=_C_STAR_CACHE)
def c_star(p: GosParams) -> float:
    """Concomitant coefficient C*(r, n, m, k); always inside [-1, 1].

    Up to r = 2^16 the product is accumulated left to right in j, factor by
    factor, so it rounds exactly as the plain loop does.  Past it, and where
    gamma_1 overflows (the loop's factor is then inf/inf), order statistics
    take (n - 2r + 1)/(n + 1), correctly rounded, k-records (m = -1) take
    2 (k/(k+1))^r - 1 (Kamps 1995), and every other m takes a log-gamma
    ratio (:func:`_c_star_gamma_ratio`).

    Memoised on ``p``: GosParams that compare equal, such as m=-0.0 and
    m=0.0, k=1 and k=1.0, or a float32 m and its float64 value, give the
    same gammas, hence the same product.
    """
    if p.r > _C_STAR_EXACT_R or p.gamma(1) == math.inf:
        if p.is_order_statistics():
            # the product telescopes to (n - r + 1)/(n + 1); int / int rounds once
            return (p.n - 2 * p.r + 1) / (p.n + 1)
        if p.m == -1.0:
            # k-records: every gamma_j is k, so the product is (1 + 1/k)^-r;
            # (unlike 1/(k+1), 1/k does not round to 1 for k below 2^-53)
            return 2.0 * math.exp(-p.r * math.log1p(1.0 / float(p.k))) - 1.0
        return _c_star_gamma_ratio(p)
    # n - j is formed exactly and then rounded once, as in the loop; an n
    # beyond int64 needs Python integers for that.  numpy sums pairwise, but
    # multiplies in a reduction left to right, one factor at a time
    g = p.gamma(np.arange(1, p.r + 1, dtype=np.int64 if p.n < 2**63 else object))
    return 2.0 * float(np.multiply.reduce(g / (g + 1.0))) - 1.0


def _c_star_gamma_ratio(p: GosParams) -> float:
    """C* for m != -1 from the product of the factors x/(x + d) over
    x = x0, x0 + 1, .., a - 1, with d = 1/|m+1| and a = x0 + r.

    x0 is the smallest gamma_j times d: gamma_r d = n - r + k/(m+1) for
    m > -1, gamma_1 d for m < -1.  With T(x) = lnGamma(x + d) - lnGamma(x),
    log prod = T(x0) - T(a).  The first factor is at most x0/d, and log prod
    <= -d ln((a + d)/(x0 + d)); either bound settles C* = -1 at once, and
    the second keeps the steps below short.  Since T(x) = T(x + 1) -
    log1p(d/x), x0 is first stepped up to x >= 64 max(1, d).  There T(x) =
    d ln x + sum_i e_i x^-i with e_i = (-1)^(i+1) (B_(i+1)(d) - B_(i+1)) /
    (i (i+1)) (DLMF 5.11.8), and T(x) - T(a) is summed term by term from
    ln(x/a), so no two log-gamma values of size n ln n cancel.
    """
    c = float(p.m) + 1.0
    d = 1.0 / abs(c)
    if c > 0.0:
        kd = float(p.k) / c
        x, a = (p.n - p.r) + kd, p.n + kd
    else:
        x = p.gamma(1) * d
        a = x + p.r
    if not math.isfinite(x):  # then every gamma_j > 1e292, and every factor rounds to 1
        return 1.0
    if x < d * 2.0**-56 or d * (math.log(a + d) - math.log(x + d)) > 40.0:  # prod < 2^-55
        return -1.0
    steps = max(0, math.ceil(64.0 * max(1.0, d) - x))
    log_prod = -float(np.log1p(d / (x + np.arange(steps))).sum())
    x += steps
    # ln(x/a), from a - x = r - steps when x is close to a
    t = (p.r - steps) / a
    ln_ratio = math.log1p(-t) if t < 0.5 else math.log(x / a)
    log_prod += d * ln_ratio
    for i in range(1, 10):  # 9 terms, over B_0 .. B_9
        b_diff = sum(math.comb(i + 1, j) * _BERNOULLI[i + 1 - j] * d**j for j in range(1, i + 2))
        # e_i (x^-i - a^-i), with x^-i - a^-i = -x^-i expm1(i ln(x/a))
        log_prod += (-1) ** i * b_diff / (i * (i + 1)) * x**-i * math.expm1(i * ln_ratio)
    return 1.0 + 2.0 * math.expm1(log_prod)


@dataclass(frozen=True)
class FgmModel:
    """Two marginals tied by the FGM dependence parameter alpha, |alpha| <= 1."""

    marginal_x: MarginalFamily
    marginal_y: MarginalFamily
    alpha: float

    def __post_init__(self):
        if not abs(self.alpha) <= 1.0:
            raise ValueError(f"|alpha| must be <= 1, got {self.alpha}")

    def joint_pdf(self, x, y):
        fx = self.marginal_x.pdf(x)
        fy = self.marginal_y.pdf(y)
        Fx = self.marginal_x.cdf(x)
        Fy = self.marginal_y.cdf(y)
        return fx * fy * (1.0 + self.alpha * (2.0 * Fx - 1.0) * (2.0 * Fy - 1.0))


def concomitant_pdf(model: FgmModel, p: GosParams, y):
    """pdf of the concomitant of the r-th GOS: f_Y [1 + alpha C* (1 - 2 F_Y)]."""
    c = model.alpha * c_star(p)
    return model.marginal_y.pdf(y) * (1.0 + c * (1.0 - 2.0 * model.marginal_y.cdf(y)))


def concomitant_cdf(model: FgmModel, p: GosParams, y):
    """cdf of the concomitant: F_Y [1 + alpha C* (1 - F_Y)]."""
    c = model.alpha * c_star(p)
    F = model.marginal_y.cdf(y)
    return F * (1.0 + c * (1.0 - F))


def _invert_tilted_uniform(a, u):
    """Solve a v^2 - (1+a) v + u = 0 for the root in [0, 1].

    This inverts v -> v (1 + a (1 - v)), the cdf tilt shared by the FGM
    conditional law and the concomitant cdf.  The minus-branch root
    [(1+a) - sqrt((1+a)^2 - 4au)] / (2a) is the one inside [0, 1] for every
    |a| <= 1, u in (0, 1); it is evaluated in the conjugate form
    2u / [(1+a) + sqrt(...)], which is the same root without the subtractive
    cancellation that wrecks the textbook form for small |a| (and it
    degenerates smoothly to v = u at a = 0).
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    disc = (1.0 + a) ** 2 - 4.0 * a * u
    return 2.0 * u / ((1.0 + a) + np.sqrt(np.maximum(disc, 0.0)))


def sample_joint(model: FgmModel, stream: RngStream, size: int):
    """Draw ``size`` pairs (x, y) from the joint law by conditional inversion.

    X is drawn marginally; given F_X(x), the conditional cdf of V = F_Y(Y) is
    v [1 + a (1 - v)] with a = alpha (1 - 2 F_X(x)), inverted in closed form.
    Returns a pair of arrays.
    """
    u1 = stream.uniforms(size)
    u2 = stream.uniforms(size)
    a = model.alpha * (1.0 - 2.0 * u1)
    v = _invert_tilted_uniform(a, u2)
    return model.marginal_x.quantile(u1), model.marginal_y.quantile(v)


def sample_concomitant(model: FgmModel, p: GosParams, stream: RngStream, size: int):
    """Draw ``size`` values from the concomitant law of the r-th GOS by direct
    cdf inversion of :func:`concomitant_cdf`, as an array."""
    u = stream.uniforms(size)
    return model.marginal_y.quantile(_invert_tilted_uniform(model.alpha * c_star(p), u))


def extremes_coefficient(alphas, which: str) -> float:
    """Tilt coefficient for concomitants of extremes under per-pair alphas.

    ``which="min"`` gives +(n-1)/((n+1) n) sum(alpha_j); ``which="max"``
    negates it.  With all alpha_j equal this matches alpha * C* at r = 1
    (resp. r = n) for ordinary order statistics.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must be a non-empty 1-d sequence")
    if not np.all(np.abs(alphas) <= 1.0):  # NaN fails too
        raise ValueError("every |alpha_j| must be <= 1")
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    n = alphas.size
    coeff = (n - 1) / ((n + 1) * n) * float(alphas.sum())
    return coeff if which == "min" else -coeff


def extremes_pdf(marginal_y: MarginalFamily, alphas, which: str, y):
    """pdf of the concomitant of the sample minimum or maximum, heterogeneous alphas."""
    s = extremes_coefficient(alphas, which)
    return marginal_y.pdf(y) * (1.0 + s * (1.0 - 2.0 * marginal_y.cdf(y)))


# --- spec-string parsing -------------------------------------------------------
#
# "r=<int>,n=<int>,m=<real>,k=<real>" plus the shorthands "os:r=<int>,n=<int>"
# (m=0, k=1) and "record:r=<int>" (m=-1, k=1).

# prefix -> (allowed fields, required fields); "" is the bare form
_GOS_FORMS = {
    "os:": ({"r", "n"}, {"r", "n"}),
    "record:": ({"r"}, {"r"}),
    "": ({"r", "n", "m", "k"}, {"r", "n"}),
}


def parse_gos(spec: str) -> GosParams:
    text = spec.strip().lower()
    head, sep, rest = text.partition(":")
    form, rest = (head + sep, rest) if sep else ("", text)
    if form not in _GOS_FORMS:
        raise SpecFormatError(
            f"unknown GOS shorthand {head!r} at position 0 in {spec!r}; "
            f"expected 'os:', 'record:' or bare r=..,n=..,m=..,k=.."
        )
    allowed, required = _GOS_FORMS[form]
    values = parse_fields(rest, spec, len(form), allowed)
    missing = required - values.keys()
    if missing:
        raise SpecFormatError(f"GOS spec {spec!r} is missing fields {sorted(missing)}")
    r = _as_index(values, "r", spec)
    if form == "record:":
        return record_value(r)
    return GosParams(
        r=r, n=_as_index(values, "n", spec), m=values.get("m", 0.0), k=values.get("k", 1.0)
    )


def _as_index(values: dict[str, float], key: str, spec: str) -> int:
    value = values[key]
    if value != int(value):
        raise SpecFormatError(f"GOS field {key!r} must be an integer, got {format_number(value)} in {spec!r}")
    return int(value)


def format_gos(p: GosParams) -> str:
    """Canonical spec string, shorthands preferred; parse_gos(format_gos(p)) == p."""
    if p.is_order_statistics():
        return f"os:r={p.r},n={p.n}"
    if p.is_record():
        return f"record:r={p.r}"
    return f"r={p.r},n={p.n},m={format_number(p.m)},k={format_number(p.k)}"
