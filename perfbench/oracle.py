"""Reference values computed independently of the library, with mpmath.

Nothing here imports ``concomitant_measures``.  Every measure the benchmark
checks reduces, for one marginal shape at unit scale, to a handful of
integrals over y > 0 that mpmath evaluates at 20 significant digits:

    A  = -Int f log f            (Shannon entropy on y > 0)
    B  = -Int (1 - 2F) f log f
    CE = -Int F log F,  D = -Int F (1 - F) log F,  CE2 = -Int F^2 log F^2
    R(c) = Int F log(1 + c (1 - F))

With c = alpha C* and s the scale of the marginal (u0 = F(0)):

    inaccuracy (quadrature and quantile form) = A + (1 - u0) log s + c B
    reversed inaccuracy = A + (1 - u0) log s - Int_{u0}^1 log(1 + c (1 - 2u)) du
    CPI = s (CE + c D),   reversed CPI = s (CE - R(c))

The last u-integral and C* itself have closed forms, evaluated here in
extended precision (C* through the gamma-ratio form of the GOS product).
Inverse Weibull integrals run in t with y = t^(-p/beta), p = beta/(beta-1),
which makes the algebraic tail smooth for the quadrature; GenExp with lam < 1
runs in t with y = t^(1/lam); the other families integrate in y directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from workloads import SCALE_PARAM

mp.mp.dps = 20
PIECES = [0, 2, 8, mp.inf]

EPS = float(np.finfo(float).eps)
# closed-form routes must agree to this relative precision
CLOSED_FORM_RTOL = 1e-10
# the published tables print 3 decimals; one unit in the last place is allowed
TABLE_ATOL = 1e-3


def _xlogx(x):
    return mp.mpf(0) if x == 0 else x * mp.log(x)


class Shape:
    """One marginal family at unit scale, with cached functionals."""

    def __init__(self, family: str, shape: dict):
        self.family = family
        self.params = {k: mp.mpf(v) for k, v in shape.items()}
        self._cache: dict = {}
        self.u0 = mp.mpf(0.5) if family == "logistic" else mp.mpf(0)

    # t -> (F, 1 - F, log F, log f, dy/dt) at y = y(t); every map below keeps
    # the integrands smooth at both ends (mpmath's error estimate is not
    # reliable across an algebraic endpoint singularity)
    def _point(self, t):
        fam = self.family
        if fam == "exponential":
            F = -mp.expm1(-t)
            return F, mp.exp(-t), mp.log(F), -t, 1
        if fam == "logistic":
            e = mp.exp(-t)
            return 1 / (1 + e), e / (1 + e), -mp.log1p(e), -t - 2 * mp.log1p(e), 1
        if fam == "rayleigh":
            F = -mp.expm1(-t * t / 2)
            return F, mp.exp(-t * t / 2), mp.log(F), mp.log(t) - t * t / 2, 1
        if fam == "genexp":
            # y = t^q: F ~ y^lam near 0, so q = 1/lam removes the singularity
            lam = self.params["lam"]
            q = max(1 / lam, mp.mpf(1))
            y = t**q
            log_base = mp.log(-mp.expm1(-y))
            F = mp.exp(lam * log_base)
            logf = mp.log(lam) - y + (lam - 1) * log_base
            return F, -mp.expm1(lam * log_base), lam * log_base, logf, q * t ** (q - 1)
        if fam == "uniform":
            return t, 1 - t, mp.log(t), mp.mpf(0), 1
        if fam == "invweibull":
            # s = -log F = y^(-beta) and s = t^p, p = beta/(beta-1): the
            # y^(-beta) tail becomes smooth at t = 0
            beta = self.params["beta"]
            p = beta / (beta - 1)
            s = t**p
            logf = mp.log(beta) + (1 + 1 / beta) * mp.log(s) - s
            jac = p / beta * t ** (-p / beta - 1)
            return mp.exp(-s), -mp.expm1(-s), -s, logf, jac
        raise ValueError(f"unknown family {fam!r}")

    def _pieces(self):
        if self.family == "uniform":
            return [0, 1]
        return PIECES

    def _integral(self, g):
        def integrand(t):
            if t == 0:
                return mp.mpf(0)
            F, Fbar, logF, logf, jac = self._point(t)
            return g(F, Fbar, logF, logf) * jac

        return mp.quad(integrand, self._pieces())

    def functional(self, name: str):
        if name not in self._cache:
            g = {
                "A": lambda F, Fb, lF, lf: -mp.exp(lf) * lf,
                "B": lambda F, Fb, lF, lf: -(Fb - F) * mp.exp(lf) * lf,
                "CE": lambda F, Fb, lF, lf: -F * lF,
                "D": lambda F, Fb, lF, lf: -F * Fb * lF,
                "CE2": lambda F, Fb, lF, lf: -2 * F * F * lF,
            }[name]
            self._cache[name] = self._integral(g)
        return self._cache[name]

    def reversed_cpi_integral(self, c):
        key = ("R", c)
        if key not in self._cache:
            self._cache[key] = self._integral(lambda F, Fb, lF, lf: F * mp.log1p(c * Fb))
        return self._cache[key]


def log_tilt_integral(c, u0):
    """Int_{u0}^1 log(1 + c (1 - 2u)) du, in closed form."""
    if c == 0:
        return mp.mpf(0)
    w0, w1 = 1 + c * (1 - 2 * u0), 1 - c
    return ((_xlogx(w0) - w0) - (_xlogx(w1) - w1)) / (2 * c)


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def c_star(r: int, n: int, m: float, k: float):
    """C*(r, n, m, k) = 2 prod_{j<=r} gamma_j / (gamma_j + 1) - 1, exactly
    where the factors are rational, else by log-gamma ratios."""
    if m == -1.0:  # gamma_j = k for every j
        kk = Fraction(k)
        return _mpf(2 * (kk / (kk + 1)) ** r - 1)
    if m == 0.0 and k == 1.0:  # order statistics: (n - 2r + 1) / (n + 1)
        return _mpf(Fraction(n - 2 * r + 1, n + 1))
    m1 = mp.mpf(m) + 1
    a = n + mp.mpf(k) / m1
    b = n + (mp.mpf(k) + 1) / m1
    log_prod = mp.loggamma(a) - mp.loggamma(a - r) + mp.loggamma(b - r) - mp.loggamma(b)
    return 2 * mp.exp(log_prod) - 1


class Oracle:
    """Caches unit-scale shapes; returns (reference, magnitude) pairs as floats.

    The magnitude is the sum of the absolute values of the terms the
    reference is built from; closed-form routes are held to
    ``CLOSED_FORM_RTOL`` of it, so cancellation between terms cannot make a
    correct value look wrong.
    """

    def __init__(self):
        self._shapes: dict = {}

    def shape(self, family: str, params: dict) -> tuple[Shape, object]:
        """(unit-scale shape, scale factor) of a marginal."""
        params = dict(params)
        name = SCALE_PARAM[family]
        scale = mp.mpf(params.pop(name, 1.0)) if name else mp.mpf(1)
        if family == "genexp":  # theta is a rate
            scale = 1 / scale
        key = (family, tuple(sorted(params.items())))
        if key not in self._shapes:
            self._shapes[key] = Shape(family, params)
        return self._shapes[key], scale

    def measure(self, route: str, family: str, params: dict, gos, alpha: float):
        """Reference of a measure route: (value, magnitude)."""
        shape, s = self.shape(family, params)
        c = mp.mpf(alpha) * c_star(*gos)
        log_s = mp.log(s)
        if route in ("inaccuracy.quadrature", "inaccuracy.quantile_form", "inaccuracy.closed_form"):
            h, b = shape.functional("A") + (1 - shape.u0) * log_s, c * shape.functional("B")
            return float(h + b), float(abs(h) + abs(b))
        if route == "inaccuracy.reversed":
            h, t = shape.functional("A") + (1 - shape.u0) * log_s, log_tilt_integral(c, shape.u0)
            return float(h - t), float(abs(h) + abs(t))
        if route in ("cpi.quadrature", "cpi.closed_form"):
            ce, d = s * shape.functional("CE"), s * c * shape.functional("D")
            return float(ce + d), float(abs(ce) + abs(d))
        if route == "cpi.reversed":
            ce = s * shape.functional("CE")
            r = s * shape.reversed_cpi_integral(c) if c != 0 else mp.mpf(0)
            return float(ce - r), float(abs(ce) + abs(r))
        if route == "cpi.bounds":
            # CPI - CE = c (CE - CE2/2) and the bracket is positive: the sign of c decides
            if abs(c) < mp.mpf(10) ** -20:
                return "equal", 0.0
            return ("above_CE" if c > 0 else "below_CE"), 0.0
        if route == "marginals.cumulative_entropy":
            v = s * shape.functional("CE")
            return float(v), float(abs(v))
        if route == "marginals.cumulative_entropy_max2":
            v = s * shape.functional("CE2")
            return float(v), float(abs(v))
        raise ValueError(f"unknown route {route!r}")


# --- spacings estimator ---------------------------------------------------------


def estimator_weights(n: int, coeff: float) -> np.ndarray:
    """j/n (-log j/n) (1 + c (1 - j/n)), j = 1..n-1."""
    j = np.arange(1, n) / n
    return j * (-np.log(j)) * (1.0 + coeff * (1.0 - j))


def exponential_moments(n: int, rate: float, coeff: float) -> tuple[float, float]:
    """Exact mean and variance of the estimator for exponential(rate) samples:
    spacing j is exponential with mean 1/(rate (n - j)), independently."""
    mu = estimator_weights(n, coeff) / (rate * np.arange(n - 1, 0, -1))
    return math.fsum(mu), math.fsum(mu * mu)


def uniform_moments(n: int, coeff: float) -> tuple[float, float]:
    """Mean and independence-approximation variance for standard uniform
    samples (spacings Beta(1, n)), the model of the published table 2."""
    w = estimator_weights(n, coeff)
    return math.fsum(w) / (n + 1), n / ((n + 1) ** 2 * (n + 2)) * math.fsum(w * w)


def table_cells(table: int) -> dict:
    """(n, theta2, alpha, statistic) -> exact value for the record (r = 2) tables."""
    coeff = lambda alpha: alpha * (2.0 ** (1 - 2) - 1.0)  # noqa: E731
    cells = {}
    for n in (10, 15, 20):
        for alpha in (-1.0, -0.5, 0.5, 1.0):
            if table == 1:
                for theta2 in (0.5, 1.0, 2.0):
                    mean, var = exponential_moments(n, theta2, coeff(alpha))
                    cells[(n, theta2, alpha, "mean")] = mean
                    cells[(n, theta2, alpha, "variance")] = var
            else:
                mean, var = uniform_moments(n, coeff(alpha))
                cells[(n, 1.0, alpha, "mean")] = mean
                cells[(n, 1.0, alpha, "variance")] = var
    return cells


def quantile(family: str, params: dict, u: np.ndarray) -> np.ndarray:
    if family == "exponential":
        return -params["theta"] * np.log1p(-u)
    if family == "rayleigh":
        return params["sigma"] * np.sqrt(-2.0 * np.log1p(-u))
    if family == "invweibull":
        return params["theta"] * (-np.log(u)) ** (-1.0 / params["beta"])
    raise ValueError(f"no quantile for {family!r}")


def replicate_values(op: dict, coeff: float) -> np.ndarray:
    """The estimator on every replicate of an mc_validate op, recomputed from
    the substream contract: replicate i draws from PCG64 seeded with
    SeedSequence(seed, spawn_key=(stream_id, i)), uniforms (k + 0.5) 2^-53."""
    n = op["n"]
    w = estimator_weights(n, coeff)
    vals = np.empty(op["replicates"])
    for i in range(op["replicates"]):
        seq = np.random.SeedSequence(entropy=op["stream_seed"], spawn_key=(op["stream_id"], i))
        k = np.random.Generator(np.random.PCG64(seq)).integers(0, 1 << 53, size=n)
        y = np.sort(quantile(op["family"], op["params"], (k + 0.5) * 2.0**-53))
        vals[i] = float(np.sum(np.diff(y) * w))
    return vals


def normal_cdf(z: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])


def ks_normal(z: np.ndarray) -> float:
    x = np.sort(z)
    n = x.size
    F = normal_cdf(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))
