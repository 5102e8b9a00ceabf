"""Published-style closed forms of the measures, one family at a time.

They are written out independently of the generic H/phi and CE/CE2
compositions of the library, so tests can cross-check the two.  ``coeff`` is
the tilt coefficient alpha C*.
"""

import math

from concomitant_measures.marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    Uniform,
)
from concomitant_measures.numerics import digamma, trigamma

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
