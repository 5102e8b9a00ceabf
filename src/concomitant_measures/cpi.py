"""Cumulative past inaccuracy (CPI) between concomitant and parent cdfs.

CPI is the distribution-function analogue of the Kerridge measure:
I(F, G) = -Int F log G.  Between the concomitant cdf G_[r,n,m,k] and the
parent F_Y it decomposes as

    I(G_[r], F_Y) = (1 + alpha C*) CE(Y) - (alpha/2) C* CE(Y_(2:2)),

where CE is the cumulative entropy -Int F log F and CE(Y_(2:2)) applies the
same functional to F^2 (the cdf of a two-sample maximum).  Since
CE(Y) - CE(Y_(2:2))/2 > 0 always, the measure sits above or below CE(Y)
exactly as alpha C* is positive or negative.

``ROUTES`` names each route of this module and of ``inaccuracy`` once
("cpi.quadrature", ...), mapped to its call (model, GosParams) -> MeasureResult.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import inaccuracy
from .fgm import FgmModel, GosParams, c_star
from .inaccuracy import _raise_complement
from .marginals import log_cdf_integral
from .numerics import MeasureResult, QuadratureError, integrate

__all__ = [
    "cpi_gos",
    "reversed_cpi",
    "check_cpi_bounds",
    "ROUTES",
]


def cpi_gos(model: FgmModel, p: GosParams, method: str = "closed_form") -> MeasureResult:
    """I(G_[r,n,m,k], F_Y).

    ``method="closed_form"`` composes the decomposition from the marginal's
    closed-form CE and CE(Y_(2:2)); ``method="quadrature"`` integrates
    -Int G log F directly.
    """
    c = model.alpha * c_star(p)
    m = model.marginal_y
    if method == "closed_form":
        value = (1.0 + c) * m.cumulative_entropy() - 0.5 * c * m.cumulative_entropy_max2()
        return MeasureResult(value, "closed_form")
    if method == "quadrature":
        return log_cdf_integral(m, lambda F, logF: -(F * (1.0 + c * (1.0 - F))) * logF, integrate)
    raise ValueError(f"unknown method {method!r}")


def reversed_cpi(model: FgmModel, p: GosParams) -> MeasureResult:
    """I(F_Y, G_[r,n,m,k]) = CE(Y) - E[U log(1 + alpha C* (1 - U)) / f(Q(U))].

    The expectation is evaluated in its y-parametrization
    Int F log(1 + alpha C* (1 - F)) dy (the u = F(y) substitution of the same
    integral): quantile densities of heavy-tailed marginals blow up
    algebraically at u = 1, while this form only needs the stable log-cdf.
    """
    c = model.alpha * c_star(p)
    m = model.marginal_y
    ce = m.cumulative_entropy()
    try:
        q = log_cdf_integral(m, lambda F, logF: F * np.log1p(c * (1.0 - F)), integrate)
    except QuadratureError as exc:
        # ROADMAP item-2 stopgap for heavy InverseWeibull tails: an exhausted
        # budget whose bound is within 1e-7 of scale is reported with that
        # bound, although such bounds have missed by 37-98x (beta 1.5-1.7)
        q = exc.best
        if q is None or not q.abs_error_estimate <= 1e-7 * max(1.0, abs(q.value)):
            _raise_complement(exc, ce, "reversed_cpi")
    return replace(q, value=ce - q.value)


def check_cpi_bounds(model: FgmModel, p: GosParams) -> str:
    """Classify CPI against CE(Y): returns "below_CE", "above_CE" or "equal".

    The gap is alpha C* (CE - CE2/2) with a strictly positive bracket, so the
    classification is the sign of alpha C*.  No range restriction on r is
    enforced here; callers asserting published inequalities should stay
    within their stated ranges (order statistics: 1 <= r <= (n+1)/2, any r
    for records).
    """
    c = model.alpha * c_star(p)
    m = model.marginal_y
    ce = m.cumulative_entropy()
    gap = c * (ce - 0.5 * m.cumulative_entropy_max2())
    # relative to CE: the measures scale with the marginal, and C* can round
    # to ~1e-16 instead of 0 where it vanishes (r = (n+1)/2)
    tol = 1e-12 * abs(ce)
    if abs(gap) <= tol:
        return "equal"
    return "above_CE" if gap > 0.0 else "below_CE"


# each entry looks its function up on its module when called, so a function
# rebound there at run time (a tracer, a test double) is the one called
ROUTES = {
    "inaccuracy.closed_form": lambda m, p: inaccuracy.inaccuracy_gos(m, p),
    "inaccuracy.quadrature": lambda m, p: inaccuracy.inaccuracy_gos(m, p, "quadrature"),
    "inaccuracy.quantile_form": lambda m, p: inaccuracy.quantile_form_inaccuracy(m, p),
    "inaccuracy.reversed": lambda m, p: inaccuracy.reversed_inaccuracy(m, p),
    "cpi.closed_form": lambda m, p: cpi_gos(m, p),
    "cpi.quadrature": lambda m, p: cpi_gos(m, p, "quadrature"),
    "cpi.reversed": lambda m, p: reversed_cpi(m, p),
    "cpi.bounds": lambda m, p: MeasureResult(check_cpi_bounds(m, p), "closed_form"),
}
