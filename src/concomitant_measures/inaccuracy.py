"""Inaccuracy measures between concomitant densities and the parent density.

The Kerridge inaccuracy of an assigned density g for a true density f is
I(f, g) = -Int f log g.  For the concomitant of the r-th GOS in the FGM
family, I(g_[r], f_Y) decomposes exactly as

    I = (1 + alpha C*) H(Y) + 2 alpha C* phi_f,

with H(Y) the (y > 0) Shannon entropy and phi_f = Int u log f(Q(u)) du.
Every operation can alternatively be evaluated by direct quadrature of its
defining integral, and results carry a method tag so the two routes can be
played against each other.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NoReturn

import numpy as np

from .fgm import FgmModel, GosParams, c_star, extremes_coefficient
from .marginals import MarginalFamily, _safe_log
from .numerics import MeasureResult, QuadratureError, integrate

__all__ = [
    "inaccuracy_gos",
    "reversed_inaccuracy",
    "quantile_form_inaccuracy",
    "extremes_inaccuracy",
]


def _raise_complement(exc: QuadratureError, total: float, route: str) -> NoReturn:
    """Re-raise ``exc`` for a route whose measure is ``total`` minus the
    failed integral, with the measure's best estimate where there is one."""
    if exc.best is None:
        raise exc
    best = replace(exc.best, value=total - exc.best.value)
    msg = f"{exc}; {route} best estimate {best.value!r} +/- {best.abs_error_estimate:.3e}"
    raise QuadratureError(msg, best=best) from exc


def _decomposition(m: MarginalFamily, c: float) -> MeasureResult:
    # the inaccuracy of a density tilted by 1 + c (1 - 2 F_Y)
    return MeasureResult((1.0 + c) * m.shannon_entropy() + 2.0 * c * m.phi_f(), "closed_form")


def inaccuracy_gos(model: FgmModel, p: GosParams, method: str = "closed_form") -> MeasureResult:
    """I(g_[r,n,m,k], f_Y).

    ``method="closed_form"`` composes the exact decomposition from the
    marginal's analytic H and phi; ``method="quadrature"`` evaluates
    -Int g log f directly.
    """
    c = model.alpha * c_star(p)
    m = model.marginal_y
    if method == "closed_form":
        return _decomposition(m, c)
    if method == "quadrature":

        def integrand(y):
            f = m.pdf(y)
            return -(f * (1.0 + c * (1.0 - 2.0 * m.cdf(y)))) * _safe_log(f)

        # measures are defined on y > 0 regardless of where the support starts
        return integrate(integrand, 0.0, m.support()[1])
    raise ValueError(f"unknown method {method!r}")


def reversed_inaccuracy(model: FgmModel, p: GosParams) -> MeasureResult:
    """I(f_Y, g_[r,n,m,k]) = H(Y) - E[log(1 + alpha C* (1 - 2U))], U ~ F_Y(Y).

    The expectation is a quadrature over u in (F_Y(0), 1); at |alpha C*| = 1
    the integrand has an integrable log singularity at u = 1, which the
    open-node rule absorbs at the price of a larger error estimate.
    """
    c = model.alpha * c_star(p)
    m = model.marginal_y
    try:
        q = integrate(lambda u: np.log1p(c * (1.0 - 2.0 * u)), m.cdf(0.0), 1.0)
    except QuadratureError as exc:
        _raise_complement(exc, m.shannon_entropy(), "reversed_inaccuracy")
    return replace(q, value=m.shannon_entropy() - q.value)


def quantile_form_inaccuracy(model: FgmModel, p: GosParams) -> MeasureResult:
    """I(g_[r,n,m,k], f_Y) via the quantile density q(u) = 1 / f(Q(u)):

        E[log q(U)] + alpha C* E[(1 - 2U) log q(U)].
    """
    c = model.alpha * c_star(p)
    m = model.marginal_y

    def integrand(u):
        # nodes can round onto an endpoint after deep refinement; the mass
        # there is below u-resolution, so those points contribute zero
        interior = (u > 0.0) & (u < 1.0)
        uu = np.where(interior, u, 0.5)
        log_q = -_safe_log(m.pdf(m.quantile(uu)))
        return np.where(interior, log_q * (1.0 + c * (1.0 - 2.0 * uu)), 0.0)

    return replace(integrate(integrand, m.cdf(0.0), 1.0), method="quantile_form")


def extremes_inaccuracy(marginal_y: MarginalFamily, alphas, which: str) -> MeasureResult:
    """Inaccuracy of the concomitant of the sample min/max under per-pair alphas.

    Satisfies I_min + I_max = 2 H(Y) identically.
    """
    return _decomposition(marginal_y, extremes_coefficient(alphas, which))
