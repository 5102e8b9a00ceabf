"""Inaccuracy and cumulative past inaccuracy measures for FGM concomitants.

Public surface, by module:

- :mod:`~concomitant_measures.numerics`: the result record, adaptive
  Gauss-Kronrod quadrature, digamma/trigamma, seedable uniform streams.
- :mod:`~concomitant_measures.marginals`: the six marginal families with
  analytic entropy-type functionals.
- :mod:`~concomitant_measures.fgm`: the Morgenstern joint model, generalized
  order statistic parameters, the C* coefficient, concomitant pdf/cdf,
  samplers.
- :mod:`~concomitant_measures.inaccuracy` / :mod:`~concomitant_measures.cpi`:
  the measures by closed decomposition and by quadrature, their reversed and
  quantile forms, bound classification.
- :mod:`~concomitant_measures.empirical`: spacings-based estimators, exact
  moments, CLT diagnostics, Monte Carlo validation.
- :mod:`~concomitant_measures.cli`: the ``cmeasure`` command.
"""

from .cpi import check_cpi_bounds, cpi_gos, reversed_cpi
from .empirical import (
    ValidationReport,
    empirical_cpi,
    empirical_cpi_record,
    empirical_cumulative_entropy,
    empirical_cumulative_entropy_max2,
    lyapunov_ratio,
    mc_validate,
    moments_mtbged,
    moments_mtbud,
    spacings,
)
from .fgm import (
    FgmModel,
    GosParams,
    c_star,
    concomitant_cdf,
    concomitant_pdf,
    extremes_pdf,
    format_gos,
    order_statistics,
    parse_gos,
    record_value,
    sample_concomitant,
    sample_joint,
)
from .inaccuracy import (
    extremes_inaccuracy,
    inaccuracy_gos,
    quantile_form_inaccuracy,
    reversed_inaccuracy,
)
from .marginals import (
    Exponential,
    GeneralizedExponential,
    InverseWeibull,
    Logistic,
    Rayleigh,
    Uniform,
    format_marginal,
    parse_marginal,
)
from .numerics import MeasureResult, QuadratureError, RngStream, digamma, integrate, trigamma

__version__ = "0.1.0"

__all__ = [
    "Exponential", "Logistic", "Rayleigh", "GeneralizedExponential", "Uniform",
    "InverseWeibull", "parse_marginal", "format_marginal",
    "FgmModel", "GosParams", "order_statistics", "record_value", "c_star",
    "concomitant_pdf", "concomitant_cdf", "sample_joint", "sample_concomitant",
    "extremes_pdf", "parse_gos", "format_gos",
    "MeasureResult", "inaccuracy_gos",
    "reversed_inaccuracy", "quantile_form_inaccuracy", "extremes_inaccuracy",
    "cpi_gos", "reversed_cpi", "check_cpi_bounds",
    "spacings", "empirical_cpi", "empirical_cpi_record",
    "empirical_cumulative_entropy", "empirical_cumulative_entropy_max2",
    "moments_mtbged", "moments_mtbud", "lyapunov_ratio", "mc_validate",
    "ValidationReport",
    "QuadratureError", "RngStream", "integrate",
    "digamma", "trigamma",
    "__version__",
]
