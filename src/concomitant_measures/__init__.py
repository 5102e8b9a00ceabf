"""Inaccuracy and cumulative past inaccuracy measures for FGM concomitants.

The package exports each library module's ``__all__``, by module:

- :mod:`~concomitant_measures.numerics`: the result record, adaptive
  Gauss-Kronrod quadrature, digamma/trigamma, seedable uniform streams.
- :mod:`~concomitant_measures.marginals`: the six marginal families with
  analytic entropy-type functionals, and the spec parser.
- :mod:`~concomitant_measures.fgm`: the Morgenstern joint model, generalized
  order statistic parameters, the C* coefficient, concomitant pdf/cdf,
  samplers.
- :mod:`~concomitant_measures.inaccuracy` / :mod:`~concomitant_measures.cpi`:
  the measures by closed decomposition and by quadrature, their reversed and
  quantile forms, bound classification, and ``ROUTES``, each by route name.
- :mod:`~concomitant_measures.empirical`: spacings-based estimators, exact
  moments, CLT diagnostics, Monte Carlo validation.

:mod:`~concomitant_measures.cli`, the ``cmeasure`` command, is imported on
its own, so importing the package loads no argparse.
"""

from . import cpi, empirical, fgm, inaccuracy, marginals, numerics
from .cpi import *  # noqa: F403
from .empirical import *  # noqa: F403
from .fgm import *  # noqa: F403
from .inaccuracy import *  # noqa: F403
from .marginals import *  # noqa: F403
from .numerics import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (cpi, empirical, fgm, inaccuracy, marginals, numerics) for name in mod.__all__]
__all__.append("__version__")
