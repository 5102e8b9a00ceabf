"""The benchmark's defect probe as library tests.

``perfbench/workloads.DEFECT_PROBE`` holds 13 inputs on which a quadrature
route once missed its reference, one or more per known defect class.  Each
is checked here by ``perfbench/run.py``'s rule for quadrature routes,
|value - ref| <= abs_error_estimate + 8 eps |ref|, against the mpmath
reference of ``perfbench/oracle.py`` (as the golden audit does); a raised
error fails.  The ops that still miss or raise are strict xfails named by
their class, so a fix shows as an XPASS that fails the run until its mark
goes; any other error fails at once.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from concomitant_measures import (
    FgmModel,
    GosParams,
    cpi_gos,
    inaccuracy_gos,
    quantile_form_inaccuracy,
    reversed_cpi,
    reversed_inaccuracy,
)
from concomitant_measures.marginals import MARGINAL_FAMILIES
from concomitant_measures.numerics import QuadratureError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

ROUTES = {
    "inaccuracy.quadrature": lambda m, p: inaccuracy_gos(m, p, method="quadrature"),
    "inaccuracy.quantile_form": quantile_form_inaccuracy,
    "inaccuracy.reversed": reversed_inaccuracy,
    "cpi.quadrature": lambda m, p: cpi_gos(m, p, method="quadrature"),
    "cpi.reversed": reversed_cpi,
}
# probe ops within their bound today
PASSING = {6, 8}


@pytest.fixture(scope="module")
def oracle():
    pytest.importorskip("mpmath")
    from oracle import Oracle

    return Oracle()


def _cases():
    for i, op in enumerate(workloads.DEFECT_PROBE):
        marks = () if i in PASSING else pytest.mark.xfail(
            strict=True, raises=(AssertionError, QuadratureError), reason=op["defect"])
        yield pytest.param(op, marks=marks, id=f"{i}-{op['defect']}-{op['route']}")


@pytest.mark.parametrize("op", _cases())
def test_probe_op_within_its_bound(oracle, op):
    ref, _ = oracle.measure(op["route"], op["family"], op["params"], op["gos"], op["alpha"])
    marginal = MARGINAL_FAMILIES[op["family"]](**op["params"])
    model = FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=op["alpha"])
    res = ROUTES[op["route"]](model, GosParams(*op["gos"]))
    assert abs(res.value - ref) <= res.abs_error_estimate + 8 * np.finfo(float).eps * abs(ref), (res, ref)
