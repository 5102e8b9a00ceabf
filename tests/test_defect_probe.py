"""The benchmark's defect probe as library tests.

``perfbench/workloads.DEFECT_PROBE`` holds 13 inputs on which a quadrature
route once missed its reference, one or more per known defect class.  Each
is checked here by ``perfbench/run.py``'s rule for quadrature routes,
|value - ref| <= abs_error_estimate + 8 eps |ref|, against the mpmath
reference of ``perfbench/oracle.py`` (as the golden audit does); a raised
error fails.  The ops that still miss or raise are strict xfails named by
their class, so a fix shows as an XPASS that fails the run until its mark
goes; any other error fails at once.  The same 13 ops, whose heavy tails
pop many distinct panels, check that ``numerics.integrate``'s cache of batch
plans stays within its size.  The ops run through the library's route table,
``cpi.ROUTES``, which must name every route the benchmark, its tracer and
``cmeasure`` use.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from concomitant_measures import ROUTES, Exponential, FgmModel, GosParams, MeasureResult, cli, numerics
from concomitant_measures.marginals import MARGINAL_FAMILIES
from concomitant_measures.numerics import QuadratureError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

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


def test_plan_cache_stays_within_its_size():
    # the probe's heavy tails refine deep into many distinct panels, each
    # popped batch a plan of its own: the cache evicts rather than grows
    numerics._batch_plan.cache_clear()
    for op in workloads.DEFECT_PROBE:
        marginal = MARGINAL_FAMILIES[op["family"]](**op["params"])
        model = FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=op["alpha"])
        try:
            ROUTES[op["route"]](model, GosParams(*op["gos"]))
        except QuadratureError:
            pass
    info = numerics._batch_plan.cache_info()
    assert info.misses > info.maxsize == info.currsize == numerics._PLAN_CACHE


def test_every_route_is_named_once_in_the_library_table(oracle):
    # a route added to the table, the tracer, the benchmark or the CLI alone fails here
    assert set(ROUTES) == set(tracer.ROUTES)
    assert set(ROUTES) >= set(workloads.QUAD_ROUTES) | set(cli.MEASURES.values())
    model = FgmModel(marginal_x=Exponential(), marginal_y=Exponential(), alpha=0.5)
    for route, call in ROUTES.items():
        oracle.measure(route, "exponential", {"theta": 1.0}, (2, 5, 0.0, 1.0), 0.5)
        res = call(model, GosParams(2, 5, 0.0, 1.0))
        assert isinstance(res, MeasureResult) and res.method in ("closed_form", "quadrature", "quantile_form")
