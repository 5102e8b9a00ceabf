"""Golden-output grid: every printed value and library route result, pinned.

``tests/golden/grid.json`` holds the exit code, stdout and stderr of a grid of
``cmeasure`` runs (``measure`` over all six families x GOS x alpha with all
five measures, both tables, seeded ``simulate`` runs) and the ``repr`` of the
quadrature, quantile-form and extremes routes and of the exact moment
formulas.  It was written once from the code before a refactor that must not
change any of these outputs; regenerating it hides exactly the changes it is
there to catch, so do that only for a deliberate, documented change of values:

    PYTHONPATH=src python tests/test_golden.py --write

Exit codes and text compare exactly; numbers embedded in the text compare to
1e-12 relative, so that last-bit differences of libm/SIMD kernels between
CPUs do not fail the grid.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

from concomitant_measures import (
    FgmModel,
    cpi_gos,
    extremes_inaccuracy,
    inaccuracy_gos,
    lyapunov_ratio,
    moments_mtbged,
    moments_mtbud,
    parse_gos,
    parse_marginal,
    quantile_form_inaccuracy,
)
from concomitant_measures.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "grid.json"
REL_TOL = 1e-12

MARGINALS = [
    "exponential:theta=1",
    "exponential:theta=2.5",
    "logistic",
    "rayleigh:sigma=1",
    "rayleigh:sigma=0.8",
    "genexp:theta=1,lam=1",
    "genexp:theta=2,lam=1.5",
    "uniform:theta=1",
    "uniform:theta=3",
    "invweibull:theta=1,beta=2",
    "invweibull:theta=1.5,beta=3",
]
GOS = [
    "os:r=1,n=3",
    "os:r=2,n=5",
    "os:r=5,n=5",
    "record:r=1",
    "record:r=3",
    "r=2,n=5,m=1,k=2",
    "r=2,n=4,m=-0.5,k=1.5",
]
ALPHAS = ["-1", "-0.5", "0", "0.5", "1"]

SIMULATE = [
    ("uniform:theta=1", "record:r=2", "-1", "10", "100", "5", "csv"),
    ("uniform:theta=2", "os:r=1,n=3", "0.5", "25", "120", "1", "json"),
    ("exponential:theta=1", "record:r=2", "0.5", "20", "100", "3", "csv"),
    ("exponential:theta=0.5", "r=2,n=5,m=1,k=2", "1", "15", "150", "8", "json"),
    ("genexp:theta=1,lam=1", "record:r=2", "0.5", "50", "120", "3", "csv"),
    ("genexp:theta=2,lam=1.5", "os:r=2,n=5", "-0.5", "30", "100", "4", "csv"),
    ("rayleigh:sigma=1", "record:r=3", "1", "20", "100", "2", "csv"),
    ("invweibull:theta=1,beta=3", "os:r=1,n=3", "-1", "40", "100", "9", "json"),
]


def cli_cases():
    for marginal in MARGINALS:
        for gos in GOS:
            for alpha in ALPHAS:
                yield ["measure", "--marginal", marginal, "--gos", gos, "--alpha", alpha]
    for table in ("1", "2"):
        yield ["table", "--table", table]
        yield ["table", "--table", table, "--format", "json", "--paper-precision"]
    for marginal, gos, alpha, n, reps, seed, fmt in SIMULATE:
        yield ["simulate", "--marginal", marginal, "--gos", gos, "--alpha", alpha,
               "--n", n, "--replicates", reps, "--seed", seed, "--format", fmt]


def library_cases():
    for spec in MARGINALS:
        marginal = parse_marginal(spec)
        for gos in GOS:
            p = parse_gos(gos)
            for alpha in (-1.0, 0.5):
                model = FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=alpha)
                key = f"{spec}|{gos}|{alpha}"
                yield f"inaccuracy_gos.quadrature|{key}", partial(inaccuracy_gos, model, p, "quadrature")
                yield f"quantile_form_inaccuracy|{key}", partial(quantile_form_inaccuracy, model, p)
                yield f"cpi_gos.quadrature|{key}", partial(cpi_gos, model, p, "quadrature")
        for alphas in ((0.5, -0.3, 1.0), (1.0, 1.0, 1.0, 1.0)):
            for which in ("min", "max"):
                yield (f"extremes_inaccuracy|{spec}|{alphas}|{which}",
                       partial(extremes_inaccuracy, marginal, alphas, which))
    for n in (2, 10, 37):
        for alpha in (-1.0, 0.3, 1.0):
            for r in (1, 2, 5):
                for theta2 in (0.5, 2.0):
                    key = f"{n}|{theta2}|{alpha}|{r}"
                    yield f"moments_mtbged|{key}", partial(moments_mtbged, n, theta2, alpha, r)
                    yield f"lyapunov_ratio|{key}", partial(lyapunov_ratio, n, theta2, alpha, r)
                yield f"moments_mtbud|{n}|{alpha}|{r}", partial(moments_mtbud, n, alpha, r)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def compute_grid():
    grid = {" ".join(argv): run_cli(argv) for argv in cli_cases()}
    grid.update((key, repr(call())) for key, call in library_cases())
    return grid


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b)")


def same_text(expected: str, actual: str) -> bool:
    """Equal text outside numbers; numbers equal to ``REL_TOL`` relative."""
    a, b = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(a) != len(b):
        return False
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0 or x == y:
            if x != y:
                return False
            continue
        fx, fy = float(x), float(y)
        if not (math.isclose(fx, fy, rel_tol=REL_TOL, abs_tol=0.0)
                or (math.isnan(fx) and math.isnan(fy))):
            return False
    return True


def same_record(expected, actual) -> bool:
    if isinstance(expected, str):
        return isinstance(actual, str) and same_text(expected, actual)
    return (expected["exit"] == actual["exit"]
            and same_text(expected["stdout"], actual["stdout"])
            and same_text(expected["stderr"], actual["stderr"]))


def test_same_text_tolerance():
    assert same_text("value,1.25,x", "value,1.25000000000000001,x")
    assert same_text("0.75", f"{0.75 * (1 + 1e-13)!r}")
    assert not same_text("0.75", f"{0.75 * (1 + 1e-11)!r}")
    assert not same_text("below_CE", "above_CE")
    assert not same_text("a,1", "a,1,2")


def test_golden_grid():
    golden = json.loads(GOLDEN.read_text())
    grid = compute_grid()
    assert sorted(grid) == sorted(golden)
    changed = [key for key in golden if not same_record(golden[key], grid[key])]
    shown = "\n".join(f"{key}\n  golden: {golden[key]!r}\n  now:    {grid[key]!r}" for key in changed[:5])
    assert not changed, f"{len(changed)} of {len(golden)} golden outputs changed:\n{shown}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_grid(), indent=1) + "\n")
