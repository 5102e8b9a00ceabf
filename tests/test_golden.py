"""Golden-output grid: every printed value and library route result, pinned.

``tests/golden/grid.json`` holds the exit code, stdout and stderr of a grid of
``cmeasure`` runs (``measure`` over all six families x GOS x alpha with all
five measures, both tables, seeded ``simulate`` runs) and the ``repr`` of the
quadrature, quantile-form and extremes routes and of the exact moment
formulas.  It was written once from the code before a refactor that must not
change any of these outputs; regenerating it hides exactly the changes it is
there to catch, so do that only for a deliberate, documented change of values,
and only through the audit:

    PYTHONPATH=src python tests/test_golden.py --audit
    PYTHONPATH=src python tests/test_golden.py --write

``--audit`` lists every entry that no longer matches and checks each moved
measure against the mpmath reference of ``perfbench/oracle.py`` (see
``audit``); ``--write`` runs the audit and, only if it passes, rewrites the
entries it lists and nothing else.  Both need mpmath.

Exit codes and text compare exactly; numbers embedded in the text compare to
1e-12 relative, so that last-bit differences of libm/SIMD kernels between
CPUs do not fail the grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest

from concomitant_measures import (
    ROUTES,
    Exponential,
    FgmModel,
    extremes_inaccuracy,
    lyapunov_ratio,
    moments_mtbged,
    moments_mtbud,
    parse_gos,
    parse_marginal,
)
from concomitant_measures.cli import MEASURES, main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden" / "grid.json"
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
# the first field of a library route entry's key, and its route in ROUTES
LIBRARY_ROUTES = {
    "inaccuracy_gos.quadrature": "inaccuracy.quadrature",
    "quantile_form_inaccuracy": "inaccuracy.quantile_form",
    "cpi_gos.quadrature": "cpi.quadrature",
}


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
                for name, route in LIBRARY_ROUTES.items():
                    yield f"{name}|{spec}|{gos}|{alpha}", partial(ROUTES[route], model, p)
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


# --- audited regeneration --------------------------------------------------------

EPS = sys.float_info.epsilon
# the reference route in perfbench/oracle.py of a CLI measure row or of a
# library entry (by the first field of its key)
REFERENCE_ROUTES = {**MEASURES, **LIBRARY_ROUTES}
# the numbers of a repr, not the digits of a name such as np.float64
_REPR_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def load_oracle():
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    from oracle import Oracle

    return Oracle()


def _numbers(text: str) -> list[float]:
    return [float(x) for x in _REPR_NUMBER.findall(text)]


def _audit_value(oracle, route, spec, gos, alpha, old, new) -> tuple[bool, float, str]:
    """(accepted, share of its allowance used, report) of one moved value;
    ``old`` and ``new`` are (value, abs_error_estimate) pairs, the value a
    label for ``bounds``.

    A value is accepted when it lies within its bound of the reference, plus
    the rounding allowance 8 eps times the magnitude of the reference's terms,
    and is no farther from the reference than before unless its bound grew.
    """
    marginal, p = parse_marginal(spec), parse_gos(gos)
    family = spec.partition(":")[0].strip().lower()
    params = {f.name: getattr(marginal, f.name) for f in fields(marginal)}
    ref, mag = oracle.measure(route, family, params, (p.r, p.n, p.m, p.k), float(alpha))
    if route == "cpi.bounds":
        return new[0] == ref, 0.0, f"ref {ref}: new {new[0]}, old {old[0]}"
    (old_value, old_bound), (new_value, new_bound) = old, new
    new_miss, old_miss = abs(new_value - ref), abs(old_value - ref)
    allowance = new_bound + 8.0 * EPS * mag
    outside = not new_miss <= allowance
    farther = new_miss > old_miss and not new_bound > old_bound
    share = new_miss / allowance if allowance > 0.0 else math.inf
    return not (outside or farther), share, (
        f"ref {ref!r}: |new - ref| {new_miss:.3g} against {allowance:.3g} ({share:.2f} of it), "
        f"|old - ref| {old_miss:.3g}"
        + (" OUTSIDE ITS BOUND" if outside else "") + (" MOVED FARTHER" if farther else "")
    )


def _row_value(row: dict) -> tuple:
    if row["measure"] == "bounds":
        return row["value"], 0.0
    return float(row["value"]), float(row["abs_error_estimate"])


def _audit_entry(key, old, new, oracle) -> tuple[bool, float, list[str]]:
    """(accepted, largest share of an allowance used, report lines) of a moved entry."""
    if isinstance(old, str):  # a library repr
        name, *config = key.split("|")
        if _numbers(old) == _numbers(new):
            return True, 0.0, ["repr-only"]
        if name not in REFERENCE_ROUTES:
            return False, 0.0, ["REJECTED: no reference for this entry"]
        ok, share, line = _audit_value(oracle, REFERENCE_ROUTES[name], *config, _numbers(old), _numbers(new))
        return ok, share, [line]
    argv = key.split()
    old_lines, new_lines = old["stdout"].splitlines(), new["stdout"].splitlines()
    if (argv[0] != "measure" or old["exit"] != new["exit"] or not same_text(old["stderr"], new["stderr"])
            or len(old_lines) != len(new_lines) or not old_lines or old_lines[0] != new_lines[0]):
        return False, 0.0, ["REJECTED: no reference for a changed exit code, stderr, layout or command"]
    spec, gos, alpha = (argv[argv.index(flag) + 1] for flag in ("--marginal", "--gos", "--alpha"))
    header = next(csv.reader(old_lines[:1]))
    accepted, worst, lines = True, 0.0, []
    for old_line, new_line in zip(old_lines[1:], new_lines[1:]):
        if same_text(old_line, new_line):
            continue
        o, n = (dict(zip(header, next(csv.reader([line])))) for line in (old_line, new_line))
        if o["measure"] != n["measure"]:
            return False, 0.0, ["REJECTED: the measure rows changed order"]
        ok, share, line = _audit_value(oracle, REFERENCE_ROUTES[o["measure"]], spec, gos, alpha,
                                       _row_value(o), _row_value(n))
        accepted, worst = accepted and ok, max(worst, share)
        lines.append(f"{o['measure']} ({o['method']} -> {n['method']}): {line}")
    return accepted, worst, lines


def audit(golden: dict, grid: dict, oracle) -> tuple[list[str], list[str], list[str]]:
    """(moved keys, rejected keys, report) of a regenerated grid.

    An entry has moved when it fails ``same_record``.  A library repr whose
    numbers are all unchanged is repr-only and accepted.  Every other moved
    value is checked by ``_audit_value``: the measure rows of a ``measure``
    run, and the quadrature and quantile-form library routes.  An entry with
    no reference (another command, a changed exit code or stderr, an exact
    moment formula) is rejected, and so is a change of the case list.
    """
    if sorted(golden) != sorted(grid):
        added, gone = sorted(grid.keys() - golden.keys()), sorted(golden.keys() - grid.keys())
        return [], added + gone, [f"REJECTED: the case list changed: added {added}, removed {gone}"]
    moved = [key for key in golden if not same_record(golden[key], grid[key])]
    rejected, report, repr_only, worst = [], [], 0, 0.0
    for key in moved:
        ok, share, lines = _audit_entry(key, golden[key], grid[key], oracle)
        repr_only += lines == ["repr-only"]
        worst = max(worst, share)
        if not ok:
            rejected.append(key)
        report += [key] + [f"  {line}" for line in lines]
    report.append(f"{len(moved)} of {len(golden)} entries moved: {repr_only} repr-only, "
                  f"{len(rejected)} rejected; the largest share of an allowance used is {worst:.2f}")
    return moved, rejected, report


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


def test_audit_accepts_a_repr_only_change():
    golden = json.loads(GOLDEN.read_text())
    key = next(k for k in golden if k.startswith("cpi_gos.quadrature|") and "np.float64" not in golden[k])
    wrapped = re.sub(r"abs_error_estimate=([^)]+)\)", r"abs_error_estimate=np.float64(\1))", golden[key])
    moved, rejected, report = audit(golden, {**golden, key: wrapped}, oracle=None)
    assert (moved, rejected) == ([key], [])
    assert report[:2] == [key, "  repr-only"]


def test_audit_rejects_every_entry_a_shifted_functional_moves(monkeypatch):
    # phi_f enters the inaccuracy decomposition as 2 alpha C* phi_f, so only
    # tilted Exponential values move; at r=2,n=4,m=-0.5,k=1.5, alpha 0.5 the
    # move is about 7e-13, inside the comparator's 1e-12
    pytest.importorskip("mpmath")
    phi_f = Exponential.phi_f
    monkeypatch.setattr(Exponential, "phi_f", lambda self: phi_f(self) + 1e-11)
    golden, grid = json.loads(GOLDEN.read_text()), compute_grid()
    failing = [key for key in golden if not same_record(golden[key], grid[key])]
    moved, rejected, report = audit(golden, grid, load_oracle())
    assert failing and moved == rejected == failing
    assert all("exponential" in key and not key.endswith("--alpha 0") for key in moved)
    assert "measure --marginal exponential:theta=1 --gos r=2,n=4,m=-0.5,k=1.5 --alpha 0.5" not in moved
    assert report[-1].startswith(f"{len(moved)} of {len(golden)} entries moved: 0 repr-only, {len(moved)} rejected")


if __name__ == "__main__":
    if sys.argv[1:] not in (["--audit"], ["--write"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --audit | --write")
    golden = json.loads(GOLDEN.read_text())
    grid = compute_grid()
    moved, rejected, report = audit(golden, grid, load_oracle())
    print("\n".join(report))
    if rejected:
        sys.exit(1)
    if sys.argv[1] == "--write":
        golden.update((key, grid[key]) for key in moved)
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
