"""Command-line front end: compute measures, reproduce reference tables, simulate.

Three subcommands, all emitting flat records as CSV (default) or JSON on
stdout, diagnostics on stderr only:

    measure   -- inaccuracy / reversed inaccuracy / CPI / reversed CPI /
                 bounds classification for one model configuration
    table     -- the record-case estimator moment tables (1: exponential
                 model over n x theta2 x alpha; 2: standard-uniform model
                 over n x alpha), computed sums next to the published
                 3-decimal reference values
    simulate  -- Monte Carlo validation of the spacings estimator

Floats are printed with 15 significant digits; table --paper-precision rounds
to 3 decimals for diffing against the reference tables; the seed defaults to 0.

Exit codes: 0 success, 1 domain error, out-of-range result or unallocatable
size, 2 spec-string parse error, 3 numerical failure (the quadrature could not
certify its tolerance; the message carries the best estimate).

The argument parsers are built once per process, at the first call of main,
and reused by every later call.  Each call is parsed once, by its command's
own parser; the top-level parser serves only help and errors: no command, an
unknown command, or words the command does not take.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .cpi import ROUTES
from .empirical import _exponential_moments, _uniform_moments, mc_validate
from .fgm import FgmModel, c_star, format_gos, parse_gos, record_value
from .marginals import SpecFormatError, format_marginal, parse_marginal
from .numerics import QuadratureError, RngStream

__all__ = ["main", "MEASURES", "TABLE1_REFERENCE", "TABLE2_REFERENCE"]

# each measure, in the default order, and its route in cpi.ROUTES
MEASURES = {
    "inaccuracy": "inaccuracy.closed_form",
    "reversed_inaccuracy": "inaccuracy.reversed",
    "cpi": "cpi.closed_form",
    "reversed_cpi": "cpi.reversed",
    "bounds": "cpi.bounds",
}

# Published 3-decimal reference values for the record-case (r=2) estimator
# moments.  Keys: (n, theta2, alpha) -> (mean, variance) for table 1;
# (n, alpha) -> (mean, variance) for table 2.  The last printed digit of a
# handful of cells is truncated rather than rounded in the source tables, so
# faithful comparisons should allow one unit in the third decimal.
TABLE1_REFERENCE = {
    (10, 0.5, -1.0): (1.429, 0.241), (10, 1.0, -1.0): (0.714, 0.060), (10, 2.0, -1.0): (0.357, 0.015),
    (10, 0.5, -0.5): (1.306, 0.205), (10, 1.0, -0.5): (0.653, 0.051), (10, 2.0, -0.5): (0.326, 0.013),
    (10, 0.5, 0.5): (1.061, 0.144), (10, 1.0, 0.5): (0.530, 0.036), (10, 2.0, 0.5): (0.265, 0.009),
    (10, 0.5, 1.0): (0.938, 0.119), (10, 1.0, 1.0): (0.469, 0.030), (10, 2.0, 1.0): (0.234, 0.007),
    (15, 0.5, -1.0): (1.468, 0.165), (15, 1.0, -1.0): (0.734, 0.041), (15, 2.0, -1.0): (0.367, 0.010),
    (15, 0.5, -0.5): (1.344, 0.141), (15, 1.0, -0.5): (0.672, 0.035), (15, 2.0, -0.5): (0.336, 0.009),
    (15, 0.5, 0.5): (1.096, 0.100), (15, 1.0, 0.5): (0.548, 0.025), (15, 2.0, 0.5): (0.274, 0.006),
    (15, 0.5, 1.0): (0.972, 0.083), (15, 1.0, 1.0): (0.486, 0.021), (15, 2.0, 1.0): (0.243, 0.005),
    (20, 0.5, -1.0): (1.487, 0.126), (20, 1.0, -1.0): (0.743, 0.031), (20, 2.0, -1.0): (0.372, 0.008),
    (20, 0.5, -0.5): (1.362, 0.108), (20, 1.0, -0.5): (0.681, 0.027), (20, 2.0, -0.5): (0.340, 0.007),
    (20, 0.5, 0.5): (1.114, 0.077), (20, 1.0, 0.5): (0.557, 0.019), (20, 2.0, 0.5): (0.278, 0.005),
    (20, 0.5, 1.0): (0.989, 0.064), (20, 1.0, 1.0): (0.494, 0.016), (20, 2.0, 1.0): (0.247, 0.004),
}
TABLE2_REFERENCE = {
    (10, -1.0): (0.285, 0.008), (10, -0.5): (0.254, 0.007), (10, 0.5): (0.192, 0.004), (10, 1.0): (0.162, 0.003),
    (15, -1.0): (0.297, 0.006), (15, -0.5): (0.264, 0.005), (15, 0.5): (0.200, 0.003), (15, 1.0): (0.168, 0.002),
    (20, -1.0): (0.302, 0.005), (20, -0.5): (0.270, 0.004), (20, 0.5): (0.204, 0.002), (20, 1.0): (0.171, 0.001),
}
_TABLE_R = 2


# the top-level parser and each command's own, by name: main parses a call
# once, by its command's parser, and leaves the top-level one to help and
# errors.  Every parse fills a fresh namespace, so reuse is safe while the
# parsers hold no route function and no per-call state
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="cmeasure", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    m = sub.add_parser("measure", help="compute measures for one configuration")
    m.add_argument("--marginal", required=True, help="e.g. exponential:theta=1")
    m.add_argument("--gos", required=True, help="e.g. os:r=1,n=3 or record:r=2 or r=2,n=5,m=1,k=2")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--measure", action="append", choices=MEASURES,
                   help="repeatable; default every measure")
    add_common(m)

    t = sub.add_parser("table", help="reproduce a reference moment table")
    t.add_argument("--table", type=int, required=True, help="1 or 2")
    t.add_argument("--paper-precision", action="store_true", help="round printed values to 3 decimals")
    add_common(t)

    s = sub.add_parser("simulate", help="Monte Carlo validation of the spacings estimator")
    s.add_argument("--marginal", required=True)
    s.add_argument("--gos", required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--n", type=int, required=True, help="sample size per replicate")
    s.add_argument("--replicates", type=int, required=True, help="at least 100")
    s.add_argument("--seed", type=int, default=0, help="a non-negative integer; default 0")
    add_common(s)
    return parser, sub.choices


def _render(records: list[dict], fmt: str, paper_precision: bool) -> str:
    """The records as CSV or JSON text, each float formatted once to 15
    significant digits (after --paper-precision's rounding): CSV prints the
    text, JSON the float it reads back as."""
    for rec in records:
        for key, value in rec.items():
            if isinstance(value, float):
                text = f"{round(value, 3) if paper_precision else value:.15g}"
                if not math.isfinite(number := float(text)):
                    raise ArithmeticError(f"{key} is out of floating-point range")
                rec[key] = number if fmt == "json" else text
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    # every command's rows share one layout: its first row's keys
    writer = csv.writer(out := io.StringIO(), lineterminator="\n")
    writer.writerow(records[0])
    writer.writerows(rec.values() for rec in records)  # None prints as ""
    return out.getvalue()


def _cmd_measure(args) -> list[dict]:
    marginal = parse_marginal(args.marginal)
    gos = parse_gos(args.gos)
    model = FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=args.alpha)
    head = {"command": "measure", "marginal": format_marginal(marginal), "gos": format_gos(gos), "alpha": args.alpha}
    records = []
    for name in args.measure or MEASURES:
        result = ROUTES[MEASURES[name]](model, gos)
        records.append({**head, "measure": name, "value": result.value, "method": result.method,
                        "abs_error_estimate": result.abs_error_estimate})
    return records


def _cmd_table(args) -> list[dict]:
    if args.table == 1:
        cells = TABLE1_REFERENCE
        kernel = _exponential_moments
    elif args.table == 2:
        cells = {(n, 1.0, alpha): ref for (n, alpha), ref in TABLE2_REFERENCE.items()}
        kernel = lambda n, theta2, coeff: _uniform_moments(n, coeff, 1.0)  # noqa: E731
    else:
        raise ValueError(f"unknown table id {args.table}; expected 1 or 2")
    # one kernel call per n, on columns of theta2 and alpha C*: each row holds
    # the bits of moments_mtbged / moments_mtbud at its cell
    moments = {}
    for n in dict.fromkeys(n for n, _, _ in cells):
        keys = [key for key in cells if key[0] == n]
        theta2, alpha = np.array([key[1:] for key in keys]).T[..., None]
        coeff = alpha * c_star(record_value(_TABLE_R))
        moments.update(zip(keys, zip(*(m.tolist() for m in kernel(n, theta2, coeff)))))
    return [
        {
            "command": "table", "table": args.table, "n": n, "theta2": theta2, "alpha": alpha,
            "r": _TABLE_R, "statistic": stat, "computed": computed, "reference": reference,
        }
        for (n, theta2, alpha), refs in cells.items()
        for stat, computed, reference in zip(("mean", "variance"), moments[n, theta2, alpha], refs)
    ]


def _cmd_simulate(args) -> list[dict]:
    report = mc_validate(parse_marginal(args.marginal), parse_gos(args.gos), args.alpha, args.n,
                         args.replicates, RngStream(args.seed))
    return [{"command": "simulate", **vars(report)}]


_COMMANDS = {"measure": _cmd_measure, "table": _cmd_table, "simulate": _cmd_simulate}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            # as the top-level parse_args reports them: under its usage line
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)  # help, no command or an unknown one: it exits
    try:
        # overflow shows as an error or a non-finite result, not as warnings
        with np.errstate(all="ignore"):
            records = _COMMANDS[args.command](args)
        text = _render(records, args.format, getattr(args, "paper_precision", False))
    except SpecFormatError as exc:
        print(f"cmeasure: spec error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cmeasure: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"cmeasure: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"cmeasure: arithmetic error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"cmeasure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
