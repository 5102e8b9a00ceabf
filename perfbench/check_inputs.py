#!/usr/bin/env python3
"""Checks every input a timed quad_sweep op can have against the oracle.

    python3 perfbench/check_inputs.py [--part I/N]

The quad_sweep inputs are a finite set (``workloads.quad_inputs``: about
53,000 ops, some ten minutes on one core).  The workload is only sound if
the library passes the correctness rule on all of them, so that no timed op
fails; run this after changing the set or the library.  It prints each
failure, the tightest pass (|value - ref| as a share of what the rule
allows) and a summary, and exits 1 if any input fails.  ``--part I/N``
checks every N-th input starting at the I-th, to split the work.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", default="0/1", help="I/N: check inputs I, I+N, I+2N, ...")
    args = ap.parse_args(argv)
    first, step = map(int, args.part.split("/"))

    execute = worker.Executor("quad_sweep").run
    checker = run.Checker("quad_sweep")
    checked = failed = 0
    tightest = (0.0, None)
    for i, op in itertools.islice(enumerate(workloads.quad_inputs()), first, None, step):
        out = execute(op)
        checked += 1
        if checker.check([op], [out], first=i):
            failed += 1
            print(checker.failures[-1], flush=True)
            continue
        value, err, _ = out.split(" ")
        ref, _ = checker.oracle.measure(op["route"], op["family"], op["params"], op.get("gos", [1, 1, 0.0, 1.0]),
                                        op.get("alpha", 0.0))
        share = abs(float(value) - ref) / (float(err) + 8 * oracle.EPS * abs(ref))
        if share > tightest[0]:
            tightest = (share, op)
    print(f"tightest pass: {tightest[0]:.3g} of the allowed error, {tightest[1]}")
    print(f"checked {checked} quad_sweep inputs, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
