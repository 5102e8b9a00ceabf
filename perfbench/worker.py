"""Workload process: the only process that imports the library under test.

``run.py`` starts it once per sample.  It generates its ops from the seed
(``workloads.py``), imports ``concomitant_measures`` from the checkout's
``src/``, runs the warm-up ops, then runs rounds of ops in a closed loop and
writes each round's op latencies and outputs to ``--out``; on stdout it prints
one JSON document with the clock reading at its first timed op and its peak
RSS.  It checks nothing against references; ``run.py`` does that with its
own oracle.

The machine's speed is sampled before every round by ``reference_loop``;
``run.py`` states op latencies in units of its mean time.

Modes:
  setup   set up, read the clock at the first timed op, exit
  timed   set up, run whole rounds until ``--seconds`` have passed
  plain   set up, run the fixed traced-run op list without tracing
  traced  the same op list with every layer wrapped by ``tracer.Tracer``
In both of the last two, quad_sweep's op list ends with one more round, the
defect probe (``workloads.DEFECT_PROBE``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def monotonic() -> float:
    """Clock shared with the parent process (CLOCK_MONOTONIC is system-wide)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Executor:
    """Turns a generated op into public-API calls; returns a string output."""

    def __init__(self, workload: str):
        import concomitant_measures as cm

        self.cm = cm
        self.run = {
            "quad_sweep": self._quad,
            "cli_sweep": self._cli,
            "mc_simulate": self._mc,
        }[workload]
        self.families = cm.marginals.MARGINAL_FAMILIES

    def _gos(self, gos):
        r, n, m, k = gos
        return self.cm.GosParams(r=r, n=n, m=m, k=k)

    def _quad(self, op) -> str:
        cm = self.cm
        try:
            marginal = self.families[op["family"]](**op["params"])
            route = op["route"]
            if route.startswith("marginals."):
                if route == "marginals.cumulative_entropy":
                    value, err = marginal.cumulative_entropy(), marginal.ce_error_estimate()
                else:
                    value, err = marginal.cumulative_entropy_max2(), marginal.ce2_error_estimate()
                return f"{float(value)!r} {float(err)!r} ce"
            model = cm.FgmModel(marginal_x=marginal, marginal_y=marginal, alpha=op["alpha"])
            p = self._gos(op["gos"])
            if route == "inaccuracy.quadrature":
                res = cm.inaccuracy_gos(model, p, method="quadrature")
            elif route == "inaccuracy.quantile_form":
                res = cm.quantile_form_inaccuracy(model, p)
            elif route == "inaccuracy.reversed":
                res = cm.reversed_inaccuracy(model, p)
            elif route == "cpi.quadrature":
                res = cm.cpi_gos(model, p, method="quadrature")
            elif route == "cpi.reversed":
                res = cm.reversed_cpi(model, p)
            else:
                raise ValueError(f"unknown route {route!r}")
            return f"{float(res.value)!r} {float(res.abs_error_estimate)!r} {res.method}"
        except Exception as exc:  # counted as a raised op by run.py
            return f"raised {type(exc).__name__}: {exc}"

    def _cli(self, op) -> str:
        from concomitant_measures import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op["argv"])
        except BaseException as exc:  # argparse exits through SystemExit
            return json.dumps(["raised", f"{type(exc).__name__}: {exc}", out.getvalue()])
        return json.dumps([code, err.getvalue(), out.getvalue()])

    def _mc(self, op) -> str:
        cm = self.cm
        try:
            marginal = self.families[op["family"]](**op["params"])
            report = cm.mc_validate(
                marginal, self._gos(op["gos"]), op["alpha"], op["n"], op["replicates"],
                cm.RngStream(op["stream_seed"], op["stream_id"]),
            )
        except Exception as exc:
            return json.dumps(["raised", f"{type(exc).__name__}: {exc}"])
        return json.dumps(dataclasses.asdict(report))


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work, small numpy calls and
    one sort; run between rounds to sample how fast the machine is."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 15)
    z = np.linspace(1.0, 0.0, 2000) ** 3
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.log1p(x * (i % 7 + 1))))
        acc += sum(j * j for j in range(40))
    acc += float(np.sort(z)[7])
    return time.perf_counter() - t0


def run_ops(execute, ops, tracer=None, first_index=0):
    latencies, outputs = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_index + i
        t0 = time.perf_counter()
        out = execute(op)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return latencies, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "plain", "traced"))
    ap.add_argument("--out", default=None, help="file for per-round latencies and outputs")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)

    # --- set-up: imports, input generation, warm-up ------------------------------
    import tracer as tracing

    rounds = (workloads.TRACE_ROUNDS[args.workload] if args.mode in ("plain", "traced") else 1)
    pending = [workloads.make_round(args.workload, args.seed, k) for k in range(rounds)]
    if args.mode in ("plain", "traced") and args.workload == "quad_sweep":
        pending.append(list(workloads.DEFECT_PROBE))
    warmup = workloads.warmup_ops(args.workload, args.seed)
    executor = Executor(args.workload)
    for op in warmup:
        executor.run(op)
    pristine = tracing.snapshot()
    first_op_clock = monotonic()
    result = {"first_op_clock": first_op_clock}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # --- measured ops ---------------------------------------------------------------
    # Each round's latencies and outputs go to --out as one JSON line, outside
    # the timed region, so the process's memory does not grow with the run.
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    rounds = done = 0
    try:
        with open(out_path, "w", encoding="utf-8") as sink:
            while True:
                ops = pending[rounds] if rounds < len(pending) else workloads.make_round(
                    args.workload, args.seed, rounds)
                reference = reference_loop()
                t0 = time.perf_counter()
                lat, out = run_ops(executor.run, ops, tracer, first_index=done)
                wall = time.perf_counter() - t0
                sink.write(json.dumps({"wall_s": wall, "reference_s": reference,
                                       "latencies_s": lat, "outputs": out}) + "\n")
                rounds += 1
                done += len(ops)
                if args.mode == "timed":
                    if monotonic() - first_op_clock >= args.seconds:
                        break
                elif rounds == len(pending):
                    break
    finally:
        if tracer is not None:
            tracer.restore()

    result.update({
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "left_patched": tracing.patched_attributes(pristine),
    })
    if args.workload == "mc_simulate" and args.mode == "timed":
        # same seed, same op, same report: re-run round 0 (every cell once)
        result["rerun_outputs"] = [executor.run(op) for op in pending[0]]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.flush(Path(args.spans))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
