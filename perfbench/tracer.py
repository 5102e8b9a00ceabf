"""Span tracing of the library's layers, installed from outside the package.

:class:`Tracer` wraps the public functions of each module at every import
site (``integrate`` is bound by name in ``marginals``, ``inaccuracy``, ``cpi``
and the package root; ``c_star`` in ``inaccuracy``, ``cpi`` and
``empirical``) and the kernel / functional methods on the marginal classes.
Each wrapped call records a span (name, start, end, parent span, op id) in
memory; :meth:`Tracer.flush` writes them out when the run ends.
:meth:`Tracer.restore` puts back every original object, and
:func:`patched_attributes` proves that nothing is left behind.

Span names are the layer names the benchmark reports:

- ``numerics.integrate``; ``numerics.rng.substream`` / ``numerics.rng.uniforms``
- ``marginals.kernel`` (pdf, cdf, log_cdf, quantile of every family) and
  ``marginals.functional`` (shannon_entropy, phi_f, cumulative_entropy*,
  ce*_error_estimate)
- ``fgm.gos_params`` (``GosParams`` validation) and ``fgm.c_star``
- ``inaccuracy.{closed_form,quadrature,quantile_form,reversed}`` and
  ``cpi.{closed_form,quadrature,reversed,bounds}``
- ``empirical.{empirical_cpi,mc_validate,theoretical_moments,ks_statistic}``
- ``cli.main`` and ``cli.spec_parse``

A span's self time is its duration minus the durations of the wrapped spans
directly below it.  Closures built inside a wrapped function (the route
integrands) cannot be wrapped from outside, so their arithmetic counts as
self time of the span that calls them (``numerics.integrate``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "concomitant_measures"

KERNELS = ("pdf", "cdf", "log_cdf", "quantile")
FUNCTIONALS = (
    "shannon_entropy",
    "phi_f",
    "cumulative_entropy",
    "cumulative_entropy_max2",
    "ce_error_estimate",
    "ce2_error_estimate",
)
ROUTES = (
    "inaccuracy.closed_form", "inaccuracy.quadrature", "inaccuracy.quantile_form", "inaccuracy.reversed",
    "cpi.closed_form", "cpi.quadrature", "cpi.reversed", "cpi.bounds",
)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def snapshot() -> dict:
    """Identity of every attribute of every package module and class."""
    snap = {}
    for mod in _modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod.__name__, f"{name}.{attr}")] = id(member)
    return snap


def patched_attributes(before: dict) -> list[str]:
    """Attributes whose object differs from the snapshot ``before``."""
    after = snapshot()
    return sorted(f"{mod}:{name}" for key, ident in before.items()
                  for mod, name in [key] if after.get(key) != ident)


class _Frame:
    __slots__ = ("index", "start", "child", "evals", "integrate_raised")

    def __init__(self, index, start):
        self.index = index
        self.start = start
        self.child = 0.0
        self.evals = 0
        self.integrate_raised = False


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._count = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._saved: list[tuple] = []

    # --- span recording ------------------------------------------------------

    def _enter(self):
        frame = _Frame(self._count, time.perf_counter())
        self._count += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, evals=0, raised=False):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        self.calls[name] += 1
        self.self_s[name] += duration - frame.child
        frame.evals += evals
        if stack:
            parent = stack[-1]
            parent.child += duration
            parent.evals += frame.evals
            parent_index = parent.index
            if name == "numerics.integrate" and raised:
                for f in stack:
                    f.integrate_raised = True
        else:
            parent_index = -1
        if name in _ROUTE_SET:
            self.counters[name + ".evaluations"] += frame.evals
            if raised:
                self.counters[name + ".raised"] += 1
            elif frame.integrate_raised:
                self.counters[name + ".fallbacks"] += 1
        self.spans.append((frame.index, name, frame.start, end, parent_index, self.op_id))

    def _wrap(self, name, fn, name_of=None, on_exit=None):
        """Wraps ``fn`` in a span named ``name``, or ``name_of(args, kwargs)``
        per call.  ``on_exit(args, result, exc)`` updates counters and returns
        the integrand evaluations the call made."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                evals = 0 if on_exit is None else on_exit(args, None, exc)
                tracer._exit(span, frame, evals, raised=True)
                raise
            evals = 0 if on_exit is None else on_exit(args, result, None)
            tracer._exit(span, frame, evals)
            return result

        return wrapper

    @staticmethod
    def _routed(layer):
        """inaccuracy_gos / cpi_gos: the span name follows the method argument."""
        return lambda args, kwargs: f"{layer}.{args[2] if len(args) > 2 else kwargs.get('method', 'closed_form')}"

    def _integrate_exit(self, args, result, exc):
        if exc is not None:
            self.counters["numerics.integrate.raised"] += 1
            best = getattr(exc, "best", None)
            evals = best.evaluations if best is not None else 0
        else:
            evals = result.evaluations
        self.counters["numerics.integrate.evaluations"] += evals
        return evals

    def _counting(self, counter, size):
        """Adds ``size(args)`` to ``counter`` per call (the library passes
        sizes and abscissae positionally)."""
        def on_exit(args, result, exc):
            self.counters[counter] += size(args)
            return 0

        return on_exit

    # --- installation -------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every package module that
        holds it by name."""
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, replacement)

    def _patch_member(self, cls, name, replacement):
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self):
        import numpy as np

        from concomitant_measures import cli, cpi, empirical, fgm, inaccuracy, marginals, numerics

        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch_everywhere(numerics.integrate, self._wrap(
            "numerics.integrate", numerics.integrate, on_exit=self._integrate_exit))

        rng_cls = numerics.RngStream
        self._patch_member(rng_cls, "substream", self._wrap("numerics.rng.substream", rng_cls.substream))
        self._patch_member(rng_cls, "uniforms", self._wrap(
            "numerics.rng.uniforms", rng_cls.uniforms,
            on_exit=self._counting("numerics.rng.uniform_draws", lambda args: int(args[1]))))

        count_points = self._counting("marginals.kernel.points", lambda args: int(np.size(args[1])))
        families = [cls for cls in vars(marginals).values()
                    if isinstance(cls, type) and issubclass(cls, marginals.MarginalFamily)]
        for cls in families:
            for name in KERNELS:
                if name in cls.__dict__:
                    self._patch_member(cls, name, self._wrap(
                        "marginals.kernel", cls.__dict__[name], on_exit=count_points))
            for name in FUNCTIONALS:
                if name in cls.__dict__:
                    self._patch_member(cls, name, self._wrap("marginals.functional", cls.__dict__[name]))

        self._patch_member(fgm.GosParams, "__post_init__",
                           self._wrap("fgm.gos_params", fgm.GosParams.__post_init__))
        self._patch_everywhere(fgm.c_star, self._wrap("fgm.c_star", fgm.c_star))

        self._patch_everywhere(inaccuracy.inaccuracy_gos, self._wrap(
            None, inaccuracy.inaccuracy_gos, name_of=self._routed("inaccuracy")))
        self._patch_everywhere(inaccuracy.quantile_form_inaccuracy,
                               self._wrap("inaccuracy.quantile_form", inaccuracy.quantile_form_inaccuracy))
        self._patch_everywhere(inaccuracy.reversed_inaccuracy,
                               self._wrap("inaccuracy.reversed", inaccuracy.reversed_inaccuracy))
        self._patch_everywhere(cpi.cpi_gos, self._wrap(None, cpi.cpi_gos, name_of=self._routed("cpi")))
        self._patch_everywhere(cpi.reversed_cpi, self._wrap("cpi.reversed", cpi.reversed_cpi))
        self._patch_everywhere(cpi.check_cpi_bounds, self._wrap("cpi.bounds", cpi.check_cpi_bounds))

        for name in ("empirical_cpi", "mc_validate", "theoretical_moments", "ks_statistic"):
            fn = getattr(empirical, name)
            self._patch_everywhere(fn, self._wrap(f"empirical.{name}", fn))

        self._patch_everywhere(cli.main, self._wrap("cli.main", cli.main))
        for fn in (marginals.parse_marginal, fgm.parse_gos):
            self._patch_everywhere(fn, self._wrap("cli.spec_parse", fn))

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # --- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals under the names the benchmark reports."""
        calls, self_s, counters = self.calls, self.self_s, self.counters
        out = {
            "numerics.integrate.calls": calls["numerics.integrate"],
            "numerics.integrate.evaluations": counters["numerics.integrate.evaluations"],
            # G7/K15: every panel evaluates the integrand at 15 nodes
            "numerics.integrate.panels": counters["numerics.integrate.evaluations"] / 15,
            "numerics.integrate.raised": counters["numerics.integrate.raised"],
            "numerics.integrate.self_s": self_s["numerics.integrate"],
            "numerics.rng.substream_calls": calls["numerics.rng.substream"],
            "numerics.rng.substream_self_s": self_s["numerics.rng.substream"],
            "numerics.rng.uniform_draws": counters["numerics.rng.uniform_draws"],
            "numerics.rng.uniforms_self_s": self_s["numerics.rng.uniforms"],
            "marginals.kernel.calls": calls["marginals.kernel"],
            "marginals.kernel.points": counters["marginals.kernel.points"],
            "marginals.kernel.points_per_call":
                counters["marginals.kernel.points"] / max(calls["marginals.kernel"], 1),
            "marginals.kernel.self_s": self_s["marginals.kernel"],
            "marginals.functional.calls": calls["marginals.functional"],
            "marginals.functional.self_s": self_s["marginals.functional"],
            "fgm.gos_params.calls": calls["fgm.gos_params"],
            "fgm.gos_params.self_s": self_s["fgm.gos_params"],
            "fgm.c_star.calls": calls["fgm.c_star"],
            "fgm.c_star.self_s": self_s["fgm.c_star"],
        }
        for route in ROUTES:
            out[f"{route}.calls"] = calls[route]
            out[f"{route}.self_s"] = self_s[route]
            for counter in ("evaluations", "raised", "fallbacks"):
                out[f"{route}.{counter}"] = counters[f"{route}.{counter}"]
        out.update({
            "empirical.empirical_cpi.calls": calls["empirical.empirical_cpi"],
            "empirical.empirical_cpi.self_s": self_s["empirical.empirical_cpi"],
            "empirical.mc_validate.self_s": self_s["empirical.mc_validate"],
            "empirical.theoretical_moments.self_s": self_s["empirical.theoretical_moments"],
            "empirical.ks_statistic.self_s": self_s["empirical.ks_statistic"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.spec_parse.self_s": self_s["cli.spec_parse"],
        })
        return out

    def flush(self, path) -> None:
        """Write the spans as JSON lines: one header, one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "spans": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


_ROUTE_SET = frozenset(ROUTES)
