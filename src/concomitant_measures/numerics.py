"""Shared numerical kernel: adaptive quadrature, psi functions, seedable RNG.

The quadrature is a globally adaptive bisection scheme built on the embedded
7-point Gauss / 15-point Kronrod pair.  Its nodes are interior in exact
arithmetic, so integrands with logarithmic (or mildly algebraic) endpoint
singularities can be handed over directly; a node the loop takes can round
onto an endpoint once an edge panel is about 100 ulps wide, one evaluated
ahead of need never does.  A semi-infinite upper limit is mapped to (0, 1) by
the substitution y = lo + t/(1-t).

Panels are refined one at a time in QUADPACK's order (largest error first).
The first bisection of a panel that is not evaluated yet evaluates, in a
single integrand call, its batch: its two halves and, where the panel
touches an end of the interval, that end's bisection chain ``_EDGE_DEPTH``
levels further (2 panels a level), the path along which an endpoint
singularity is refined.  The first call adds the whole interval, so even a
one-panel integral evaluates up to 67 panels.  A process keeps the panels
and nodes of the 64 batches used last (``_PLAN_CACHE``, under 1 MiB, no
integrand values).  Later bisections reuse the evaluated panels and finish only the
two halves they take, so values, error estimates, evaluation counts and
messages are those of one call per panel, bit for bit.  Midpoints and
half-widths are formed from halved bounds, 0.5 a + 0.5 b and 0.5 b - 0.5 a,
so a panel near the largest double does not overflow.  A non-finite value
at a node of a bisection the loop takes raises :class:`QuadratureError`
naming that node in y, the left half's nodes before the right half's; one at
a node evaluated ahead of need and never used raises nothing.

``integrate`` either meets its fixed tolerance, ``max(1e-12, 1e-10 *
|integral|)``, within 2000 panels or raises; an exhausted budget raises with
the best estimate attached.  The one caller that accepts such an estimate is
``cpi.reversed_cpi``, a stopgap for heavy InverseWeibull tails.

Integrands must be array-native: they take a 1-d numpy array of abscissae
and return an array of the same shape.  A node's value may not depend on
which other nodes share the call.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "MeasureResult",
    "QuadratureError",
    "integrate",
    "digamma",
    "trigamma",
    "RngStream",
]

# QUADPACK's qk15 half tables on [-1, 1], largest abscissa first: the 8
# non-negative Kronrod abscissae (odd-indexed ones, here and in the full
# table, are the 7-point Gauss nodes), their Kronrod weights and the 4 Gauss
# weights.  Each full table is its half mirrored about the centre, negated on
# the left for the abscissae; the centre is the half table's last entry, so
# the centre node stays +0.0.
_XGK, _WGK, _WG = (
    np.concatenate((sign * np.array(half[:-1]), half[::-1]))
    for sign, half in (
        (-1.0, (0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144838258730,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0)),
        (1.0, (0.022935322010529224963732008058970,
               0.063092092629978553290700663189204,
               0.104790010322250183839876322541518,
               0.140653259715525918745189590510238,
               0.169004726639267902826583426598550,
               0.190350578064785409913256402421014,
               0.204432940075298892414161999234649,
               0.209482141084727828012999174891714)),
        (1.0, (0.129484966168869693270611432679082,
               0.279705391489276667901467771423780,
               0.381830050505118944950369775488975,
               0.417959183673469387755102040816327)),
    )
)


@dataclass(frozen=True)
class MeasureResult:
    """A computed value, the route that produced it and its error bound.

    ``abs_error_estimate`` and ``evaluations`` (the integrand evaluations
    the value rests on, left out of the repr) are zero for closed forms.
    ``evaluations`` counts 15 nodes for the first panel and 30 per
    bisection used, not the nodes :func:`integrate` evaluated ahead of need
    and never used.
    """

    value: float
    method: str  # "closed_form" | "quadrature" | "quantile_form"
    abs_error_estimate: float = 0.0
    evaluations: int = field(default=0, repr=False)


class QuadratureError(RuntimeError):
    """Raised when the adaptive scheme cannot certify its tolerance.

    ``best`` carries the estimate accumulated before giving up, so callers can
    distinguish "slow" from "divergent" and still report a number if they
    choose to.
    """

    def __init__(self, message: str, best: MeasureResult | None = None):
        super().__init__(message)
        self.best = best


# QUADPACK's round-off floor on a panel's error.
_ROUNDOFF = 50.0 * float(np.finfo(float).eps)

# integrate's tolerance, max(_ABS_TOL, _REL_TOL * |integral|), and its panel budget
_REL_TOL, _ABS_TOL, _MAX_INTERVALS = 1e-10, 1e-12, 2000

# integrate's one integrand call: a popped panel's halves and, at an end of
# (lo, hi) it touches, that end's chain of edge-panel bisections _EDGE_DEPTH
# levels on; the most such batch plans (_batch_plan) a process keeps
_EDGE_DEPTH, _PLAN_CACHE = 16, 64


@functools.lru_cache(maxsize=_PLAN_CACHE, typed=True)
def _batch_plan(a, b, lo, hi, first: bool, edge_depth: int) -> tuple[tuple, np.ndarray]:
    """The panels of integrate's call on popping (a, b) of (lo, hi) and their
    read-only nodes, a row of 15 each: (a, b) if ``first``, its two halves,
    then each touched end's chain of edge-panel bisections ``edge_depth``
    levels on, past the rows needed now ((a, b) or its halves) only panels
    whose nodes lie inside (lo, hi)."""
    m = 0.5 * a + 0.5 * b
    bounds = [(a, b)] * first + [(a, m), (m, b)]
    for end, (p, q) in ((lo, (a, m)), (hi, (m, b))):
        for _ in range(edge_depth if end in (a, b) else 0):
            c = 0.5 * p + 0.5 * q
            bounds += [(p, c), (c, q)]
            p, q = (p, c) if end == lo else (c, q)
    mid, half = np.array([0.5 * p + 0.5 * q for p, q in bounds]), np.array([0.5 * q - 0.5 * p for p, q in bounds])
    x = mid[:, None] + half[:, None] * _XGK
    keep = (lo < x[:, 0]) & (x[:, -1] < hi)  # the row's outermost nodes inside (lo, hi)
    keep[: 2 - first] = True
    x = x[keep]
    x.flags.writeable = False
    return tuple(panel for panel, kept in zip(bounds, keep.tolist()) if kept), x


def _kronrod_rows(evaluate: Callable, x: np.ndarray) -> list:
    """G7/K15 sums on [-1, 1] (Kronrod, Gauss, Kronrod of |f| and of |f - mean|)
    of every panel from one ``evaluate`` call on its row of 15 nodes in ``x``.
    A panel with a non-finite value gets, in place of its sums, the
    :class:`QuadratureError` naming its first such node in y: the integrand's
    own value checked before its mapped (Jacobian-weighted) one."""
    with np.errstate(all="ignore"):  # non-finite output is caught explicitly below
        y, fy, fx = evaluate(x)
        # np.vecdot takes one BLAS ddot per row, the sum a 1-d `@` takes
        resk = np.vecdot(fx, _WGK)
        resg = np.vecdot(fx[:, 1::2], _WG)
        resabs = np.vecdot(np.abs(fx), _WGK)
        resasc = np.vecdot(np.abs(fx - 0.5 * resk[:, None]), _WGK)
    finite = np.isfinite(fy).all(axis=1)
    if fx is not fy:
        finite &= np.isfinite(fx).all(axis=1)
    rows: list = list(zip(resk.tolist(), resg.tolist(), resabs.tolist(), resasc.tolist()))
    for i in np.flatnonzero(~finite).tolist():
        values = fy[i] if not np.isfinite(fy[i]).all() else fx[i]
        rows[i] = QuadratureError(f"integrand returned a non-finite value at y={y[i][~np.isfinite(values)][0]!r}")
    return rows


def _finish_row(row, lo, hi) -> tuple[float, float]:
    """(integral, error estimate) of the panel (lo, hi) from its _kronrod_rows
    row (whose QuadratureError is raised), in Python floats typed by the bounds:
    np.power(x, 1.5) is not always x ** 1.5, and min/max keep their NaN rule."""
    if isinstance(row, QuadratureError):
        raise row
    k, g, a, s = row
    h = 0.5 * hi - 0.5 * lo
    err = abs(k - g) * h
    s *= h
    if s != 0.0 and err != 0.0:
        err = s * min(1.0, (200.0 * err / s) ** 1.5)
    return k * h, max(err, _ROUNDOFF * a * h)


def integrate(f: Callable, lo: float, hi: float) -> MeasureResult:
    """Adaptively integrate ``f`` over (lo, hi); ``hi`` may be ``math.inf``.

    Stops once the summed panel error drops below
    ``max(_ABS_TOL, _REL_TOL * |integral|)``.  Raises :class:`QuadratureError`
    when the panel budget is exhausted (a growing estimate is flagged as
    apparent divergence) or when the integrand produces NaN/inf at a node
    the result would rest on.  ``f`` takes a 1-d array of nodes; a node's
    value may not depend on which other nodes share the call.  A call
    evaluates a popped panel's halves and end chain (:func:`_batch_plan`),
    the first also (lo, hi); no chain panel has a node on an end.
    """
    if not math.isfinite(lo):
        raise ValueError("lower limit must be finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if math.isfinite(hi) and math.isinf(abs(float(lo)) + abs(float(hi))):  # hi - lo or hi + lo overflows
        raise ValueError(f"need a finite hi - lo and hi + lo, got ({lo}, {hi})")

    # evaluate(x) -> (y, f(y), integrand in x) on a 2-d array of nodes
    if math.isinf(hi):

        def evaluate(t, _lo=lo):  # y = lo + t/(1-t), dy = dt/(1-t)^2
            w = 1.0 - t
            # Nodes with 1 - t below the float spacing near 1 cannot address
            # the mapped tail; the mass there is treated as zero, which is
            # sound for integrands decaying faster than y^(-1) (anything
            # integrable loses at most ~eps^(q-1) for a y^(-q) tail).
            dead = w < 1e-16
            wsafe = np.where(dead, 1.0, w)
            y = _lo + t / wsafe
            fy = np.asarray(f(y.ravel()), dtype=float).reshape(t.shape)
            return y, fy, np.where(dead, 0.0, fy / (wsafe * wsafe))

        lo, hi = 0.0, 1.0
    else:

        def evaluate(x):
            x = x.copy()  # f may write into its argument; the plan's nodes are shared
            fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
            return x, fx, fx

    evals = 15
    bounds, x = _batch_plan(lo, hi, lo, hi, True, _EDGE_DEPTH)
    # (lo, hi) -> _kronrod_rows' row for every panel evaluated so far
    panels = dict(zip(bounds, _kronrod_rows(evaluate, x)))
    val, err = _finish_row(panels[lo, hi], lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total_val, total_err = val, err
    half_budget_val: float | None = None

    while total_err > max(_ABS_TOL, _REL_TOL * abs(total_val)):
        if len(heap) >= _MAX_INTERVALS:
            best = MeasureResult(total_val, "quadrature", total_err, evals)
            diverging = (
                half_budget_val is not None
                and abs(total_val) > 1.1 * max(abs(half_budget_val), _ABS_TOL)
            )
            reason = "integral appears divergent" if diverging else "tolerance not reached"
            raise QuadratureError(
                f"{reason} after {evals} evaluations "
                f"(best estimate {total_val!r} +/- {total_err:.3e})",
                best=best,
            )
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * a + 0.5 * b
        if (a, m) not in panels or (m, b) not in panels:
            bounds, x = _batch_plan(a, b, lo, hi, False, _EDGE_DEPTH)
            panels.update(zip(bounds, _kronrod_rows(evaluate, x)))
        (v1, e1), (v2, e2) = _finish_row(panels[a, m], a, m), _finish_row(panels[m, b], m, b)
        evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1))
        heapq.heappush(heap, (-e2, m, b, v2, e2))
        if half_budget_val is None and len(heap) >= _MAX_INTERVALS // 2:
            half_budget_val = total_val

    return MeasureResult(total_val, "quadrature", total_err, evals)


# --- psi (digamma / trigamma) ------------------------------------------------
#
# Recurrence shift to x >= 10, where the first omitted terms of the de Moivre
# series (Bernoulli-number coefficients) are below 1e-16: a few ulps.

# Bernoulli numbers B_0 .. B_14 (fgm._c_star_gamma_ratio reads B_0 .. B_9)
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0, -691 / 2730, 0.0, 7 / 6)
# B_2k / 2k and B_2k for k = 1 .. 7: the series of digamma and trigamma in 1/x^2
_DIGAMMA_SERIES = tuple(_BERNOULLI[2 * k] / (2 * k) for k in range(1, 8))
_TRIGAMMA_SERIES = _BERNOULLI[2::2]


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    """sum_k coeffs[k] t^k."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - inv2 * _horner(_DIGAMMA_SERIES, inv2)


def trigamma(x: float) -> float:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2 for x > 0."""
    if not x > 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    return acc + inv * (1.0 + inv * (0.5 + inv * _horner(_TRIGAMMA_SERIES, inv * inv)))


# --- seedable uniform streams -------------------------------------------------

# numpy's SeedSequence hash (O'Neill's randutils seed_seq_fe, with numpy's
# MULT_B) and PCG64's 128-bit LCG multiplier, for RngStream.block_uniforms
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# below this sample size block_uniforms computes a block's PCG64 outputs
# with array arithmetic, and from it on sets one bit generator per row
# (README, reproducibility notes)
_JUMP_MAX_N = 165


def _jump_table(steps: int) -> tuple[tuple[int, int], ...]:
    """(M^K, C_K) mod 2^128 for K = 1, 2, 4, ...: K steps of the PCG64 LCG
    take the state s to M^K s + C_K inc, with C_K = sum_{i<K} M^i
    (Brown 1994, Trans. Am. Nucl. Soc. 71:202)."""
    mult, inc, table = _PCG64_MULT, 1, []
    for _ in range(steps):
        table.append((mult, inc))
        mult, inc = mult * mult & _MASK128, inc * (mult + 1) & _MASK128
    return tuple(table)


_PCG64_JUMPS = _jump_table((_JUMP_MAX_N - 1).bit_length())
# pcg64_set_seed sets inc = 2 q + 1 and steps the state s + inc once; the
# first draw steps again, to M^2 s + (1 + M + M^2) inc
_PCG64_FIRST = (_PCG64_MULT**2 & _MASK128, (1 + _PCG64_MULT + _PCG64_MULT**2) & _MASK128)


def _affine128(mult: int, x, add, out=None, spare=None):
    """out = mult * x + add mod 2^128, each of x, add and out a (high, low)
    pair of uint64 arrays (add broadcast against x, out not overlapping x);
    ``spare`` is two arrays shaped like x.  Returns out.

    Array arithmetic wraps silently, unlike numpy's uint64 scalars, so the
    64 x 64 high product is formed from 32-bit limbs on arrays."""
    (h, l), (add_h, add_l) = x, add
    out_h, out_l = out if out is not None else (np.empty_like(l), np.empty_like(l))
    t1, t2 = spare if spare is not None else (np.empty_like(l), np.empty_like(l))
    m_h, m_l = np.uint64(mult >> 64 & _MASK64), np.uint64(mult & _MASK64)
    m1, m0 = np.uint64(mult >> 32 & _MASK32), np.uint64(mult & _MASK32)
    # high word of l m_l, with out_l as a third spare array
    np.bitwise_and(l, _MASK32, out=out_l)
    np.right_shift(l, 32, out=t1)
    np.multiply(out_l, m0, out=t2)
    t2 >>= 32
    np.multiply(t1, m0, out=out_h)
    out_h += t2  # l1 m0 + (l0 m0 >> 32) < 2^64
    out_l *= m1
    np.bitwise_and(out_h, _MASK32, out=t2)
    out_l += t2  # l0 m1 + the low half of the above < 2^64
    out_h >>= 32
    out_l >>= 32
    t1 *= m1
    out_h += t1
    out_h += out_l
    # the cross products, the low word, then the addend and its carry
    np.multiply(h, m_l, out=t1)
    out_h += t1
    np.multiply(l, m_h, out=t1)
    out_h += t1
    np.multiply(l, m_l, out=out_l)
    out_l += add_l
    out_h += add_h
    np.less(out_l, add_l, out=t1)
    out_h += t1
    return out_h, out_l


def _pcg64_block(words: np.ndarray, raw: np.ndarray) -> None:
    """Row j of the C-contiguous uint64 array ``raw`` = the outputs of PCG64
    (XSL-RR 128/64) seeded from column j of ``words``: the (4, rows) uint64
    words of ``RngStream._seeds``.

    Column k of the (n, rows) state halves is the state of draw k, filled
    by doubling: columns K..2K-1 are M^K times columns 0..K-1 plus C_K inc,
    one array pass per level.  The low halves live in ``raw``'s memory until
    the outputs are copied there; the two spare arrays span half the columns
    each, and together hold the output rotation's right shift."""
    rows, n = raw.shape
    lo, hi = raw.reshape(n, rows), np.empty((n, rows), dtype=np.uint64)
    spare = np.empty((2, (n + 1) // 2, rows), dtype=np.uint64)
    s_h, s_l, q_h, q_l = words
    inc = (q_h << 1 | q_l >> 63, q_l << 1 | 1)
    mult, steps = _PCG64_FIRST
    _affine128(mult, (s_h, s_l), _affine128(steps, inc, (0, 0)), (hi[:1], lo[:1]), spare[:, :1])
    k = 1
    for mult, steps in _PCG64_JUMPS[: (n - 1).bit_length()]:
        b = min(k, n - k)
        _affine128(mult, (hi[:b], lo[:b]), _affine128(steps, inc, (0, 0)), (hi[k : k + b], lo[k : k + b]), spare[:, :b])
        k *= 2
    # each output is hi ^ lo rotated right by the top 6 bits of the state
    right = spare.reshape(-1)[: n * rows].reshape(n, rows)
    lo ^= hi
    hi >>= 58
    np.right_shift(lo, hi, out=right)
    np.subtract(64, hi, out=hi)
    hi &= 63
    np.left_shift(lo, hi, out=hi)
    hi |= right
    np.copyto(raw, hi.T)


def _hash_constants(init: int, mult: int, first: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of ``steps`` hash steps from
    step ``first`` on, as uint32 columns: init * mult^k mod 2^32."""
    h = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + steps + 1)], dtype=np.uint32)
    return h[:-1, None], h[1:, None]


def _hash(v: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """One SeedSequence hash step per row of the uint32 array ``v``."""
    v = (v ^ before) * after
    return v ^ (v >> 16)


# generate_state(4, uint64) hashes the pool entries 0-3, then 0-3 again, into
# 8 uint32 words, here shaped (2, 4, 1)
_STATE_HASH = tuple(h.reshape(2, 4, 1) for h in _hash_constants(_INIT_B, _MULT_B, 0, 8))


def _entropy_words(x: int) -> int:
    """Number of uint32 words SeedSequence makes of the integer ``x``."""
    return max(1, -(-x.bit_length() // 32))


_ROW_GENERATORS = threading.local()


def _row_generator() -> np.random.Generator:
    """This thread's PCG64 generator for the per-row path of
    :meth:`RngStream.block_uniforms`, made at its first use: every row sets
    the whole state, so one generator per thread serves every call."""
    gen = getattr(_ROW_GENERATORS, "gen", None)
    if gen is None:
        gen = _ROW_GENERATORS.gen = np.random.Generator(np.random.PCG64(0))
    return gen


def _as_int(name: str, value) -> int:
    """``operator.index(value)``, bool rejected: the integer rule of seeds,
    stream ids and counts.  Callers check the range."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


class RngStream:
    """A deterministic uniform(0,1) stream identified by (seed, stream_id),
    two non-negative integers (``operator.index``, bool rejected).

    Streams with different ``stream_id`` under the same seed are statistically
    independent (PCG64 seeded through a spawn key).  :meth:`uniforms`
    advances the stream, so its draws belong to a single consumer; parallel
    work should partition by stream_id or use :meth:`substream`.
    :meth:`block_uniforms` draws substreams of indices below 2^32 at once
    into a C-contiguous float64 block, in one of two ways chosen by the row
    length alone: below ``_JUMP_MAX_N`` with array arithmetic on the PCG64
    states, from it on row by row.  It leaves the stream unchanged, and any
    number of threads may call it on one instance at once.

    Each value is (k + 1/2) 2^-53 rounded to float64, with k the top 53 bits
    of one 64-bit PCG64 output.  These k are the values
    ``Generator.integers(0, 2**53)`` would give: Lemire's bounded-integer
    method never rejects a draw for a range of exactly 2^53 and returns the
    top 53 bits (Lemire 2019, ACM TOMACS 29:3).  From k = 2^52 on, k + 1/2
    is a tie that rounds to even, so the values lie in [2^-54, 1], not
    strictly inside (0, 1): k = 2^53 - 1 gives exactly 1.0, once in 2^53
    draws.
    """

    def __init__(self, seed: int, stream_id: int = 0, _key: tuple[int, ...] | None = None):
        self.seed, self.stream_id = _as_int("seed", seed), _as_int("stream_id", stream_id)
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value}")
        self._key = _key if _key is not None else (self.stream_id,)
        self._bits = np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self._key))

    def uniforms(self, size: int) -> np.ndarray:
        """Next ``size`` values as an array, each in [2^-54, 1]."""
        return ((self._bits.random_raw(size) >> 11) + 0.5) * 2.0**-53

    def substream(self, index: int) -> "RngStream":
        """Child stream ``index``; the mapping (seed, stream_id, index) -> sequence
        is fixed, independent of draw order or worker layout."""
        index = _as_int("index", index)
        if index < 0:
            raise ValueError(f"index must be a non-negative integer, got {index}")
        return RngStream(self.seed, self.stream_id, _key=self._key + (index,))

    @functools.cached_property
    def _block_seeding(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        # MIX_MULT_L times this stream's SeedSequence pool, and the hash
        # constants of a child's index word (4 hash steps per entropy word
        # before it, the run entropy padded to 4 words).
        words = max(4, _entropy_words(self.seed)) + sum(_entropy_words(k) for k in self._key)
        index_hash = _hash_constants(_INIT_A, _MULT_A, 4 * words, 4)
        return (self._bits.seed_seq.pool * np.uint32(_MIX_MULT_L))[:, None], index_hash

    def _seeds(self, start: int, rows: int) -> np.ndarray:
        """The ``generate_state(4, uint64)`` words of the SeedSequences of
        substreams start, ..., start + rows - 1 (indices below 2^32, as
        :meth:`block_uniforms` checks), one column per row: PCG64's 128-bit
        seed s in words 0, 1 and its stream q in words 2, 3, each pair as
        (high, low).

        A substream's SeedSequence entropy is this stream's entropy plus one
        word, the index, and numpy hashes every word past the fourth into the
        pool in turn.  So the pool this stream was seeded from is the common
        prefix: only the index word and ``generate_state(4, uint64)`` are
        hashed here, as uint32 arrays with one column per row.
        """
        mixed_pool, index_hash = self._block_seeding
        # SeedSequence.mix_entropy: pool[d] = mix(pool[d], hashmix(index))
        v = _hash(np.arange(start, start + rows, dtype=np.uint32), *index_hash)
        v = mixed_pool - v * np.uint32(_MIX_MULT_R)
        v = _hash(v ^ (v >> 16), *_STATE_HASH).reshape(8, rows)
        # little-endian uint32 pairs make the uint64 words
        return np.ascontiguousarray(v.T, dtype="<u4").view("<u8").T

    def block_uniforms(self, start: int, out: np.ndarray) -> None:
        """Fill row j of the 2-d C-contiguous float64 array ``out`` with
        ``self.substream(start + j).uniforms(out.shape[1])``, bit for bit, when
        every start + j is in [0, 2^32); otherwise raise ValueError, out unchanged.

        The rows' PCG64 states are seeded together (:meth:`_seeds`).  Below
        a sample size of ``_JUMP_MAX_N`` the whole block's outputs are then
        computed with numpy array arithmetic on the 128-bit LCG states
        (:func:`_pcg64_block`) in ``out``'s own memory and scaled there to
        k 2^-53; from it on, each row sets its state on its thread's
        generator (:func:`_row_generator`), whose ``random`` writes k 2^-53
        straight into the row.  One block-wide addition of 2^-54 then gives
        (k + 1/2) 2^-53: both round the same exact value (2k + 1) 2^-54.
        Concurrent calls share nothing they write.
        """
        if not (out.ndim == 2 and out.dtype == np.float64 and out.flags.c_contiguous):
            raise ValueError(f"out must be a 2-d C-contiguous float64 array, got {out.dtype} {out.shape}")
        rows, n = out.shape
        start = _as_int("start", start)
        if not 0 <= start <= 2**32 - rows:
            raise ValueError(f"need 0 <= start and start + rows <= 2**32, got start={start}, rows={rows}")
        if not out.size:
            return
        if n < _JUMP_MAX_N:
            raw = out.view(np.uint64)
            _pcg64_block(self._seeds(start, rows), raw)
            # Generator.random's (word >> 11) 2^-53, in place: a 1-d copyto
            # casts element by element, where a 2-d one would copy the block
            flat = raw.reshape(-1)
            flat >>= 11
            np.copyto(out.reshape(-1), flat, casting="unsafe")
            out *= 2.0**-53
        else:
            gen = _row_generator()
            # pcg64_set_seed in Python integers: on the one-row blocks of
            # large n, numpy calls on one-element arrays cost more
            for row, (s1, s0, q1, q0) in zip(out, zip(*self._seeds(start, rows).tolist())):
                inc = ((q1 << 64 | q0) << 1 | 1) & _MASK128
                gen.bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": ((inc + (s1 << 64 | s0)) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                gen.random(out=row)
        out += 2.0**-54

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
