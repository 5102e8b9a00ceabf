"""Shared numerical kernel: adaptive quadrature, psi functions, seedable RNG.

The quadrature is a globally adaptive bisection scheme built on the embedded
7-point Gauss / 15-point Kronrod pair.  All nodes are interior, so integrands
with logarithmic (or mildly algebraic) endpoint singularities can be handed
over directly; endpoints are never evaluated.  A semi-infinite upper limit is
mapped to (0, 1) by the substitution y = lo + t/(1-t).

Panels are refined one at a time in QUADPACK's order (largest error first);
each bisection evaluates both halves in a single integrand call of 30 nodes,
one row of 15 per half.  A non-finite value at any node raises
:class:`QuadratureError` naming that node in y, the left half's nodes before
the right half's.

``integrate`` either meets its fixed tolerance, ``max(1e-12, 1e-10 *
|integral|)``, within 2000 panels or raises; an exhausted budget raises with
the best estimate attached.  The one caller that accepts such an estimate is
``cpi.reversed_cpi``, a stopgap for heavy InverseWeibull tails.

Integrands must be array-native: they take a 1-d numpy array of abscissae
and return an array of the same shape.
"""

from __future__ import annotations

import functools
import heapq
import math
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

# 15-point Kronrod abscissae on [-1, 1] (odd-indexed entries are the embedded
# 7-point Gauss nodes) and the two weight sets.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class MeasureResult:
    """A computed value, the route that produced it and its error bound.

    ``abs_error_estimate`` and ``evaluations`` (the integrand evaluations
    behind the value, left out of the repr) are zero for closed forms.
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


def _kronrod(fx: np.ndarray, half: float) -> tuple[float, float]:
    """G7/K15 (integral, error estimate) of one panel of half-width ``half``
    from the integrand at its 15 nodes."""
    resk = float(_WGK @ fx)
    resg = float(_WG @ fx[1::2])
    resabs = float(_WGK @ np.abs(fx))
    reskh = 0.5 * resk
    resasc = float(_WGK @ np.abs(fx - reskh))
    err = abs(resk - resg) * half
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, _ROUNDOFF * resabs * half)
    return resk * half, err


def _panels(evaluate: Callable, bounds: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """:func:`_kronrod` of every panel (lo, hi) in ``bounds`` from a single
    ``evaluate`` call on their nodes, one row of 15 per panel."""
    half = [0.5 * (hi - lo) for lo, hi in bounds]
    mid = [0.5 * (hi + lo) for lo, hi in bounds]
    x = np.array(mid)[:, None] + np.array(half)[:, None] * _XGK
    with np.errstate(all="ignore"):  # non-finite output is caught explicitly below
        y, fy, fx = evaluate(x)
    if not (np.isfinite(fy).all() and (fx is fy or np.isfinite(fx).all())):
        # report the first bad node panel by panel, the integrand's own value
        # before its mapped (Jacobian-weighted) one
        for i in range(len(bounds)):
            for values, at in ((fy[i], y[i]), (fx[i], x[i])):
                bad = ~np.isfinite(values)
                if bad.any():
                    raise QuadratureError(f"integrand returned a non-finite value at y={at[bad][0]!r}")
    return [_kronrod(row, h) for row, h in zip(fx, half)]


def integrate(f: Callable, lo: float, hi: float) -> MeasureResult:
    """Adaptively integrate ``f`` over (lo, hi); ``hi`` may be ``math.inf``.

    Stops once the summed panel error drops below
    ``max(_ABS_TOL, _REL_TOL * |integral|)``.  Raises :class:`QuadratureError`
    when the panel budget is exhausted (a growing estimate is flagged as
    apparent divergence) or when the integrand produces NaN/inf at a node.
    """
    if not math.isfinite(lo):
        raise ValueError("lower limit must be finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")

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
            fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
            return x, fx, fx

    evals = 15
    [(val, err)] = _panels(evaluate, [(lo, hi)])
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
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _panels(evaluate, [(a, m), (m, b)])
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


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def trigamma(x: float) -> float:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2 for x > 0."""
    if not x > 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (
        1.0
        + inv * (
            0.5
            + inv * (
                1.0 / 6.0
                - inv2 * (
                    1.0 / 30.0
                    - inv2 * (
                        1.0 / 42.0
                        - inv2 * (
                            1.0 / 30.0
                            - inv2 * (5.0 / 66.0 - inv2 * (691.0 / 2730.0 - inv2 * 7.0 / 6.0))
                        )
                    )
                )
            )
        )
    )
    return acc + series


# --- seedable uniform streams -------------------------------------------------

# numpy's SeedSequence hash (O'Neill's randutils seed_seq_fe, with numpy's
# MULT_B) and PCG64's 128-bit LCG multiplier, for RngStream.block_uniforms
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, first: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of ``steps`` hash steps from
    step ``first`` on, as uint32 arrays: init * mult^k mod 2^32."""
    h = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + steps + 1)]
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


def _hash(v: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """One SeedSequence hash step per column of the uint32 array ``v``."""
    v = (v ^ before) * after
    return v ^ (v >> 16)


# generate_state(4, uint64) hashes the pool entries 0-3, then 0-3 again, into
# 8 uint32 words, here shaped (2, 4)
_STATE_HASH = tuple(h.reshape(2, 4) for h in _hash_constants(_INIT_B, _MULT_B, 0, 8))


def _entropy_words(x: int) -> int:
    """Number of uint32 words SeedSequence makes of the integer ``x``."""
    return max(1, -(-x.bit_length() // 32))


class RngStream:
    """A deterministic uniform(0,1) stream identified by (seed, stream_id).

    Streams with different ``stream_id`` under the same seed are statistically
    independent (PCG64 seeded through a spawn key).  The sequential draws
    (:meth:`uniform01`, :meth:`uniforms`) advance the stream, so they belong
    to a single consumer; parallel work should partition by stream_id or use
    :meth:`substream`.  :meth:`block_uniforms` leaves the stream unchanged,
    and any number of threads may call it on one instance at once.

    Each value is (k + 1/2) 2^-53, with k the top 53 bits of one 64-bit PCG64
    output.  These are the values ``Generator.integers(0, 2**53)`` would give:
    Lemire's bounded-integer method never rejects a draw for a range of
    exactly 2^53 and returns the top 53 bits (Lemire 2019, ACM TOMACS 29:3).
    """

    def __init__(self, seed: int, stream_id: int = 0, _key: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key = _key if _key is not None else (self.stream_id,)
        self._bits = np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self._key))

    def uniform01(self) -> float:
        """Next value, strictly inside (0, 1)."""
        return ((self._bits.random_raw() >> 11) + 0.5) * 2.0**-53

    def uniforms(self, size: int) -> np.ndarray:
        """Next ``size`` values as an array, each strictly inside (0, 1)."""
        return ((self._bits.random_raw(size) >> 11) + 0.5) * 2.0**-53

    def substream(self, index: int) -> "RngStream":
        """Child stream ``index``; the mapping (seed, stream_id, index) -> sequence
        is fixed, independent of draw order or worker layout."""
        return RngStream(self.seed, self.stream_id, _key=self._key + (int(index),))

    @functools.cached_property
    def _block_seeding(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        # MIX_MULT_L times this stream's SeedSequence pool, and the hash
        # constants of a child's index word (4 hash steps per entropy word
        # before it, the run entropy padded to 4 words).
        words = max(4, _entropy_words(self.seed)) + sum(_entropy_words(k) for k in self._key)
        index_hash = _hash_constants(_INIT_A, _MULT_A, 4 * words, 4)
        return self._bits.seed_seq.pool * np.uint32(_MIX_MULT_L), index_hash

    def block_uniforms(self, start: int, out: np.ndarray) -> None:
        """Fill row j of the 2-d float64 array ``out`` with
        ``self.substream(start + j).uniforms(out.shape[1])``, bit for bit.

        A substream's SeedSequence entropy is this stream's entropy plus one
        word, the index, and numpy hashes every word past the fourth into the
        pool in turn.  So the pool this stream was seeded from is the common
        prefix: only the index word and ``generate_state(4, uint64)`` are
        hashed here, as uint32 arrays over the block.  Each row then sets the
        PCG64 state those words seed on one bit generator of this call's own,
        so concurrent calls share nothing they write.  Indices of 2^32 and
        above take two entropy words and go through :meth:`substream`.
        """
        rows, n = out.shape
        raw = np.empty((rows, n), dtype=np.uint64)
        fast = max(0, min(rows, 2**32 - start))
        if fast:
            mixed_pool, index_hash = self._block_seeding
            bits = np.random.PCG64(0)
            # SeedSequence.mix_entropy: pool[d] = mix(pool[d], hashmix(index))
            v = _hash(np.arange(start, start + fast, dtype=np.uint32)[:, None], *index_hash)
            v = mixed_pool - v * np.uint32(_MIX_MULT_R)
            v = _hash((v ^ (v >> 16))[:, None, :], *_STATE_HASH)
            # little-endian uint32 pairs make generate_state's 4 uint64 words;
            # PCG64 takes its 128-bit seed from words 0, 1 and its stream from
            # words 2, 3, each pair as (high, low)
            seeds = v.astype("<u4", copy=False).view("<u8").tolist()
            for j, ((s1, s0), (q1, q0)) in enumerate(seeds):
                inc = ((q1 << 64 | q0) << 1 | 1) & _MASK128
                seeded = ((inc + (s1 << 64 | s0)) * _PCG64_MULT + inc) & _MASK128
                bits.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": seeded, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                raw[j] = bits.random_raw(n)
        for j in range(fast, rows):
            raw[j] = self.substream(start + j)._bits.random_raw(n)
        # the float64 operations of uniforms, in place
        np.add(np.right_shift(raw, 11, out=raw), 0.5, out=out)
        out *= 2.0**-53

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
