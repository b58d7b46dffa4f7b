"""Integer-order Bessel functions of the first kind, built in-package.

Uses Miller's backward recurrence: run J_{k-1} = (2k/x) J_k - J_{k+1}
downward from a start order far above both the requested order and the
turning point (where J_n(x) begins to decay), seeded with an arbitrary
tiny value, then fix the overall scale with J_0 + 2 sum_k J_2k = 1.
Downward recursion keeps the recessive solution, so the seed error dies
superexponentially.  Target: absolute error <= 1e-12 for |x| <= 200 and
orders up to 80.

bessel_rows runs the same recurrence once over a block of arguments, one
buffer row per argument.  Each keeps its own start order (it stays zero
until the sweep reaches it), its own 1e250 rescale and its own
normalization sum, so every row is bit-identical to bessel_row at that
argument.  The scalar loop stays the single-argument path: numpy's fixed
cost per order makes the batched sweep slower for one argument, and the
two paths are test oracles for each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RESCALE = 1e250
_TINY_X = 1e-30
_BLOCK = 256  # arguments per batched sweep; bounds the (block, start) buffer


@dataclass(frozen=True)
class BesselRow:
    """J_0(x) .. J_order_max(x) as one contiguous row."""

    order_max: int
    argument: float
    values: np.ndarray


def _start_orders(order_max: int, x):
    """Even recurrence start order for each x > 0 (a float or an array)."""
    # Start well past the turning point max(x, 20); above x = 50 the margin
    # grows with x so the seed error still dies out.
    margin = 30 + np.maximum(np.ceil((x - 50.0) / 3.0), 0.0).astype(int)
    start = order_max + np.ceil(np.maximum(x, 20.0)).astype(int) + margin
    return start + start % 2


def _raw_row(order_max: int, x: float) -> np.ndarray:
    start = int(_start_orders(order_max, x))
    v = np.zeros(start + 2)
    v[start] = 1e-30  # arbitrary seed, scaled out by the normalization
    for k in range(start, 0, -1):
        v[k - 1] = (2.0 * k / x) * v[k] - v[k + 1]
        if abs(v[k - 1]) > _RESCALE:
            v[k - 1:] /= _RESCALE
    norm = v[0] + 2.0 * v[2:start + 1:2].sum()
    return v[:order_max + 1] / norm


def _raw_rows(order_max: int, xs: np.ndarray) -> np.ndarray:
    """_raw_row at each x > 0 of one block, in the same floating-point steps."""
    starts = _start_orders(order_max, xs)
    perm = np.argsort(-starts, kind="stable")
    xs, starts = xs[perm], starts[perm]
    n, top = xs.size, int(starts[0])
    v = np.zeros((n, top + 2))   # v[j] is _raw_row's v for the j-th argument
    v[np.arange(n), starts] = 1e-30
    # rows run by falling start, so those already seeded at order k
    # (start >= k) are the first live[k]; the rest stay zero
    live = np.searchsorted(-starts, -np.arange(top + 1), side="right").tolist()
    for k in range(top, 0, -1):
        m = live[k]
        col = v[:m, k - 1]   # (2k/x) J_k - J_{k+1}, rounded step by step as in _raw_row
        np.divide(2.0 * k, xs[:m], out=col)
        col *= v[:m, k]
        col -= v[:m, k + 1]
        if np.abs(col).max() > _RESCALE:
            v[np.flatnonzero(np.abs(col) > _RESCALE), k - 1:] /= _RESCALE
    # one normalization per run of equal starts, over the same strided slice
    # as _raw_row, so numpy's pairwise summation groups the terms identically
    norm = np.empty(n)
    firsts = np.flatnonzero(np.diff(starts, prepend=-1)).tolist()
    for a, b in zip(firsts, firsts[1:] + [n]):
        s = int(starts[a])
        norm[a:b] = v[a:b, 0] + 2.0 * v[a:b, 2:s + 1:2].sum(axis=1)
    rows = np.empty((n, order_max + 1))
    rows[perm] = v[:, :order_max + 1] / norm[:, None]
    return rows


def bessel_row(order_max: int, x: float) -> BesselRow:
    """Whole row J_0..J_order_max at one argument in a single recurrence pass."""
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    ax = abs(x)
    if ax < _TINY_X:
        vals = np.zeros(order_max + 1)
        vals[0] = 1.0
    else:
        vals = _raw_row(order_max, ax)
        if x < 0.0:
            # J_n(-x) = (-1)^n J_n(x)
            vals = vals.copy()
            vals[1::2] *= -1.0
    return BesselRow(order_max=order_max, argument=x, values=vals)


def bessel_rows(order_max: int, xs) -> np.ndarray:
    """Rows J_0..J_order_max at each of the arguments xs, shape (len(xs), order_max + 1).

    Row i is bit-identical to bessel_row(order_max, xs[i]).values; the
    recurrence runs once per block of up to 256 arguments.
    """
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"arguments must be a 1-D sequence, got shape {xs.shape}")
    finite = np.isfinite(xs)
    if not finite.all():
        raise ValueError(f"argument must be finite, got {float(xs[~finite][0])!r}")
    ax = np.abs(xs)
    tiny = ax < _TINY_X
    out = np.zeros((xs.size, order_max + 1))
    out[tiny, 0] = 1.0
    live = np.flatnonzero(~tiny)
    for lo in range(0, live.size, _BLOCK):
        block = live[lo:lo + _BLOCK]
        out[block] = _raw_rows(order_max, ax[block])
    # J_n(-x) = (-1)^n J_n(x)
    out[(xs < 0.0) & ~tiny, 1::2] *= -1.0
    return out


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for any integer order and real argument.

    Negative orders and arguments fold onto the positive quadrant through
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x).
    """
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    row = bessel_row(n, x)
    return sign * float(row.values[n])
