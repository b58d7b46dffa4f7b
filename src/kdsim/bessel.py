"""Integer-order Bessel functions of the first kind, built in-package.

Uses Miller's backward recurrence: run J_{k-1} = (2k/x) J_k - J_{k+1}
downward from a start order far above both the requested order and the
turning point (where J_n(x) begins to decay), seeded with an arbitrary
tiny value, then fix the overall scale with J_0 + 2 sum_k J_2k = 1.
Downward recursion keeps the recessive solution, so the seed error dies
superexponentially.  Target: absolute error <= 1e-12 for |x| <= 200 and
orders up to 80.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RESCALE = 1e250
_TINY_X = 1e-30


@dataclass(frozen=True)
class BesselRow:
    """J_0(x) .. J_order_max(x) as one contiguous row."""

    order_max: int
    argument: float
    values: np.ndarray


def _raw_row(order_max: int, x: float) -> np.ndarray:
    # x > 0 here.  Start even and well past the turning point max(x, 20);
    # above x = 50 the margin grows with x so the seed error still dies out.
    margin = 30 + max(0, math.ceil((x - 50.0) / 3.0))
    start = order_max + int(math.ceil(max(x, 20.0))) + margin
    if start % 2:
        start += 1
    v = np.zeros(start + 2)
    v[start] = 1e-30  # arbitrary seed, scaled out by the normalization
    for k in range(start, 0, -1):
        v[k - 1] = (2.0 * k / x) * v[k] - v[k + 1]
        if abs(v[k - 1]) > _RESCALE:
            v[k - 1:] /= _RESCALE
    norm = v[0] + 2.0 * v[2:start + 1:2].sum()
    return v[:order_max + 1] / norm


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
