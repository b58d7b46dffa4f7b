"""Integer-order Bessel functions of the first kind, built in-package.

Uses Miller's backward recurrence: run J_{k-1} = (2k/x) J_k - J_{k+1}
downward from a start order N, seeded with an arbitrary tiny value, then fix
the overall scale with J_0 + 2 sum_k J_2k = 1, its even terms summed one by
one downward.  Downward recursion keeps the recessive solution: the seed
leaves J_n off by about J_N Y_n / (Y_N J_n) of itself (Gautschi, SIAM Rev. 9,
24 (1967)), which dies superexponentially once N is past both n and the
turning point n = x, where J_n(x) begins to decay.  The start is whichever is
higher of what the top order needs and what the argument needs
(_start_orders), calibrated against mpmath so that the seed's share stays
under 1e-17 of every value a row returns.  Rows then carry rounding error
only: up to a few 1e-15 of J_n above the turning point and of the Bessel
modulus below it for x <= 200, up to about 2e-14 at x = 1000-3000.
Target: absolute error <= 1e-12 for |x| <= 200 and orders up to 80.

bessel_rows runs the same recurrence once over a block of arguments, one
buffer column per argument, so each order step is a few contiguous numpy
operations.  Each argument keeps its own start order (its column stays zero
until the sweep reaches it), its own 1e250 rescale and its own
normalization sum, so every row is bit-identical to bessel_row at that
argument.  The scalar loop steps on Python floats and stays the
single-argument path: an order step costs it a fraction of a microsecond,
against several microseconds of numpy calls in the sweep, which therefore
wins only from about 15 arguments on.  bessel_values hands that loop's row
out as Python floats, equal to bessel_row's bit for bit, to callers that
go on in floats (the fit's refinement).  Both paths are pinned bit for bit to
the same recurrence stepped on a numpy array, kept as a test oracle.
"""
from __future__ import annotations

import math

import numpy as np

_RESCALE = 1e250
_TINY_X = 1e-30
_BOUND_SLACK = 1.0 + 1e-12  # covers the roundings of a step and of its bound
_BLOCK = 1024  # arguments per batched sweep; bounds the (start, block) buffer


def _start_orders(order_max: int, x):
    """Even recurrence start order for each x > 0: an int for a float, an int
    array for an array."""
    # Whichever is higher of what the top order needs, order_max + 4 + 3.5 sqrt(x),
    # and what the argument needs, ceil(x) + 9 + 6 sqrt(x): there the seed's share
    # is under 1e-17 at every order up to order_max (Miller in 40 digits against
    # mpmath: orders to 80 at x <= 200, 400 at x <= 500, x = 1000 and 3000).
    # The rule is written once for both kinds: on a float, math takes a fifth of
    # the numpy calls' time.
    if isinstance(x, np.ndarray):
        ceil, maximum, sqrt = (lambda a: np.ceil(a).astype(int)), np.maximum, np.sqrt
    else:
        ceil, maximum, sqrt = math.ceil, max, math.sqrt
    root = sqrt(x)
    start = maximum(order_max + ceil(4.0 + 3.5 * root), ceil(x) + ceil(9.0 + 6.0 * root))
    return start + start % 2


def _raw_row(order_max: int, x: float) -> tuple[list[float], float]:
    """Unscaled J_0..J_order_max at x > 0 as Python floats, and the scale to divide by."""
    start = _start_orders(order_max, x)
    v = [0.0] * (start + 2)   # Python floats: one step costs far less than a numpy call
    v[start] = here = 1e-30  # arbitrary seed, scaled out by the normalization
    above = 0.0   # v[k + 1] and v[k] ride in locals: reading them back from v slows a step
    for k in range(start, 0, -1):
        here, above = (2.0 * k / x) * here - above, here
        v[k - 1] = here
        if abs(here) > _RESCALE:
            v[k - 1:] = [u / _RESCALE for u in v[k - 1:]]
            here, above = v[k - 1], v[k]
    even = 0.0   # the even terms summed one by one downward, as _raw_rows sums them
    for u in v[start:1:-2]:
        even += u
    return v[:order_max + 1], v[0] + 2.0 * even


def _raw_rows(order_max: int, xs: np.ndarray) -> np.ndarray:
    """_raw_row at each x > 0 of one block, in the same floating-point steps."""
    starts = _start_orders(order_max, xs)
    perm = np.argsort(-starts, kind="stable")
    xs, starts = xs[perm], starts[perm]
    n, top = xs.size, int(starts[0])
    v = np.zeros((top + 2, n))   # order-major: v[k, j] is _raw_row's v[k] for the j-th argument
    v[starts, np.arange(n)] = 1e-30
    # arguments run by falling start, so those already seeded at order k
    # (start >= k) are the first live[k]; the rest stay zero
    live = np.searchsorted(-starts, -np.arange(top + 1), side="right").tolist()
    x_min = float(xs.min())
    hi, lo = 0.0, 1e-30   # bounds on |v[k + 1]| and |v[k]| over the block
    for k in range(top, 0, -1):
        m = live[k]
        row = v[k - 1, :m]   # (2k/x) J_k - J_{k+1}, rounded step by step as in _raw_row
        np.divide(2.0 * k, xs[:m], out=row)
        row *= v[k, :m]
        row -= v[k + 1, :m]
        # |row| <= (2k/x_min) lo + hi, up to rounding; the newly seeded are 1e-30.
        # Only a bound past _RESCALE needs the elementwise check.
        bound = max(_BOUND_SLACK * (2.0 * k / x_min * lo + hi), 1e-30)
        if bound > _RESCALE:
            mag = np.abs(row)
            bound = max(float(mag.max()), 1e-30)
            if bound > _RESCALE:
                v[k - 1:, np.flatnonzero(mag > _RESCALE)] /= _RESCALE
                bound = _RESCALE   # the rest are at most that, the rescaled far less
        hi, lo = lo, bound
    # each argument's even terms summed downward in turn, from zeros above its start
    even = np.zeros(n)
    for k in range(top, 1, -2):
        even[:live[k]] += v[k, :live[k]]
    norm = v[0] + 2.0 * even
    rows = np.empty((n, order_max + 1))
    rows[perm] = v[:order_max + 1].T / norm[:, None]
    return rows


def _checked(order_max: int, x) -> float:
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    return x


def bessel_row(order_max: int, x: float) -> np.ndarray:
    """J_0(x)..J_order_max(x) as one contiguous row, in a single recurrence pass."""
    x = _checked(order_max, x)
    if abs(x) < _TINY_X:
        vals = np.zeros(order_max + 1)
        vals[0] = 1.0
    else:
        raw, norm = _raw_row(order_max, abs(x))
        vals = np.array(raw) / norm
        if x < 0.0:
            # J_n(-x) = (-1)^n J_n(x)
            vals[1::2] *= -1.0
    return vals


def bessel_values(order_max: int, x: float) -> list[float]:
    """bessel_row(order_max, x) as a list of Python floats, bit for bit, built without numpy."""
    x = _checked(order_max, x)
    if abs(x) < _TINY_X:
        return [1.0] + [0.0] * order_max
    raw, norm = _raw_row(order_max, abs(x))
    vals = [u / norm for u in raw]
    if x < 0.0:
        vals[1::2] = [-u for u in vals[1::2]]
    return vals


def bessel_rows(order_max: int, xs) -> np.ndarray:
    """Rows J_0..J_order_max at each of the arguments xs, shape (len(xs), order_max + 1).

    Row i is bit-identical to bessel_row(order_max, xs[i]); the
    recurrence runs once per block of up to 1024 arguments.
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
