"""Independent reference computations used to pin expected test values.

Deliberately avoids the package's own algorithms: Bessel values come from
the defining power series evaluated in extended precision, and the band
radius maximum from a dense brute-force grid.  Where the package replaced an
element-by-element loop with a numpy primitive, the loop is kept here as the
reference: it adds in the same order, so results must be equal bit for bit.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np


@lru_cache(maxsize=None)
def bessel_series(n: int, x: float, dps: int = 40) -> float:
    """J_n(x) from sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!), extended precision."""
    if n < 0:
        return (-1.0) ** (-n) * bessel_series(-n, x, dps)
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for k in range(0, 400):
            term = (-1) ** k * (xm / 2) ** (n + 2 * k) / (mp.factorial(k) * mp.factorial(n + k))
            total += term
            if k > 3 and abs(term) < mp.mpf(10) ** (-dps + 2):
                break
        return float(total)


def max_band_radius_bruteforce(n: int = 2001) -> float:
    """Largest sqrt((1 - 2q)^2 + 4d^2) over the validity square by brute force."""
    best = 0.0
    step = 1.0 / n
    for i in range(n):
        d = i * step  # sweeps [0, 1)
        for q in (0.0, (n - 1) * step):  # extremes in q dominate
            best = max(best, math.hypot(1.0 - 2.0 * q, 2.0 * d))
    # full grid confirmation at coarser resolution
    for i in range(0, n, 20):
        for j in range(0, n, 20):
            best = max(best, math.hypot(1.0 - 2.0 * j * step, 2.0 * i * step))
    return best


def binned_orders_loop(psi, n_periods: int, k0_units: int, max_order: int) -> dict[int, float]:
    """Order probabilities by visiting every FFT bin in turn.

    Bin j holds signed mode m (j, or j - n past the Nyquist bin); order p
    collects the modes with floor((m - k0_units + n_periods/2) / n_periods) = p.
    """
    spectrum = np.abs(np.fft.fft(psi)) ** 2
    total = float(spectrum.sum())
    n = len(psi)
    table = {p: 0.0 for p in range(-max_order, max_order + 1)}
    for j, w in enumerate(spectrum):
        mode = j if j < n - n // 2 else j - n
        p = (2 * (mode - k0_units) + n_periods) // (2 * n_periods)
        if -max_order <= p <= max_order:
            table[p] += w / total
    return table


def local_minima_loop(values) -> list[int]:
    """Indices i with values[i] <= both neighbours; outside the ends counts as inf."""
    n = len(values)
    minima = []
    for i in range(n):
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i < n - 1 else math.inf
        if values[i] <= left and values[i] <= right:
            minima.append(i)
    return minima
