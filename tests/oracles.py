"""Independent reference computations used to pin expected test values.

Deliberately avoids the package's own algorithms: Bessel values come from
the defining power series evaluated in extended precision, and the band
radius maximum from a dense brute-force grid.  Where the package replaced an
element-by-element loop with a numpy primitive, the loop is kept here as the
reference: it adds in the same order, so results must be equal bit for bit.
Split-step propagation is redone on the full box, without the package's
split into Bloch sectors; stepped_sectors shows which sectors a run steps.
"""
from __future__ import annotations

import math
from functools import lru_cache
from unittest import mock

import mpmath as mp
import numpy as np

from kdsim.model import evaluate_potential
from kdsim.tdse import WaveState


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


def stepped_sectors(run):
    """run() under a spy on np.fft.fft: its result and the set of 2-D shapes
    transformed, which in tdse.propagate are (stepped sectors, points per cell)."""
    shapes, fft = set(), np.fft.fft

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 2:
            shapes.add(np.shape(a))
        return fft(a, *args, **kwargs)

    with mock.patch.object(np.fft, "fft", spy):
        return run(), shapes


def propagate_full_box(state, spec, setup, config, snapshot_callback=None):
    """tdse.propagate's result and snapshots, stepping every point of the box.

    Strang steps exp(-i V dtau/2) F^-1 exp(-i k^2 dtau) F exp(-i V dtau/2) with
    the field envelope sampled at step midpoints; without the kinetic term the
    pulse area is applied as one phase.  callback(step, tau, state) is called
    every config.snapshot_every steps.
    """
    grid = state.grid
    v = 0.5 * setup.u0 * evaluate_potential(spec, grid.positions())
    mids = (np.arange(config.n_steps) + 0.5) * config.d_tau
    weights = np.ones_like(mids)
    if config.envelope == "sin2_ramp":
        total = config.n_steps * config.d_tau
        ramp = config.ramp_fraction * total
        rising, falling = mids < ramp, mids > total - ramp
        weights[rising] = np.sin(0.5 * math.pi * mids[rising] / ramp) ** 2
        weights[falling] = np.sin(0.5 * math.pi * (total - mids[falling]) / ramp) ** 2
    every = config.snapshot_every if snapshot_callback is not None else 0

    def wave(psi):
        return WaveState(grid=grid, psi=psi, k0=state.k0)

    if not config.include_kinetic:
        area = np.cumsum(np.append(0.0, weights * config.d_tau))  # area[j]: after j steps
        if every:
            for j in range(every, config.n_steps + 1, every):
                snapshot_callback(j, j * config.d_tau,
                                  wave(np.exp(-1j * v * area[j]) * state.psi))
        return wave(np.exp(-1j * v * area[-1]) * state.psi)
    exp_kin = np.exp(-1j * grid.wavenumbers() ** 2 * config.d_tau)
    psi = state.psi.copy()
    for j in range(config.n_steps):
        half = np.exp(-0.5j * v * weights[j] * config.d_tau)
        psi = half * np.fft.ifft(exp_kin * np.fft.fft(half * psi))
        if every and (j + 1) % every == 0:
            snapshot_callback(j + 1, (j + 1) * config.d_tau, wave(psi.copy()))
    return wave(psi)
