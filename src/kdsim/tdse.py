"""Split-operator propagation on the standing-wave potential.

Scaled units throughout: position in 1/k_L (potential period pi), energy in
recoil units, time tau in hbar over recoil energy.  A plane wave exp(i k x)
then has kinetic energy k^2 and diffraction orders live at k = k0 + 2p.

The propagator is the symmetric (Strang) splitting
    exp(-i V dtau/2) . F^-1 exp(-i k^2 dtau) F . exp(-i V dtau/2),
second order in dtau.  The physical sign convention exp(-i H t / hbar) is
used; order probabilities are insensitive to conjugating the evolution.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import DiffractionPattern, _pattern
from .model import DimensionlessSetup, PotentialSpec, evaluate_potential

_NORM_FAIL = 1e-9
_STEP_PHASE_WARN = 0.1
ENVELOPES = ("rectangular", "sin2_ramp")


@dataclass(frozen=True)
class Grid1D:
    """Periodic box of n_periods potential periods on n_points samples."""

    n_points: int = 1024
    n_periods: int = 8

    def __post_init__(self):
        n = self.n_points
        if n <= 0 or n & (n - 1):
            raise ValueError(f"n_points must be a power of two, got {n}")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")
        if n < 64 * self.n_periods:
            raise ValueError(
                f"n_points = {n} underresolves {self.n_periods} periods (need >= 64 per period)")

    @property
    def box_length(self) -> float:
        return self.n_periods * math.pi

    @property
    def dx(self) -> float:
        return self.box_length / self.n_points

    def positions(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers; spacing 2/n_periods, one order = 2."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def mode_index(self, k: float) -> int:
        """k as an integer multiple of the grid spacing 2/n_periods."""
        units = k * self.n_periods / 2.0
        nearest = round(units)
        if abs(units - nearest) > 1e-9:
            raise ValueError(
                f"wavenumber {k!r} is incommensurate with the box "
                f"(needs integer multiples of {2.0 / self.n_periods})")
        return int(nearest)


@dataclass
class WaveState:
    grid: Grid1D
    psi: np.ndarray
    k0: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.grid.n_points,):
            raise ValueError(
                f"psi has shape {self.psi.shape}, grid wants ({self.grid.n_points},)")

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)


def init_plane_wave(grid: Grid1D, order_offset: int = 0) -> WaveState:
    """Normalized plane wave sitting exactly on diffraction order order_offset."""
    if order_offset != int(order_offset):
        raise ValueError(f"order_offset must be an integer, got {order_offset!r}")
    k0 = 2.0 * int(order_offset)
    x = grid.positions()
    psi = np.exp(1j * k0 * x) / math.sqrt(grid.box_length)
    return WaveState(grid=grid, psi=psi, k0=k0)


def init_gaussian(grid: Grid1D, center: float, sigma: float, k0: float = 0.0) -> WaveState:
    """Normalized Gaussian wavepacket with a commensurate carrier.

    sigma must exceed 3 grid spacings (resolved) and not exceed a sixth of
    the box.  The envelope is wrapped around the periodic box, so the
    momentum spectrum is an exactly sampled Gaussian with no seam at the
    boundary.  k0 must be representable on the momentum grid, i.e. an
    integer multiple of 2/n_periods.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma <= 3.0 * grid.dx:
        raise ValueError(f"sigma = {sigma!r} too narrow: need > 3 dx = {3.0 * grid.dx:.4g}")
    if sigma > grid.box_length / 6.0 * (1.0 + 1e-12):
        raise ValueError(
            f"sigma = {sigma!r} too wide: need <= box_length/6 = {grid.box_length / 6.0:.4g}")
    grid.mode_index(k0)  # rejects incommensurate carriers
    x = grid.positions()
    length = grid.box_length
    envelope = np.zeros(grid.n_points)
    # commensurate k0 makes exp(i k0 n L) = 1, so images share one carrier
    for image in range(-2, 3):
        envelope += np.exp(-((x - center + image * length) ** 2) / (4.0 * sigma**2))
    psi = envelope * np.exp(1j * k0 * x)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WaveState(grid=grid, psi=psi, k0=float(k0))


@dataclass(frozen=True)
class PropagationConfig:
    """Stepping plan; tau_total = n_steps * d_tau."""

    d_tau: float
    n_steps: int
    include_kinetic: bool = True
    envelope: str = "rectangular"
    ramp_fraction: float = 0.25
    snapshot_every: int = 0

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if not math.isfinite(self.d_tau) or self.d_tau < 0.0:
            raise ValueError(f"d_tau must be finite and >= 0, got {self.d_tau!r}")
        if self.n_steps > 0 and self.d_tau == 0.0:
            raise ValueError("d_tau must be > 0 when n_steps > 0")
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.envelope == "sin2_ramp" and not 0.0 < self.ramp_fraction <= 0.5:
            raise ValueError(f"ramp_fraction must be in (0, 0.5], got {self.ramp_fraction!r}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")

    @property
    def tau_total(self) -> float:
        return self.n_steps * self.d_tau


def max_potential(setup: DimensionlessSetup, spec: PotentialSpec) -> float:
    """Bound on |V| in recoil units over the grid."""
    return 0.5 * setup.u0 * (abs(spec.offset) + math.hypot(spec.a_c, spec.a_s))


def plan_propagation(setup: DimensionlessSetup, spec: PotentialSpec,
                     d_tau: float | None = None, max_step_phase: float = 0.05,
                     **config_kw) -> PropagationConfig:
    """Pick n_steps and d_tau covering setup.tau exactly.

    Without an explicit d_tau the step is set so the largest potential phase
    advanced per step is max_step_phase radians (default 0.05).
    """
    if not math.isfinite(setup.u0):
        raise ValueError("propagation needs a finite u0 (not the ideal grating limit)")
    tau = setup.tau
    if tau == 0.0:
        return PropagationConfig(d_tau=0.0, n_steps=0, **config_kw)
    if d_tau is None:
        vmax = max_potential(setup, spec)
        d_tau = max_step_phase / vmax if vmax > 0.0 else tau
    if d_tau <= 0.0 or not math.isfinite(d_tau):
        raise ValueError(f"d_tau must be finite and > 0, got {d_tau!r}")
    n_steps = max(1, int(math.ceil(tau / d_tau - 1e-9)))
    return PropagationConfig(d_tau=tau / n_steps, n_steps=n_steps, **config_kw)


def _envelope_weights(config: PropagationConfig) -> np.ndarray:
    """Field envelope sampled at each step midpoint."""
    mids = (np.arange(config.n_steps) + 0.5) * config.d_tau
    if config.envelope == "rectangular":
        return np.ones_like(mids)
    total = config.tau_total
    ramp = config.ramp_fraction * total
    w = np.ones_like(mids)
    rising = mids < ramp
    falling = mids > total - ramp
    w[rising] = np.sin(0.5 * math.pi * mids[rising] / ramp) ** 2
    w[falling] = np.sin(0.5 * math.pi * (total - mids[falling]) / ramp) ** 2
    return w


SnapshotCallback = Callable[[int, float, WaveState], None]


def propagate(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
              config: PropagationConfig,
              snapshot_callback: SnapshotCallback | None = None) -> WaveState:
    """Evolve a state through the standing wave; returns a new WaveState.

    With include_kinetic the Strang splitting above is applied n_steps
    times.  Without it the potential factors commute, so the integrated
    phase is accumulated and applied in one exponential: the exact
    thin-grating map for the configured envelope.

    Raises RuntimeError if the final norm drifts from 1 by more than 1e-9.

    Parameters
    ----------
    state : WaveState
    spec : PotentialSpec
    setup : DimensionlessSetup
        Supplies u0; must be finite.
    config : PropagationConfig
    snapshot_callback : callable, optional
        Called as callback(step, tau, state) every config.snapshot_every
        steps (and never if snapshot_every is 0).
    """
    if not math.isfinite(setup.u0):
        raise ValueError("propagation needs a finite u0 (not the ideal grating limit)")
    grid = state.grid
    v = 0.5 * setup.u0 * evaluate_potential(spec, grid.positions())
    vmax = float(np.max(np.abs(v)))
    if config.n_steps > 0 and vmax * config.d_tau > _STEP_PHASE_WARN:
        warnings.warn(
            f"potential phase per step = {vmax * config.d_tau:.3g} rad exceeds "
            f"{_STEP_PHASE_WARN}; reduce d_tau", stacklevel=2)

    weights = _envelope_weights(config)
    every = config.snapshot_every
    psi0 = state.psi
    start_norm = state.norm

    if not config.include_kinetic:
        acc = 0.0
        for j in range(config.n_steps):
            acc += weights[j] * config.d_tau
            if every and (j + 1) % every == 0 and snapshot_callback is not None:
                snap = WaveState(grid=grid, psi=np.exp(-1j * v * acc) * psi0, k0=state.k0)
                snapshot_callback(j + 1, (j + 1) * config.d_tau, snap)
        out = WaveState(grid=grid, psi=np.exp(-1j * v * acc) * psi0, k0=state.k0)
    else:
        k2 = grid.wavenumbers() ** 2
        exp_kin = np.exp(-1j * k2 * config.d_tau)
        flat = config.envelope == "rectangular"
        exp_v_half = np.exp(-0.5j * v * config.d_tau) if flat else None
        psi = psi0.copy()
        for j in range(config.n_steps):
            half = exp_v_half if flat else np.exp(-0.5j * v * weights[j] * config.d_tau)
            psi *= half
            psi = np.fft.ifft(exp_kin * np.fft.fft(psi))
            psi *= half
            if every and (j + 1) % every == 0 and snapshot_callback is not None:
                snapshot_callback(j + 1, (j + 1) * config.d_tau,
                                  WaveState(grid=grid, psi=psi.copy(), k0=state.k0))
        out = WaveState(grid=grid, psi=psi, k0=state.k0)

    drift = abs(out.norm - start_norm)
    if not drift <= _NORM_FAIL:  # catches NaN too
        raise RuntimeError(f"propagation lost unitarity: norm drift {drift:.3g}")
    return out


def order_probabilities(state: WaveState, k0: float | None = None,
                        max_order: int | None = None) -> DiffractionPattern:
    """Bin the momentum spectrum into diffraction orders.

    Order p collects the half-open momentum window [k0 + 2p - 1, k0 + 2p + 1);
    a wavepacket's sub-modes inside a window aggregate into that order.  The
    binning is done in exact integer grid units, so window edges are assigned
    deterministically.
    """
    grid = state.grid
    k0 = state.k0 if k0 is None else float(k0)
    k0_units = grid.mode_index(k0)
    spectrum = np.abs(np.fft.fft(state.psi)) ** 2
    total = float(spectrum.sum())
    if total <= 0.0:
        raise ValueError("state has zero norm")

    n = grid.n_points
    h = grid.n_periods
    # FFT bin j corresponds to signed mode index in [-n/2, n/2)
    modes = np.where(np.arange(n) < n - n // 2, np.arange(n), np.arange(n) - n)
    rel = modes - k0_units
    orders = (2 * rel + h) // (2 * h)  # floor((rel + h/2) / h) in exact ints

    if max_order is None:
        max_order = n // (2 * h) - 1
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")

    table: dict[int, float] = {p: 0.0 for p in range(-max_order, max_order + 1)}
    for p, w in zip(orders, spectrum):
        p = int(p)
        if -max_order <= p <= max_order:
            table[p] += w / total
    return _pattern(sorted(table), [table[p] for p in sorted(table)], "tdse", None)
