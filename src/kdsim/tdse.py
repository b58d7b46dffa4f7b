"""Split-operator propagation on the standing-wave potential.

Scaled units throughout: position in 1/k_L (potential period pi), energy in
recoil units, time tau in hbar over recoil energy.  A plane wave exp(i k x)
then has kinetic energy k^2 and diffraction orders live at k = k0 + 2p.

The propagator is the symmetric (Strang) splitting
    exp(-i V dtau/2) . F^-1 exp(-i k^2 dtau) F . exp(-i V dtau/2),
second order in dtau.  The physical sign convention exp(-i H t / hbar) is
used; order probabilities are insensitive to conjugating the evolution.

The potential (period pi) couples a box mode only to modes n_periods bins away,
so a state splits exactly into f = gcd(n_points, n_periods) Bloch sectors, each
evolving on a cell of n_points/f points with the same dx.

A plane wave under a rectangular pulse stays on one chain of those modes, its
diffraction orders, where H is tridiagonal; propagate_exact diagonalizes it
once instead of stepping (Batelaan, Rev. Mod. Phys. 79, 929 (2007)).
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
_EMPTY_SECTOR = 1e-20  # carried unstepped: moves orders by <= this, psi by <= its sqrt
_REACH_TOL = 1e-16  # amplitude left beyond the exact route's order basis
_EXACT_MAX_ORDERS = 1025  # one eigh of this size takes ~0.1 s; larger bases are stepped
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
    if 2 * abs(int(order_offset)) >= grid.n_points / grid.n_periods:
        raise ValueError(f"order_offset {order_offset} aliases: need 2*|order_offset| < "
                         f"n_points/n_periods = {grid.n_points / grid.n_periods:.6g}")
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
    integer multiple of 2/n_periods.  center is taken modulo the box length.
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
    center = float(center) % length  # exact, so a center inside the box is kept as is
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
        if not (math.isfinite(max_step_phase) and max_step_phase > 0.0):
            raise ValueError(f"max_step_phase must be finite and > 0, got {max_step_phase!r}")
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

    The occupied Bloch sectors (module docstring) are stepped together on the
    cell; the rest (<= _EMPTY_SECTOR of the weight) are carried, moving psi by
    <= sqrt(_EMPTY_SECTOR) in amplitude.  With include_kinetic the Strang
    splitting above is applied n_steps times.  Without it the potential
    factors commute, so the integrated phase is accumulated and applied in
    one exponential: the exact thin-grating map for the configured envelope.

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
    fold = math.gcd(grid.n_points, grid.n_periods)
    cell = grid.n_points // fold
    v = 0.5 * setup.u0 * evaluate_potential(spec, grid.positions()[:cell])
    vmax = float(np.max(np.abs(v)))
    if config.n_steps > 0 and vmax * config.d_tau > _STEP_PHASE_WARN:
        warnings.warn(
            f"potential phase per step = {vmax * config.d_tau:.3g} rad exceeds "
            f"{_STEP_PHASE_WARN}; reduce d_tau", stacklevel=2)

    spectrum = np.fft.fft(state.psi)
    sectors = spectrum.reshape(cell, fold).T  # row s: sector s, FFT bins a*fold + s
    power = np.sum(np.abs(sectors) ** 2, axis=1)
    live = power > _EMPTY_SECTOR / fold * power.sum()  # carried ones: <= _EMPTY_SECTOR in all
    phi = np.fft.ifft(sectors[live])  # one row per stepped sector

    def on_box(phi: np.ndarray) -> WaveState:
        sectors[live] = np.fft.fft(phi)  # writes into spectrum; carried rows stay as they were
        return WaveState(grid=grid, psi=np.fft.ifft(spectrum), k0=state.k0)

    weights = _envelope_weights(config)
    every = config.snapshot_every
    if not config.include_kinetic:
        area = np.cumsum(np.append(0.0, weights * config.d_tau))  # area[j]: after j steps
        if every and snapshot_callback is not None:
            for j in range(every, config.n_steps + 1, every):
                snapshot_callback(j, j * config.d_tau, on_box(np.exp(-1j * v * area[j]) * phi))
        out = on_box(np.exp(-1j * v * area[-1]) * phi)
    else:
        exp_kin = np.exp(-1j * grid.wavenumbers().reshape(cell, fold).T[live] ** 2 * config.d_tau)
        flat = config.envelope == "rectangular"
        # in phi's own shape: a broadcast multiply per half kick costs more than the copy
        exp_v_half = np.broadcast_to(np.exp(-0.5j * v * config.d_tau), phi.shape).copy()
        for j in range(config.n_steps):
            half = exp_v_half if flat else np.exp(-0.5j * v * weights[j] * config.d_tau)
            phi *= half
            phi = np.fft.ifft(exp_kin * np.fft.fft(phi))
            phi *= half
            if every and (j + 1) % every == 0 and snapshot_callback is not None:
                snapshot_callback(j + 1, (j + 1) * config.d_tau, on_box(phi))
        out = on_box(phi)

    return _checked_norm(state, out)


def _checked_norm(state: WaveState, out: WaveState) -> WaveState:
    drift = abs(out.norm - state.norm)
    if not drift <= _NORM_FAIL:  # catches NaN too
        raise RuntimeError(f"propagation lost unitarity: norm drift {drift:.3g}")
    return out


def _order_reach(x: float) -> int:
    """Orders P on each side of the start that hold all but _REACH_TOL of it.

    Summing the Dyson series over coupling paths (the diagonal only adds
    phases) bounds order P by |c_P| <= I_P(x) <= (x/2)^P / P! exp(x^2/(4(P+1))),
    x = alpha r_eff.  P is the least integer >= x with x times that bound
    <= _REACH_TOL.
    """
    if x == 0.0:
        return 0
    log_tol = math.log(_REACH_TOL / x)
    reach = math.ceil(x)
    while (reach * math.log(0.5 * x) - math.lgamma(reach + 1.0)
           + x * x / (4.0 * (reach + 1)) > log_tol):
        reach += 1
    return reach


def _order_chain(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
                 config: PropagationConfig):
    """(spectrum, signed start mode, orders p relative to it, reach) for propagate_exact.

    The orders run from -reach to +reach (_order_reach), cut where their modes
    would pass the grid's Nyquist bin.  Raises ValueError unless the state is
    a plane wave (one FFT bin holds all but _EMPTY_SECTOR of the weight) and
    the pulse is rectangular with the kinetic term.
    """
    if not math.isfinite(setup.u0):
        raise ValueError("propagation needs a finite u0 (not the ideal grating limit)")
    if config.envelope != "rectangular" or not config.include_kinetic:
        raise ValueError("the exact route needs a rectangular envelope with include_kinetic")
    spectrum = np.fft.fft(state.psi)
    power = np.abs(spectrum) ** 2
    start = int(np.argmax(power))
    total = power.sum()
    power[start] = 0.0
    if not power.sum() <= _EMPTY_SECTOR * total:
        raise ValueError("the exact route needs a plane-wave start state (one occupied bin)")
    n, h = state.grid.n_points, state.grid.n_periods
    mode = start if start < n - n // 2 else start - n  # signed, in [-n/2, n/2)
    reach = _order_reach(0.5 * setup.u0 * config.tau_total * math.hypot(spec.a_c, spec.a_s))
    orders = np.arange(max(-reach, -((n // 2 + mode) // h)),
                       min(reach, (n // 2 - 1 - mode) // h) + 1)
    return spectrum, mode, orders, reach


def exact_route(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
                config: PropagationConfig) -> bool:
    """Whether propagate_exact serves this run: it applies, and its basis holds
    the whole reach in at most _EXACT_MAX_ORDERS orders (one eigh of that size
    costs ~0.1 s).  A reach that the grid cuts is left to propagate, whose
    cell wraps those orders round at the Nyquist bin instead of ending them."""
    try:
        _, _, orders, reach = _order_chain(state, spec, setup, config)
    except ValueError:
        return False
    return orders.size == 2 * reach + 1 <= _EXACT_MAX_ORDERS


def propagate_exact(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
                    config: PropagationConfig,
                    snapshot_callback: SnapshotCallback | None = None) -> WaveState:
    """propagate's result for a plane wave under a rectangular pulse, without steps.

    Order p of the start plane wave (wavenumber k_p) couples only to p +- 1:
    H[p, p] = k_p^2 + u0 offset/2 and H[p+1, p] = u0 (a_c - i a_s)/4.  The
    gauge c_p = exp(-i p theta) b_p, theta = atan2(a_s, a_c), makes H real
    symmetric with coupling u0 r_eff/4, so one eigh gives the amplitudes at
    every time.  The basis and the state it needs are those of _order_chain
    (ValueError otherwise); the other FFT bins, <= _EMPTY_SECTOR of the
    weight, are carried unchanged.

    Takes the same arguments as propagate.  config.d_tau only schedules the
    snapshots, taken at the steps propagate would take them.  Raises
    RuntimeError if the final norm drifts from 1 by more than 1e-9.
    """
    spectrum, start, orders, _ = _order_chain(state, spec, setup, config)
    grid = state.grid
    modes = start + grid.n_periods * orders  # signed; wavenumber 2 mode / n_periods
    size, u0 = orders.size, setup.u0
    ham = np.zeros((size, size))
    ham.flat[::size + 1] = (2.0 * modes / grid.n_periods) ** 2 + 0.5 * u0 * spec.offset
    ham.flat[1::size + 1] = ham.flat[size::size + 1] = 0.25 * u0 * math.hypot(spec.a_c, spec.a_s)
    energies, vectors = np.linalg.eigh(ham)

    start_row = vectors[-orders[0]]  # the start is order 0
    ungauge = spectrum[start % grid.n_points] * np.exp(  # start amplitude, gauge phases
        -1j * math.atan2(spec.a_s, spec.a_c) * orders)
    bins = modes % grid.n_points

    def at(tau: float) -> WaveState:
        phased = np.exp(-1j * energies * tau) * start_row
        # two real products: a complex one would first copy vectors to complex
        spectrum[bins] = ungauge * (vectors @ phased.real + 1j * (vectors @ phased.imag))
        return WaveState(grid=grid, psi=np.fft.ifft(spectrum), k0=state.k0)

    if config.snapshot_every and snapshot_callback is not None:
        for j in range(config.snapshot_every, config.n_steps + 1, config.snapshot_every):
            snapshot_callback(j, j * config.d_tau, at(j * config.d_tau))
    return _checked_norm(state, at(config.tau_total))


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

    keep = np.abs(orders) <= max_order
    probs = np.bincount(orders[keep] + max_order, weights=spectrum[keep] / total,
                        minlength=2 * max_order + 1)
    return _pattern(range(-max_order, max_order + 1), probs, "tdse", None)
