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
evolving on a cell of n_points/f points with the same dx, and each sector
further into chains of diffraction orders, the modes of one residue modulo
n_periods.  A pulse of area x = u0 r_eff (sum of envelope weights) d_tau / 2
moves no amplitude beyond _order_reach(x) orders from where it starts, under
the exact evolution and under Strang alike, so both routes work on one order
band: the occupied columns +- that reach.

A WaveState holds psi or its spectrum and derives the other on first use.
States stay in momentum space: a plane wave starts as its one nonzero bin, both
routes return spectra, and order_probabilities bins the spectrum, so a plane
wave's bins off its chain hold exactly 0.  plan_run takes the start's spectrum
and order band once and chooses the route that run executes.  Under a
rectangular pulse H is tridiagonal on each chain, and one stacked eigh evolves
the band exactly (propagate_exact; Batelaan, Rev. Mod. Phys. 79, 929 (2007)),
for an order-0 plane wave on the parity-even half of it; otherwise propagate
steps it on its own cell.
"""
from __future__ import annotations

import itertools
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
_REACH_TOL = 1e-16  # amplitude left beyond the order band
_EXACT_MAX_ORDERS = 1025  # orders^2 in the exact route's eigh stack (one of 1025: ~0.1 s)
_DENSE_KINETIC = 1 << 15  # sectors * m^2 up to which one matmul beats an FFT pair
_KICK_BLOCK = 1 << 14  # ramp half-kick entries (steps * points) built per np.exp call
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class WaveState:
    """A state on grid, held as psi or as its spectrum np.fft.fft(psi).

    The other array is derived once, on first use, and is read-only; the held
    one is the array given.  k0 is the carrier the orders are counted from.
    """

    def __init__(self, grid: Grid1D, psi=None, k0: float = 0.0, *, spectrum=None):
        if (psi is None) == (spectrum is None):
            raise ValueError("give exactly one of psi and spectrum")
        held = np.asarray(psi if spectrum is None else spectrum, dtype=complex)
        if held.shape != (grid.n_points,):
            raise ValueError(f"{'psi' if spectrum is None else 'spectrum'} has shape "
                             f"{held.shape}, grid wants ({grid.n_points},)")
        self.grid, self.k0 = grid, k0
        self._psi, self._spectrum = (held, None) if spectrum is None else (None, held)

    @property
    def psi(self) -> np.ndarray:
        if self._psi is None:
            self._psi = _read_only(np.fft.ifft(self._spectrum))
        return self._psi

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _read_only(np.fft.fft(self._psi))
        return self._spectrum

    @property
    def norm(self) -> float:
        if self._spectrum is not None:  # Parseval
            return float(np.vdot(self._spectrum, self._spectrum).real
                         * self.grid.dx / self.grid.n_points)
        return float(np.vdot(self._psi, self._psi).real * self.grid.dx)


def init_plane_wave(grid: Grid1D, order_offset: int = 0) -> WaveState:
    """Normalized plane wave sitting exactly on diffraction order order_offset: its
    spectrum, one nonzero bin, exp(i k0 x) / sqrt(L) with no rounding of the phase."""
    if order_offset != int(order_offset):
        raise ValueError(f"order_offset must be an integer, got {order_offset!r}")
    if 2 * abs(int(order_offset)) >= grid.n_points / grid.n_periods:
        raise ValueError(f"order_offset {order_offset} aliases: need 2*|order_offset| < "
                         f"n_points/n_periods = {grid.n_points / grid.n_periods:.6g}")
    spectrum = np.zeros(grid.n_points, dtype=complex)
    spectrum[int(order_offset) * grid.n_periods % grid.n_points] = (
        grid.n_points / math.sqrt(grid.box_length))
    return WaveState(grid, k0=2.0 * int(order_offset), spectrum=spectrum)


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
    rising, falling = mids < ramp, mids > total - ramp
    w[rising] = np.sin(0.5 * math.pi * mids[rising] / ramp) ** 2
    w[falling] = np.sin(0.5 * math.pi * (total - mids[falling]) / ramp) ** 2
    return w


SnapshotCallback = Callable[[int, float, WaveState], None]


def _half_kicks(v: np.ndarray, config: PropagationConfig, weights: np.ndarray):
    """exp(-i v w_j d_tau / 2) for each step j; a ramp's come in blocks of _KICK_BLOCK
    entries, one np.exp call each, every row bit-identical to that expression alone."""
    if config.envelope == "rectangular":
        return itertools.repeat(np.exp(-0.5j * v * config.d_tau), config.n_steps)
    exponent = -0.5j * v
    steps = max(1, _KICK_BLOCK // v.size)

    def block(j: int) -> np.ndarray:
        kicks = exponent * weights[j:j + steps, None]
        kicks *= config.d_tau
        return np.exp(kicks, out=kicks)

    return (half for j in range(0, config.n_steps, steps) for half in block(j))


def _occupied(power: np.ndarray, n_points: int) -> np.ndarray:
    """Bins holding more than _EMPTY_SECTOR / n_points of the weight in power:
    the others hold at most _EMPTY_SECTOR of it together."""
    return power > _EMPTY_SECTOR / n_points * power.sum()


def _band_columns(power: np.ndarray, n_points: int, per_order: int, reach: int) -> np.ndarray:
    """Cell columns of propagate's order band, in the FFT order of the band's cell.

    power holds the live sectors' bin weights, one row each; a column is
    occupied where one of its bins is (_occupied).  The band runs reach orders
    (per_order columns each) past the occupied columns on both sides, on the
    least power of two m of columns holding it, centred on it, or the whole
    cell.  Column a sits at FFT index a mod m; m divides the cell, so a band
    that wraps the cell's Nyquist column wraps the same way on its own cell.
    """
    cell = power.shape[1]
    occupied = np.flatnonzero(_occupied(power, n_points).any(axis=0))
    if occupied.size:
        signed = np.where(occupied < cell // 2, occupied, occupied - cell)
        low = int(signed.min()) - per_order * reach
        width = int(signed.max()) + per_order * reach + 1 - low
        if width < cell:
            m = 1 << (width - 1).bit_length()
            low -= (m - width) // 2
            return (low + (np.arange(m) - low) % m) % cell
    return np.arange(cell)


@dataclass(frozen=True)
class RunPlan:
    """A run, its route chosen by plan_run ("exact", "stepped" or "thin": no kinetic
    term).  spectrum, the start's, is read-only: each run writes a copy.  even: the
    exact route evolves the parity-even half of the band (plan_run)."""

    state: WaveState
    spec: PotentialSpec
    setup: DimensionlessSetup
    config: PropagationConfig
    route: str
    spectrum: np.ndarray
    power: np.ndarray
    occupied: np.ndarray
    weights: np.ndarray
    reach: int
    modes: np.ndarray | None
    valid: np.ndarray | None
    even: bool


def plan_run(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
             config: PropagationConfig) -> RunPlan:
    """The start's spectrum, its order band and the route, each taken once.

    Under a rectangular pulse with the kinetic term each residue rho modulo
    n_periods of the occupied bins (_occupied) is a chain, the modes
    rho + n_periods p for the orders p from the lowest occupied - reach to the
    highest + reach (_order_reach), cut at the Nyquist bin; modes holds one a
    row, padded to the longest, valid the unpadded.  The run is exact unless a
    chain is cut (propagate's cell wraps its reach round) or the eigh stack
    holds over _EXACT_MAX_ORDERS^2 entries.  An exact start of the one bin at
    mode 0 is even: its band and H are symmetric under p <-> -p, so the run
    stays in the parity-even basis of orders 0..reach.  ValueError unless u0
    is finite.
    """
    if not math.isfinite(setup.u0):
        raise ValueError("propagation needs a finite u0 (not the ideal grating limit)")
    n, h = state.grid.n_points, state.grid.n_periods
    spectrum = _read_only(state.spectrum.view())
    power = np.abs(spectrum) ** 2
    occupied = _occupied(power, n)
    weights = _envelope_weights(config)
    reach = _order_reach(0.5 * setup.u0 * (float(np.sum(weights)) * config.d_tau)
                         * math.hypot(spec.a_c, spec.a_s)) if config.include_kinetic else 0
    exact, even, modes, valid = False, False, None, None
    if config.envelope == "rectangular" and config.include_kinetic and occupied.any():
        live = _signed_modes(np.flatnonzero(occupied), n)
        residues = np.flatnonzero(np.bincount(live % h, minlength=h))
        low, high = live.min() // h - reach, live.max() // h + reach  # rho + h p: order p
        first = np.maximum(low, -((n // 2 + residues) // h))
        last = np.minimum(high, (n // 2 - 1 - residues) // h)
        orders = first[:, None] + np.arange(np.max(last - first) + 1)
        modes, valid = residues[:, None] + h * orders, orders <= last[:, None]
        exact = bool(first[0] == low and last[-1] == high  # limits fall as rho rises
                     and modes.size * modes.shape[1] <= _EXACT_MAX_ORDERS ** 2)
        even = exact and live.tolist() == [0]
    route = "exact" if exact else "stepped" if config.include_kinetic else "thin"
    return RunPlan(state, spec, setup, config, route, spectrum, power, occupied, weights,
                   reach, modes, valid, even)


def run(plan: RunPlan, snapshot_callback: SnapshotCallback | None = None) -> WaveState:
    """Execute a plan on its route, snapshots as in propagate; it runs alike every time."""
    return (_exact if plan.route == "exact" else _stepped)(plan, snapshot_callback)


def propagate(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
              config: PropagationConfig,
              snapshot_callback: SnapshotCallback | None = None) -> WaveState:
    """Evolve a state through the standing wave; returns a new WaveState.

    The occupied Bloch sectors (module docstring) are stepped together; the
    rest (<= _EMPTY_SECTOR of the weight) are carried, moving psi by
    <= sqrt(_EMPTY_SECTOR) in amplitude.  With include_kinetic the Strang
    splitting above is applied n_steps times on the order band's own cell
    (_band_columns); the columns beyond the band, each under
    _EMPTY_SECTOR / n_points of the weight, are carried too.  The kinetic step
    is one matmul with the circulant ifft(exp(-i k^2 d_tau))[(i - j) mod m] while
    sectors * m^2 <= _DENSE_KINETIC, an FFT pair beyond.  Without the kinetic
    term the potential factors commute, so the integrated phase is accumulated
    and applied in one exponential: the exact thin-grating map for the
    configured envelope.

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
    return _stepped(plan_run(state, spec, setup, config), snapshot_callback)


def _stepped(plan: RunPlan, snapshot_callback: SnapshotCallback | None) -> WaveState:
    """propagate's steps (or its one phase without the kinetic term) on a plan."""
    state, config, weights, grid = plan.state, plan.config, plan.weights, plan.state.grid
    fold = math.gcd(grid.n_points, grid.n_periods)
    cell = grid.n_points // fold
    v_cell = 0.5 * plan.setup.u0 * evaluate_potential(plan.spec, grid.positions()[:cell])
    vmax = float(np.max(np.abs(v_cell)))
    if config.n_steps > 0 and vmax * config.d_tau > _STEP_PHASE_WARN:
        warnings.warn(f"potential phase per step = {vmax * config.d_tau:.3g} rad exceeds "
                      f"{_STEP_PHASE_WARN}; reduce d_tau", stacklevel=3)

    sectors = plan.spectrum.reshape(cell, fold).T  # row s: sector s, FFT bins a*fold + s
    power = plan.power.reshape(cell, fold).T
    sector_power = np.sum(power, axis=1)
    # carried sectors: <= _EMPTY_SECTOR in all
    live = np.flatnonzero(sector_power > _EMPTY_SECTOR / fold * sector_power.sum())
    cols = np.arange(cell)
    if config.include_kinetic:
        cols = _band_columns(power[live], grid.n_points, grid.n_periods // fold, plan.reach)
    band = np.ix_(live, cols)
    phi = np.fft.ifft(sectors[band])  # one row per stepped sector, on the band's cell
    m = cols.size
    v = v_cell[::cell // m]  # the potential on the band's cell, exactly

    def on_box(phi: np.ndarray) -> WaveState:
        # the band into a copy of the start's spectrum; carried bins stay as they were
        spectrum = plan.spectrum.copy()
        spectrum.reshape(cell, fold).T[band] = np.fft.fft(phi.reshape(live.size, m))
        return WaveState(grid, k0=state.k0, spectrum=spectrum)

    every = config.snapshot_every
    if not config.include_kinetic:
        area = np.cumsum(np.append(0.0, weights * config.d_tau))  # area[j]: after j steps
        if every and snapshot_callback is not None:
            for j in range(every, config.n_steps + 1, every):
                snapshot_callback(j, j * config.d_tau, on_box(np.exp(-1j * v * area[j]) * phi))
        out = on_box(np.exp(-1j * v * area[-1]) * phi)
    else:
        k = grid.wavenumbers().reshape(cell, fold).T[band]
        exp_kin = np.exp(-1j * k ** 2 * config.d_tau).reshape(live.size, 1, m)
        phi = phi.reshape(live.size, 1, m)  # contiguous rows: a stacked matmul runs on BLAS
        if live.size * m * m <= _DENSE_KINETIC:
            shift = np.arange(m)
            # [j, i] = ifft(exp_kin)[(i - j) mod m]: the circulant, transposed for
            # rows; np.take writes it C-ordered, as BLAS wants it
            circulant = np.take(np.fft.ifft(exp_kin[:, 0]), (shift - shift[:, None]) % m, axis=1)

            def kinetic(phi):
                return np.matmul(phi, circulant)
        else:
            def kinetic(phi):
                return np.fft.ifft(exp_kin * np.fft.fft(phi))

        for j, half in enumerate(_half_kicks(v, config, weights), 1):
            phi *= half
            phi = kinetic(phi)
            phi *= half
            if every and j % every == 0 and snapshot_callback is not None:
                snapshot_callback(j, j * config.d_tau, on_box(phi))
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


def propagate_exact(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
                    config: PropagationConfig,
                    snapshot_callback: SnapshotCallback | None = None) -> WaveState:
    """propagate's result under a rectangular pulse, without steps.

    On a chain of modes (plan_run) order p, wavenumber k_p, couples only to
    p +- 1: H[p, p] = k_p^2 + u0 offset/2 and H[p+1, p] = u0 (a_c - i a_s)/4.
    The gauge c_p = exp(-i p theta) b_p, theta = atan2(a_s, a_c), makes H real
    symmetric with coupling u0 r_eff/4, so one eigh stacked over the chains
    gives the amplitudes at every time (for an order-0 plane wave, one eigh of
    the parity-even half; plan_run).  Each chain's start vector holds its
    occupied bins in units of its heaviest one.  The other bins, <=
    _EMPTY_SECTOR of the weight, are left out: those inside the band are
    overwritten, the rest carried unchanged.

    Takes the same arguments as propagate (ValueError unless the pulse is
    rectangular with the kinetic term and some bin is occupied).  config.d_tau
    only schedules the snapshots, taken at the steps propagate would take
    them.  Raises RuntimeError if the final norm drifts from 1 by more than 1e-9.
    """
    plan = plan_run(state, spec, setup, config)
    if plan.modes is None:
        raise ValueError("the exact route needs a rectangular envelope, include_kinetic "
                         "and a start of finite, nonzero weight")
    return _exact(plan, snapshot_callback)


def _exact(plan: RunPlan, snapshot_callback: SnapshotCallback | None) -> WaveState:
    """propagate_exact's order-basis evolution of a plan with an order band."""
    state, spec, config, modes, valid = plan.state, plan.spec, plan.config, plan.modes, plan.valid
    if plan.even:  # orders 0..reach: e_0 = |0>, e_q = (|q> + |-q>) / sqrt 2
        modes, valid = modes[:, modes.shape[1] // 2:], valid[:, valid.shape[1] // 2:]
    grid = state.grid
    chains, size, h, u0 = *modes.shape, grid.n_periods, plan.setup.u0
    ham = np.zeros((chains, size * size))  # row c: chain c's matrix, flattened
    # padding rows are decoupled and start empty, so they stay empty
    ham[:, ::size + 1] = np.where(valid, (2.0 * modes / h) ** 2 + 0.5 * u0 * spec.offset, 0.0)
    coupling = np.where(valid[:, 1:], 0.25 * u0 * math.hypot(spec.a_c, spec.a_s), 0.0)
    if plan.even:
        coupling[:, :1] *= math.sqrt(2.0)  # e_0 to e_1
    ham[:, 1::size + 1] = ham[:, size::size + 1] = coupling
    energies, vectors = np.linalg.eigh(ham.reshape(chains, size, size))

    bins = modes % grid.n_points
    amps = np.where(valid & plan.occupied[bins], plan.spectrum[bins], 0.0)
    rows = np.arange(chains)
    heaviest = np.argmax(np.abs(amps), axis=1)
    unit = amps[rows, heaviest]
    orders = np.arange(size) - heaviest[:, None]  # about the heaviest bin
    theta = math.atan2(spec.a_s, spec.a_c)
    start = amps * np.exp(1j * theta * orders) / unit[:, None]
    start[rows, heaviest] = 1.0  # unit / unit, exactly
    coef = (np.matmul(start.real[:, None], vectors)
            + 1j * np.matmul(start.imag[:, None], vectors))[:, 0]  # vectors^T start
    # bin band[i] gets entry pick[i] of the evolved vectors times ungauge[i]: the
    # start amplitude and gauge phase, and for +-q of the even basis 1 / sqrt 2
    if plan.even:
        q = orders[0, 1:]
        pick = np.concatenate(([0], q, q))
        band = np.concatenate((modes[0], -modes[0, 1:])) % grid.n_points
        half = np.exp(-1j * theta * q) / math.sqrt(2.0)
        ungauge = unit[0] * np.concatenate(([1.0], half, half.conj()))
    else:
        pick = np.flatnonzero(valid)
        band = bins.ravel()[pick]
        ungauge = (unit[:, None] * np.exp(-1j * theta * orders)).ravel()[pick]

    def at(tau: float) -> WaveState:
        phased = np.exp(-1j * energies * tau) * coef
        # two real products: a complex one would first copy vectors to complex
        evolved = (np.matmul(vectors, phased.real[..., None])
                   + 1j * np.matmul(vectors, phased.imag[..., None]))
        spectrum = plan.spectrum.copy()
        spectrum[band] = ungauge * evolved.ravel()[pick]
        return WaveState(grid, k0=state.k0, spectrum=spectrum)

    if config.snapshot_every and snapshot_callback is not None:
        for j in range(config.snapshot_every, config.n_steps + 1, config.snapshot_every):
            snapshot_callback(j, j * config.d_tau, at(j * config.d_tau))
    return _checked_norm(state, at(config.tau_total))


def _signed_modes(bins: np.ndarray, n: int) -> np.ndarray:
    """Signed mode index, in [-n/2, n/2), of each of the given bins of an n-point FFT."""
    return np.where(bins < n - n // 2, bins, bins - n)


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
    spectrum = np.abs(state.spectrum) ** 2
    total = float(spectrum.sum())
    if total <= 0.0:
        raise ValueError("state has zero norm")

    n, h = grid.n_points, grid.n_periods
    rel = _signed_modes(np.arange(n), n) - k0_units
    orders = (2 * rel + h) // (2 * h)  # floor((rel + h/2) / h) in exact ints

    max_order = n // (2 * h) - 1 if max_order is None else int(max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")

    keep = np.abs(orders) <= max_order
    probs = np.bincount(orders[keep] + max_order, weights=spectrum[keep] / total,
                        minlength=2 * max_order + 1)
    return _pattern(range(-max_order, max_order + 1), probs, "tdse", None)
