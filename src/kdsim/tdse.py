"""Propagation on the standing wave, exact in the order basis or by split-operator (Strang) steps.

Scaled units throughout: position in 1/k_L (potential period pi), energy in
recoil units, time tau in hbar over recoil energy.  A plane wave exp(i k x)
then has kinetic energy k^2 and diffraction orders live at k = k0 + 2p.

The stepped propagator is the symmetric (Strang) splitting
    exp(-i V dtau/2) . F^-1 exp(-i k^2 dtau) F . exp(-i V dtau/2),
second order in dtau.  The physical sign convention exp(-i H t / hbar) is
used; order probabilities are insensitive to conjugating the evolution.

The potential (period pi) couples a box mode only to modes n_periods bins away,
so a state splits exactly into f = gcd(n_points, n_periods) Bloch sectors, each
evolving on a cell of n_points/f points with the same dx, and each sector
further into chains of diffraction orders, the modes of one residue modulo
n_periods.  A pulse of area x = u0 r_eff (sum of envelope weights) d_tau / 2
moves no amplitude beyond _order_reach(x) orders from where it starts, under
the exact evolution and under Strang alike, so every route works on one order
band: the occupied bins (_occupied, the one occupancy rule) +- that reach.

A WaveState holds its spectrum and derives psi on first use.  States stay in
momentum space: a plane wave starts as its one nonzero bin, every route hands
run its band's amplitudes, and order_probabilities bins the spectrum, so a
plane wave's bins off its chain hold exactly 0.  plan_run sizes the steps from
setup.tau, takes the start's order band once and chooses the route that run
executes, the one public way to propagate.  Under a rectangular pulse H is
tridiagonal on each chain, and where the grid holds every chain whole one
stacked eigh evolves the band exactly (route "exact"; Batelaan, Rev. Mod.
Phys. 79, 929 (2007)), for an order-0 plane wave on the parity-even half of
it; otherwise route "stepped" ("thin" without the kinetic term) steps it on
its own cell.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .analytic import DiffractionPattern, _pattern
from .model import (
    DimensionlessSetup, PotentialSpec, _require_finite, _require_integral, evaluate_potential,
)

_NORM_FAIL = 1e-9
_STEP_PHASE_WARN = 0.1
_EMPTY_SECTOR = 1e-20  # unoccupied bins in all; carried, they move orders by <= this
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
        for name in ("n_points", "n_periods"):
            object.__setattr__(self, name, int(_require_integral(name, getattr(self, name))))
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
                f"k0 {k!r} is incommensurate with the box "
                f"(needs integer multiples of {2.0 / self.n_periods})")
        return int(nearest)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class WaveState:
    """A state on grid, held as its spectrum np.fft.fft(psi): a read-only view of
    the array given, never a copy.  psi is derived once, on first use, and is
    read-only too; norm is the spectrum's, by Parseval.  k0 is the carrier the
    orders are counted from.  spectrum and k0 are keyword-only."""

    def __init__(self, grid: Grid1D, *, spectrum, k0: float = 0.0):
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.shape != (grid.n_points,):
            raise ValueError(f"spectrum has shape {spectrum.shape}, grid wants ({grid.n_points},)")
        self.grid, self.k0, self._psi = grid, k0, None
        self.spectrum = _read_only(spectrum.view())

    @property
    def psi(self) -> np.ndarray:
        if self._psi is None:
            self._psi = _read_only(np.fft.ifft(self.spectrum))
        return self._psi

    @property
    def norm(self) -> float:  # by Parseval
        return float(np.vdot(self.spectrum, self.spectrum).real
                     * self.grid.dx / self.grid.n_points)


def init_plane_wave(grid: Grid1D, order_offset: int = 0) -> WaveState:
    """Normalized plane wave sitting exactly on diffraction order order_offset: its
    spectrum, one nonzero bin of exactly n_points / sqrt(L), is exp(i k0 x) / sqrt(L)
    with no rounding of the phase."""
    order_offset = int(_require_integral("order_offset", order_offset))
    if 2 * abs(order_offset) >= grid.n_points / grid.n_periods:
        raise ValueError(f"order_offset {order_offset} aliases: need 2*|order_offset| < "
                         f"n_points/n_periods = {grid.n_points / grid.n_periods:.6g}")
    spectrum = np.zeros(grid.n_points, dtype=complex)
    spectrum[order_offset * grid.n_periods % grid.n_points] = (
        grid.n_points / math.sqrt(grid.box_length))
    return WaveState(grid, k0=2.0 * order_offset, spectrum=spectrum)


def init_gaussian(grid: Grid1D, center: float, sigma: float, k0: float = 0.0) -> WaveState:
    """Normalized Gaussian wavepacket with a commensurate carrier.

    sigma must exceed 3 grid spacings (resolved) and not exceed a sixth of
    the box.  The envelope is wrapped around the periodic box, so the
    momentum spectrum is an exactly sampled Gaussian with no seam at the
    boundary.  k0 must be representable on the momentum grid, i.e. an
    integer multiple of 2/n_periods.  center must be finite and is taken modulo
    the box length.
    """
    center, sigma = float(center), float(sigma)
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    if not math.isfinite(sigma) or sigma <= 3.0 * grid.dx:
        raise ValueError(f"sigma = {sigma!r} too narrow: need > 3 dx = {3.0 * grid.dx:.4g}")
    if sigma > grid.box_length / 6.0 * (1.0 + 1e-12):
        raise ValueError(
            f"sigma = {sigma!r} too wide: need <= box_length/6 = {grid.box_length / 6.0:.4g}")
    k0 = _require_finite("k0", k0)
    grid.mode_index(k0)  # rejects incommensurate carriers
    x = grid.positions()
    length = grid.box_length
    center %= length  # exact, so a center inside the box is kept as is
    envelope = np.zeros(grid.n_points)
    # commensurate k0 makes exp(i k0 n L) = 1, so images share one carrier
    for image in range(-2, 3):
        envelope += np.exp(-((x - center + image * length) ** 2) / (4.0 * sigma**2))
    psi = envelope * np.exp(1j * k0 * x)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WaveState(grid, spectrum=np.fft.fft(psi), k0=k0)


def max_potential(setup: DimensionlessSetup, spec: PotentialSpec) -> float:
    """Bound on |V| in recoil units over the grid."""
    return 0.5 * setup.u0 * (abs(spec.offset) + spec.r_eff)


SnapshotCallback = Callable[[int, float, WaveState], None]


def _half_kicks(v: np.ndarray, plan: RunPlan):
    """exp(-i v w_j d_tau / 2) for each step j; a ramp's come in blocks of _KICK_BLOCK
    entries, one np.exp call each, every row bit-identical to that expression alone."""
    if plan.envelope == "rectangular":
        return itertools.repeat(np.exp(-0.5j * v * plan.d_tau), plan.n_steps)
    exponent = -0.5j * v
    steps = max(1, _KICK_BLOCK // v.size)

    def block(j: int) -> np.ndarray:
        kicks = exponent * plan.weights[j:j + steps, None]
        kicks *= plan.d_tau
        return np.exp(kicks, out=kicks)

    return (half for j in range(0, plan.n_steps, steps) for half in block(j))


def _occupied(power: np.ndarray, n_points: int) -> np.ndarray:
    """Bins holding more than _EMPTY_SECTOR / n_points of the weight in power:
    the others hold at most _EMPTY_SECTOR of it together.  The one occupancy
    rule: plan_run applies it once, and every route reads its mask."""
    return power > _EMPTY_SECTOR / n_points * power.sum()


def _band_columns(occupied: np.ndarray, per_order: int, reach: int) -> np.ndarray:
    """Cell columns of the stepped route's order band, in the FFT order of its cell.

    occupied holds the live sectors' occupied bins, one row each; a column is
    occupied where one of its bins is.  The band runs reach orders
    (per_order columns each) past the occupied columns on both sides, on the
    least power of two m of columns holding it, centred on it, or the whole
    cell.  Column a sits at FFT index a mod m; m divides the cell, so a band
    that wraps the cell's Nyquist column wraps the same way on its own cell.
    """
    cell = occupied.shape[1]
    columns = np.flatnonzero(occupied.any(axis=0))
    if columns.size:
        signed = _signed_modes(columns, cell)
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
    term), and its schedule: n_steps steps of d_tau, which cover setup.tau.  Each
    run writes a copy of the start's read-only spectrum.  weights: the sin2_ramp
    envelope at each step's midpoint (None for a rectangular pulse, 1 throughout).
    even: the exact route evolves the parity-even half of the band (plan_run)."""

    state: WaveState
    spec: PotentialSpec
    setup: DimensionlessSetup
    d_tau: float
    n_steps: int
    envelope: str
    ramp_fraction: float
    snapshot_every: int
    route: str
    occupied: np.ndarray
    weights: np.ndarray | None
    reach: int
    modes: np.ndarray | None
    even: bool


def plan_run(state: WaveState, spec: PotentialSpec, setup: DimensionlessSetup,
             d_tau: float | None = None, max_step_phase: float = 0.05,
             include_kinetic: bool = True, envelope: str = "rectangular",
             ramp_fraction: float = 0.25, snapshot_every: int = 0) -> RunPlan:
    """The run's steps, the start's order band and the route, each taken once.

    The steps cover setup.tau: ceil(tau / d_tau - 1e-9) of tau / n_steps (none
    if tau = 0), d_tau advancing the largest potential phase by max_step_phase
    radians unless given; a sin2_ramp envelope rises and falls over
    ramp_fraction of the pulse, and snapshot_every steps (0: never) separate
    the snapshots.

    occupied marks the start's occupied bins (_occupied), from which every route
    takes its band, reach orders (_order_reach) on each side.  Under a
    rectangular pulse with the kinetic term each residue rho modulo n_periods
    of those bins is a chain, the modes rho + n_periods p for the orders p
    from the lowest occupied - reach to the highest + reach.  The route is
    "exact" when the grid holds
    every chain whole and the eigh stack that _exact diagonalizes holds at most
    _EXACT_MAX_ORDERS^2 entries (an even plan's one block of reach + 1 orders);
    modes then holds one chain a row, and is None on any other route.
    Else the route is "stepped" ("thin" without the kinetic term), which any
    plan can run: its cell wraps a cut chain's reach round.  An exact start of
    the one bin at mode 0 is even: its band and H are symmetric under p <-> -p,
    so the run stays in the parity-even basis of orders 0..reach.  ValueError
    unless u0 is finite, and for a bad step or schedule, whether or not the run
    would use it.
    """
    if not math.isfinite(setup.u0):
        raise ValueError("alpha alone is the ideal grating limit (u0 = inf), and u0 must be "
                         "finite to propagate: give u0 or tau too")
    for name, value in (("d_tau", d_tau), ("max_step_phase", max_step_phase)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if envelope not in ENVELOPES:
        raise ValueError(f"unknown envelope {envelope!r}")
    if envelope == "sin2_ramp" and not 0.0 < ramp_fraction <= 0.5:
        raise ValueError(f"ramp_fraction must be in (0, 0.5], got {ramp_fraction!r}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    tau, n_steps = setup.tau, 0
    if tau > 0.0:
        if d_tau is None:
            vmax = max_potential(setup, spec)
            d_tau = max_step_phase / vmax if vmax > 0.0 else tau
        n_steps = max(1, int(math.ceil(tau / d_tau - 1e-9)))
    d_tau = tau / n_steps if n_steps else 0.0
    n, h = state.grid.n_points, state.grid.n_periods
    occupied = _occupied(np.abs(state.spectrum) ** 2, n)
    total = area = n_steps * d_tau  # area: the field envelope's integral over the pulse
    weights = None  # the envelope at each step's midpoint; a rectangular pulse's is 1
    if envelope == "sin2_ramp":
        mids = (np.arange(n_steps) + 0.5) * d_tau
        weights = np.ones_like(mids)
        ramp = ramp_fraction * total
        rising, falling = mids < ramp, mids > total - ramp
        weights[rising] = np.sin(0.5 * math.pi * mids[rising] / ramp) ** 2
        weights[falling] = np.sin(0.5 * math.pi * (total - mids[falling]) / ramp) ** 2
        area = float(np.sum(weights)) * d_tau
    reach = _order_reach(0.5 * setup.u0 * area * spec.r_eff)
    even, modes = False, None
    if envelope == "rectangular" and include_kinetic and occupied.any():
        live = _signed_modes(np.flatnonzero(occupied), n)
        residues = np.flatnonzero(np.bincount(live % h, minlength=h))
        low = int(live.min()) // h - reach  # mode rho + h p is order p of chain rho
        high = int(live.max()) // h + reach
        even = live.tolist() == [0]
        size = reach + 1 if even else high - low + 1   # orders per chain that _exact diagonalizes
        # uncut: the lowest residue's lowest mode and the highest's highest are on the grid
        if (residues[0] + h * low >= -(n // 2) and residues[-1] + h * high < n // 2
                and residues.size * size ** 2 <= _EXACT_MAX_ORDERS ** 2):
            modes = residues[:, None] + h * np.arange(low, high + 1)
        else:
            even = False
    route = "exact" if modes is not None else "stepped" if include_kinetic else "thin"
    return RunPlan(state, spec, setup, d_tau, n_steps, envelope, ramp_fraction, snapshot_every,
                   route, occupied, weights, reach, modes, even)


def run(plan: RunPlan, snapshot_callback: SnapshotCallback | None = None) -> WaveState:
    """Evolve plan.state on plan.route into a new WaveState, alike every time.

    The route (_exact or _stepped) returns its band's bins and their amplitudes,
    one array per snapshot step and one at the end, each written into a copy
    of the start's spectrum: the bins off the band, all unoccupied and so
    together <= _EMPTY_SECTOR of the weight, are carried unchanged, so they
    move no order probability by more than that, nor psi by more than its
    square root in amplitude.  "stepped" takes plan.n_steps Strang steps and
    warns (UserWarning) when the phase per step max_potential * d_tau exceeds
    _STEP_PHASE_WARN; "thin" applies the pulse area as one exact phase and
    "exact" takes no step, so neither warns.
    snapshot_callback(step, tau, state) runs every plan.snapshot_every steps
    (never if 0), at tau = step * d_tau on every route.  RuntimeError if the
    norm drifts by more than _NORM_FAIL."""
    state = plan.state
    every = plan.snapshot_every if snapshot_callback is not None else 0
    snapshots = range(every, plan.n_steps + 1, every) if every else range(0)
    bins, amplitudes = (_exact if plan.route == "exact" else _stepped)(plan, snapshots)

    def on_box(band: np.ndarray) -> WaveState:
        spectrum = state.spectrum.copy()
        spectrum[bins] = band
        return WaveState(state.grid, k0=state.k0, spectrum=spectrum)

    for j, band in zip(snapshots, amplitudes):  # snapshots first: zip leaves the last array
        snapshot_callback(j, j * plan.d_tau, on_box(band))
    return _checked_norm(state, on_box(next(amplitudes)))


def _stepped(plan: RunPlan, snapshots: range) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Routes "stepped" and "thin": the sectors holding an occupied bin
    (plan.occupied) as rows on the band's cell (_band_columns), each kinetic
    step one matmul with the circulant ifft(exp(-i k^2 d_tau))[(i - j) mod m]
    while sectors * m^2 <= _DENSE_KINETIC, else an FFT pair; without the
    kinetic term the potentials commute, so the pulse area is one exact phase.
    The band's bins, one row per sector, and their amplitudes (run)."""
    d_tau, grid = plan.d_tau, plan.state.grid
    phase = max_potential(plan.setup, plan.spec) * d_tau
    if plan.route == "stepped" and phase > _STEP_PHASE_WARN:
        warnings.warn(f"potential phase per step = {phase:.3g} rad exceeds "
                      f"{_STEP_PHASE_WARN}; reduce d_tau", stacklevel=3)

    fold = math.gcd(grid.n_points, grid.n_periods)
    cell = grid.n_points // fold
    occupied = plan.occupied.reshape(cell, fold).T  # row s: sector s, FFT bins a*fold + s
    live = np.flatnonzero(occupied.any(axis=1))  # the others are carried
    cols = _band_columns(occupied[live], grid.n_periods // fold, plan.reach)
    bins = cols * fold + live[:, None]  # [i, a]: sector live[i]'s bin in column cols[a]
    phi = np.fft.ifft(plan.state.spectrum[bins])  # one row per stepped sector, on the band's cell
    m = cols.size
    # the potential on the band's cell: every (cell // m)-th point of the whole cell
    v = 0.5 * plan.setup.u0 * evaluate_potential(plan.spec, grid.positions()[:cell:cell // m])

    if plan.route == "thin":
        steps = np.full(plan.n_steps, d_tau) if plan.weights is None else plan.weights * d_tau
        area = np.cumsum(np.append(0.0, steps))  # area[j]: after j steps
        return bins, (np.fft.fft(np.exp(-1j * v * area[j]) * phi)
                      for j in (*snapshots, plan.n_steps))

    exp_kin = np.exp(-1j * grid.wavenumbers()[bins] ** 2 * d_tau).reshape(live.size, 1, m)
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

    def amplitudes(phi):
        for j, half in enumerate(_half_kicks(v, plan), 1):
            phi *= half
            phi = kinetic(phi)
            phi *= half
            if j in snapshots:
                yield np.fft.fft(phi.reshape(live.size, m))
        yield np.fft.fft(phi.reshape(live.size, m))

    return bins, amplitudes(phi)


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


def _exact(plan: RunPlan, snapshots: range) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Route "exact".  On a chain of modes (plan_run) order p, wavenumber k_p,
    couples only to p +- 1: H[p, p] = k_p^2 + u0 offset/2, H[p+1, p] =
    u0 (a_c - i a_s)/4.  The gauge c_p = exp(-i p theta) b_p, theta =
    atan2(a_s, a_c), makes H real symmetric, so one eigh stacked over the chains
    gives the amplitudes at every time.  Each chain starts from its occupied
    bins in units of its heaviest.  An even plan evolves orders 0..reach in
    the parity-even basis, its coupling between orders 0 and 1 sqrt(2) times
    H[1, 0]: one block of (reach + 1)^2 entries instead of (2 reach + 1)^2,
    equal to the whole band's evolution to 1e-13.  The band's bins and their
    amplitudes (run); plan.d_tau only schedules the snapshots."""
    state, spec, d_tau, modes = plan.state, plan.spec, plan.d_tau, plan.modes
    if plan.even:  # orders 0..reach: e_0 = |0>, e_q = (|q> + |-q>) / sqrt 2
        modes = modes[:, modes.shape[1] // 2:]
    grid = state.grid
    chains, size, h, u0 = *modes.shape, grid.n_periods, plan.setup.u0
    ham = np.zeros((chains, size * size))  # row c: chain c's matrix, flattened
    ham[:, ::size + 1] = (2.0 * modes / h) ** 2 + 0.5 * u0 * spec.offset
    coupling = np.full((chains, size - 1), 0.25 * u0 * spec.r_eff)
    if plan.even:
        coupling[:, :1] *= math.sqrt(2.0)  # e_0 to e_1
    ham[:, 1::size + 1] = ham[:, size::size + 1] = coupling
    energies, vectors = np.linalg.eigh(ham.reshape(chains, size, size))

    bins = modes % grid.n_points
    amps = np.where(plan.occupied[bins], state.spectrum[bins], 0.0)
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
    else:  # the chains' bins, row by row, as the evolved vectors stack them
        band, pick = bins.ravel(), slice(None)
        ungauge = (unit[:, None] * np.exp(-1j * theta * orders)).ravel()

    def amplitudes():
        for j in (*snapshots, plan.n_steps):
            phased = np.exp(-1j * energies * (j * d_tau)) * coef
            # two real products: a complex one would first copy vectors to complex
            evolved = (np.matmul(vectors, phased.real[..., None])
                       + 1j * np.matmul(vectors, phased.imag[..., None]))
            yield ungauge * evolved.ravel()[pick]

    return band, amplitudes()


def _signed_modes(bins: np.ndarray, n: int) -> np.ndarray:
    """Signed mode index, in [-n/2, n/2), of each of the given bins of an n-point FFT."""
    return np.where(bins < n - n // 2, bins, bins - n)


def order_probabilities(state: WaveState, max_order: int | None = None) -> DiffractionPattern:
    """Bin the momentum spectrum into diffraction orders about the carrier k0 = state.k0.

    Order p collects the half-open momentum window [k0 + 2p - 1, k0 + 2p + 1);
    a wavepacket's sub-modes inside a window aggregate into that order.  The
    binning is done in exact integer grid units, so window edges are assigned
    deterministically.
    """
    grid = state.grid
    k0_units = grid.mode_index(state.k0)
    spectrum = np.abs(state.spectrum) ** 2
    total = float(spectrum.sum())
    if total <= 0.0:
        raise ValueError("state has zero norm")

    n, h = grid.n_points, grid.n_periods
    max_order = (n // (2 * h) - 1 if max_order is None
                 else int(_require_integral("max_order", max_order)))
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")

    held = np.flatnonzero(spectrum)   # empty bins add nothing to any order
    rel = _signed_modes(held, n) - k0_units
    orders = (2 * rel + h) // (2 * h)  # floor((rel + h/2) / h) in exact ints
    keep = np.abs(orders) <= max_order
    probs = np.bincount(orders[keep] + max_order, weights=spectrum[held[keep]] / total,
                        minlength=2 * max_order + 1)
    return _pattern(np.arange(-max_order, max_order + 1), probs, "tdse", None)
