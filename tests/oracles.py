"""Independent reference computations used to pin expected test values.

Deliberately avoids the package's own algorithms: Bessel values come from
the defining power series evaluated in extended precision, and the band
radius maximum from a dense brute-force grid.  Where the package replaced an
element-by-element loop with a numpy primitive, the loop is kept here as the
reference: it adds in the same order, so results must be equal bit for bit.
Miller's recurrence stepped on a numpy array, one argument at a time,
pins both of the package's Bessel kernels bit for bit; the same recurrence
from the sum rule's start (sum_rule_start) and in extended precision
(miller_exact) holds the package's start rule against mpmath's own Bessel
values.
Split-step propagation is redone on the full box, without the package's
split into Bloch sectors, and on every live sector's whole cell, without its
order band (the stepped route's former loop); stepped_sectors shows which
sectors and band points a run steps.  The exact order-basis route is checked
against a dense diagonalization of every live sector's whole cell.
run_stepped runs tdse on the stepped route whichever route plan_run chose, and
run_exact runs an exact plan on the exact route, so the two routes can be held
against each other.  They and the three propagators take a tdse.RunPlan and
read its state, spec, setup and step schedule.
bessel_j, pattern_distance, pointlike_pattern and the double Bessel sum over
the two quadratures (distribution_pattern), once exported by the package, are
used only by tests.
compensated_sum adds floats as builtin sum() does from CPython 3.12 on, with
Neumaier's compensation; patched in for builtins.sum on any interpreter, it
shows whether a result depends on how sum() adds floats.
"""
from __future__ import annotations

import builtins
import dataclasses
import math
import warnings
from functools import lru_cache
from unittest import mock

import mpmath as mp
import numpy as np

from kdsim.analytic import DiffractionPattern, _pattern, closed_form_pattern, default_order_cutoff
from kdsim.bessel import _RESCALE, _TINY_X, _start_orders, bessel_values
from kdsim import tdse
from kdsim.model import MomentSet, _require_finite, build_potential, evaluate_potential
from kdsim.tdse import (
    _EMPTY_SECTOR, _STEP_PHASE_WARN, WaveState, _checked_norm,
)

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**n cycle


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
    return sign * bessel_values(n, x)[n]


def pattern_distance(first: DiffractionPattern, second: DiffractionPattern) -> tuple[float, float]:
    """(max absolute difference, total variation) over the shared orders."""
    common = sorted(set(first.probabilities) & set(second.probabilities))
    if not common:
        raise ValueError("patterns share no diffraction orders")
    diffs = [abs(first.probabilities[p] - second.probabilities[p]) for p in common]
    return max(diffs), 0.5 * sum(diffs)


def pointlike_pattern(alpha: float, order_cutoff: int | None = None) -> DiffractionPattern:
    """Pattern of a structureless charge: P_n = J_n(alpha)^2."""
    return closed_form_pattern(alpha, MomentSet(), order_cutoff)


_BUILTIN_SUM = builtins.sum


def compensated_sum(items, start=0):
    """sum() as CPython >= 3.12 adds floats: Neumaier's compensated sum (ZAMM 54, 39 (1974)).

    Items that are not all floats, or a start that is not an int, go to the
    interpreter's own builtin sum().
    """
    items = list(items)
    if not (items and type(start) is int and all(type(x) is float for x in items)):
        return _BUILTIN_SUM(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def _signed_orders(row_values: np.ndarray, p_max: int) -> np.ndarray:
    """J_n for n = -p_max..p_max from the nonnegative row via parity."""
    out = np.empty(2 * p_max + 1)
    out[p_max:] = row_values[:p_max + 1]
    signs = np.where(np.arange(1, p_max + 1) % 2 == 1, -1.0, 1.0)
    out[:p_max][::-1] = row_values[1:p_max + 1] * signs
    return out


def distribution_coefficients(alpha: float, moments: MomentSet,
                              order_cutoff: int | None = None):
    """Complex order amplitudes c_p for a dipole/quadrupole charge.

    The cos quadrature carries amplitude A = alpha (1 - 2 q~) and expands
    with an i^n twist per order; the sin quadrature carries B = -2 alpha d~
    and expands without it.  The product of the two expansions is a discrete
    convolution over order indices.

    Returns (orders, coefficients) with orders -cut..cut.
    """
    alpha = _require_finite("alpha", alpha, nonneg=True)
    if moments.max_order > 2:
        raise ValueError(
            "distribution_coefficients handles dipole + quadrupole only; "
            "use closed_form_pattern for higher moment orders")
    a_amp = alpha * (1.0 - 2.0 * moments.quadrupole)
    b_amp = -2.0 * alpha * moments.dipole
    p_a = int(math.ceil(abs(a_amp))) + 30
    p_b = int(math.ceil(abs(b_amp))) + 30
    ja = _signed_orders(np.array(bessel_values(p_a, a_amp)), p_a)
    jb = _signed_orders(np.array(bessel_values(p_b, b_amp)), p_b)
    twists = np.array([_I_POW[n % 4] for n in range(-p_a, p_a + 1)])
    conv = np.convolve(twists * ja, jb.astype(complex))
    span = p_a + p_b  # conv covers orders -span..span

    if order_cutoff is None:
        cut = default_order_cutoff(alpha, build_potential(moments).r_eff)
    else:
        cut = int(order_cutoff)
        if cut < 0:
            raise ValueError(f"order_cutoff must be >= 0, got {cut}")
    coeffs = np.zeros(2 * cut + 1, dtype=complex)
    lo = max(-cut, -span)
    hi = min(cut, span)
    coeffs[lo + cut:hi + cut + 1] = conv[lo + span:hi + span + 1]
    return np.arange(-cut, cut + 1), coeffs


def distribution_pattern(alpha: float, moments: MomentSet,
                         order_cutoff: int | None = None) -> DiffractionPattern:
    """Pattern from the explicit double Bessel sum (dipole + quadrupole)."""
    orders, coeffs = distribution_coefficients(alpha, moments, order_cutoff)
    probs = np.abs(coeffs) ** 2
    return _pattern(orders, probs, "distribution", alpha)


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


def sum_rule_start(order_max: int, x: float) -> int:
    """The sum rule for the recurrence start, order_max plus the argument's share
    max(x, 20) + 30 (plus (x - 50) / 3 above 50), rounded up to even: the
    reference start, which the package's start may not fall behind in
    accuracy."""
    start = order_max + math.ceil(max(x, 20.0)) + 30 + max(math.ceil((x - 50.0) / 3.0), 0)
    return start + start % 2


def _recurrence_numpy(x: float, start: int) -> np.ndarray:
    """Miller's recurrence from start at one x > 0 on a numpy array, unnormalized."""
    v = np.zeros(start + 2)
    v[start] = 1e-30  # arbitrary seed, scaled out by the normalization
    for k in range(start, 0, -1):
        v[k - 1] = (2.0 * k / x) * v[k] - v[k + 1]
        if abs(v[k - 1]) > _RESCALE:
            v[k - 1:] /= _RESCALE
    return v


def raw_row_numpy(order_max: int, x: float) -> np.ndarray:
    """J_0..J_order_max at one x > 0 by Miller's recurrence on a numpy array, its
    even terms summed one by one downward."""
    start = int(_start_orders(order_max, x))
    v = _recurrence_numpy(x, start)
    even = np.float64(0.0)
    for k in range(start, 1, -2):
        even += v[k]
    return v[:order_max + 1] / (v[0] + 2.0 * even)


def sum_rule_row(order_max: int, x: float, start: int | None = None) -> np.ndarray:
    """J_0..J_order_max at one x > 0 from start (by default the reference start,
    sum_rule_start), the even terms summed by numpy's pairwise sum."""
    if start is None:
        start = sum_rule_start(order_max, x)
    v = _recurrence_numpy(x, start)
    return v[:order_max + 1] / (v[0] + 2.0 * v[2:start + 1:2].sum())


def miller_exact(order_max: int, x: float, start: int, dps: int = 40) -> list:
    """Miller's recurrence from start in dps-digit arithmetic: J_0..J_order_max off
    by the seed's share only, as mpmath numbers."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        v = [mp.mpf(0)] * (start + 2)
        v[start] = mp.mpf(1)
        for k in range(start, 0, -1):
            v[k - 1] = 2 * k / xm * v[k] - v[k + 1]
        norm = v[0] + 2 * mp.fsum(v[2:start + 1:2])
        return [vk / norm for vk in v[:order_max + 1]]


@lru_cache(maxsize=None)
def bessel_reference(order_max: int, x: float, dps: int = 30) -> tuple[list, list]:
    """mpmath's J_0(x)..J_order_max(x) and the scale of each value's error: |J_n|
    above the turning point n = x, where J_n decays, and below it the Bessel
    modulus sqrt(J_n^2 + Y_n^2), the size of the oscillation that J_n may cross
    zero on (Y_n by its upward recurrence, stable for Y)."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        js = [mp.besselj(n, xm) for n in range(order_max + 1)]
        ys = [mp.bessely(0, xm), mp.bessely(1, xm)]
        for n in range(1, order_max):
            ys.append(2 * n / xm * ys[n] - ys[n - 1])
        scales = [abs(j) if n >= x else mp.sqrt(j * j + y * y)
                  for n, (j, y) in enumerate(zip(js, ys))]
    return js, scales


def bessel_row_numpy(order_max: int, x: float) -> np.ndarray:
    """raw_row_numpy at any finite x: the |x| < 1e-30 shortcut and J_n(-x) = (-1)^n J_n(x)."""
    x = float(x)
    if abs(x) < _TINY_X:
        vals = np.zeros(order_max + 1)
        vals[0] = 1.0
        return vals
    vals = raw_row_numpy(order_max, abs(x))
    if x < 0.0:
        vals[1::2] *= -1.0
    return vals


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


def binned_orders_loop(spectrum, n_periods: int, k0_units: int, max_order: int) -> dict[int, float]:
    """Order probabilities of a state's spectrum, np.fft.fft(psi), visiting every bin in turn.

    Bin j holds signed mode m (j, or j - n past the Nyquist bin); order p
    collects the modes with floor((m - k0_units + n_periods/2) / n_periods) = p.
    """
    power = np.abs(spectrum) ** 2
    total = float(power.sum())
    n = len(spectrum)
    table = {p: 0.0 for p in range(-max_order, max_order + 1)}
    for j, w in enumerate(power):
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
    transformed, which on tdse's stepped route are (stepped sectors, points of
    the band's cell)."""
    shapes, fft = set(), np.fft.fft

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 2:
            shapes.add(np.shape(a))
        return fft(a, *args, **kwargs)

    with mock.patch.object(np.fft, "fft", spy):
        return run(), shapes


def run_stepped(plan, snapshot_callback=None):
    """tdse.run of the plan on route "stepped"; a "thin" plan stays thin."""
    route = "thin" if plan.route == "thin" else "stepped"
    return tdse.run(dataclasses.replace(plan, route=route), snapshot_callback)


def run_exact(plan, snapshot_callback=None):
    """tdse.run of the plan on route "exact"; the plan must hold chains (plan.modes),
    which plan_run gives only to the plans it routes "exact"."""
    return tdse.run(dataclasses.replace(plan, route="exact"), snapshot_callback)


def envelope_weights(plan):
    """The field envelope at each of plan's step midpoints: 1 throughout a rectangular
    pulse, a sin^2 rise and fall over ramp_fraction of a sin2_ramp pulse at each end."""
    d_tau = plan.d_tau
    mids = (np.arange(plan.n_steps) + 0.5) * d_tau
    weights = np.ones_like(mids)
    if plan.envelope == "sin2_ramp":
        total = plan.n_steps * d_tau
        ramp = plan.ramp_fraction * total
        rising, falling = mids < ramp, mids > total - ramp
        weights[rising] = np.sin(0.5 * math.pi * mids[rising] / ramp) ** 2
        weights[falling] = np.sin(0.5 * math.pi * (total - mids[falling]) / ramp) ** 2
    return weights


def propagate_full_box(plan, snapshot_callback=None):
    """The stepped route's result and snapshots, stepping every point of the box.

    Strang steps exp(-i V dtau/2) F^-1 exp(-i k^2 dtau) F exp(-i V dtau/2) with
    the field envelope sampled at step midpoints; without the kinetic term the
    pulse area is applied as one phase.  callback(step, tau, state) is called
    every plan.snapshot_every steps.
    """
    state, spec, setup, d_tau = plan.state, plan.spec, plan.setup, plan.d_tau
    grid = state.grid
    v = 0.5 * setup.u0 * evaluate_potential(spec, grid.positions())
    weights = envelope_weights(plan)
    every = plan.snapshot_every if snapshot_callback is not None else 0

    def wave(psi):
        return WaveState(grid, spectrum=np.fft.fft(psi), k0=state.k0)

    if plan.route == "thin":
        area = np.cumsum(np.append(0.0, weights * d_tau))  # area[j]: after j steps
        if every:
            for j in range(every, plan.n_steps + 1, every):
                snapshot_callback(j, j * d_tau, wave(np.exp(-1j * v * area[j]) * state.psi))
        return wave(np.exp(-1j * v * area[-1]) * state.psi)
    exp_kin = np.exp(-1j * grid.wavenumbers() ** 2 * d_tau)
    psi = state.psi.copy()
    for j in range(plan.n_steps):
        half = np.exp(-0.5j * v * weights[j] * d_tau)
        psi = half * np.fft.ifft(exp_kin * np.fft.fft(half * psi))
        if every and (j + 1) % every == 0:
            snapshot_callback(j + 1, (j + 1) * d_tau, wave(psi))
    return wave(psi)


def propagate_cell_fft(plan, snapshot_callback=None):
    """The stepped route's result and snapshots from every live sector's whole cell.

    The loop the stepped route ran before it stepped only the order band: the
    sectors holding a bin over _EMPTY_SECTOR / n_points of the weight are
    stepped as rows of one array on cells of n_points / f points, each kinetic
    step an FFT pair over the whole cell; the other sectors are carried.
    """
    state, spec, setup, d_tau = plan.state, plan.spec, plan.setup, plan.d_tau
    grid = state.grid
    fold = math.gcd(grid.n_points, grid.n_periods)
    cell = grid.n_points // fold
    v = 0.5 * setup.u0 * evaluate_potential(spec, grid.positions()[:cell])
    vmax = float(np.max(np.abs(v)))
    if plan.n_steps > 0 and vmax * d_tau > _STEP_PHASE_WARN:
        warnings.warn(
            f"potential phase per step = {vmax * d_tau:.3g} rad exceeds "
            f"{_STEP_PHASE_WARN}; reduce d_tau", stacklevel=2)

    spectrum = np.fft.fft(state.psi)
    sectors = spectrum.reshape(cell, fold).T  # row s: sector s, FFT bins a*fold + s
    power = np.abs(sectors) ** 2
    # carried ones: all their bins, so <= _EMPTY_SECTOR in all
    live = np.any(power > _EMPTY_SECTOR / grid.n_points * power.sum(), axis=1)
    phi = np.fft.ifft(sectors[live])  # one row per stepped sector

    def on_box(phi: np.ndarray) -> WaveState:
        sectors[live] = np.fft.fft(phi)  # writes into spectrum; carried rows stay as they were
        return WaveState(grid, spectrum=spectrum.copy(), k0=state.k0)

    weights = envelope_weights(plan)
    every = plan.snapshot_every
    if plan.route == "thin":
        area = np.cumsum(np.append(0.0, weights * d_tau))  # area[j]: after j steps
        if every and snapshot_callback is not None:
            for j in range(every, plan.n_steps + 1, every):
                snapshot_callback(j, j * d_tau, on_box(np.exp(-1j * v * area[j]) * phi))
        out = on_box(np.exp(-1j * v * area[-1]) * phi)
    else:
        exp_kin = np.exp(-1j * grid.wavenumbers().reshape(cell, fold).T[live] ** 2 * d_tau)
        flat = plan.envelope == "rectangular"
        # in phi's own shape: a broadcast multiply per half kick costs more than the copy
        exp_v_half = np.broadcast_to(np.exp(-0.5j * v * d_tau), phi.shape).copy()
        for j in range(plan.n_steps):
            half = exp_v_half if flat else np.exp(-0.5j * v * weights[j] * d_tau)
            phi *= half
            phi = np.fft.ifft(exp_kin * np.fft.fft(phi))
            phi *= half
            if every and (j + 1) % every == 0 and snapshot_callback is not None:
                snapshot_callback(j + 1, (j + 1) * d_tau, on_box(phi))
        out = on_box(phi)

    return _checked_norm(state, out)


def propagate_cell_eigh(plan, snapshot_callback=None):
    """The exact route's result and snapshots from each live sector's whole cell.

    A Bloch sector s holds the FFT bins a*f + s, f = gcd(n_points, n_periods);
    it is live when one of its bins holds over _EMPTY_SECTOR / n_points of the
    weight.  H over a live sector's cell bins is k^2 on the diagonal plus the
    circulant of the cell potential's DFT, H[a, b] = DFT(V)[(a - b) mod cell] /
    cell, wrap-around included.  Each is diagonalized as a complex Hermitian matrix: no gauge, no
    truncation to a few orders.  The other sectors are carried.
    callback(step, tau, state) is called every plan.snapshot_every steps at
    tau = step * plan.d_tau.
    """
    state, spec, setup, d_tau = plan.state, plan.spec, plan.setup, plan.d_tau
    grid = state.grid
    fold = math.gcd(grid.n_points, grid.n_periods)
    cell = grid.n_points // fold
    spectrum = np.fft.fft(state.psi)
    power = np.abs(spectrum.reshape(cell, fold)) ** 2
    vhat = np.fft.fft(0.5 * setup.u0 * evaluate_potential(spec, grid.positions()[:cell]))
    a = np.arange(cell)
    sectors = []
    for s in np.flatnonzero(np.any(power > _EMPTY_SECTOR / grid.n_points * power.sum(), axis=0)):
        bins = a * fold + s
        ham = vhat[(a[:, None] - a[None, :]) % cell] / cell + np.diag(grid.wavenumbers()[bins] ** 2)
        energies, vectors = np.linalg.eigh(ham)
        sectors.append((bins, energies, vectors, vectors.conj().T @ spectrum[bins]))

    def at(tau):
        out = spectrum.copy()
        for bins, energies, vectors, start in sectors:
            out[bins] = vectors @ (np.exp(-1j * energies * tau) * start)
        return WaveState(grid, spectrum=out, k0=state.k0)

    every = plan.snapshot_every if snapshot_callback is not None else 0
    if every:
        for j in range(every, plan.n_steps + 1, every):
            snapshot_callback(j, j * d_tau, at(j * d_tau))
    return at(plan.n_steps * d_tau)


def circle_samples_loop(r: float, r_lo: float, r_hi: float, n_samples: int) -> np.ndarray:
    """One moment_region contour, its band inequality checked one point at a time.

    The circle of radius r about (d~, q~) = (0, 1/2) is sampled on its d~ >= 0
    half, clipped to the validity square, and each sample is kept when
    band_radius puts it inside [r_lo, r_hi] (with kdsim.fit's slack).
    """
    from kdsim.fit import _BAND_SLACK, band_radius

    if r == 0.0:
        pts = np.array([[0.0, 0.5]])
    else:
        theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_samples)
        pts = np.column_stack([0.5 * r * np.cos(theta), 0.5 * (1.0 - r * np.sin(theta))])
    pts = pts[((pts >= 0.0) & (pts < 1.0)).all(axis=1)]
    keep = [r_lo - _BAND_SLACK <= band_radius(d, q) <= r_hi + _BAND_SLACK for d, q in pts]
    return pts[np.array(keep, dtype=bool)]


def golden_refine(f, a: float, b: float, tol: float):
    """Deterministic golden-section minimum of f on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(inv_phi))))
    c = b - inv_phi * h
    d = a + inv_phi * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h = inv_phi * h
            c = b - inv_phi * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = inv_phi * h
            d = a + inv_phi * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def bisect_threshold(f, lo: float, hi: float, threshold: float, iters: int = 80) -> float:
    """Crossing point of f(r) = threshold inside [lo, hi] by bisection."""
    above_lo = f(lo) > threshold
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > threshold) == above_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def scan_fit_golden_bisect(objective, bounds, delta_chi2: float, n_grid: int, tol: float):
    """A grid-scan fit refined by golden section and interval bisection.

    The scan, its local minima and the bound flags follow kdsim.fit's rules;
    the minimum is refined by golden section on the best point's neighbour
    cells (keeping the scan point when it is lower) and each interval end by
    bisecting f = chi2_min + delta_chi2 in the grid cell beyond the outermost
    scan point inside it, or between the scan bound and r_hat if none is.
    """
    r_min, r_max = float(bounds[0]), float(bounds[1])
    rs = np.linspace(r_min, r_max, n_grid)
    chis = objective(rs)
    minima = local_minima_loop(chis)
    i_best = min(minima, key=lambda i: chis[i])
    lo = rs[max(i_best - 1, 0)]
    hi = rs[min(i_best + 1, n_grid - 1)]
    r_hat, chi_hat = golden_refine(objective, lo, hi, tol)
    if chis[i_best] < chi_hat:
        r_hat, chi_hat = rs[i_best], chis[i_best]
    threshold = chi_hat + delta_chi2
    inside = chis <= threshold
    if inside.any():
        j_lo = int(np.argmax(inside))
        j_hi = n_grid - 1 - int(np.argmax(inside[::-1]))
    else:
        j_lo = j_hi = i_best
    ci_lo_bound = j_lo == 0 and chis[0] <= threshold
    if ci_lo_bound:
        ci_lo = r_min
    else:
        a = rs[j_lo - 1] if inside.any() and j_lo > 0 else r_min
        b = rs[j_lo] if inside.any() else r_hat
        ci_lo = bisect_threshold(objective, a, b, threshold)
    ci_hi_bound = j_hi == n_grid - 1 and chis[-1] <= threshold
    if ci_hi_bound:
        ci_hi = r_max
    else:
        a = rs[j_hi] if inside.any() else r_hat
        b = rs[j_hi + 1] if inside.any() and j_hi < n_grid - 1 else r_max
        ci_hi = bisect_threshold(objective, a, b, threshold)
    return {
        "r_eff_hat": float(r_hat), "chi2_min": float(chi_hat),
        "ci": (float(min(ci_lo, r_hat)), float(max(ci_hi, r_hat))),
        "scan_r": tuple(float(r) for r in rs), "scan_chi2": tuple(float(c) for c in chis),
        "local_minima": tuple((float(rs[i]), float(chis[i])) for i in minima),
        "at_bound": i_best in (0, n_grid - 1), "ci_at_bounds": (ci_lo_bound, ci_hi_bound),
    }
