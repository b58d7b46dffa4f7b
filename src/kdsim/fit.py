"""Chi-square inference of the effective grating amplitude.

Plane-wave patterns constrain the moments only through
r_eff = sqrt((1 - 2 q~)^2 + 4 d~^2), so the estimator targets r_eff and
maps its confidence interval to an annular band in the (d~, q~) square.
The minimizer is deterministic by construction: a coarse grid scan
followed by golden-section refinement, with interval ends located by
bisection on the chi-square threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_row, bessel_rows
from .analytic import default_order_cutoff

SIGMA_FLOOR = 1e-4
MIN_ORDERS = 3          # distinct orders in an observation
MIN_GRID = 200          # points of joint_fit's grid scan
MIN_REGION_SAMPLES = 2  # samples per moment_region contour
MIN_SHOTS = 1           # shots of synthesize_counts
_GOLDEN_TOL = 1e-7
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MISFIT_REDUCED = 4.0
_BAND_SLACK = 1e-12


@dataclass(frozen=True)
class ObservedPattern:
    """Measured (or synthesized) order probabilities with uncertainties."""

    orders: tuple[int, ...]
    values: tuple[float, ...]
    sigmas: tuple[float, ...]
    alpha: float

    def __post_init__(self):
        orders = tuple(int(p) for p in self.orders)
        values = tuple(float(v) for v in self.values)
        sigmas = tuple(float(s) for s in self.sigmas)
        if not (len(orders) == len(values) == len(sigmas)):
            raise ValueError("orders, values and sigmas must have equal length")
        if len(set(orders)) < MIN_ORDERS:
            raise ValueError(f"need at least {MIN_ORDERS} distinct orders, got {len(set(orders))}")
        if len(set(orders)) != len(orders):
            raise ValueError("duplicate orders in observation")
        for v in values:
            if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"probabilities must lie in [0, 1], got {v!r}")
        for s in sigmas:
            if not math.isfinite(s) or s <= 0.0:
                raise ValueError(f"sigmas must be > 0, got {s!r}")
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "alpha", alpha)


def model_probabilities(alpha: float, r_eff, orders) -> np.ndarray:
    """Thin-grating model P_p = J_p(alpha r_eff)^2 at the given orders.

    A scalar r_eff gives one value per order; a 1-D array of r_eff gives
    one row per entry, from a single batched Bessel pass.
    """
    orders = np.asarray(orders, dtype=int)
    order_max = int(np.max(np.abs(orders))) if orders.size else 0
    if np.ndim(r_eff) == 0:
        rows = bessel_row(order_max, alpha * r_eff).values
    else:
        rows = bessel_rows(order_max, alpha * np.asarray(r_eff, dtype=float))
    return rows[..., np.abs(orders)] ** 2


def chi_square(observed: ObservedPattern, r_eff):
    """Chi-square of the model at r_eff: a float, or an array for a 1-D array of r_eff."""
    scalar = np.ndim(r_eff) == 0
    if scalar:   # the refinement's many single evaluations: keep the check cheap
        valid = math.isfinite(r_eff) and r_eff >= 0.0
    else:
        r = np.asarray(r_eff, dtype=float)
        valid = bool(np.all(np.isfinite(r) & (r >= 0.0)))
    if not valid:
        raise ValueError(f"r_eff must be finite and >= 0, got {r_eff!r}")
    model = model_probabilities(observed.alpha, r_eff, observed.orders)
    resid = (np.asarray(observed.values) - model) / np.asarray(observed.sigmas)
    # in C order each row is summed pairwise exactly as a 1-D call sums it,
    # so an array of r_eff gives the scalar calls' values bit for bit
    chi2 = np.sum(np.ascontiguousarray(resid**2), axis=-1)
    return float(chi2) if scalar else chi2


@dataclass(frozen=True)
class FitResult:
    """Best-fit r_eff with its chi-square landscape and interval."""

    r_eff_hat: float
    chi2_min: float
    dof: int
    ci: tuple[float, float]
    delta_chi2: float
    scan_r: tuple[float, ...]
    scan_chi2: tuple[float, ...]
    local_minima: tuple[tuple[float, float], ...]
    at_bound: bool
    ci_at_bounds: tuple[bool, bool]
    misfit: bool
    notes: str

    @property
    def reduced_chi2(self) -> float:
        return self.chi2_min / self.dof if self.dof > 0 else math.nan


def _golden_refine(f, a: float, b: float, tol: float):
    """Deterministic golden-section minimum of f on [a, b]."""
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(_INV_PHI))))
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h = _INV_PHI * h
            c = b - _INV_PHI * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = _INV_PHI * h
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def _bisect_threshold(f, lo: float, hi: float, threshold: float, iters: int = 80) -> float:
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


def _fit_objective(objective, bounds: tuple[float, float], delta_chi2: float,
                   dof: int, n_grid: int) -> FitResult:
    r_min, r_max = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(r_min) and math.isfinite(r_max)) or not 0.0 <= r_min < r_max:
        raise ValueError(f"bounds must satisfy 0 <= r_min < r_max, got {bounds!r}")
    if not delta_chi2 > 0.0:
        raise ValueError(f"delta_chi2 must be > 0, got {delta_chi2!r}")
    if n_grid < MIN_GRID:
        raise ValueError(f"grid scan needs >= {MIN_GRID} points, got {n_grid}")

    rs = np.linspace(r_min, r_max, n_grid)
    chis = objective(rs)

    padded = np.concatenate(([math.inf], chis, [math.inf]))
    minima = np.flatnonzero((chis <= padded[:-2]) & (chis <= padded[2:]))
    i_best = int(minima[np.argmin(chis[minima])])  # first of the lowest minima

    notes = []
    at_bound = i_best in (0, n_grid - 1)
    lo = rs[max(i_best - 1, 0)]
    hi = rs[min(i_best + 1, n_grid - 1)]
    r_hat, chi_hat = _golden_refine(objective, lo, hi, _GOLDEN_TOL)
    if chis[i_best] < chi_hat:
        r_hat, chi_hat = rs[i_best], chis[i_best]
    if at_bound:
        notes.append("minimum sits at a scan bound: estimate unbounded on that side")

    threshold = chi_hat + delta_chi2
    inside = chis <= threshold

    # outermost interval ends: walk to the farthest scanned point inside the
    # threshold on each side, then bisect the bracketing grid cell
    if inside.any():
        j_lo = int(np.argmax(inside))               # first True
        j_hi = n_grid - 1 - int(np.argmax(inside[::-1]))  # last True
    else:
        j_lo = j_hi = i_best
    ci_lo_bound = False
    if j_lo == 0 and chis[0] <= threshold:
        ci_lo = r_min
        ci_lo_bound = True
    else:
        a = rs[j_lo - 1] if inside.any() and j_lo > 0 else r_min
        b = rs[j_lo] if inside.any() else r_hat
        ci_lo = _bisect_threshold(objective, a, b, threshold)
    ci_hi_bound = False
    if j_hi == n_grid - 1 and chis[-1] <= threshold:
        ci_hi = r_max
        ci_hi_bound = True
    else:
        a = rs[j_hi] if inside.any() else r_hat
        b = rs[j_hi + 1] if inside.any() and j_hi < n_grid - 1 else r_max
        ci_hi = _bisect_threshold(objective, a, b, threshold)
    if ci_lo_bound or ci_hi_bound:
        notes.append("confidence interval clipped by the scan bounds")

    misfit = dof > 0 and chi_hat / dof > _MISFIT_REDUCED
    if misfit:
        notes.append(f"model misfit: reduced chi-square = {chi_hat / dof:.3g}")

    return FitResult(
        r_eff_hat=float(r_hat),
        chi2_min=float(chi_hat),
        dof=dof,
        ci=(float(min(ci_lo, r_hat)), float(max(ci_hi, r_hat))),
        delta_chi2=float(delta_chi2),
        scan_r=tuple(float(r) for r in rs),
        scan_chi2=tuple(float(c) for c in chis),
        local_minima=tuple((float(rs[i]), float(chis[i])) for i in minima),
        at_bound=at_bound,
        ci_at_bounds=(ci_lo_bound, ci_hi_bound),
        misfit=misfit,
        notes="; ".join(notes),
    )


def joint_fit(datasets, bounds: tuple[float, float] = (0.0, 2.0),
              delta_chi2: float = 1.0, n_grid: int = 201) -> FitResult:
    """Fit one shared r_eff to several observations by summing chi-squares.

    Parameters
    ----------
    datasets : sequence of ObservedPattern
        At least one; each may carry its own alpha.
    bounds : (float, float)
        Scan window for r_eff.
    delta_chi2 : float
        Chi-square rise defining the interval (1.0 = one-sigma, one
        parameter).
    n_grid : int
        Coarse scan resolution, at least 200.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("joint_fit needs at least one dataset")
    for obs in datasets:
        if not isinstance(obs, ObservedPattern):
            raise ValueError(f"expected ObservedPattern, got {type(obs).__name__}")
    dof = sum(len(obs.orders) for obs in datasets) - 1

    def objective(r):   # a float, or an array over an array of r
        return sum(chi_square(obs, r) for obs in datasets)

    return _fit_objective(objective, bounds, delta_chi2, dof, n_grid)


def fit_effective_amplitude(observed: ObservedPattern,
                            bounds: tuple[float, float] = (0.0, 2.0),
                            delta_chi2: float = 1.0, n_grid: int = 201) -> FitResult:
    """Single-dataset convenience wrapper around joint_fit."""
    return joint_fit([observed], bounds=bounds, delta_chi2=delta_chi2, n_grid=n_grid)


@dataclass(frozen=True)
class MomentRegion:
    """Annular band of (d~, q~) pairs compatible with an r_eff interval.

    The band r_lo <= sqrt((1 - 2 q~)^2 + 4 d~^2) <= r_hi is an annulus
    centered on (d~, q~) = (0, 1/2); contours holds its two boundary
    polylines sampled and clipped to the validity square 0 <= d~, q~ < 1.
    """

    r_band: tuple[float, float]
    contours: tuple[tuple[str, np.ndarray], ...]
    note: str = ""

    @property
    def is_empty(self) -> bool:
        return all(arr.shape[0] == 0 for _, arr in self.contours)


def band_radius(d_tilde: float, q_tilde: float) -> float:
    """r_eff as a function of the two leading moments."""
    return math.hypot(1.0 - 2.0 * q_tilde, 2.0 * d_tilde)


def _circle_samples(r: float, r_lo: float, r_hi: float, n_samples: int) -> np.ndarray:
    if r == 0.0:
        pts = np.array([[0.0, 0.5]])
    else:
        theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_samples)
        d = 0.5 * r * np.cos(theta)
        q = 0.5 * (1.0 - r * np.sin(theta))
        pts = np.column_stack([d, q])
    pts = pts[((pts >= 0.0) & (pts < 1.0)).all(axis=1)]
    # re-check the defining inequality exactly as emitted
    r_here = np.array([band_radius(d, q) for d, q in pts])
    return pts[(r_lo - _BAND_SLACK <= r_here) & (r_here <= r_hi + _BAND_SLACK)]


def moment_region(fit: FitResult, n_samples: int = 512) -> MomentRegion:
    """Map a fitted r_eff interval onto the (d~, q~) validity square."""
    if n_samples < MIN_REGION_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_REGION_SAMPLES}, got {n_samples}")
    r_lo, r_hi = fit.ci
    if not 0.0 <= r_lo <= r_hi:
        raise ValueError(f"fit interval must satisfy 0 <= r_lo <= r_hi, got {fit.ci!r}")
    inner = _circle_samples(r_lo, r_lo, r_hi, n_samples)
    outer = _circle_samples(r_hi, r_lo, r_hi, n_samples)
    note = ""
    if inner.shape[0] == 0 and outer.shape[0] == 0:
        note = "band does not intersect the validity square 0 <= d~, q~ < 1"
    return MomentRegion(r_band=(float(r_lo), float(r_hi)),
                        contours=(("inner", inner), ("outer", outer)),
                        note=note)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        raise ValueError("synthetic data needs an explicit seed or Generator")
    return np.random.default_rng(int(rng))


def synthesize_gaussian(alpha: float, r_eff: float, orders, rng,
                        rel_sigma: float = 0.01,
                        sigma_floor: float = SIGMA_FLOOR) -> ObservedPattern:
    """Model pattern plus independent Gaussian noise per order.

    Noise scale is rel_sigma of each probability with an absolute floor
    (default 1e-4); draws are clipped back into [0, 1].
    """
    gen = _as_rng(rng)
    orders = tuple(int(p) for p in orders)
    model = model_probabilities(alpha, r_eff, orders)
    sig = np.maximum(rel_sigma * model, sigma_floor)
    values = np.clip(model + gen.normal(size=len(orders)) * sig, 0.0, 1.0)
    return ObservedPattern(orders=orders, values=tuple(values),
                           sigmas=tuple(sig), alpha=alpha)


def synthesize_counts(alpha: float, r_eff: float, orders, rng, shots: int = 100000,
                      sigma_floor: float = SIGMA_FLOOR) -> ObservedPattern:
    """Multinomial counting noise with the given number of shots.

    Counts are drawn over the full pattern out to the default cutoff (plus
    a remainder bucket), then the requested orders are read off as count
    fractions with binomial standard errors, floored at sigma_floor.
    """
    gen = _as_rng(rng)
    if shots < MIN_SHOTS:
        raise ValueError(f"shots must be >= {MIN_SHOTS}, got {shots}")
    orders = tuple(int(p) for p in orders)
    cut = default_order_cutoff(alpha, r_eff)
    full = np.arange(-cut, cut + 1)
    probs = model_probabilities(alpha, r_eff, full)
    rest = max(0.0, 1.0 - probs.sum())
    pvec = np.append(probs, rest)
    counts = gen.multinomial(shots, pvec / pvec.sum())
    est = np.array([counts[p + cut] / shots if abs(p) <= cut else 0.0 for p in orders])
    sig = np.maximum(np.sqrt(np.clip(est * (1.0 - est), 0.0, None) / shots), sigma_floor)
    return ObservedPattern(orders=orders, values=tuple(np.clip(est, 0.0, 1.0)),
                           sigmas=tuple(sig), alpha=alpha)
