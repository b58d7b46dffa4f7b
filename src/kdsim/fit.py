"""Chi-square inference of the effective grating amplitude.

Plane-wave patterns constrain the moments only through
r_eff = sqrt((1 - 2 q~)^2 + 4 d~^2), so the estimator targets r_eff and
maps its confidence interval to an annular band in the (d~, q~) square.
The minimizer is deterministic by construction: a coarse grid scan, then
Brent's parabolic/golden-section minimizer started from the scan's best
point and its neighbours, and Brent's root search for each interval end on
the chi-square threshold, its bracket values taken from the scan and its
first point from the minimizer's curvature.  r_eff_hat is bracketed within
1e-7 of the chi-square minimum; each interval end within 1e-12 * max(1, |r|)
of its crossing.  The refinement evaluates chi_square at one r on Python
floats, the scan as one numpy block; both add the terms in one order
(_pairwise_sum), so the scan equals the summed single calls by construction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import _model_at, _model_values, default_order_cutoff, model_probabilities
from .model import _require_finite

SIGMA_FLOOR = 1e-4
MIN_ORDERS = 3          # distinct orders in an observation
MIN_GRID = 200          # points of joint_fit's grid scan
MIN_REGION_SAMPLES = 2  # samples per moment_region contour
MIN_SHOTS = 1           # shots of synthesize_counts
_GOLDEN_TOL = 1e-7
_GOLDEN_SECTION = (3.0 - math.sqrt(5.0)) / 2.0  # the shorter part of a golden cut
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
        alpha = _require_finite("alpha", self.alpha, nonneg=True)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "alpha", alpha)

    @functools.cached_property
    def _index(self) -> tuple[list[int], int]:
        """|order| per entry and the largest |order|, built once for chi_square."""
        index = [abs(p) for p in self.orders]
        return index, max(index)


def _pairwise_sum(terms):
    """Sum of floats, or of equal-length arrays term by term, in np.sum's order.

    Pairwise: under 8 terms one by one, up to 128 in 8 interleaved partial
    sums, above that each half (cut at a multiple of 8) the same way.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    total, tail = 0.0, 0
    if n >= 8:
        acc = list(terms[:8])
        tail = n - n % 8
        for i in range(8, tail):
            acc[i % 8] = acc[i % 8] + terms[i]   # not +=: acc starts as views of an array's rows
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for t in terms[tail:]:
        total = total + t
    return total


def chi_square(observed: ObservedPattern, r_eff):
    """Chi-square of the model at r_eff: a float, or an array for a 1-D array of r_eff.

    An array gives the single calls' values bit for bit (module docstring).
    """
    index, order_max = observed._index
    if isinstance(r_eff, float) or np.ndim(r_eff) == 0:   # a float first: np.ndim takes ~1 us
        if not (math.isfinite(r_eff) and r_eff >= 0.0):
            raise ValueError(f"r_eff must be finite and >= 0, got {r_eff!r}")
        model = _model_values(observed.alpha, r_eff, index, order_max)
        return _pairwise_sum([(d := (v - m) / s) * d
                              for v, m, s in zip(observed.values, model, observed.sigmas)])
    r = np.asarray(r_eff, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError(f"r_eff must be finite and >= 0, got {r_eff!r}")
    model = _model_at(observed.alpha, r, index, order_max)
    resid = (np.array(observed.values) - model) / np.array(observed.sigmas)
    return _pairwise_sum(np.ascontiguousarray((resid * resid).T))


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


def _brent_minimum(f, points, tol: float):
    """Minimum of f between the outer two of three known points, by Brent's method.

    points holds three (r, f(r)) pairs (x, w, v), lowest first.  A parabolic
    step through them is taken when it stays inside the bracket and moves
    less than half the step before last, else a golden section of the larger
    side (Brent 1973, ch. 5).  The bracket width stands in for the earlier
    steps, so the first step is the vertex of the start points' parabola.
    x moves only to a value no higher than its own.  Steps shorter than
    tol / 10 are lengthened to it.  Stops once the minimum is bracketed
    within tol of x; returns the last three points, lowest first.
    """
    (x, fx), (w, fw), (v, fv) = points
    a, b = min(x, w, v), max(x, w, v)
    tol1 = 0.1 * tol   # least step
    d = e = b - a
    while abs(x - 0.5 * (a + b)) > tol - 0.5 * (b - a):
        mid = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                golden = False
                e, d = d, p / q
                if min(x + d - a, b - x - d) < tol:
                    d = math.copysign(tol1, mid - x)
        if golden:
            e = (a - x) if x >= mid else (b - x)
            d = _GOLDEN_SECTION * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return (x, fx), (w, fw), (v, fv)


def _curvature(points) -> float:
    """Second derivative of the parabola through three points; nan if two coincide."""
    (x, fx), (w, fw), (v, fv) = points
    if x == w or w == v or v == x:
        return math.nan
    return 2.0 * ((fv - fx) / (v - x) - (fw - fx) / (w - x)) / (v - w)


def _brent_root(g, out: float, g_out: float, inn: float, g_in: float, seed: float) -> float:
    """Where g crosses from g <= 0 at inn to g > 0 at out, by Brent's method.

    Inverse quadratic or secant steps, replaced by bisection whenever they
    would leave the bracket or shrink it too slowly (Brent 1973, ch. 4).  The
    end values are given, so they cost no evaluations; a seed inside the
    bracket is evaluated first (a NaN seed is not).  Stops once the bracket is no wider than
    1e-12 * max(1, |r|).
    """
    a, ga, b, gb = out, g_out, inn, g_in
    c, gc = a, ga
    d = e = b - a
    if min(a, b) < seed < max(a, b):
        a, ga, b, gb = b, gb, seed, g(seed)
    while True:
        if (gb > 0.0) == (gc > 0.0):   # keep c on the other side of the crossing
            c, gc = a, ga
            d = e = b - a
        if abs(gc) < abs(gb):
            a, ga, b, gb, c, gc = b, gb, c, gc, b, gb
        tol = 0.5e-12 * max(1.0, abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or gb == 0.0:
            return b
        if abs(e) < tol or abs(ga) <= abs(gb):
            d = e = m
        else:
            s = gb / ga
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = ga / gc, gb / gc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, ga = b, gb
        b += d if abs(d) > tol else math.copysign(tol, m)
        gb = g(b)


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
    if at_bound:
        notes.append("minimum sits at a scan bound: estimate unbounded on that side")
    # Brent from the scan's best point and its neighbours (at a bound, its one
    # neighbour twice: golden sections on that cell); r_hat stays on the scan
    # point unless a refinement value is no higher
    near = sorted((j for j in (i_best - 1, i_best + 1) if 0 <= j < n_grid), key=chis.__getitem__)
    last = _brent_minimum(objective, [(float(rs[j]), float(chis[j]))
                                      for j in (i_best, near[0], near[-1])], _GOLDEN_TOL)
    r_hat, chi_hat = last[0]

    threshold = chi_hat + delta_chi2
    inside = chis <= threshold
    # the parabola of the minimizer's last points puts the ends at r_hat -+ half
    curvature = _curvature(last)
    half = math.sqrt(2.0 * delta_chi2 / curvature) if curvature > 0.0 else math.nan

    def crossing(j_out: int, r_in: float, chi_in: float, side: float) -> float:
        return _brent_root(lambda r: objective(r) - threshold, rs[j_out],
                           chis[j_out] - threshold, r_in, chi_in - threshold, r_hat + side * half)

    # outermost interval ends: the crossing in the grid cell beyond the
    # farthest scanned point inside the threshold on each side; with none
    # inside, between r_hat and its scan neighbours
    if inside.any():
        j_lo = int(np.argmax(inside))               # first True
        j_hi = n_grid - 1 - int(np.argmax(inside[::-1]))  # last True
        lo_end = (j_lo - 1, rs[j_lo], chis[j_lo])
        hi_end = (j_hi + 1, rs[j_hi], chis[j_hi])
    else:
        k = int(np.searchsorted(rs, r_hat))         # rs[k - 1] < r_hat < rs[k]
        lo_end, hi_end = (k - 1, r_hat, chi_hat), (k, r_hat, chi_hat)
    ci_lo_bound, ci_hi_bound = bool(inside[0]), bool(inside[-1])
    ci_lo = r_min if ci_lo_bound else crossing(*lo_end, -1.0)
    ci_hi = r_max if ci_hi_bound else crossing(*hi_end, 1.0)
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
    # re-check the defining inequality on the points as emitted: band_radius's
    # formula, through np.hypot, which may differ from its math.hypot by 1 ulp;
    # _BAND_SLACK covers that
    r_here = np.hypot(1.0 - 2.0 * pts[:, 1], 2.0 * pts[:, 0])
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
                        rel_sigma: float = 0.01) -> ObservedPattern:
    """Model pattern plus independent Gaussian noise per order.

    Noise scale is rel_sigma of each probability with an absolute floor
    SIGMA_FLOOR; draws are clipped back into [0, 1].
    """
    gen = _as_rng(rng)
    orders = tuple(int(p) for p in orders)
    model = model_probabilities(alpha, r_eff, orders)
    sig = np.maximum(rel_sigma * model, SIGMA_FLOOR)
    values = np.clip(model + gen.normal(size=len(orders)) * sig, 0.0, 1.0)
    return ObservedPattern(orders=orders, values=tuple(values),
                           sigmas=tuple(sig), alpha=alpha)


def synthesize_counts(alpha: float, r_eff: float, orders, rng,
                      shots: int = 100000) -> ObservedPattern:
    """Multinomial counting noise with the given number of shots.

    Counts are drawn over the full pattern out to the default cutoff (plus
    a remainder bucket), then the requested orders are read off as count
    fractions with binomial standard errors, floored at SIGMA_FLOOR.
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
    sig = np.maximum(np.sqrt(np.clip(est * (1.0 - est), 0.0, None) / shots), SIGMA_FLOOR)
    return ObservedPattern(orders=orders, values=tuple(np.clip(est, 0.0, 1.0)),
                           sigmas=tuple(sig), alpha=alpha)
