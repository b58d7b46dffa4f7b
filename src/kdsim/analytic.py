"""Thin-grating diffraction patterns, two independent routes.

In the thin-grating limit the standing wave acts as a pure phase mask
exp(i alpha (a_c cos 2x + a_s sin 2x)) on the incoming wave, so the order
amplitudes are Fourier coefficients of that mask.  Two ways to get them:

* ``closed_form_pattern`` -- both quadratures merged into one harmonic of
  effective amplitude r_eff = hypot(a_c, a_s), giving P_p = J_p(alpha r_eff)^2;
* ``grating_oracle`` -- brute-force FFT of the sampled phase mask, kept
  deliberately independent of the Bessel code path.

The command line serves the closed form; the grating oracle checks it in the
benchmark, and the tests keep a third route, the double Bessel sum over the
two quadratures.

Probabilities depend on the moments only through r_eff; the fitting module
leans on exactly that degeneracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_row
from .model import MomentSet, PotentialSpec, build_potential

_TAIL_WARN = 1e-8


@dataclass(frozen=True)
class DiffractionPattern:
    """Probabilities per diffraction order with generation metadata.

    probabilities maps order p (momentum transfer 2p in units of k_L) to
    P_p.  tail_mass is the probability estimated to lie beyond the cutoff;
    cutoff_warning trips when it exceeds 1e-8.
    """

    probabilities: dict[int, float]
    generator: str
    alpha: float | None = None
    moments: MomentSet | None = None
    tail_mass: float = 0.0
    cutoff_warning: bool = False

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.probabilities))

    @property
    def order_cutoff(self) -> int:
        return max(abs(p) for p in self.probabilities)

    def probability(self, p: int) -> float:
        return self.probabilities.get(p, 0.0)

    def total(self) -> float:
        return float(sum(self.probabilities.values()))


def default_order_cutoff(alpha: float, r_eff: float = 1.0) -> int:
    """Cutoff past which the order amplitudes are negligible (< 1e-15)."""
    return int(math.ceil(abs(alpha) * abs(r_eff))) + 30


def _pattern(orders, probs, generator, alpha, moments=None) -> DiffractionPattern:
    table = {int(p): float(v) for p, v in zip(orders, probs)}
    tail = 1.0 - sum(table.values())
    return DiffractionPattern(
        probabilities=table, generator=generator, alpha=alpha, moments=moments,
        tail_mass=tail, cutoff_warning=tail > _TAIL_WARN)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha


def _single_harmonic_pattern(alpha: float, r_eff: float, order_cutoff: int | None,
                             generator: str, moments: MomentSet | None = None):
    """P_p = J_p(alpha r_eff)^2 for p = -cut..cut."""
    alpha = _check_alpha(alpha)
    cut = default_order_cutoff(alpha, r_eff) if order_cutoff is None else int(order_cutoff)
    if cut < 0:
        raise ValueError(f"order_cutoff must be >= 0, got {cut}")
    row = bessel_row(cut, alpha * r_eff)
    orders = range(-cut, cut + 1)
    probs = [row[abs(p)] ** 2 for p in orders]
    return _pattern(orders, probs, generator, alpha, moments)


def effective_amplitude(moments: MomentSet) -> float:
    """r_eff = hypot(a_c, a_s): the single number the pattern depends on."""
    spec = build_potential(moments)
    return math.hypot(spec.a_c, spec.a_s)


def closed_form_pattern(alpha: float, moments: MomentSet,
                        order_cutoff: int | None = None) -> DiffractionPattern:
    """Pattern via the effective amplitude: P_p = J_p(alpha r_eff)^2.

    Works for any moment order since the potential has a single harmonic.
    """
    return _single_harmonic_pattern(alpha, effective_amplitude(moments), order_cutoff,
                                    "closed_form", moments)


def grating_oracle(spec: PotentialSpec, alpha: float, n_grid: int | None = None,
                   order_cutoff: int | None = None) -> DiffractionPattern:
    """FFT the sampled phase mask directly; no Bessel machinery involved.

    Samples exp(i alpha (a_c cos 2x + a_s sin 2x)) on n_grid uniform points
    over one period and reads the order amplitudes off the DFT.  n_grid must
    be a power of two and >= 4 * cutoff + 16 so folded tails stay harmless.
    alpha may be negative here, which realizes the conjugate phase mask.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    r_eff = math.hypot(spec.a_c, spec.a_s)
    cut = default_order_cutoff(alpha, r_eff) if order_cutoff is None else int(order_cutoff)
    if cut < 0:
        raise ValueError(f"order_cutoff must be >= 0, got {cut}")
    need = 4 * cut + 16
    n = 1 << max(6, (need - 1).bit_length()) if n_grid is None else int(n_grid)
    if n & (n - 1) or n <= 0:
        raise ValueError(f"n_grid must be a power of two, got {n}")
    if n < need:
        raise ValueError(f"n_grid = {n} aliases: need >= 4 * order_cutoff + 16 = {need}")
    x = np.arange(n) * (math.pi / n)
    mask = np.exp(1j * alpha * (spec.a_c * np.cos(2.0 * x) + spec.a_s * np.sin(2.0 * x)))
    coeffs = np.fft.fft(mask) / n
    orders = np.arange(-cut, cut + 1)
    probs = np.abs(coeffs[orders % n]) ** 2
    return _pattern(orders, probs, "grating_oracle", alpha)
