"""Thin-grating diffraction patterns: one serving route and one oracle.

In the thin-grating limit the standing wave acts as a pure phase mask
exp(i alpha (a_c cos 2x + a_s sin 2x)) on the incoming wave, so the order
amplitudes are Fourier coefficients of that mask.  Both quadratures merge
into one harmonic of effective amplitude r_eff = hypot(a_c, a_s)
(``PotentialSpec.r_eff``), giving P_p = J_p(alpha r_eff)^2.

* ``model_probabilities`` serves that model: ``closed_form_pattern`` for the
  command line's ``analytic`` mode, the fit's chi-square, its synthetic data
  and the scan all take their probabilities from it (the fit's refinement
  from ``_model_values``, the same squares at one r_eff on Python floats).
  Its Bessel rows come from ``bessel_values`` at one r_eff, squared as a
  numpy array, and from ``bessel_rows`` at many;
* ``grating_oracle`` -- brute-force FFT of the sampled phase mask, kept
  deliberately independent of the Bessel code path.

The grating oracle checks the model in the benchmark, and the tests keep a
third route in tests/oracles.py, the double Bessel sum over the two
quadratures (dipole and quadrupole only), and the point-charge pattern
J_n(alpha)^2.

Probabilities depend on the moments only through r_eff; the fitting module
leans on exactly that degeneracy.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_rows, bessel_values
from .model import MomentSet, PotentialSpec, _require_finite, _require_integral, build_potential

_TAIL_WARN = 1e-8


@dataclass(frozen=True)
class DiffractionPattern:
    """Probabilities per diffraction order with generation metadata.

    probabilities maps order p (momentum transfer 2p in units of k_L) to P_p.
    tail_mass, the probability estimated to lie beyond the cutoff, is 1 minus
    total(), their sum left to right; cutoff_warning trips when it exceeds _TAIL_WARN.
    """

    probabilities: dict[int, float]
    generator: str
    alpha: float | None = None

    @functools.cached_property
    def tail_mass(self) -> float:
        return 1.0 - self.total()

    @functools.cached_property
    def cutoff_warning(self) -> bool:
        return self.tail_mass > _TAIL_WARN

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.probabilities))

    @property
    def order_cutoff(self) -> int:
        return max(abs(p) for p in self.probabilities)

    def probability(self, p: int) -> float:
        return self.probabilities.get(p, 0.0)

    def total(self) -> float:
        return _total(self.probabilities.values())


def _total(terms):
    """Sum of floats, or of equal-length arrays term by term, left to right from 0.0.

    The terms are >= +0.0, so the start changes no total.  Unlike builtin sum(),
    which compensates float sums from Python 3.12 on, it adds alike on every Python.
    """
    return functools.reduce(operator.add, terms, 0.0)


def default_order_cutoff(alpha: float, r_eff: float = 1.0) -> int:
    """Order cutoff ceil(|alpha r_eff|) + 30.

    The first omitted amplitude |J_(cut+1)(x)|, x = alpha r_eff, is 9.1e-17 at
    x = 20 but grows with x: 2.6e-14 at 30, 9.7e-12 at 50, 4.7e-9 at 100 and
    2.9e-6 at 300.  A pattern reads the probability past its cutoff as its
    tail_mass, 1 minus the probabilities kept: 2.8e-11 at x = 300, under
    cutoff_warning's _TAIL_WARN.
    """
    return int(math.ceil(abs(alpha) * abs(r_eff))) + 30


def _pattern(orders, probs, generator, alpha) -> DiffractionPattern:
    table = dict(zip(np.asarray(orders).tolist(), np.asarray(probs, dtype=float).tolist()))
    return DiffractionPattern(table, generator, alpha)


def _resolve_cutoff(alpha: float, r_eff: float, order_cutoff: int | None) -> int:
    if order_cutoff is None:
        return default_order_cutoff(alpha, r_eff)
    cut = int(_require_integral("order_cutoff", order_cutoff))
    if cut < 0:
        raise ValueError(f"order_cutoff must be >= 0, got {cut}")
    return cut


def _model_at(alpha: float, r_eff, index: np.ndarray | list[int], order_max: int) -> np.ndarray:
    """J_|p|(alpha r_eff)^2 at each |order| in index, squared as an array (x * x)."""
    if np.ndim(r_eff) == 0:
        rows = np.array(bessel_values(order_max, alpha * r_eff))
    else:
        rows = bessel_rows(order_max, alpha * np.asarray(r_eff, dtype=float))
    return rows[..., index] ** 2


def _model_values(alpha: float, r_eff: float, index: list[int], order_max: int) -> list[float]:
    """_model_at at one r_eff on Python floats, bit for bit: J_|p| * J_|p| per |order|."""
    row = bessel_values(order_max, alpha * r_eff)
    return [row[i] * row[i] for i in index]


def model_probabilities(alpha: float, r_eff, orders) -> np.ndarray:
    """Thin-grating model P_p = J_p(alpha r_eff)^2 at the given orders.

    A scalar r_eff gives one value per order; a 1-D array of r_eff gives
    one row per entry, from a single batched Bessel pass, bit-identical to
    the scalar calls.
    """
    index = np.abs(_require_integral("orders", orders))
    return _model_at(alpha, r_eff, index, int(np.max(index)) if index.size else 0)


def closed_form_pattern(alpha: float, moments: MomentSet,
                        order_cutoff: int | None = None) -> DiffractionPattern:
    """Pattern via the effective amplitude: P_p = J_p(alpha r_eff)^2, p = -cut..cut.

    Works for any moment order since the potential has a single harmonic.
    """
    alpha = _require_finite("alpha", alpha, nonneg=True)
    r_eff = build_potential(moments).r_eff
    cut = _resolve_cutoff(alpha, r_eff, order_cutoff)
    orders = np.arange(-cut, cut + 1)
    return _pattern(orders, model_probabilities(alpha, r_eff, orders), "closed_form", alpha)


def grating_oracle(spec: PotentialSpec, alpha: float, n_grid: int | None = None,
                   order_cutoff: int | None = None) -> DiffractionPattern:
    """FFT the sampled phase mask directly; no Bessel machinery involved.

    Samples exp(i alpha (a_c cos 2x + a_s sin 2x)) on n_grid uniform points
    over one period and reads the order amplitudes off the DFT.  n_grid must
    be a power of two and >= 4 * cutoff + 16 so folded tails stay harmless.
    alpha may be negative here, which realizes the conjugate phase mask.
    """
    alpha = _require_finite("alpha", alpha)
    cut = _resolve_cutoff(alpha, spec.r_eff, order_cutoff)
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
