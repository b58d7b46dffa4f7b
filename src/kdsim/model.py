"""Physical setup for standing-wave diffraction of a structured charge.

Converts laboratory inputs (laser wavelength, field amplitude, interaction
time) into the dimensionless groups the solvers use, builds the effective
one-period potential generated by the low-order multipole moments of the
charge distribution, and reports whether a given configuration sits inside
the thin-grating (Raman-Nath) regime.

Unit conventions: lengths in 1/k_L, so the potential period is pi; energies
in units of the recoil energy; times in hbar over recoil energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA 2018
E_CHARGE = 1.602176634e-19    # C (exact)
M_ELECTRON = 9.1093837015e-31  # kg
HBAR = 1.054571817e-34        # J s
C_LIGHT = 299792458.0         # m/s (exact)

_REL_TOL = 1e-12


def _require_finite(name: str, value: float, nonneg: bool = False, positive: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if nonneg and value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _require_integral(name: str, value) -> np.ndarray:
    """value (a number or an array-like) as an integer array; each float in it must be
    integral.  An integer-dtype array passes as it is, without a per-element check."""
    arr = np.asarray(value)
    if arr.dtype.kind in "iu":
        return arr
    if arr.dtype.kind != "f" or not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise ValueError(f"{name} must be integral, got {value!r}")
    return arr.astype(int)


@dataclass(frozen=True)
class ElectronConstants:
    """Particle constants used for scale conversion, overridable in bulk."""

    e: float = E_CHARGE
    m: float = M_ELECTRON
    hbar: float = HBAR
    c: float = C_LIGHT

    def __post_init__(self):
        for name in ("e", "m", "hbar", "c"):
            _require_finite(name, getattr(self, name), positive=True)


@dataclass(frozen=True)
class LaserSetup:
    """Standing-wave parameters: wavelength and peak field of one beam."""

    wavelength_m: float
    field_amplitude_V_per_m: float = 0.0

    def __post_init__(self):
        _require_finite("wavelength_m", self.wavelength_m, positive=True)
        _require_finite("field_amplitude_V_per_m", self.field_amplitude_V_per_m, nonneg=True)

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength_m


@dataclass(frozen=True)
class DimensionlessSetup:
    """Dimensionless run parameters, built from any two of u0, tau and alpha.

    u0 is the well depth over the recoil energy, tau the interaction time in
    recoil units, and alpha = u0 * tau / 2 the accumulated grating phase.
    The one left out is derived: tau = 2 alpha / u0 (u0 > 0), u0 = 2 alpha /
    tau (tau > 0), alpha = u0 tau / 2.  Given all three, alpha is checked
    against u0 tau / 2 (to 1e-12, relative), which is kept.  alpha alone is
    the ideal thin-grating limit, stored as u0 = inf, tau = 0; an infinite u0
    with tau > 0 is rejected.  recoil_energy_J and v0_V keep the SI anchors
    when the setup came from laboratory inputs.  Each given value is checked
    under its own name before the missing one is derived, so a ValueError's
    message leads with the key at fault.
    """

    u0: float | None = None
    tau: float | None = None
    alpha: float | None = None
    recoil_energy_J: float | None = None
    v0_V: float | None = None

    def __post_init__(self):
        u0 = None if self.u0 is None else float(self.u0)
        if u0 is not None and not u0 >= 0.0:  # NaN too; inf is the ideal limit
            raise ValueError(f"u0 must be a nonnegative number, got {u0!r}")
        tau, alpha = (None if v is None else _require_finite(name, v, nonneg=True)
                      for name, v in (("tau", self.tau), ("alpha", self.alpha)))
        if alpha is None:
            if (u0 is None) != (tau is None):
                raise ValueError(f"{'tau' if u0 is None else 'u0'} alone is underdetermined; "
                                 "give alpha, or u0 with tau or alpha")
            if u0 is None or math.isinf(u0):
                raise ValueError("alpha is required unless a finite u0 and tau are given")
            alpha = 0.5 * u0 * tau
        elif u0 is None and tau is None:
            u0, tau = math.inf, 0.0
        elif tau is None:
            if u0 == 0.0:
                raise ValueError("u0 must be > 0 when paired with alpha, got 0.0")
            tau = 2.0 * alpha / u0
        elif u0 is None:
            if tau == 0.0:
                raise ValueError("tau must be > 0 when paired with alpha, got 0.0")
            u0 = 2.0 * alpha / tau
        elif math.isfinite(u0):
            expect = 0.5 * u0 * tau
            if abs(alpha - expect) > _REL_TOL * max(1.0, alpha):
                raise ValueError(f"alpha {alpha!r} contradicts u0*tau/2 = {expect!r}")
            alpha = expect
        if math.isinf(u0) and tau != 0.0:
            raise ValueError(f"tau must be 0 with an infinite u0 (the ideal limit), "
                             f"got {tau!r}")
        if math.isinf(tau):  # derived: 2 alpha / u0 overflowed
            raise ValueError(f"u0 {u0!r} gives tau = {tau!r}, out of floating-point range")
        if math.isinf(alpha):  # derived: u0 tau / 2 overflowed
            raise ValueError(f"tau {tau!r} gives alpha = {alpha!r}, out of floating-point range")
        for name, v in (("u0", u0), ("tau", tau), ("alpha", alpha)):
            object.__setattr__(self, name, v)
        for name in ("recoil_energy_J", "v0_V"):
            v = getattr(self, name)
            if v is not None:
                _require_finite(name, v, nonneg=True)


def derive_scales(laser: LaserSetup, interaction_time_s: float,
                  consts: ElectronConstants = ElectronConstants()) -> DimensionlessSetup:
    """Reduce laboratory inputs to the dimensionless groups.

    The standing wave acts through the oscillation-averaged potential
    V(x) = V0 cos^2(k_L x) with V0 = e E0^2 / (4 m w_L^2) in volts; the
    recoil energy is hbar^2 k_L^2 / 2m.

    Parameters
    ----------
    laser : LaserSetup
    interaction_time_s : float
        Time the charge spends inside the standing wave, seconds.
    consts : ElectronConstants, optional

    Returns
    -------
    DimensionlessSetup
        With u0, tau, alpha and the SI anchors filled in.

    Raises
    ------
    ValueError
        When a derived group leaves the floating-point range (a zero recoil
        energy, an infinite u0, tau or alpha, or a NaN alpha); the message
        leads with the input at fault: wavelength_m, field_V_per_m or time_s.
    """
    t = _require_finite("interaction_time_s", interaction_time_s, nonneg=True)
    field = laser.field_amplitude_V_per_m
    k_l = laser.wavenumber
    omega = 2.0 * math.pi * consts.c / laser.wavelength_m
    try:  # a float power raises where a product would give inf
        recoil = consts.hbar**2 * k_l**2 / (2.0 * consts.m)
        drive = 4.0 * consts.m * omega**2
    except OverflowError:
        recoil = drive = math.inf
    if not (0.0 < recoil < math.inf and 0.0 < drive < math.inf):
        raise ValueError(f"wavelength_m {laser.wavelength_m!r} puts the recoil energy "
                         f"({recoil!r} J) or the laser frequency out of floating-point range")
    try:
        v0 = consts.e * field**2 / drive
    except OverflowError:
        v0 = math.inf
    u0 = consts.e * v0 / recoil
    if not math.isfinite(u0):
        raise ValueError(f"field_V_per_m {field!r} gives a well depth u0 = {u0!r}, "
                         "out of floating-point range")
    tau = recoil * t / consts.hbar
    alpha = 0.5 * u0 * tau
    if not (math.isfinite(tau) and math.isfinite(alpha)):
        raise ValueError(f"time_s {t!r} gives tau = {tau!r} and alpha = {alpha!r}, "
                         "out of floating-point range")
    return DimensionlessSetup(u0=u0, tau=tau, alpha=alpha, recoil_energy_J=recoil, v0_V=v0)


@dataclass(frozen=True)
class MomentSet:
    """Scaled multipole moments q~_m = Q_m k_L^m / e for m = 1..M.

    The monopole is the unit charge (q~_0 = 1) and is implicit.  Entry 0 of
    q_tilde is the scaled dipole moment, entry 1 the scaled quadrupole.
    """

    q_tilde: tuple[float, ...] = ()

    def __post_init__(self):
        vals = tuple(_require_finite(f"q_tilde[{i}]", v) for i, v in enumerate(self.q_tilde))
        object.__setattr__(self, "q_tilde", vals)

    @classmethod
    def from_dipole_quadrupole(cls, d_tilde: float = 0.0, q_tilde: float = 0.0,
                               higher: tuple[float, ...] = ()) -> "MomentSet":
        return cls((float(d_tilde), float(q_tilde)) + tuple(float(v) for v in higher))

    @property
    def max_order(self) -> int:
        return len(self.q_tilde)

    def moment(self, m: int) -> float:
        """q~_m with the implicit monopole q~_0 = 1; zero beyond max_order."""
        if m < 0:
            raise ValueError(f"moment order must be >= 0, got {m}")
        if m == 0:
            return 1.0
        if m <= self.max_order:
            return self.q_tilde[m - 1]
        return 0.0

    @property
    def dipole(self) -> float:
        return self.moment(1)

    @property
    def quadrupole(self) -> float:
        return self.moment(2)


def moments_from_si(dipole_Cm: float, quadrupole_Cm2: float, k_l: float,
                    e: float = E_CHARGE) -> MomentSet:
    """Scale SI dipole [C m] and quadrupole [C m^2] moments by k_L and e."""
    _require_finite("dipole_Cm", dipole_Cm)
    _require_finite("quadrupole_Cm2", quadrupole_Cm2)
    _require_finite("k_l", k_l, positive=True)
    _require_finite("e", e, positive=True)
    return MomentSet((dipole_Cm * k_l / e, quadrupole_Cm2 * k_l**2 / e))


@dataclass(frozen=True)
class PotentialSpec:
    """One-period potential offset + a_c cos(2x) + a_s sin(2x), in units of
    half the well depth (e V0 / 2)."""

    offset: float
    a_c: float
    a_s: float

    @property
    def r_eff(self) -> float:
        """hypot(a_c, a_s): the one harmonic's amplitude, all a thin-grating pattern depends on."""
        return math.hypot(self.a_c, self.a_s)


def build_potential(moments: MomentSet) -> PotentialSpec:
    """Collapse the multipole series onto the single spatial harmonic.

    Every derivative of cos^2(k_L x) is again a cos/sin of 2 k_L x, so the
    m-th moment contributes (+-) q~_m 2^m / m! to one of the two quadrature
    coefficients: even m to a_c, odd m to a_s.
    """
    a_c = 0.0
    a_s = 0.0
    for m in range(0, moments.max_order + 1):
        w = moments.moment(m) * 2.0**m / math.factorial(m)
        if m % 2 == 0:
            a_c += (-1.0) ** (m // 2) * w
        else:
            a_s += (-1.0) ** ((m + 1) // 2) * w
    return PotentialSpec(offset=1.0, a_c=a_c, a_s=a_s)


def evaluate_potential(spec: PotentialSpec, x):
    """Potential profile at scaled position x (scalar or array), period pi."""
    return spec.offset + spec.a_c * np.cos(2.0 * x) + spec.a_s * np.sin(2.0 * x)


@dataclass(frozen=True)
class RegimeReport:
    """Validity diagnostics; advisory only, nothing here raises.

    The field order is the order of the regime block's keys.
    """

    raman_nath_ratio: float
    raman_nath_ok: bool
    moment_ratios: tuple[float, ...]
    ordering_ok: bool
    recoil_energy_J: float | None
    explorable_length_m: float | None
    notes: str

    def as_dict(self) -> dict:
        return dict(vars(self))


def check_regime(setup: DimensionlessSetup, moments: MomentSet,
                 consts: ElectronConstants = ElectronConstants()) -> RegimeReport:
    """Report regime validity for a configuration.

    The thin-grating treatment needs the well depth to dominate the recoil
    energy (u0 >= 100; 10 <= u0 < 100 is flagged as marginal only in the
    notes).  The multipole hierarchy is healthy when the scaled moments fall
    off strictly with order and all sit below one; trailing zero moments are
    ignored so a point-like charge passes.  The explorable length scale is
    the standing-wave wavelength, recovered from the recoil energy when the
    setup carries its SI anchor.
    """
    notes = []
    u0 = setup.u0
    rn_ok = bool(u0 >= 100.0)
    if math.isinf(u0):
        notes.append("ideal phase-grating limit (u0 not finite)")
    elif 10.0 <= u0 < 100.0:
        notes.append(f"marginal thin-grating ratio u0 = {u0:.3g} (want >= 100)")
    elif u0 < 10.0:
        notes.append(f"thin-grating ratio u0 = {u0:.3g} well below validity")

    qs = [abs(q) for q in moments.q_tilde]
    while qs and qs[-1] == 0.0:
        qs.pop()
    ordering_ok = all(qs[i] > qs[i + 1] for i in range(len(qs) - 1)) and all(q < 1.0 for q in qs)
    if not ordering_ok:
        notes.append("moment hierarchy violated: expansion of the potential is not controlled")

    length = None
    if setup.recoil_energy_J is not None and setup.recoil_energy_J > 0.0:
        k_l = math.sqrt(2.0 * consts.m * setup.recoil_energy_J) / consts.hbar
        length = 2.0 * math.pi / k_l
    else:
        notes.append("no SI anchor: explorable length unknown")

    return RegimeReport(
        raman_nath_ratio=u0,
        raman_nath_ok=rn_ok,
        moment_ratios=(1.0,) + tuple(moments.q_tilde),
        ordering_ok=ordering_ok,
        recoil_energy_J=setup.recoil_energy_J,
        explorable_length_m=length,
        notes="; ".join(notes),
    )
