import math
from fractions import Fraction

import numpy as np
import pytest

from kdsim import model
from kdsim.model import (
    DimensionlessSetup, ElectronConstants, LaserSetup, MomentSet,
    build_potential, check_regime, derive_scales, evaluate_potential,
    moments_from_si,
)


def test_constants_are_codata_2018():
    assert model.E_CHARGE == 1.602176634e-19
    assert model.M_ELECTRON == 9.1093837015e-31
    assert model.HBAR == 1.054571817e-34
    assert model.C_LIGHT == 299792458.0


class TestDeriveScales:
    def test_hand_checked_recoil(self):
        # lambda = 1 Angstrom: recoil = hbar^2 k^2 / 2m = 2.40987e-17 J (~150.4 eV)
        setup = derive_scales(LaserSetup(1e-10, 0.0), 0.0)
        assert setup.recoil_energy_J == pytest.approx(2.4098669579e-17, rel=1e-9)
        assert setup.recoil_energy_J / model.E_CHARGE == pytest.approx(150.41, rel=1e-3)

    def test_alpha_computed_two_ways(self):
        # alpha from the chained scales must equal e V0 t / 2 hbar directly
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = 10 ** rng.uniform(-10, -6)
            field = 10 ** rng.uniform(4, 10)
            t = 10 ** rng.uniform(-15, -9)
            setup = derive_scales(LaserSetup(lam, field), t)
            omega = 2.0 * math.pi * model.C_LIGHT / lam
            v0 = model.E_CHARGE * field**2 / (4.0 * model.M_ELECTRON * omega**2)
            direct = model.E_CHARGE * v0 * t / (2.0 * model.HBAR)
            assert setup.alpha == pytest.approx(direct, rel=1e-12)
            assert setup.alpha == pytest.approx(0.5 * setup.u0 * setup.tau, rel=1e-12)

    def test_zero_field_and_zero_time(self):
        assert derive_scales(LaserSetup(5e-7, 0.0), 1e-12).alpha == 0.0
        assert derive_scales(LaserSetup(5e-7, 1e8), 0.0).alpha == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LaserSetup(-1e-7, 1e8)
        with pytest.raises(ValueError):
            LaserSetup(0.0, 1e8)
        with pytest.raises(ValueError):
            LaserSetup(5e-7, math.nan)
        with pytest.raises(ValueError):
            derive_scales(LaserSetup(5e-7, 1e8), -1e-12)
        with pytest.raises(ValueError):
            derive_scales(LaserSetup(5e-7, 1e8), math.inf)

    def test_out_of_range_group_names_its_input(self):
        # a zero recoil energy divided, a float power overflowed, 0 * inf gave a NaN alpha
        for laser, t, key in ((LaserSetup(1e300, 0.0), 0.0, "wavelength_m"),
                              (LaserSetup(1e-300, 0.0), 0.0, "wavelength_m"),
                              (LaserSetup(1e-10, 1e300), 0.0, "field_V_per_m"),
                              (LaserSetup(1e-10, 1e150), 1e30, "time_s"),   # alpha = inf
                              (LaserSetup(1e-10, 0.0), 1e300, "time_s")):
            with pytest.raises(ValueError, match=f"^{key} .*out of floating-point range"):
                derive_scales(laser, t)

    def test_constants_override_scales_recoil(self):
        heavy = ElectronConstants(m=2.0 * model.M_ELECTRON)
        light = derive_scales(LaserSetup(1e-10, 0.0), 0.0)
        doubled = derive_scales(LaserSetup(1e-10, 0.0), 0.0, heavy)
        assert doubled.recoil_energy_J == pytest.approx(light.recoil_energy_J / 2.0, rel=1e-12)


class TestDimensionlessSetup:
    def test_consistency_enforced(self):
        DimensionlessSetup(u0=100.0, tau=0.04, alpha=2.0)
        with pytest.raises(ValueError):
            DimensionlessSetup(u0=100.0, tau=0.04, alpha=2.1)

    def test_ideal_limit(self):
        setup = DimensionlessSetup.from_alpha(2.0)
        assert math.isinf(setup.u0) and setup.tau == 0.0 and setup.alpha == 2.0

    def test_from_u0_alpha(self):
        setup = DimensionlessSetup.from_u0_alpha(1000.0, 2.0)
        assert setup.tau == pytest.approx(0.004, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DimensionlessSetup.from_alpha(-1.0)
        with pytest.raises(ValueError):
            DimensionlessSetup.from_u0_tau(-5.0, 0.1)


class TestMoments:
    def test_si_scaling(self):
        # a dipole of e * 10.5e-30 m against a hard-X-ray grating
        k_l = 2.0 * math.pi / 1e-10
        moments = moments_from_si(model.E_CHARGE * 10.5e-30, 0.0, k_l)
        assert moments.dipole == pytest.approx(6.597e-19, rel=1e-3)
        assert moments.quadrupole == 0.0

    def test_si_quadrupole_scaling(self):
        moments = moments_from_si(0.0, model.E_CHARGE * 2.0e-21, 2.0e10)
        assert moments.quadrupole == pytest.approx(2.0e-21 * 4.0e20, rel=1e-12)

    def test_implicit_monopole_and_padding(self):
        m = MomentSet((0.3, 0.1))
        assert m.moment(0) == 1.0
        assert m.moment(1) == 0.3 and m.dipole == 0.3
        assert m.moment(2) == 0.1 and m.quadrupole == 0.1
        assert m.moment(3) == 0.0
        with pytest.raises(ValueError):
            m.moment(-1)

    def test_from_dipole_quadrupole_with_higher(self):
        m = MomentSet.from_dipole_quadrupole(0.3, 0.1, (0.02,))
        assert m.max_order == 3 and m.moment(3) == 0.02

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MomentSet((math.nan,))


class TestPotential:
    def test_pointlike(self):
        spec = build_potential(MomentSet())
        assert (spec.offset, spec.a_c, spec.a_s) == (1.0, 1.0, 0.0)

    def test_dipole_quadrupole_coefficients(self):
        spec = build_potential(MomentSet((0.3, 0.1)))
        assert spec.offset == 1.0
        assert spec.a_c == pytest.approx(0.8, abs=1e-15)
        assert spec.a_s == pytest.approx(-0.6, abs=1e-15)

    def test_quadrupole_cancellation(self):
        assert build_potential(MomentSet((0.0, 0.5))).a_c == 0.0

    def test_coefficients_match_exact_rationals(self):
        # the series weights are exactly 2^m / m!
        moments = MomentSet((0.5, 0.25, 0.125, 0.0625))
        spec = build_potential(moments)
        a_c = Fraction(1) - Fraction(1, 4) * Fraction(2**2, 2) + Fraction(1, 16) * Fraction(2**4, 24)
        a_s = -Fraction(1, 2) * 2 + Fraction(1, 8) * Fraction(2**3, 6)
        assert spec.a_c == pytest.approx(float(a_c), rel=1e-15)
        assert spec.a_s == pytest.approx(float(a_s), rel=1e-15)

    def test_pointlike_profile_reduces_to_cos_squared(self):
        spec = build_potential(MomentSet())
        x = np.linspace(0.0, math.pi, 1000)
        assert np.max(np.abs(evaluate_potential(spec, x) - 2.0 * np.cos(x) ** 2)) <= 1e-14

    def test_profile_examples_and_period(self):
        spec = build_potential(MomentSet())
        assert float(evaluate_potential(spec, 0.0)) == 2.0
        x = np.linspace(-3.0, 3.0, 101)
        spec2 = build_potential(MomentSet((0.4, 0.2)))
        assert np.max(np.abs(evaluate_potential(spec2, x + math.pi)
                             - evaluate_potential(spec2, x))) <= 1e-12


class TestRegime:
    def test_good_configuration(self):
        setup = DimensionlessSetup.from_u0_tau(1000.0, 0.004)
        report = check_regime(setup, MomentSet((0.3, 0.1)))
        assert report.raman_nath_ok and report.ordering_ok
        assert report.raman_nath_ratio == 1000.0
        assert report.moment_ratios == (1.0, 0.3, 0.1)

    def test_marginal_band_noted(self):
        setup = DimensionlessSetup.from_u0_tau(50.0, 0.01)
        report = check_regime(setup, MomentSet())
        assert not report.raman_nath_ok
        assert "marginal" in report.notes

    def test_ordering_violation(self):
        setup = DimensionlessSetup.from_u0_tau(1000.0, 0.004)
        assert not check_regime(setup, MomentSet((0.1, 0.2))).ordering_ok
        assert not check_regime(setup, MomentSet((1.2, 0.3))).ordering_ok

    def test_trailing_zero_moments_ignored(self):
        setup = DimensionlessSetup.from_u0_tau(1000.0, 0.004)
        assert check_regime(setup, MomentSet((0.0, 0.0))).ordering_ok
        assert check_regime(setup, MomentSet((0.3, 0.0))).ordering_ok
        assert not check_regime(setup, MomentSet((0.0, 0.2))).ordering_ok

    def test_ordering_scale_invariant(self):
        # scaling all moments by c in (0, 1) cannot flip a passing hierarchy
        rng = np.random.default_rng(11)
        setup = DimensionlessSetup.from_u0_tau(1000.0, 0.004)
        for _ in range(20):
            qs = tuple(sorted(rng.uniform(0.0, 0.9, size=3), reverse=True))
            if check_regime(setup, MomentSet(qs)).ordering_ok:
                c = rng.uniform(0.05, 0.95)
                scaled = MomentSet(tuple(c * q for q in qs))
                assert check_regime(setup, scaled).ordering_ok

    def test_explorable_length_is_wavelength(self):
        setup = derive_scales(LaserSetup(1e-10, 1e8), 1e-15)
        report = check_regime(setup, MomentSet())
        assert report.explorable_length_m == pytest.approx(1e-10, rel=1e-9)

    def test_no_si_anchor(self):
        report = check_regime(DimensionlessSetup.from_alpha(2.0), MomentSet())
        assert report.explorable_length_m is None
        assert "explorable length unknown" in report.notes
        assert report.raman_nath_ok  # ideal limit

    def test_report_serializes(self):
        setup = DimensionlessSetup.from_u0_tau(1000.0, 0.004)
        d = check_regime(setup, MomentSet((0.3, 0.1))).as_dict()
        assert d["raman_nath_ok"] is True
        assert d["moment_ratios"] == [1.0, 0.3, 0.1]
