import math

import mpmath as mp
import numpy as np
import pytest

from kdsim.analytic import (
    closed_form_pattern, default_order_cutoff, grating_oracle, model_probabilities,
)
from kdsim.bessel import bessel_values
from kdsim.model import MomentSet, build_potential

from oracles import (
    distribution_coefficients, distribution_pattern, pattern_distance, pointlike_pattern,
)

# reference squares, frozen from a 40-digit power-series evaluation
J0_1_SQ = 0.58552749951366402438
J0_2_SQ = 0.050127080984469568505
J1_2_SQ = 0.33261150388220256589
J2_2_SQ = 0.12449185174914065685


class TestPointlike:
    def test_frozen_values(self):
        pat = pointlike_pattern(2.0)
        assert pat.probability(0) == pytest.approx(J0_2_SQ, abs=1e-13)
        assert pat.probability(1) == pytest.approx(J1_2_SQ, abs=1e-13)
        assert pat.probability(-1) == pytest.approx(J1_2_SQ, abs=1e-13)
        assert pat.probability(2) == pytest.approx(J2_2_SQ, abs=1e-13)

    def test_zero_alpha_is_delta(self):
        pat = pointlike_pattern(0.0)
        assert pat.probability(0) == 1.0
        assert all(v == 0.0 for p, v in pat.probabilities.items() if p != 0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            pointlike_pattern(-1.0)
        with pytest.raises(ValueError):
            pointlike_pattern(math.nan)
        with pytest.raises(ValueError):
            pointlike_pattern(2.0, order_cutoff=-1)

    def test_default_cutoff_margin(self):
        assert default_order_cutoff(2.0) == 32
        assert default_order_cutoff(10.0, 0.5) == 35
        pat = pointlike_pattern(2.0)
        assert pat.order_cutoff == 32
        assert pat.orders == tuple(range(-32, 33))


class TestEffectiveAmplitude:
    def test_examples(self):
        # the effective amplitude of the cos(2kx) term is the potential's r_eff
        def r_eff(moments):
            return build_potential(moments).r_eff

        assert r_eff(MomentSet()) == 1.0
        assert r_eff(MomentSet((0.3, 0.1))) == pytest.approx(1.0, abs=1e-15)
        assert r_eff(MomentSet((0.0, 0.5))) == 0.0
        assert r_eff(MomentSet((0.5, 0.5))) == pytest.approx(1.0, abs=1e-15)


class TestOneModel:
    def test_closed_form_is_model_probabilities(self):
        # the command line's pattern and the fit's model are one function, whose
        # values are the correctly rounded squares of one Bessel row
        rng = np.random.default_rng(20251)
        cases = [(4.001400526026084, MomentSet((0.0, 0.5 * (1.0 - 0.6896784078894238))))]
        for _ in range(600):
            alpha = 60.0 * (1.0 - rng.random())   # (0, 60]
            d, q = rng.uniform(0.0, 0.45, size=2)
            higher = tuple(rng.uniform(-0.1, 0.1, size=rng.integers(0, 3)))
            cases.append((alpha, MomentSet((d, q) + higher)))
        for alpha, moments in cases:
            pattern = closed_form_pattern(alpha, moments)
            r_eff = build_potential(moments).r_eff
            orders = np.array(pattern.orders)
            row = bessel_values(pattern.order_cutoff, alpha * r_eff)
            model = model_probabilities(alpha, r_eff, orders)
            assert list(pattern.probabilities.values()) == model.tolist(), (alpha, moments)
            assert model.tolist() == [row[abs(p)] * row[abs(p)] for p in orders]
        # the example that read one ulp apart while the pattern squared each scalar:
        # the correctly rounded square of the row's J_28, 2.6e-16 from mpmath's
        alpha, moments = cases[0]
        r_eff = build_potential(moments).r_eff
        assert r_eff == 0.6896784078894238
        pattern = closed_form_pattern(alpha, moments)
        p28 = pattern.probability(-28)
        j28 = bessel_values(pattern.order_cutoff, alpha * r_eff)[28]
        assert p28 == j28 * j28 == 6.383143017283807e-52
        with mp.workdps(40):
            assert p28 == pytest.approx(float(mp.besselj(28, alpha * r_eff) ** 2), rel=1e-14)

    @pytest.mark.parametrize("orders", [[0, 1.5, 2.7], [0, 1, math.inf], np.array([0.0, 0.5])])
    def test_model_refuses_fractional_orders(self, orders):
        with pytest.raises(ValueError, match="orders must be integral"):
            model_probabilities(1.0, 1.0, orders)
        assert model_probabilities(1.0, 1.0, [0, 1.0, np.int64(2)]).tolist() == (
            model_probabilities(1.0, 1.0, [0, 1, 2]).tolist())

    @pytest.mark.parametrize("cutoff", [2.9, math.nan, math.inf])
    def test_closed_form_refuses_a_fractional_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="order_cutoff must be integral"):
            closed_form_pattern(1.0, MomentSet(), order_cutoff=cutoff)
        assert closed_form_pattern(1.0, MomentSet(), order_cutoff=2.0).orders == tuple(range(-2, 3))


class TestDistribution:
    def test_matches_closed_form_on_grid(self):
        for alpha in (0.5, 2.0, 7.0):
            for d in (0.0, 0.3, 0.45):
                for q in (0.0, 0.1, 0.45):
                    moments = MomentSet((d, q))
                    a = distribution_pattern(alpha, moments)
                    b = closed_form_pattern(alpha, moments)
                    max_abs, _ = pattern_distance(a, b)
                    assert max_abs <= 1e-12, (alpha, d, q)

    def test_unitarity_on_grid(self):
        for alpha in (0.5, 2.0, 7.0):
            for d in (0.0, 0.3, 0.45):
                for q in (0.0, 0.1, 0.45):
                    total = distribution_pattern(alpha, MomentSet((d, q))).total()
                    assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_coefficient_reflection(self):
        # c_{-p} = (-1)^p conj(c_p), so the pattern is symmetric about p = 0
        orders, coeffs = distribution_coefficients(3.0, MomentSet((0.35, 0.2)))
        cut = orders[-1]
        for p in range(1, cut + 1):
            lhs = coeffs[cut - p]
            rhs = (-1.0) ** p * np.conj(coeffs[cut + p])
            assert abs(lhs - rhs) <= 1e-12

    def test_pattern_symmetry(self):
        pat = distribution_pattern(2.5, MomentSet((0.3, 0.1)))
        for p in range(1, pat.order_cutoff + 1):
            assert pat.probability(-p) == pytest.approx(pat.probability(p), abs=1e-12)

    def test_quadrupole_only_reduces_to_single_row(self):
        # d~ = 0, q~ = 0.25 leaves one quadrature of amplitude alpha / 2
        pat = distribution_pattern(2.0, MomentSet((0.0, 0.25)))
        assert pat.probability(0) == pytest.approx(J0_1_SQ, abs=1e-13)

    def test_higher_moments_rejected_with_pointer(self):
        with pytest.raises(ValueError, match="closed_form_pattern"):
            distribution_pattern(1.0, MomentSet((0.3, 0.1, 0.02)))


class TestGratingOracle:
    def test_three_routes_agree(self):
        moments = MomentSet((0.3, 0.1))
        spec = build_potential(moments)
        a = distribution_pattern(2.0, moments)
        b = closed_form_pattern(2.0, moments)
        c = grating_oracle(spec, 2.0)
        assert pattern_distance(a, b)[0] <= 1e-12
        assert pattern_distance(a, c)[0] <= 1e-12
        assert pattern_distance(b, c)[0] <= 1e-12

    def test_covers_higher_moments(self):
        moments = MomentSet((0.3, 0.1, 0.02))
        spec = build_potential(moments)
        a = closed_form_pattern(2.0, moments)
        b = grating_oracle(spec, 2.0)
        assert pattern_distance(a, b)[0] <= 1e-10

    def test_conjugate_mask_same_probabilities(self):
        spec = build_potential(MomentSet((0.3, 0.1)))
        plus = grating_oracle(spec, 2.0)
        minus = grating_oracle(spec, -2.0)
        assert pattern_distance(plus, minus)[0] <= 1e-12

    def test_grid_validation(self):
        spec = build_potential(MomentSet())
        with pytest.raises(ValueError, match="power of two"):
            grating_oracle(spec, 2.0, n_grid=100)
        with pytest.raises(ValueError, match="aliases"):
            grating_oracle(spec, 2.0, n_grid=32)

    def test_oracle_unitarity(self):
        spec = build_potential(MomentSet((0.3, 0.1)))
        total = grating_oracle(spec, 5.0).total()
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPatternDistance:
    def test_identical_is_zero(self):
        pat = pointlike_pattern(2.0)
        assert pattern_distance(pat, pat) == (0.0, 0.0)

    def test_known_separation(self):
        wide = pointlike_pattern(2.0, order_cutoff=1)
        delta = pointlike_pattern(0.0, order_cutoff=1)
        max_abs, tv = pattern_distance(wide, delta)
        assert max_abs == pytest.approx(1.0 - J0_2_SQ, abs=1e-13)
        assert tv == pytest.approx(0.5 * ((1.0 - J0_2_SQ) + 2.0 * J1_2_SQ), abs=1e-13)

    def test_disjoint_orders_raise(self):
        a = pointlike_pattern(0.5, order_cutoff=0)
        b = distribution_pattern(0.5, MomentSet(), order_cutoff=3)
        shifted = type(b)(probabilities={5: 1.0}, generator="test")
        with pytest.raises(ValueError):
            pattern_distance(a, shifted)


class TestTailAccounting:
    def test_tight_cutoff_flags_leakage(self):
        pat = pointlike_pattern(2.0, order_cutoff=2)
        expected_tail = 1.0 - (J0_2_SQ + 2.0 * J1_2_SQ + 2.0 * J2_2_SQ)
        assert pat.tail_mass == pytest.approx(expected_tail, abs=1e-12)
        assert pat.cutoff_warning
        assert pat.probability(3) == 0.0

    def test_default_cutoff_is_clean(self):
        pat = pointlike_pattern(2.0)
        assert abs(pat.tail_mass) <= 1e-10
        assert not pat.cutoff_warning


def test_central_order_decreases_before_first_node():
    # J_0 has its first zero near 2.405; below that P_0 falls monotonically
    alphas = np.linspace(0.0, 2.4, 25)
    p0 = [pointlike_pattern(a).probability(0) for a in alphas]
    assert all(b < a for a, b in zip(p0, p0[1:]))
