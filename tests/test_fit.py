import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdsim.analytic import closed_form_pattern, model_probabilities
from kdsim.fit import (
    FitResult, MomentRegion, ObservedPattern, band_radius, chi_square, joint_fit,
    moment_region, synthesize_counts, synthesize_gaussian,
)
import kdsim.fit as fit_mod
from kdsim.model import MomentSet, build_potential

from oracles import (
    circle_samples_loop, distribution_pattern, local_minima_loop, max_band_radius_bruteforce,
    scan_fit_golden_bisect,
)


def exact_observation(alpha, r_eff, orders=(0, 1, 2, 3), sigma=0.01):
    vals = model_probabilities(alpha, r_eff, orders)
    return ObservedPattern(orders=tuple(orders), values=tuple(vals),
                           sigmas=(sigma,) * len(orders), alpha=alpha)


def make_result(ci):
    return FitResult(r_eff_hat=0.5 * (ci[0] + ci[1]), chi2_min=0.0, dof=3,
                     ci=ci, delta_chi2=1.0, scan_r=(), scan_chi2=(),
                     local_minima=(), at_bound=False,
                     ci_at_bounds=(False, False), misfit=False, notes="")


class TestObservedPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedPattern((0, 1), (0.1, 0.1), (0.01, 0.01), 1.0)  # too few
        with pytest.raises(ValueError):
            ObservedPattern((0, 1, 1), (0.1,) * 3, (0.01,) * 3, 1.0)  # duplicate
        with pytest.raises(ValueError):
            ObservedPattern((0, 1, 2), (0.1, 0.2), (0.01,) * 3, 1.0)  # ragged
        with pytest.raises(ValueError):
            ObservedPattern((0, 1, 2), (0.1, 1.2, 0.1), (0.01,) * 3, 1.0)
        with pytest.raises(ValueError):
            ObservedPattern((0, 1, 2), (0.1,) * 3, (0.01, 0.0, 0.01), 1.0)
        with pytest.raises(ValueError):
            ObservedPattern((0, 1, 2), (0.1,) * 3, (0.01,) * 3, -1.0)

    def test_chi_square_zero_at_truth(self):
        obs = exact_observation(2.0, 0.8)
        assert chi_square(obs, 0.8) == 0.0
        assert chi_square(obs, 0.7) > 1.0
        with pytest.raises(ValueError):
            chi_square(obs, -0.1)


class TestBatchedEvaluation:
    def test_array_of_r_matches_scalar_calls_bit_for_bit(self):
        rs = np.linspace(0.0, 2.0, 301)
        for alpha, orders in ((2.0, (0, 1, 2, 3)), (37.0, tuple(range(-6, 9))),
                              (90.0, (0, 2, 5, 11, 17, 23, 29, 31, 40))):
            model = model_probabilities(alpha, rs, orders)
            np.testing.assert_array_equal(
                model, [model_probabilities(alpha, r, orders) for r in rs])
            obs = ObservedPattern(orders, tuple(model_probabilities(alpha, 0.83, orders)),
                                  (0.01,) * len(orders), alpha)
            chis = chi_square(obs, rs)
            assert chis.shape == rs.shape
            np.testing.assert_array_equal(chis, [chi_square(obs, r) for r in rs])
        assert isinstance(chi_square(obs, 0.8), float)

    def test_array_r_validated(self):
        obs = exact_observation(2.0, 0.8)
        for bad in ([0.1, -0.1], [0.1, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="r_eff"):
                chi_square(obs, np.array(bad))

    def test_scalar_r_gives_a_float_and_is_validated(self):
        obs = exact_observation(2.0, 0.8)
        for r in (0.8, np.float64(0.8), np.array(0.8), 1):
            assert type(chi_square(obs, r)) is float
        for bad in (-0.1, -1e-300, math.nan, math.inf, -math.inf, np.float64(math.nan), -1):
            with pytest.raises(ValueError, match="r_eff"):
                chi_square(obs, bad)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_scalar_calls_equal_the_array_call_bit_for_bit(self, data):
        # 3 to 200 orders (an observation holds at least 3), |p| up to 150:
        # past 128 terms both add each half on its own
        n = data.draw(st.integers(fit_mod.MIN_ORDERS, 200), "n_orders")
        alpha = data.draw(st.floats(0.1, 120.0), "alpha")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31), "seed"))
        orders = rng.choice(np.arange(-150, 151), n, replace=False).tolist()
        obs = ObservedPattern(orders, tuple(rng.random(len(orders)) ** 4),
                              tuple(10.0 ** rng.uniform(-4, -1, len(orders))), alpha)
        rs = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 6)])
        chis = chi_square(obs, rs)
        assert np.array([chi_square(obs, float(r)) for r in rs]).tobytes() == chis.tobytes()

    def test_grid_scan_is_one_chi_square_call_per_dataset(self, monkeypatch):
        # the benchmark counts chi-square evaluations as np.size of the r
        # argument and splits them into grid scan and refinement on this shape
        seen = []
        original = fit_mod.chi_square

        def counting(observed, r_eff):
            seen.append(np.size(r_eff) if np.ndim(r_eff) else None)
            return original(observed, r_eff)

        monkeypatch.setattr(fit_mod, "chi_square", counting)
        data = [exact_observation(2.0, 0.8), exact_observation(3.5, 0.8, orders=(0, 1, 2, 4, 5))]
        joint_fit(data, n_grid=257)
        grid_calls = [n for n in seen if n is not None]
        assert grid_calls == [257, 257]
        assert seen[:2] == grid_calls  # the scan comes first, then scalar refinement
        assert len(seen) > 2

    @pytest.mark.parametrize("n_sets", [2, 3])
    def test_joint_scan_equals_the_summed_scalar_calls(self, n_sets):
        # datasets with their own alpha and order cap: each scan value is the
        # scalar chi-squares summed, bit for bit
        data = [synthesize_gaussian(1.3, 0.7, range(-2, 5), 3),
                synthesize_counts(4.6, 0.7, range(0, 13), 4, shots=20000),
                synthesize_gaussian(2.9, 0.7, (0, 1, 3, 6, 9), 5, rel_sigma=0.03)][:n_sets]
        fit = joint_fit(data, bounds=(0.1, 1.9), n_grid=233)
        want = [sum(chi_square(obs, r) for obs in data) for r in fit.scan_r]
        assert list(fit.scan_chi2) == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_pairwise_sum_is_np_sum(data):
    # the helper adds floats, and the rows of an (order, r) block column by
    # column, in np.sum's order: under 8, up to 128 and over 128 terms
    n = data.draw(st.integers(1, 300), "n_terms")
    rows = data.draw(st.integers(1, 4), "n_rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), "seed"))
    a = rng.random((rows, n)) * 10.0 ** rng.uniform(-10.0, 10.0, (rows, n))
    want = np.sum(a, axis=-1)
    assert np.array([fit_mod._pairwise_sum(row.tolist()) for row in a]).tobytes() \
        == want.tobytes()
    assert fit_mod._pairwise_sum(np.ascontiguousarray(a.T)).tobytes() == want.tobytes()


def scalar_chi_square_calls(monkeypatch):
    """List that grows by one entry per scalar chi_square call made by kdsim.fit."""
    seen = []
    original = fit_mod.chi_square

    def counting(observed, r_eff):
        if np.ndim(r_eff) == 0:
            seen.append(r_eff)
        return original(observed, r_eff)

    monkeypatch.setattr(fit_mod, "chi_square", counting)
    return seen


class TestRefinement:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_golden_section_and_bisection(self, data):
        r_true = data.draw(st.floats(0.05, 1.95), "r_eff")
        datasets = []
        for i in range(data.draw(st.integers(1, 3), "n_sets")):
            n = data.draw(st.integers(3, 14), f"n_orders{i}")
            start = data.draw(st.integers(-n, 0), f"first_order{i}")
            alpha = data.draw(st.floats(0.3, 8.0), f"alpha{i}")
            seed = data.draw(st.integers(0, 2**31), f"seed{i}")
            if data.draw(st.booleans(), f"counts{i}"):
                datasets.append(synthesize_counts(
                    alpha, r_true, range(start, start + n), seed,
                    shots=data.draw(st.sampled_from([10**3, 10**4, 10**5, 10**6]), f"shots{i}")))
            else:
                datasets.append(synthesize_gaussian(
                    alpha, r_true, range(start, start + n), seed,
                    rel_sigma=data.draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.05, 0.2]), f"noise{i}")))
        r_min = data.draw(st.sampled_from([0.0, 0.0, 0.3, 0.9]), "r_min")
        bounds = (r_min, r_min + data.draw(st.floats(0.2, 2.0), "width"))
        delta_chi2 = data.draw(st.floats(0.05, 30.0), "delta_chi2")
        n_grid = data.draw(st.integers(fit_mod.MIN_GRID, 400), "n_grid")

        fit = joint_fit(datasets, bounds=bounds, delta_chi2=delta_chi2, n_grid=n_grid)
        ref = scan_fit_golden_bisect(lambda r: sum(chi_square(obs, r) for obs in datasets),
                                     bounds, delta_chi2, n_grid, fit_mod._GOLDEN_TOL)
        for key in ("scan_r", "scan_chi2", "local_minima", "at_bound", "ci_at_bounds"):
            assert getattr(fit, key) == ref[key], key
        assert abs(fit.r_eff_hat - ref["r_eff_hat"]) <= fit_mod._GOLDEN_TOL
        assert fit.chi2_min <= ref["chi2_min"] + 1e-8 * max(1.0, fit.chi2_min)
        for end, clipped, want in zip(fit.ci, fit.ci_at_bounds, ref["ci"]):
            if not clipped:
                assert abs(end - want) <= 1e-9 * max(1.0, abs(end))

    def test_first_step_is_the_vertex_of_the_start_parabola(self):
        evaluated = []

        def parabola(r):
            evaluated.append(r)
            return 3.0 + 50.0 * (r - 0.3137) ** 2

        start = [(r, parabola(r)) for r in (0.31, 0.32, 0.30)]
        del evaluated[:]
        (r_hat, chi_hat), *_ = fit_mod._brent_minimum(parabola, start, fit_mod._GOLDEN_TOL)
        assert evaluated[0] == pytest.approx(0.3137, abs=1e-12)
        assert r_hat == pytest.approx(0.3137, abs=1e-12)
        assert len(evaluated) <= 3

    def test_two_dataset_refinement_work(self, monkeypatch):
        # the grid-scan case of test_grid_scan_is_one_chi_square_call_per_dataset:
        # golden section and bisection made 188 scalar calls there
        seen = scalar_chi_square_calls(monkeypatch)
        data = [exact_observation(2.0, 0.8), exact_observation(3.5, 0.8, orders=(0, 1, 2, 4, 5))]
        joint_fit(data, n_grid=257)
        assert len(seen) <= 60

    def test_unresolved_minimum_ends_from_curvature_seed(self, monkeypatch):
        # no scan point lies under the threshold: each end search starts at
        # r_hat -+ sqrt(2 delta_chi2 / curvature), next to its crossing
        obs = exact_observation(6.0, 0.8137, orders=tuple(range(-6, 7)), sigma=1e-4)
        fit = joint_fit([obs])
        assert all(c > fit.chi2_min + fit.delta_chi2 for c in fit.scan_chi2)
        seen = scalar_chi_square_calls(monkeypatch)
        assert joint_fit([obs]) == fit
        assert len(seen) <= 20
        for end in fit.ci:
            assert chi_square(obs, end) == pytest.approx(fit.chi2_min + 1.0, abs=1e-6)


class TestDegeneracy:
    def test_profiles_identical_for_equal_band_radius(self):
        # (0.3, 0.1) and the pointlike charge share r_eff = 1: pattern data
        # from either produces the same chi-square landscape everywhere
        orders = (0, 1, 2, 3)
        a = distribution_pattern(2.0, MomentSet((0.3, 0.1)))
        b = closed_form_pattern(2.0, MomentSet((0.0, 0.0)))
        obs_a = ObservedPattern(orders, tuple(a.probability(p) for p in orders),
                                (0.01,) * 4, 2.0)
        obs_b = ObservedPattern(orders, tuple(b.probability(p) for p in orders),
                                (0.01,) * 4, 2.0)
        for r in np.linspace(0.0, 2.0, 41):
            assert chi_square(obs_a, r) == pytest.approx(chi_square(obs_b, r),
                                                         rel=1e-12, abs=1e-12)

    def test_alpha_r_products_cohere(self):
        # the data only know alpha * r_eff: fits at different alphas agree on it
        fit_a = joint_fit([exact_observation(2.0, 0.8)])
        fit_b = joint_fit([exact_observation(4.0, 0.4)])
        assert 2.0 * fit_a.r_eff_hat == pytest.approx(4.0 * fit_b.r_eff_hat, abs=1e-6)


class TestRecovery:
    def test_on_grid_truth_exact(self):
        fit = joint_fit([exact_observation(2.0, 0.8)])
        assert fit.r_eff_hat == pytest.approx(0.8, abs=1e-9)
        assert fit.chi2_min == 0.0
        assert fit.dof == 3
        assert not (fit.at_bound or fit.misfit)

    def test_off_grid_truth_refined(self):
        fit = joint_fit([exact_observation(2.0, 0.8137)])
        assert fit.r_eff_hat == pytest.approx(0.8137, abs=1e-6)

    def test_interval_brackets_truth(self):
        fit = joint_fit([exact_observation(2.0, 0.8137)])
        assert fit.ci[0] < 0.8137 < fit.ci[1]
        wide = joint_fit([exact_observation(2.0, 0.8137)], delta_chi2=4.0)
        assert wide.ci[0] < fit.ci[0] and wide.ci[1] > fit.ci[1]

    def test_monte_carlo_calibration(self):
        rng = np.random.default_rng(2024)
        orders = tuple(range(-4, 5))
        hits = cover = 0
        worst = 0.0
        for _ in range(50):
            obs = synthesize_gaussian(2.0, 0.8, orders, rng)
            fit = joint_fit([obs])
            err = abs(fit.r_eff_hat - 0.8)
            worst = max(worst, err)
            hits += err <= 0.02
            cover += fit.ci[0] <= 0.8 <= fit.ci[1]
        assert hits == 50
        assert worst <= 0.005
        assert cover >= 25  # one-sigma interval: expect ~34 of 50


class TestLandscape:
    def test_multiple_minima_reported(self):
        # few orders at large alpha leave aliases; the scan must surface them
        obs = exact_observation(5.0, 0.8, orders=(0, 1, 2))
        fit = joint_fit([obs])
        assert fit.r_eff_hat == pytest.approx(0.8, abs=1e-6)
        assert len(fit.local_minima) >= 3
        rs = [r for r, _ in fit.local_minima]
        assert any(abs(r - 0.8) < 0.01 for r in rs)
        recount = local_minima_loop(fit.scan_chi2)
        assert fit.local_minima == tuple((fit.scan_r[i], fit.scan_chi2[i]) for i in recount)

    def test_bound_hit_is_flagged(self):
        obs = exact_observation(2.0, 1.0)
        fit = joint_fit([obs], bounds=(0.0, 0.5))
        assert fit.r_eff_hat == 0.5
        assert fit.at_bound
        assert fit.ci_at_bounds[1]
        assert "bound" in fit.notes

    def test_incompatible_datasets_flag_misfit(self):
        tight_a = exact_observation(2.0, 0.5, sigma=1e-5)
        tight_b = exact_observation(2.0, 1.0, sigma=1e-5)
        fit = joint_fit([tight_a, tight_b])
        assert fit.misfit
        assert "misfit" in fit.notes
        assert fit.reduced_chi2 > 4.0

    def test_scan_is_recorded(self):
        fit = joint_fit([exact_observation(2.0, 0.8)])
        assert len(fit.scan_r) == 201
        assert fit.scan_r[0] == 0.0 and fit.scan_r[-1] == 2.0
        assert len(fit.scan_chi2) == 201


class TestJointFit:
    def test_shared_radius_pooled(self):
        obs = [exact_observation(1.5, 0.8), exact_observation(2.5, 0.8)]
        fit = joint_fit(obs)
        assert fit.r_eff_hat == pytest.approx(0.8, abs=1e-9)
        assert fit.dof == 7

    def test_pooling_narrows_interval(self):
        a = exact_observation(1.5, 0.8137)
        b = exact_observation(2.5, 0.8137)
        joint = joint_fit([a, b])
        for single in (joint_fit([a]), joint_fit([b])):
            assert single.ci[0] <= joint.ci[0]
            assert single.ci[1] >= joint.ci[1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            joint_fit([])
        with pytest.raises(ValueError):
            joint_fit([{"orders": (0, 1, 2)}])
        obs = exact_observation(2.0, 0.8)
        with pytest.raises(ValueError):
            joint_fit([obs], bounds=(1.0, 0.5))
        with pytest.raises(ValueError):
            joint_fit([obs], bounds=(-0.5, 2.0))
        with pytest.raises(ValueError):
            joint_fit([obs], n_grid=100)
        with pytest.raises(ValueError):
            joint_fit([obs], delta_chi2=0.0)
        with pytest.raises(ValueError, match="delta_chi2"):  # a NaN rise gave an interval
            joint_fit([obs], delta_chi2=math.nan)


class TestMomentRegion:
    def test_unit_radius_passes_through_known_points(self):
        region = moment_region(make_result((1.0, 1.0)), n_samples=4096)
        pts = np.vstack([arr for _, arr in region.contours if arr.size])
        d_point = np.min(np.hypot(pts[:, 0] - 0.0, pts[:, 1] - 0.0))
        d_example = np.min(np.hypot(pts[:, 0] - 0.3, pts[:, 1] - 0.1))
        assert d_point <= 1e-8   # the circle hits (0, 0) exactly at one end
        assert d_example <= 1e-3
        assert not region.is_empty

    def test_samples_satisfy_band_inequality(self):
        region = moment_region(make_result((0.95, 1.05)), n_samples=512)
        for _, arr in region.contours:
            for d, q in arr:
                assert 0.0 <= d < 1.0 and 0.0 <= q < 1.0
                assert 0.95 - 1e-9 <= band_radius(d, q) <= 1.05 + 1e-9

    def test_unreachable_band_is_empty(self):
        # nothing in the validity square reaches r_eff = 2.5
        assert max_band_radius_bruteforce() < 2.5
        region = moment_region(make_result((2.5, 2.6)))
        assert region.is_empty
        assert "does not intersect" in region.note

    def test_zero_radius_collapses_to_center(self):
        region = moment_region(make_result((0.0, 0.0)))
        inner = dict(region.contours)["inner"]
        assert inner.shape == (1, 2)
        assert tuple(inner[0]) == (0.0, 0.5)

    def test_contours_match_per_point_band_check(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            r_lo, r_hi = np.sort(rng.uniform(0.0, 2.4, 2))
            if rng.uniform() < 0.2:
                r_hi = r_lo   # a point estimate: both contours on one circle
            n = int(rng.choice([2, 7, 512]))
            contours = dict(moment_region(make_result((r_lo, r_hi)), n_samples=n).contours)
            for label, r in (("inner", r_lo), ("outer", r_hi)):
                np.testing.assert_array_equal(contours[label],
                                              circle_samples_loop(r, r_lo, r_hi, n))

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_region(make_result((1.0, 1.0)), n_samples=1)
        with pytest.raises(ValueError):
            moment_region(make_result((-0.5, 1.0)))


class TestSynthesis:
    def test_gaussian_deterministic_per_seed(self):
        a = synthesize_gaussian(2.0, 0.8, (0, 1, 2), 42)
        b = synthesize_gaussian(2.0, 0.8, (0, 1, 2), 42)
        c = synthesize_gaussian(2.0, 0.8, (0, 1, 2), 43)
        assert a.values == b.values
        assert a.values != c.values

    def test_gaussian_sigma_structure(self):
        obs = synthesize_gaussian(2.0, 0.8, (0, 1, 2, 8), 42)
        model = model_probabilities(2.0, 0.8, (0, 1, 2, 8))
        for s, m in zip(obs.sigmas, model):
            assert s == pytest.approx(max(0.01 * m, 1e-4), rel=1e-12)
        assert obs.sigmas[3] == 1e-4  # tiny probability hits the floor
        assert all(0.0 <= v <= 1.0 for v in obs.values)

    def test_rng_required(self):
        with pytest.raises(ValueError, match="seed"):
            synthesize_gaussian(2.0, 0.8, (0, 1, 2), None)

    def test_counts_close_to_model(self):
        shots = 200000
        obs = synthesize_counts(2.0, 0.8, (0, 1, 2), 7, shots=shots)
        model = model_probabilities(2.0, 0.8, (0, 1, 2))
        for v, m, s in zip(obs.values, model, obs.sigmas):
            assert abs(v - m) <= 5.0 * s
            assert s >= 1e-4

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            synthesize_counts(2.0, 0.8, (0, 1, 2), 7, shots=0)
        with pytest.raises(ValueError, match="seed"):
            synthesize_counts(2.0, 0.8, (0, 1, 2), None)

    def test_counts_fit_recovers(self):
        obs = synthesize_counts(2.0, 0.8, tuple(range(-3, 4)), 7, shots=500000)
        fit = joint_fit([obs])
        assert fit.r_eff_hat == pytest.approx(0.8, abs=0.01)


def test_band_radius_examples():
    # the scan's band_radius is the potential's r_eff, bit for bit
    def r_eff(d, q):
        r = build_potential(MomentSet((d, q))).r_eff
        assert band_radius(d, q) == r, (d, q)
        return r

    assert r_eff(0.0, 0.0) == 1.0
    assert r_eff(0.3, 0.1) == pytest.approx(1.0, abs=1e-15)
    assert r_eff(0.0, 0.5) == 0.0
    assert r_eff(0.5, 0.5) == 1.0
    for d, q in np.random.default_rng(404).uniform(0.0, 1.0, size=(20000, 2)):
        r_eff(d, q)
