import dataclasses
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdsim import tdse
from kdsim.model import (
    DimensionlessSetup, MomentSet, PotentialSpec, build_potential,
    evaluate_potential,
)
from kdsim.tdse import (
    _EMPTY_SECTOR, _EXACT_MAX_ORDERS, _KICK_BLOCK, _REACH_TOL, ENVELOPES, Grid1D, WaveState,
    _half_kicks, _order_reach, init_gaussian, init_plane_wave, max_potential,
    order_probabilities, plan_run,
)

from oracles import (
    binned_orders_loop, envelope_weights, pattern_distance, pointlike_pattern,
    propagate_cell_eigh, propagate_cell_fft, propagate_full_box, run_exact, run_stepped,
    stepped_sectors,
)

POINTLIKE = build_potential(MomentSet())


def thin_setup(alpha, u0=1000.0):
    return DimensionlessSetup(u0=u0, alpha=alpha)


def plane_plan(setup, spec=POINTLIKE, **plan_kw):
    """plan_run of an order-0 plane wave on the default grid."""
    return plan_run(init_plane_wave(Grid1D()), spec, setup, **plan_kw)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(n_points=1000)
        with pytest.raises(ValueError):
            Grid1D(n_points=256, n_periods=8)
        with pytest.raises(ValueError):
            Grid1D(n_periods=0)

    def test_geometry(self):
        grid = Grid1D()
        assert grid.box_length == pytest.approx(8.0 * math.pi)
        assert grid.positions().shape == (1024,)
        assert grid.wavenumbers()[1] == pytest.approx(0.25, rel=1e-12)

    def test_mode_index(self):
        grid = Grid1D()
        assert grid.mode_index(2.0) == 8
        assert grid.mode_index(-0.25) == -1
        with pytest.raises(ValueError, match="incommensurate"):
            grid.mode_index(0.3)


class TestInitialStates:
    def test_plane_wave_normalized_single_bin(self):
        state = init_plane_wave(Grid1D())
        assert state.norm == pytest.approx(1.0, rel=1e-12)
        pat = order_probabilities(state)
        assert pat.probability(0) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_center_taken_modulo_box(self):
        grid = Grid1D()
        inside = init_gaussian(grid, center=3.0, sigma=2.0)
        outside = init_gaussian(grid, center=3.0 - 5.0 * grid.box_length, sigma=2.0)
        assert np.max(np.abs(outside.psi - inside.psi)) <= 1e-12

    def test_plane_wave_offset_order(self):
        state = init_plane_wave(Grid1D(), order_offset=2)
        assert state.k0 == 4.0
        # relative to its own carrier it is order 0; relative to k = 0 it is order 2
        assert order_probabilities(state).probability(0) == pytest.approx(1.0, abs=1e-13)
        about_zero = WaveState(state.grid, k0=0.0, spectrum=state.spectrum)
        assert order_probabilities(about_zero).probability(2) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_normalized(self):
        grid = Grid1D()
        state = init_gaussian(grid, center=grid.box_length / 2.0, sigma=2.0)
        assert state.norm == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_width_limits(self):
        grid = Grid1D()
        with pytest.raises(ValueError, match="narrow"):
            init_gaussian(grid, center=10.0, sigma=2.0 * grid.dx)
        init_gaussian(grid, center=10.0, sigma=grid.box_length / 6.0)  # boundary ok
        with pytest.raises(ValueError, match="wide"):
            init_gaussian(grid, center=10.0, sigma=1.01 * grid.box_length / 6.0)

    def test_gaussian_carrier_must_fit_grid(self):
        grid = Grid1D()
        with pytest.raises(ValueError, match="incommensurate"):
            init_gaussian(grid, center=10.0, sigma=2.0, k0=0.3)

    @pytest.mark.parametrize("center", [math.inf, -math.inf, math.nan])
    def test_gaussian_center_must_be_finite(self, center):
        # it gave an all-NaN state, with only numpy's RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="center must be finite"):
                init_gaussian(Grid1D(), center, 3.0)

    def test_wide_gaussian_sits_in_central_order(self):
        grid = Grid1D()
        state = init_gaussian(grid, center=grid.box_length / 2.0, sigma=4.0)
        assert order_probabilities(state).probability(0) >= 1.0 - 1e-6


class TestWaveState:
    """A state holds a read-only view of its spectrum and derives psi, read-only."""

    @pytest.mark.parametrize("n_points, n_periods", [(1024, 8), (2048, 8), (512, 3)])
    def test_round_trip(self, n_points, n_periods):
        grid = Grid1D(n_points, n_periods)
        limit = (n_points // n_periods - 1) // 2
        starts = [init_plane_wave(grid, offset) for offset in (0, 1, -3, limit, -limit)]
        starts.append(init_gaussian(grid, 1.0, grid.box_length / 8, 6.0 / n_periods))
        for start in starts:
            again = WaveState(grid, spectrum=np.fft.fft(start.psi), k0=start.k0)
            assert np.max(np.abs(again.psi - start.psi)) <= 1e-15
            assert again.norm == pytest.approx(start.norm, rel=1e-14)
            assert again.norm == pytest.approx(np.vdot(start.psi, start.psi).real * grid.dx,
                                               rel=1e-14)

    def test_derived_arrays_are_read_only(self):
        grid = Grid1D()
        for state in (init_plane_wave(grid, 2), init_gaussian(grid, 3.0, 2.0)):
            for array in (state.spectrum, state.psi):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
            assert state.psi is state.psi  # derived once
        given = np.fft.fft(init_gaussian(grid, 3.0, 2.0).psi)
        state = WaveState(grid, spectrum=given)
        assert np.shares_memory(state.spectrum, given) and given.flags.writeable  # a view

    def test_needs_one_array_of_the_grid(self):
        grid = Grid1D()
        psi = init_plane_wave(grid).psi
        with pytest.raises(TypeError):
            WaveState(grid, psi)  # never misread as a spectrum
        with pytest.raises(TypeError):
            WaveState(grid, psi=psi)
        with pytest.raises(TypeError):
            WaveState(grid)
        with pytest.raises(ValueError, match="spectrum has shape"):
            WaveState(grid, spectrum=np.ones(512))

    @pytest.mark.parametrize("n_points, n_periods", [(1024, 8), (16384, 8), (512, 3)])
    def test_plane_wave_is_one_exact_bin(self, n_points, n_periods):
        grid = Grid1D(n_points, n_periods)
        limit = (n_points // n_periods - 1) // 2
        j = np.arange(n_points)
        for offset in (0, 1, -2, limit, -limit):
            state = init_plane_wave(grid, offset)
            mode = offset * n_periods
            assert np.flatnonzero(state.spectrum).tolist() == [mode % n_points]
            # exp(i k0 x) / sqrt(L) at x_j: k0 x_j = 2 pi mode j / n_points, reduced exactly
            want = np.exp(2j * math.pi * (mode * j % n_points) / n_points)
            assert np.max(np.abs(state.psi - want / math.sqrt(grid.box_length))) <= 1e-15
            assert state.norm == pytest.approx(1.0, rel=1e-15)


class TestBinning:
    def test_window_edges_are_half_open(self):
        # k = +1 sits on the upper edge of order 0 and belongs to order 1;
        # k = -1 sits on the lower edge of order 0 and belongs to order 0
        grid = Grid1D()
        x = grid.positions()
        up = WaveState(grid, spectrum=np.fft.fft(np.exp(1j * x) / math.sqrt(grid.box_length)))
        down = WaveState(grid, spectrum=np.fft.fft(np.exp(-1j * x) / math.sqrt(grid.box_length)))
        assert order_probabilities(up).probability(1) == pytest.approx(1.0, abs=1e-13)
        assert order_probabilities(down).probability(0) == pytest.approx(1.0, abs=1e-13)

    def test_default_max_order(self):
        pat = order_probabilities(init_plane_wave(Grid1D()))
        assert pat.order_cutoff == 63

    @pytest.mark.parametrize("make_state, max_order", [
        (lambda g: init_plane_wave(g, order_offset=1), 5),
        (lambda g: init_gaussian(g, 3.0, 2.0, k0=0.5), 20),  # many modes per order
        (lambda g: init_gaussian(g, 3.0, 2.0, k0=0.5), 2),   # truncating cutoff
    ], ids=["plane_offset", "gaussian", "gaussian_truncated"])
    def test_matches_loop_oracle(self, make_state, max_order):
        grid = Grid1D(n_points=2048, n_periods=8)
        state = make_state(grid)
        pat = order_probabilities(state, max_order=max_order)
        assert pat.probabilities == binned_orders_loop(
            state.spectrum, grid.n_periods, grid.mode_index(state.k0), max_order)

    def test_zero_state_rejected(self):
        grid = Grid1D()
        dead = WaveState(grid, spectrum=np.zeros(grid.n_points))
        with pytest.raises(ValueError, match="zero norm"):
            order_probabilities(dead)
        with pytest.raises(ValueError):
            order_probabilities(init_plane_wave(grid), max_order=-1)


class TestPlan:
    def test_covers_tau_exactly(self):
        setup = thin_setup(2.0)
        plan = plane_plan(setup)
        assert plan.n_steps * plan.d_tau == pytest.approx(setup.tau, rel=1e-15)
        assert max_potential(setup, POINTLIKE) * plan.d_tau <= 0.05 * (1.0 + 1e-12)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(u0=st.floats(10.0, 1000.0), alpha=st.floats(0.0, 20.0),
           d_tau=st.one_of(st.none(), st.floats(1e-3, 1.0)), envelope=st.sampled_from(ENVELOPES),
           kinetic=st.booleans(), moments=st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.4)))
    def test_every_plan_covers_tau(self, u0, alpha, d_tau, envelope, kinetic, moments):
        # the one planner takes the pulse length from the setup alone
        setup = DimensionlessSetup(u0=u0, alpha=alpha)
        spec = build_potential(MomentSet(moments))
        plan = plane_plan(setup, spec, d_tau=d_tau, envelope=envelope, include_kinetic=kinetic)
        assert plan.n_steps * plan.d_tau == pytest.approx(setup.tau, rel=1e-15)
        assert (plan.n_steps == 0) == (setup.tau == 0.0)
        largest = 0.05 / max_potential(setup, spec) if d_tau is None else d_tau
        assert plan.d_tau <= largest * (1.0 + 1e-9)
        assert (plan.envelope, plan.route == "thin") == (envelope, not kinetic)

    def test_explicit_step_rounded_up(self):
        setup = thin_setup(2.0)  # tau = 0.004
        plan = plane_plan(setup, d_tau=0.003)
        assert plan.n_steps == 2
        assert plan.d_tau == pytest.approx(0.002)

    def test_zero_duration(self):
        setup = DimensionlessSetup(u0=100.0, tau=0.0)
        plan = plane_plan(setup, d_tau=0.01)
        assert (plan.n_steps, plan.d_tau) == (0, 0.0)

    def test_ideal_limit_rejected(self):
        with pytest.raises(ValueError):
            plane_plan(DimensionlessSetup(alpha=2.0))

    def test_schedule_validation(self):
        for schedule, why in (
            ({"envelope": "flat"}, "unknown envelope 'flat'"),
            ({"envelope": "sin2_ramp", "ramp_fraction": 0.6},
             "ramp_fraction must be in (0, 0.5], got 0.6"),
            ({"snapshot_every": -1}, "snapshot_every must be >= 0, got -1"),
            # checked whether or not the plan uses them: a given d_tau overrides
            # max_step_phase, and a pulse of tau = 0 takes no step
            ({"d_tau": 0.01, "max_step_phase": -3.0}, "max_step_phase must be finite and > 0"),
            ({"max_step_phase": math.inf}, "max_step_phase must be finite and > 0, got inf"),
            ({"d_tau": -1.0}, "d_tau must be finite and > 0, got -1.0"),
            ({"d_tau": 0.0}, "d_tau must be finite and > 0, got 0.0"),
            ({"d_tau": math.nan}, "d_tau must be finite and > 0, got nan"),
        ):
            for tau in (0.1, 0.0):
                with pytest.raises(ValueError, match=re.escape(why)):
                    plane_plan(DimensionlessSetup(u0=100.0, tau=tau), **schedule)


class TestThinGratingPath:
    def test_matches_direct_phase_mask(self):
        grid = Grid1D()
        setup = thin_setup(1.5, u0=40.0)
        state = init_plane_wave(grid)
        out = run_stepped(plan_run(state, POINTLIKE, setup, d_tau=setup.tau / 60.0,
                                   include_kinetic=False))
        v = 0.5 * setup.u0 * evaluate_potential(POINTLIKE, grid.positions())
        direct = np.exp(-1j * v * setup.tau) * state.psi
        assert np.max(np.abs(out.psi - direct)) <= 1e-13

    def test_reproduces_bessel_pattern(self):
        setup = thin_setup(2.0)
        out = run_stepped(plane_plan(setup, include_kinetic=False))
        got = order_probabilities(out, max_order=12)
        want = pointlike_pattern(2.0, order_cutoff=12)
        assert pattern_distance(got, want)[0] <= 1e-10

    def test_ramp_accumulates_effective_area(self):
        grid = Grid1D()
        setup = thin_setup(2.0, u0=40.0)  # tau = 0.1
        plan = plan_run(init_plane_wave(grid), POINTLIKE, setup, d_tau=setup.tau / 40.0,
                        include_kinetic=False, envelope="sin2_ramp", ramp_fraction=0.25)
        out = run_stepped(plan)
        area = float(np.sum(plan.weights) * plan.d_tau)
        assert area < setup.tau  # ramps remove pulse area
        want = pointlike_pattern(0.5 * setup.u0 * area, order_cutoff=12)
        got = order_probabilities(out, max_order=12)
        assert pattern_distance(got, want)[0] <= 1e-12

    def test_zero_steps_identity(self):
        grid = Grid1D()
        state = init_plane_wave(grid)
        out = run_stepped(plan_run(state, POINTLIKE, DimensionlessSetup(u0=1000.0, tau=0.0)))
        assert np.array_equal(out.psi, state.psi)

    def test_no_step_phase_warning(self):
        # one exact phase of the pulse area: d_tau changes nothing, so no warning
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        coarse = plane_plan(setup, d_tau=0.01, include_kinetic=False)  # 3 rad per step
        assert coarse.route == "thin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tdse.run(coarse)
        assert max_order_gap(out, tdse.run(plane_plan(setup, include_kinetic=False))) <= 1e-15


class TestSplitStep:
    def test_near_thin_grating_at_large_u0(self):
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        out = run_stepped(plane_plan(setup))
        got = order_probabilities(out, max_order=10)
        want = pointlike_pattern(1.5, order_cutoff=10)
        assert pattern_distance(got, want)[0] <= 1e-3

    def test_norm_preserved_over_many_steps(self):
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        out = run_stepped(plane_plan(setup, d_tau=setup.tau / 500.0))
        assert abs(out.norm - 1.0) <= 1e-11

    def test_second_order_step_convergence(self):
        grid = Grid1D()
        setup = DimensionlessSetup(u0=20.0, alpha=1.0)  # tau = 0.1
        state = init_plane_wave(grid)

        def final_psi(n_steps):
            return run_stepped(plan_run(state, POINTLIKE, setup, d_tau=setup.tau / n_steps)).psi

        ref = final_psi(320)
        err_coarse = np.max(np.abs(final_psi(40) - ref))
        err_fine = np.max(np.abs(final_psi(80) - ref))
        # Strang splitting is O(d_tau^2): halving the step should cut the
        # error by ~4 (4.2 exactly, given the reference at d_tau / 8)
        assert 3.5 <= err_coarse / err_fine <= 4.5

    def test_grating_translation_leaves_pattern_invariant(self):
        # shifting the standing wave rotates (a_c, a_s); probabilities cannot move
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        spec = build_potential(MomentSet((0.3, 0.1)))
        delta = 0.7
        c, s = math.cos(2.0 * delta), math.sin(2.0 * delta)
        shifted = PotentialSpec(offset=spec.offset,
                                a_c=spec.a_c * c + spec.a_s * s,
                                a_s=-spec.a_c * s + spec.a_s * c)
        base = order_probabilities(run_stepped(plane_plan(setup, spec)), max_order=10)
        moved = order_probabilities(run_stepped(plane_plan(setup, shifted)), max_order=10)
        assert pattern_distance(base, moved)[0] <= 1e-12

    def test_wavepacket_orders_aggregate_like_plane_wave(self):
        grid = Grid1D()
        setup = thin_setup(1.5)
        packet = init_gaussian(grid, center=grid.box_length / 2.0, sigma=4.0)
        out = run_stepped(plan_run(packet, POINTLIKE, setup, include_kinetic=False))
        got = order_probabilities(out, max_order=10)
        want = pointlike_pattern(1.5, order_cutoff=10)
        assert pattern_distance(got, want)[0] <= 1e-6


class TestDiagnostics:
    def test_large_step_warns(self):
        setup = thin_setup(2.0, u0=100.0)  # tau = 0.04
        plan = plane_plan(setup, d_tau=0.002)  # 0.2 rad per step
        with pytest.warns(UserWarning, match="phase per step"):
            run_stepped(plan)

    def test_corrupted_state_raises(self):
        grid = Grid1D()
        spectrum = init_plane_wave(grid).spectrum.copy()
        bad = WaveState(grid, spectrum=spectrum)
        spectrum[3] = math.nan  # the state holds a view of it
        plan = plan_run(bad, POINTLIKE, DimensionlessSetup(u0=1000.0, tau=1e-4), d_tau=1e-4)
        with pytest.raises(RuntimeError, match="unitarity"):
            run_stepped(plan)

    def test_ideal_limit_rejected(self):
        with pytest.raises(ValueError):  # tau = 0: no step to take, and no finite u0
            plane_plan(DimensionlessSetup(alpha=2.0), d_tau=1e-4)


class TestSnapshots:
    @pytest.mark.parametrize("include_kinetic", [True, False])
    def test_callback_schedule(self, include_kinetic):
        setup = thin_setup(0.5, u0=100.0)
        plan = plane_plan(setup, d_tau=setup.tau / 12.0, include_kinetic=include_kinetic,
                          snapshot_every=5)
        seen = []
        run_stepped(plan, snapshot_callback=lambda step, tau, st: seen.append((step, tau, st.norm)))
        assert [s[0] for s in seen] == [5, 10]
        assert seen[0][1] == pytest.approx(5.0 * plan.d_tau)
        assert all(abs(n - 1.0) <= 1e-10 for _, _, n in seen)

    def test_no_snapshots_by_default(self):
        setup = thin_setup(0.5, u0=100.0)
        seen = []
        run_stepped(plane_plan(setup, d_tau=setup.tau / 12.0),
                    snapshot_callback=lambda *a: seen.append(a))
        assert seen == []


def sector_weights(state):
    """Weight of each Bloch sector s (FFT bins a*f + s), heaviest first."""
    grid = state.grid
    f = math.gcd(grid.n_points, grid.n_periods)
    power = np.sum(np.abs(np.fft.fft(state.psi).reshape(-1, f).T) ** 2, axis=1)
    return np.sort(power / power.sum())[::-1]


def stepped_bins(plan):
    """(mask of the FFT bins the stepped route steps, points of the cell it steps them on).

    Those are the live sectors' band columns.  A bin is occupied when it holds
    over _EMPTY_SECTOR / n_points of the weight, and a sector is live when it
    holds an occupied bin.  The band is the occupied columns, widened by the
    pulse's reach (n_periods / f columns per order) on both sides and centred
    in the least power of two of columns; the whole cell when that is as wide,
    or without the kinetic term.
    """
    state, spec, setup = plan.state, plan.spec, plan.setup
    grid = state.grid
    f = math.gcd(grid.n_points, grid.n_periods)
    cell = grid.n_points // f
    power = np.abs(np.fft.fft(state.psi).reshape(cell, f).T) ** 2
    occupied = power > _EMPTY_SECTOR / grid.n_points * power.sum()
    live = occupied.any(axis=1)
    cols = np.arange(cell)
    if plan.route != "thin":
        occupied = np.flatnonzero(occupied.any(axis=0))
        signed = np.where(occupied < cell // 2, occupied, occupied - cell)
        area = np.sum(envelope_weights(plan)) * plan.d_tau
        reach = _order_reach(0.5 * setup.u0 * area * math.hypot(spec.a_c, spec.a_s))
        low = signed.min() - reach * (grid.n_periods // f)
        width = signed.max() + reach * (grid.n_periods // f) + 1 - low
        if width < cell:
            m = 1 << int(width - 1).bit_length()
            cols = (low - (m - width) // 2 + np.arange(m)) % cell
    mask = np.zeros((f, cell), dtype=bool)
    mask[np.ix_(live, cols)] = True
    return mask.T.reshape(-1), cols.size


def admixed_start(rng, grid):
    """A seeded plane wave or Gaussian packet near order 0, plus one to three bins
    within 20 orders of it, each of weight 10^U(-25, -19): the weights straddle
    both a bin's occupancy threshold (_EMPTY_SECTOR / n_points) and a sector's
    share of it (_EMPTY_SECTOR / f)."""
    n, h = grid.n_points, grid.n_periods
    if rng.random() < 0.5:
        state = init_plane_wave(grid, int(rng.integers(-3, 4)))
    else:
        state = init_gaussian(grid, rng.uniform(0.0, grid.box_length),
                              rng.uniform(1.0, grid.box_length / 6.0),
                              2.0 * int(rng.integers(-2 * h, 2 * h + 1)) / h)
    spectrum = state.spectrum.copy()
    scale = math.sqrt(np.sum(np.abs(spectrum) ** 2))
    for mode in rng.integers(-20 * h, 20 * h + 1, size=rng.integers(1, 4)):
        weight = 10.0 ** rng.uniform(-25.0, -19.0)
        spectrum[mode % n] += scale * math.sqrt(weight) * np.exp(2j * math.pi * rng.random())
    return WaveState(grid, spectrum=spectrum, k0=state.k0)


class TestBlochSectors:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_full_box(self, data):
        n_points = data.draw(st.sampled_from([256, 512, 1024, 2048, 4096]), "n_points")
        n_periods = data.draw(st.integers(1, min(8, n_points // 64)), "n_periods")
        grid = Grid1D(n_points, n_periods)
        plane = data.draw(st.booleans(), "plane")
        if plane:
            reach = (n_points // n_periods - 1) // 2  # largest offset that does not alias
            state = init_plane_wave(grid, data.draw(st.integers(-reach, reach), "offset"))
        else:
            k0 = 2.0 * data.draw(st.integers(-4 * n_periods, 4 * n_periods), "k0_units") / n_periods
            state = init_gaussian(
                grid, data.draw(st.floats(0.0, grid.box_length), "center"),
                data.draw(st.floats(4.0 * grid.dx, grid.box_length / 6.0), "sigma"), k0)
        spec = build_potential(MomentSet((data.draw(st.floats(0.0, 0.4), "d"),
                                          data.draw(st.floats(0.0, 0.4), "q"))))
        setup = DimensionlessSetup(u0=data.draw(st.sampled_from([30.0, 300.0]), "u0"),
                                   alpha=data.draw(st.floats(0.2, 3.0), "alpha"))
        plan = plan_run(state, spec, setup,
                        envelope=data.draw(st.sampled_from(ENVELOPES), "envelope"),
                        include_kinetic=data.draw(st.booleans(), "kinetic"))

        out, shapes = stepped_sectors(lambda: run_stepped(plan))
        want = order_probabilities(propagate_full_box(plan))
        got = order_probabilities(out)
        assert max(abs(got.probabilities[p] - want.probabilities[p]) for p in got.orders) <= 1e-13

        f = math.gcd(n_points, n_periods)
        (live, points), = shapes
        assert points == stepped_bins(plan)[1]
        assert live == (1 if plane else f)
        assert np.sum(sector_weights(state)[live:]) <= _EMPTY_SECTOR

    def test_threshold_steps_every_sector_above_it(self):
        grid = Grid1D()  # 8 sectors of 128 points; a bin is occupied over 1e-20 / 1024
        x = grid.positions()
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        # admixed weights 1e-24 (carried), 1e-22 (under 1e-20 / 8 of its sector's
        # share, but an occupied bin: stepped) and 1e-18
        for eps, live in ((1e-12, 1), (1e-11, 2), (1e-9, 2)):
            psi = (np.exp(2j * x) + eps * np.exp(0.25j * x)) / math.sqrt(grid.box_length)
            state = WaveState(grid, spectrum=np.fft.fft(psi / math.sqrt(1.0 + eps**2)), k0=2.0)
            plan = plan_run(state, POINTLIKE, setup)
            out, shapes = stepped_sectors(lambda: run_stepped(plan))
            assert shapes == {(live, stepped_bins(plan)[1])}
            assert np.sum(sector_weights(state)[live:]) <= _EMPTY_SECTOR
            want = propagate_full_box(plan)
            assert np.max(np.abs(out.psi - want.psi)) <= 1e-13 + (eps if live == 1 else 0.0)

    @pytest.mark.parametrize("seed", range(16))
    def test_one_occupancy_rule(self, seed):
        # plan.occupied alone picks the stepped sectors and the exact chains
        rng = np.random.default_rng(seed)
        grid = Grid1D(1024, int(rng.choice([8, 6, 4])))
        n, h = grid.n_points, grid.n_periods
        f = math.gcd(n, h)
        state = admixed_start(rng, grid)
        spec = build_potential(MomentSet((rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4))))
        setup = DimensionlessSetup(u0=float(rng.choice([30.0, 300.0])), alpha=rng.uniform(0.5, 3.0))
        envelope = ENVELOPES[int(rng.integers(2))]
        plan = plan_run(state, spec, setup, envelope=envelope)
        occupied = plan.occupied.reshape(-1, f).T
        live = np.flatnonzero(occupied.any(axis=1))

        out, shapes = stepped_sectors(lambda: run_stepped(plan))
        assert shapes == {(live.size, stepped_bins(plan)[1])}
        start = state.spectrum.reshape(-1, f).T
        moved = np.flatnonzero(np.any(out.spectrum.reshape(-1, f).T != start, axis=1))
        assert moved.tolist() == live.tolist()

        signed = np.flatnonzero(plan.occupied)
        signed = np.where(signed < n // 2, signed, signed - n)
        if plan.route == "exact":
            assert (plan.modes[:, 0] % h).tolist() == np.unique(signed % h).tolist()
            assert np.all(np.diff(plan.modes, axis=1) == h)
        else:
            assert plan.modes is None
        fields = {field.name for field in dataclasses.fields(tdse.RunPlan)}
        assert fields.isdisjoint({"valid", "power"})


class TestOrderBand:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_cell_fft(self, data):
        # gcd(n_points, n_periods) < n_periods puts one order on several columns;
        # offsets at the alias limit wrap the band round the cell's Nyquist column
        n_points = data.draw(st.sampled_from([256, 512, 1024, 2048]), "n_points")
        n_periods = data.draw(st.integers(1, min(8, n_points // 64)), "n_periods")
        grid = Grid1D(n_points, n_periods)
        if data.draw(st.booleans(), "plane"):
            limit = (n_points // n_periods - 1) // 2  # the largest offset that does not alias
            offset = data.draw(st.one_of(st.sampled_from([-limit, limit - 1, limit]),
                                         st.integers(-limit, limit)), "offset")
            state = init_plane_wave(grid, offset)
        else:
            k0 = 2.0 * data.draw(st.integers(-4 * n_periods, 4 * n_periods), "k0_units") / n_periods
            state = init_gaussian(
                grid, data.draw(st.floats(0.0, grid.box_length), "center"),
                data.draw(st.floats(4.0 * grid.dx, grid.box_length / 6.0), "sigma"), k0)
        spec = build_potential(MomentSet((data.draw(st.floats(0.0, 0.4), "d"),
                                          data.draw(st.floats(0.0, 0.4), "q"))))
        setup = DimensionlessSetup(u0=data.draw(st.sampled_from([30.0, 300.0]), "u0"),
                                   alpha=data.draw(st.floats(0.2, 3.0), "alpha"))
        n_steps = data.draw(st.integers(1, 300), "n_steps")  # past one kick block at m >= 64
        schedule = dict(d_tau=setup.tau / n_steps,
                        envelope=data.draw(st.sampled_from(ENVELOPES), "envelope"),
                        snapshot_every=data.draw(st.integers(0, n_steps), "snapshot_every"))
        plan = plan_run(state, spec, setup, **schedule)

        # the bins beyond the band, at most _EMPTY_SECTOR of the weight, are
        # carried: here the start's rounding noise, up to 1e-13 of psi at the
        # alias limit; the oracle steps the rest
        spectrum = np.fft.fft(state.psi)
        stepped = stepped_bins(plan)[0]
        carried = np.fft.ifft(np.where(stepped, 0.0, spectrum))
        banded = WaveState(grid, spectrum=np.where(stepped, spectrum, 0.0), k0=state.k0)
        got, want = {}, {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coarse plans warn in both
            out = run_stepped(plan, lambda j, t, s: got.setdefault(j, (t, s.psi)))
            ref = propagate_cell_fft(plan_run(banded, spec, setup, **schedule),
                                     lambda j, t, s: want.setdefault(j, (t, s.psi + carried)))
            whole = propagate_cell_fft(plan)
        ref = WaveState(grid, spectrum=np.fft.fft(ref.psi + carried), k0=state.k0)
        assert max_order_gap(out, ref) <= 1e-13
        assert np.max(np.abs(out.psi - ref.psi)) <= 1e-13
        assert sorted(got) == sorted(want)
        for j, (tau, psi) in got.items():
            assert tau == want[j][0]
            assert np.max(np.abs(psi - want[j][1])) <= 1e-13
        # and the whole start, carried noise included, agrees with the oracle's run
        assert max_order_gap(out, whole) <= 1e-13
        # the carried bins' evolution moves psi by at most twice their l2 norm / sqrt(n)
        bound = 2.0 * np.linalg.norm(spectrum[~stepped]) / math.sqrt(grid.n_points)
        assert np.max(np.abs(out.psi - whole.psi)) <= 1e-13 + bound

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_blocked_kicks_bit_identical_to_per_step(self, envelope):
        v = 0.5 * 300.0 * evaluate_potential(build_potential(MomentSet((0.3, 0.1))),
                                             Grid1D().positions()[:128])
        # blocks of _KICK_BLOCK / 128 steps on a 128-point cell
        n_steps = 2 * _KICK_BLOCK // 128 + 37
        setup = DimensionlessSetup(u0=300.0, tau=n_steps * 1e-4)
        plan = plane_plan(setup, d_tau=1e-4, envelope=envelope)
        kicks = list(_half_kicks(v, plan))
        assert len(kicks) == plan.n_steps == n_steps
        for w, kick in zip(envelope_weights(plan), kicks):
            want = np.exp(-0.5j * v * w * plan.d_tau)
            assert np.array_equal(kick, want)
            assert np.array_equal(np.signbit(kick.view(float)), np.signbit(want.view(float)))

    def test_only_a_ramp_holds_per_step_weights(self):
        # 10^5 steps of an order-0 plane wave: the exact route takes none of them,
        # and a rectangular pulse's area is n_steps * d_tau, as the sum of unit weights
        setup = DimensionlessSetup(u0=300.0, tau=1e5 * 1e-7)
        flat = plane_plan(setup, d_tau=1e-7)
        assert flat.route == "exact" and flat.n_steps > 10 * flat.state.grid.n_points
        assert flat.weights is None
        for field in dataclasses.fields(flat):
            value = getattr(flat, field.name)
            assert not (isinstance(value, np.ndarray) and value.size >= flat.n_steps), field.name
        area = float(np.sum(envelope_weights(flat))) * flat.d_tau
        assert flat.reach == _order_reach(0.5 * setup.u0 * area)
        ramp = plane_plan(setup, d_tau=1e-7, envelope="sin2_ramp")
        assert np.array_equal(ramp.weights, envelope_weights(ramp))

    def test_band_cell_is_a_power_of_two_inside_the_cell(self):
        # a plane wave at order 0 of 2048 points over 8 periods (cells of 256):
        # reach 16 over the ramp's area, so 33 columns on a cell of 64 points
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        plan = plan_run(init_plane_wave(Grid1D(2048, 8)), POINTLIKE, setup, envelope="sin2_ramp")
        out, shapes = stepped_sectors(lambda: run_stepped(plan))
        assert shapes == {(1, stepped_bins(plan)[1])} == {(1, 64)}
        want = propagate_cell_fft(plan)
        assert np.max(np.abs(out.psi - want.psi)) <= 1e-13


def max_order_gap(a, b):
    """Largest |P_p| difference between two states' default order tables."""
    pa, pb = order_probabilities(a), order_probabilities(b)
    return max(abs(pa.probabilities[p] - pb.probabilities[p]) for p in pa.orders)


def exact_case(u0, alpha, moments=(0.3, 0.1), order_offset=0, n_points=1024, n_periods=8,
               sigma=None, k0_units=0, **plan_kw):
    """The plan of a plane wave at order_offset, or with sigma a Gaussian packet with
    carrier k0_units grid steps, under a rectangular pulse."""
    setup = DimensionlessSetup(u0=u0, alpha=alpha)
    spec = build_potential(MomentSet(moments))
    grid = Grid1D(n_points, n_periods)
    if sigma is None:
        state = init_plane_wave(grid, order_offset)
    else:
        state = init_gaussian(grid, grid.box_length / 3, sigma, 2.0 * k0_units / n_periods)
    return plan_run(state, spec, setup, **plan_kw)


def reach_bound(x, reach):
    """x (x/2)^P / P! exp(x^2 / (4(P+1))) in extended precision."""
    x = mp.mpf(x)
    return x * (x / 2) ** reach / mp.factorial(reach) * mp.exp(x**2 / (4 * (reach + 1)))


class TestExactRoute:
    # (d~, q~) = (0.3, 0.1) gives a_s = -0.6 != 0, so the gauge phase is exercised
    CASES = [
        *[dict(u0=u0, alpha=alpha) for u0 in (10.0, 100.0, 300.0, 1000.0)
          for alpha in (0.5, 2.0, 8.0, 20.0)],
        dict(u0=100.0, alpha=8.0, order_offset=1),
        dict(u0=10.0, alpha=20.0, order_offset=1),
        dict(u0=300.0, alpha=2.0, moments=(0.0, 0.4)),  # a_s = 0
        dict(u0=300.0, alpha=20.0, n_points=2048),
        dict(u0=10.0, alpha=8.0, n_points=2048, order_offset=1),
        dict(u0=100.0, alpha=8.0, n_periods=6),
        dict(u0=1000.0, alpha=20.0, n_periods=3),
        dict(u0=10.0, alpha=2.0, n_periods=3, order_offset=1),
    ]
    # Gaussian packets fill every chain of their sectors: 8 chains of one
    # sector each at 8 periods, 2 sectors of 3 chains at 6, 1 sector of 3 at 3
    PACKETS = [
        dict(u0=100.0, alpha=2.0, sigma=math.pi),  # the CLI's default packet
        dict(u0=300.0, alpha=8.0, sigma=1.0, k0_units=3),
        dict(u0=10.0, alpha=4.0, sigma=0.5, k0_units=-5),
        dict(u0=1000.0, alpha=20.0, sigma=2.0),
        dict(u0=30.0, alpha=1.0, sigma=1.5, n_points=2048, k0_units=4),
        dict(u0=100.0, alpha=4.0, sigma=1.0, n_periods=6, k0_units=1),
        dict(u0=300.0, alpha=2.0, sigma=0.7, n_periods=3, n_points=512),
    ]

    @pytest.mark.parametrize("case", CASES + PACKETS)
    def test_matches_cell_diagonalization(self, case):
        plan = exact_case(**case, snapshot_every=17)
        assert plan.route == "exact"
        got, want = {}, {}
        out = run_exact(plan, snapshot_callback=lambda j, t, s: got.setdefault(j, (t, s.psi)))
        ref = propagate_cell_eigh(plan,
                                  snapshot_callback=lambda j, t, s: want.setdefault(j, (t, s.psi)))
        assert max_order_gap(out, ref) <= 1e-10
        assert np.max(np.abs(out.psi - ref.psi)) <= 1e-10
        assert sorted(got) == list(range(17, plan.n_steps + 1, 17)) == sorted(want)
        for j, (tau, psi) in got.items():
            assert tau == want[j][0] == j * plan.d_tau
            assert np.max(np.abs(psi - want[j][1])) <= 1e-10

    @pytest.mark.parametrize("case", CASES)
    def test_ten_more_orders_move_nothing(self, case, monkeypatch):
        if case["alpha"] == 20.0 and case.get("n_periods", 8) == 8:
            # reach + 10 = 65 orders: 1024 points over 8 periods bin orders
            # -64..63, so the ten extra orders fit only on 2048 points
            case = dict(case, n_points=2048)
        plan = exact_case(**case)
        base = order_probabilities(run_exact(plan)).probabilities
        monkeypatch.setattr(tdse, "_order_reach", lambda x: _order_reach(x) + 10)
        wider = exact_case(**case)
        assert wider.route == "exact"
        more = order_probabilities(run_exact(wider)).probabilities
        # the added orders gain nothing; the others differ by the rounding of a
        # second, larger eigh (up to 3e-15 seen), not by what the reach left out
        x = plan.setup.alpha * math.hypot(plan.spec.a_c, plan.spec.a_s)
        assert max(more[p] for p in more if abs(p) > _order_reach(x)) <= 1e-15
        assert max(abs(more[p] - base[p]) for p in base) <= 1e-14

    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 10.0, 20.0, 37.3, 150.0])
    def test_reach_is_least_bounded_order(self, x):
        reach = _order_reach(x)
        assert reach >= x and reach_bound(x, reach) <= _REACH_TOL
        assert reach - 1 < x or reach_bound(x, reach - 1) > _REACH_TOL
        # the path-counting bound holds for the Bessel function it bounds
        assert x * mp.besseli(reach, x) <= reach_bound(x, reach)

    def test_reach_values(self):
        assert [_order_reach(x) for x in (0.0, 2.0, 10.0, 20.0)] == [0, 19, 38, 55]

    def test_strang_converges_at_second_order(self):
        plan = exact_case(20.0, 1.0)  # tau = 0.1
        state, spec, setup = plan.state, plan.spec, plan.setup
        exact = run_exact(plan_run(state, spec, setup, d_tau=setup.tau))
        errors = [np.max(np.abs(exact.psi - run_stepped(
            plan_run(state, spec, setup, d_tau=setup.tau / n)).psi)) for n in (40, 80, 160)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_strang_converges_at_second_order_for_a_packet(self):
        plan = exact_case(20.0, 1.0, sigma=1.0, k0_units=2)  # tau = 0.1
        state, spec, setup = plan.state, plan.spec, plan.setup
        exact = run_exact(plan_run(state, spec, setup, d_tau=setup.tau))
        errors = [np.max(np.abs(exact.psi - run_stepped(
            plan_run(state, spec, setup, d_tau=setup.tau / n)).psi)) for n in (40, 80, 160)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("u0", [100.0, 300.0, 1000.0])
    def test_default_plan_strang_error(self, u0):
        # the contract's size: exact-route outputs move from Strang's by at most this
        for alpha in (0.5, 2.0, 8.0, 20.0):
            for moments in ((0.0, 0.0), (0.3, 0.1), (0.4, 0.4)):
                for offset in (0, 1):
                    plan = exact_case(u0, alpha, moments, offset)
                    assert max_order_gap(run_exact(plan), run_stepped(plan)) <= 1e-5

    def test_route_predicate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the route choice ran a propagation")

        for name in ("_stepped", "_exact"):
            monkeypatch.setattr(tdse, name, refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        plan = exact_case(300.0, 2.0)
        assert plan.route == "exact"
        state, spec, setup = plan.state, plan.spec, plan.setup
        grid = state.grid
        for change, route in (({"envelope": "sin2_ramp"}, "stepped"),
                              ({"include_kinetic": False}, "thin")):
            assert plan_run(state, spec, setup, **change).route == route
        with pytest.raises(ValueError, match="u0 must be finite"):
            plan_run(state, spec, DimensionlessSetup(alpha=2.0))

        # a start at order 63 of 1024 points over 8 periods has no order above it
        assert plan_run(init_plane_wave(grid, 63), spec, setup).route == "stepped"
        # any start state: a packet fills all 8 chains of the grid
        packet = init_gaussian(grid, grid.box_length / 2, grid.box_length / 8)
        assert plan_run(packet, spec, setup).route == "exact"

        # the size cap is on what _exact diagonalizes: a basis of 2 P + 1 orders from
        # order 1, on a grid that bins +-1023 of them; from order 0 the even block of
        # P + 1, so P = 513 is served there, and on a grid that bins +-2047 orders the
        # cap falls between P = 1024 and 1025; and the grid's: 1024 points over 8
        # periods bin orders -64..63
        wide = init_plane_wave(Grid1D(16384, 8))
        off = init_plane_wave(Grid1D(16384, 8), 1)
        wider = init_plane_wave(Grid1D(32768, 8))
        half = (_EXACT_MAX_ORDERS - 1) // 2
        for reach, start, served in ((half, off, True), (half + 1, off, False),
                                     (half, wide, True), (half + 1, wide, True),
                                     (_EXACT_MAX_ORDERS - 1, wider, True),
                                     (_EXACT_MAX_ORDERS, wider, False),
                                     (63, state, True), (64, state, False)):
            monkeypatch.setattr(tdse, "_order_reach", lambda x, reach=reach: reach)
            assert (plan_run(start, spec, setup).route == "exact") is served
        # the cap is on the stack: 8 chains of about 2 P orders each pass
        # 1025^2 entries between P = 150 and 200, where one chain is served
        packet = init_gaussian(wide.grid, wide.grid.box_length / 2, wide.grid.box_length / 8)
        for reach, start, served in ((150, packet, True), (200, packet, False), (200, wide, True)):
            monkeypatch.setattr(tdse, "_order_reach", lambda x, reach=reach: reach)
            assert (plan_run(start, spec, setup).route == "exact") is served

    @pytest.mark.parametrize("case", [case for case in CASES if "order_offset" not in case])
    def test_even_block_matches_the_full_stack(self, case, monkeypatch):
        # an order-0 plane wave: orders 0..reach in the parity-even basis, one
        # eigh of half the band's size, against the whole band's stack
        plan = exact_case(**case, snapshot_every=17)
        assert plan.route == "exact" and plan.even
        sizes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: sizes.append(h.shape) or eigh(h))
        runs = []
        for each in (plan, dataclasses.replace(plan, even=False)):
            snaps = []
            runs.append((tdse.run(each, lambda j, t, s: snaps.append((j, t, s.psi))), snaps))
        size = plan.modes.shape[1]
        assert sizes == [(1, size // 2 + 1, size // 2 + 1), (1, size, size)]
        (even, even_snaps), (full, full_snaps) = runs
        assert max_order_gap(even, full) <= 1e-13
        assert np.max(np.abs(even.psi - full.psi)) <= 1e-13
        assert [(j, t) for j, t, _ in even_snaps] == [(j, t) for j, t, _ in full_snaps]
        assert len(even_snaps) == plan.n_steps // 17
        for (_, _, a), (_, _, b) in zip(even_snaps, full_snaps):
            assert np.max(np.abs(a - b)) <= 1e-13

    @pytest.mark.parametrize("case", [
        dict(u0=300.0, alpha=2.0, order_offset=1), dict(u0=100.0, alpha=8.0, order_offset=-1),
        dict(u0=300.0, alpha=2.0, sigma=1.0), dict(u0=100.0, alpha=2.0, sigma=math.pi),
        dict(u0=300.0, alpha=8.0, sigma=1.0, k0_units=3),
    ])
    def test_other_starts_keep_the_full_stack(self, case, monkeypatch):
        plan = exact_case(**case)
        assert plan.route == "exact" and not plan.even
        sizes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: sizes.append(h.shape) or eigh(h))
        tdse.run(plan)
        assert sizes == [plan.modes.shape + plan.modes.shape[1:]]

    @pytest.mark.parametrize("route, change", [
        ("exact", {}), ("stepped", {"envelope": "sin2_ramp"}),
        ("thin", {"include_kinetic": False}),
    ])
    def test_plan_runs_twice_alike(self, route, change):
        # each run writes into its own copy of the plan's spectrum
        plan = exact_case(300.0, 2.0, sigma=1.0, k0_units=1, snapshot_every=7, **change)
        assert plan.route == route and not plan.state.spectrum.flags.writeable
        runs = []
        for _ in range(2):
            snaps = []
            out = tdse.run(plan, lambda j, t, s: snaps.append((j, t, s.psi)))
            runs.append((out.psi, snaps))
        (first, first_snaps), (second, second_snaps) = runs
        assert np.array_equal(first, second) and len(first_snaps) > 1
        assert [(j, t) for j, t, _ in first_snaps] == [(j, t) for j, t, _ in second_snaps]
        for (_, _, a), (_, _, b) in zip(first_snaps, second_snaps):
            assert np.array_equal(a, b)

    def test_basis_stops_at_the_grid(self, monkeypatch):
        # 1024 points over 8 periods hold the modes -512..511: orders -64..63
        # about a start at order 0, -65..62 about one at order 1; over 6 periods
        # the grid ends the chains at different orders.  A chain the grid cuts
        # goes to the stepped route, whose cell wraps its reach round
        monkeypatch.setattr(tdse, "_order_reach", lambda x: 600)
        for plan in (exact_case(300.0, 2.0), exact_case(300.0, 2.0, order_offset=1),
                     exact_case(300.0, 2.0, n_periods=6, sigma=1.0, k0_units=1)):
            assert plan.route == "stepped" and plan.modes is None and not plan.even

    def test_rejects_what_it_cannot_serve(self):
        # the exact route needs an order band: plan_run gives none to an empty
        # start, a ramp or a run without the kinetic term, and routes them away
        plan = exact_case(300.0, 2.0)
        state, spec, setup = plan.state, plan.spec, plan.setup
        empty = WaveState(state.grid, spectrum=np.zeros(state.grid.n_points))
        for start, change, route in ((empty, {}, "stepped"),
                                     (state, {"envelope": "sin2_ramp"}, "stepped"),
                                     (state, {"include_kinetic": False}, "thin")):
            plan = plan_run(start, spec, setup, **change)
            assert plan.route == route and plan.modes is None
        with pytest.raises(ValueError, match="u0 must be finite"):
            plan_run(state, spec, DimensionlessSetup(alpha=2.0))

    def test_no_step_phase_warning(self, recwarn):
        setup = DimensionlessSetup(u0=300.0, alpha=1.5)
        plan = plane_plan(setup, d_tau=0.01)  # 3 rad per Strang step
        out = run_exact(plan)
        assert len(recwarn) == 0
        assert max_order_gap(out, propagate_cell_eigh(plan)) <= 1e-12
        with pytest.warns(UserWarning, match="phase per step"):
            run_stepped(plan)
