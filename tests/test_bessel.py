import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from kdsim.bessel import _start_orders, bessel_row, bessel_rows, bessel_values
from oracles import (
    bessel_j, bessel_reference, bessel_row_numpy, bessel_series, miller_exact,
    sum_rule_row, sum_rule_start,
)

# frozen from the extended-precision power series
J0_1 = 0.7651976865579666
J1_1 = 0.4400505857449335
J0_2 = 0.2238907791412357
J1_2 = 0.5767248077568734
J2_2 = 0.3528340286156377


def test_frozen_reference_values():
    assert bessel_j(0, 1.0) == pytest.approx(J0_1, abs=1e-13)
    assert bessel_j(1, 1.0) == pytest.approx(J1_1, abs=1e-13)
    assert bessel_j(0, 2.0) == pytest.approx(J0_2, abs=1e-13)
    assert bessel_j(1, 2.0) == pytest.approx(J1_2, abs=1e-13)
    assert bessel_j(2, 2.0) == pytest.approx(J2_2, abs=1e-13)


@pytest.mark.parametrize("x", [0.3, 1.0, 2.7, 5.0, 9.5, 14.0, 20.0])
def test_series_agreement_to_order_40(x):
    row = bessel_row(40, x)
    for n in range(41):
        assert abs(row[n] - bessel_series(n, x)) <= 1e-12


@pytest.mark.parametrize("x", [30.0, 50.0])
def test_series_agreement_design_range(x):
    # design envelope: orders to 80, arguments to 50
    row = bessel_row(80, x)
    for n in range(0, 81, 4):
        assert abs(row[n] - bessel_series(n, x)) <= 1e-12


@pytest.mark.parametrize("x", [100.0, 200.0])
def test_series_agreement_large_argument(x):
    # past x = 50 the recurrence start grows with x; the series needs about
    # x / ln 10 extra digits to survive its cancellation
    for order_max in (0, 5):
        row = bessel_row(order_max, x)
        for n in range(order_max + 1):
            assert abs(row[n] - bessel_series(n, x, dps=130)) <= 1e-12


def test_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 7, -3):
        assert bessel_j(n, 0.0) == 0.0
    row = bessel_row(5, 0.0)
    assert row[0] == 1.0
    assert np.all(row[1:] == 0.0)


@pytest.mark.parametrize("n,x", [(1, 2.0), (2, 3.5), (5, 1.2), (4, 17.0)])
def test_parity_in_order(n, x):
    assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)


@pytest.mark.parametrize("n,x", [(0, 2.0), (1, 2.0), (3, 7.7), (6, 0.4)])
def test_parity_in_argument(n, x):
    assert bessel_j(n, -x) == (-1.0) ** n * bessel_j(n, x)


def test_parity_combined():
    # both negations cancel
    assert bessel_j(-3, -2.5) == bessel_j(3, 2.5)
    assert bessel_j(-4, -2.5) == bessel_j(4, 2.5)


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 50.0])
def test_normalization_identity(x):
    row = bessel_row(int(x) + 40, x)
    assert abs(row[0] + 2.0 * row[2::2].sum() - 1.0) <= 1e-10


def test_recurrence_residual():
    # J_{n+1}(x) = (2n/x) J_n(x) - J_{n-1}(x)
    x = 3.7
    row = bessel_row(12, x)
    for n in range(1, 11):
        resid = row[n + 1] - (2.0 * n / x) * row[n] + row[n - 1]
        assert abs(resid) <= 1e-12


def test_row_consistent_with_scalar():
    row = bessel_row(9, 4.2)
    assert isinstance(row, np.ndarray) and row.shape == (10,) and row.dtype == np.float64
    for n in range(10):
        assert abs(row[n] - bessel_j(n, 4.2)) <= 1e-13


def test_magnitude_bound():
    for x in (0.05, 0.7, 3.0, 12.0, 27.0, 50.0):
        assert np.all(np.abs(bessel_row(80, x)) <= 1.0 + 1e-14)


def test_negative_argument_row_signs():
    plus = bessel_row(6, 3.0)
    minus = bessel_row(6, -3.0)
    assert np.all(minus == plus * (-1.0) ** np.arange(7))


def test_small_argument_large_order_stays_finite():
    # deep underflow region exercises the mid-recurrence rescaling
    row = bessel_row(80, 0.1)
    assert np.all(np.isfinite(row))
    assert abs(row[0] - bessel_series(0, 0.1)) <= 1e-14
    assert row[40] == pytest.approx(bessel_series(40, 0.1), abs=1e-15)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bessel_row(-1, 2.0)
    with pytest.raises(ValueError):
        bessel_row(4, math.inf)
    with pytest.raises(ValueError):
        bessel_j(2, math.nan)
    for bad in ((-1, 2.0), (4, math.inf), (4, math.nan)):
        with pytest.raises(ValueError):
            bessel_values(*bad)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(order_max=st.integers(0, 400),
       x=st.one_of(st.floats(-1e-30, 1e-30, exclude_min=True, exclude_max=True),
                   st.floats(1e-3, 3000.0), st.floats(-3000.0, -1e-3)))
def test_values_are_the_row_as_floats(order_max, x):
    # the fit's refinement steps on these floats and its grid scan on
    # bessel_rows: the two agree only while these bits equal the row's
    got = bessel_values(order_max, x)
    want = bessel_row(order_max, x)
    assert type(got) is list and all(type(v) is float for v in got)
    assert np.array(got).tobytes() == want.tobytes()


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("order_max", [0, 1, 9, 40, 80])
def test_rows_bit_identical_to_scalar(order_max):
    # both kernels are pinned to the recurrence stepped on a numpy array, and
    # so to each other: every start-order regime, rescaling (small x, high
    # order), both signs, the |x| < 1e-30 shortcut, and more arguments than
    # one 1024-argument block
    rng = np.random.default_rng(order_max)
    xs = np.concatenate([
        [0.0, -0.0, 1e-31, -1e-31, 1e-29, 0.01, -0.01, 0.1, 20.0, 50.0, 53.0, 200.0, -200.0],
        rng.uniform(-20.0, 20.0, 400), rng.uniform(20.0, 50.0, 250),
        rng.uniform(50.0, 200.0, 250), -rng.uniform(20.0, 200.0, 150)])
    rng.shuffle(xs)
    assert xs.size > 1024
    ref = np.array([bessel_row_numpy(order_max, x) for x in xs])
    rows = bessel_rows(order_max, xs)
    assert rows.shape == (xs.size, order_max + 1)
    assert_bits_equal(rows, ref)
    assert_bits_equal(np.array([bessel_row(order_max, x) for x in xs]), ref)


def test_row_independent_of_its_block():
    # a row depends on its own argument only: not on the other arguments of
    # its block (their start orders, their rescaling), nor on its place there
    rng = np.random.default_rng(13)
    probe = np.array([0.01, -0.01, 1e-31, 7.3, 20.0, 49.9, 53.0, -131.0, 200.0])
    ref = np.array([bessel_row_numpy(12, x) for x in probe])
    for size in (0, 5, 300, 1020, 1500):
        others = rng.uniform(-200.0, 200.0, size)
        others[::7] *= 1e-3  # small arguments rescale
        xs = np.concatenate([others, probe])
        order = rng.permutation(xs.size)
        rows = bessel_rows(12, xs[order])
        assert_bits_equal(rows[np.argsort(order)[size:]], ref)


@pytest.mark.parametrize("order_max", [0, 1, 12, 80, 400])
def test_start_orders_same_for_a_float_and_an_array(order_max):
    # bessel_row takes its start order from math, bessel_rows from numpy: one
    # rule, so the same even order at every x, across the ceilings of x and of
    # the two margins, the cap's floor at 20 and the margin that starts to grow
    # above 50
    xs = np.concatenate([
        np.linspace(1e-12, 20.0, 801)[1:], np.nextafter(20.0, [0.0, 40.0]),
        np.linspace(47.0, 53.0, 601), np.nextafter(50.0, [0.0, 100.0]),
        np.linspace(20.0, 200.0, 1801), [200.0], np.linspace(200.0, 3000.0, 561)])
    scalar = [_start_orders(order_max, float(x)) for x in xs]
    assert all(type(s) is int and s % 2 == 0 for s in scalar)
    assert scalar == _start_orders(order_max, xs).tolist()


def test_start_near_the_sum_rule():
    xs = np.concatenate([np.geomspace(1e-6, 1.0, 200), np.linspace(1.0, 300.0, 2991),
                         np.linspace(300.0, 3000.0, 271)])
    for order_max in (0, 1, 5, 15, 40, 80, 150, 400):
        new = _start_orders(order_max, xs)
        ref = np.array([sum_rule_start(order_max, float(x)) for x in xs])
        # below order 23 the argument's need passes the sum rule at some x in
        # (16, 300), by at most 24 steps (order 0, x near 59)
        assert np.all(new <= ref + (24 if order_max < 40 else 0)), order_max
        assert np.all(new > order_max)


# Past the start that accuracy needs, moving the start by 2 moves a row's error
# by up to ~2e-15 of its scale (1.2e-14 at x = 1000-3000), the sum rule's rows
# included, so a value passes at 4x the sum rule's error or under this floor.
# This is not the per-order bound "relative error <= max(4x the sum rule's,
# 1e-15)": rounding alone breaks that at 6-9 % of this grid's values, where the
# sum rule's rows read a tiny error by chance.
def _rounding_floor(x):
    return 5e-15 * max(1.0, math.sqrt(x / 100.0))


_SWEEP_XS = np.concatenate([np.geomspace(0.01, 1.0, 8), np.linspace(1.7, 200.0, 36)])
_SWEEP_CASES = ([(order_max, _SWEEP_XS) for order_max in (0, 1, 5, 15, 40, 80)]
                + [(order_max, np.array([1000.0, 3000.0])) for order_max in (0, 1, 5)])


@pytest.mark.parametrize("order_max,xs", _SWEEP_CASES)
def test_sweep_against_mpmath_and_the_sum_rule(order_max, xs):
    # every order with |J| >= 1e-250, against mpmath, measured on its scale (|J_n|
    # above the turning point, the Bessel modulus below it): no worse than 4x the
    # rows from the sum rule's start, or within rounding
    rows = bessel_rows(order_max, xs)
    for x, row in zip(xs.tolist(), rows):
        js, scales = bessel_reference(80, x)
        ref = sum_rule_row(order_max, x)
        for n in range(order_max + 1):
            if abs(js[n]) < 1e-250:
                continue
            err = float(abs(row[n] - js[n]) / scales[n])
            err_ref = float(abs(ref[n] - js[n]) / scales[n])
            assert err <= max(4.0 * err_ref, _rounding_floor(x)), (x, n, err, err_ref)


_SEED_XS = (0.01, 0.3, 1.0, 2.5, 4.0, 7.0, 11.0, 14.0, 19.0, 25.0, 50.0, 90.0, 150.0, 200.0)
_SEED_CASES = ([(order_max, _SEED_XS) for order_max in (0, 5, 15, 40, 80)]
               + [(400, (0.01, 1.0, 25.0, 150.0, 500.0)), (5, (1000.0, 3000.0)),
                  (80, (1000.0,))])


@pytest.mark.parametrize("order_max,xs", _SEED_CASES)
def test_start_leaves_the_seed_under_1e17(order_max, xs):
    # the start rule itself, free of rounding: from the start the seed's share
    # (Miller in 40 digits against mpmath) is under 1e-17 of each value's scale
    for x in xs:
        js, scales = bessel_reference(order_max, x)
        start = _start_orders(order_max, x)
        row = miller_exact(order_max, x, start)
        for n in range(order_max + 1):
            share = float(abs(row[n] - js[n]) / scales[n])
            assert share <= 1e-17, (x, n, start, share)


def test_downward_sum_no_worse_than_pairwise_at_large_x():
    # at x = 1000-3000 the normalization adds ~x/2 even terms; one by one downward
    # they err no more than numpy's pairwise sum of the same terms, nor than the
    # sum rule's rows: the recurrence's own rounding dominates either sum
    xs = np.linspace(1000.0, 3000.0, 41)
    errs = {"downward": [], "pairwise": [], "sum rule": []}
    for x, row in zip(xs.tolist(), bessel_rows(5, xs)):
        js, scales = bessel_reference(5, x)
        rows = {"downward": row, "pairwise": sum_rule_row(5, x, _start_orders(5, x)),
                "sum rule": sum_rule_row(5, x)}
        for name, r in rows.items():
            errs[name] += [float(abs(r[n] - js[n]) / scales[n]) for n in range(6)]
    largest = {name: max(e) for name, e in errs.items()}
    rms = {name: math.sqrt(sum(v * v for v in e) / len(e)) for name, e in errs.items()}
    for other in ("pairwise", "sum rule"):
        assert largest["downward"] <= 1.1 * largest[other], largest
        assert rms["downward"] <= 1.1 * rms[other], rms


def test_rows_shapes():
    assert bessel_rows(3, []).shape == (0, 4)
    np.testing.assert_array_equal(bessel_rows(5, [2.5])[0], bessel_row(5, 2.5))


def test_rows_reject_bad_inputs():
    with pytest.raises(ValueError, match="order_max"):
        bessel_rows(-1, [2.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            bessel_rows(4, [1.0, bad])
