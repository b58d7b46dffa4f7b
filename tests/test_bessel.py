import math

import numpy as np
import pytest

from kdsim.bessel import _start_orders, bessel_row, bessel_rows
from oracles import bessel_j, bessel_row_numpy, bessel_series

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


@pytest.mark.parametrize("order_max", [0, 1, 12, 80])
def test_start_orders_same_for_a_float_and_an_array(order_max):
    # bessel_row takes its start order from math, bessel_rows from numpy: one
    # rule, so the same even order at every x, across the ceilings of x, the
    # floor at 20 and the margin that starts to grow above 50
    xs = np.concatenate([
        np.linspace(1e-12, 20.0, 801)[1:], np.nextafter(20.0, [0.0, 40.0]),
        np.linspace(47.0, 53.0, 601), np.nextafter(50.0, [0.0, 100.0]),
        np.linspace(20.0, 200.0, 1801), [200.0]])
    scalar = [_start_orders(order_max, float(x)) for x in xs]
    assert all(type(s) is int and s % 2 == 0 for s in scalar)
    assert scalar == _start_orders(order_max, xs).tolist()


def test_rows_shapes():
    assert bessel_rows(3, []).shape == (0, 4)
    np.testing.assert_array_equal(bessel_rows(5, [2.5])[0], bessel_row(5, 2.5))


def test_rows_reject_bad_inputs():
    with pytest.raises(ValueError, match="order_max"):
        bessel_rows(-1, [2.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            bessel_rows(4, [1.0, bad])
