import math

import numpy as np
import pytest

from kdsim.bessel import BesselRow, bessel_j, bessel_row
from oracles import bessel_series

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
    row = bessel_row(40, x).values
    for n in range(41):
        assert abs(row[n] - bessel_series(n, x)) <= 1e-12


@pytest.mark.parametrize("x", [30.0, 50.0])
def test_series_agreement_design_range(x):
    # design envelope: orders to 80, arguments to 50
    row = bessel_row(80, x).values
    for n in range(0, 81, 4):
        assert abs(row[n] - bessel_series(n, x)) <= 1e-12


@pytest.mark.parametrize("x", [100.0, 200.0])
def test_series_agreement_large_argument(x):
    # past x = 50 the recurrence start grows with x; the series needs about
    # x / ln 10 extra digits to survive its cancellation
    for order_max in (0, 5):
        row = bessel_row(order_max, x).values
        for n in range(order_max + 1):
            assert abs(row[n] - bessel_series(n, x, dps=130)) <= 1e-12


def test_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 7, -3):
        assert bessel_j(n, 0.0) == 0.0
    row = bessel_row(5, 0.0).values
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
    row = bessel_row(int(x) + 40, x).values
    assert abs(row[0] + 2.0 * row[2::2].sum() - 1.0) <= 1e-10


def test_recurrence_residual():
    # J_{n+1}(x) = (2n/x) J_n(x) - J_{n-1}(x)
    x = 3.7
    row = bessel_row(12, x).values
    for n in range(1, 11):
        resid = row[n + 1] - (2.0 * n / x) * row[n] + row[n - 1]
        assert abs(resid) <= 1e-12


def test_row_consistent_with_scalar():
    row = bessel_row(9, 4.2)
    assert isinstance(row, BesselRow)
    assert row.order_max == 9 and row.argument == 4.2
    for n in range(10):
        assert abs(row.values[n] - bessel_j(n, 4.2)) <= 1e-13


def test_magnitude_bound():
    for x in (0.05, 0.7, 3.0, 12.0, 27.0, 50.0):
        assert np.all(np.abs(bessel_row(80, x).values) <= 1.0 + 1e-14)


def test_negative_argument_row_signs():
    plus = bessel_row(6, 3.0).values
    minus = bessel_row(6, -3.0).values
    assert np.all(minus == plus * (-1.0) ** np.arange(7))


def test_small_argument_large_order_stays_finite():
    # deep underflow region exercises the mid-recurrence rescaling
    row = bessel_row(80, 0.1).values
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
