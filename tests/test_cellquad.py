import numpy as np
import pytest

from lswkit import cellquad


def test_power_cells_constant_data():
    # int_0^1 x^(-2/3) dx = 3 for w == 1
    x = np.linspace(0.0, 1.0, 400)
    w = np.ones_like(x)
    assert cellquad.power_total(x, w, -2.0 / 3.0) == pytest.approx(3.0, abs=1e-12)


def test_power_cells_linear_data_exact():
    # int_0^1 x^(-1/2) (1 - x) dx = 2 - 2/3 regardless of grid
    x = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    w = 1.0 - x
    assert cellquad.power_total(x, w, -0.5) == pytest.approx(2.0 - 2.0 / 3.0, rel=1e-14)


def test_power_cells_shift():
    x = np.array([1.0, 1.5, 2.0, 3.0])
    w = np.array([2.0, 1.5, 1.0, 0.0])
    got = cellquad.power_total(x, w, -1.0 / 3.0, shift=1.0)
    # per-segment antiderivatives of u^(-1/3)(2-u) with u = x - 1
    prim = lambda u: 3.0 * u ** (2.0 / 3.0) - 0.6 * u ** (5.0 / 3.0)
    ref = prim(2.0) - prim(0.0)
    assert got == pytest.approx(ref, rel=1e-12)


def test_power_cells_narrow_cells_no_cancellation():
    # cells 1e-10 wide at distance ~2 from the singularity; the naive
    # primitive difference loses all digits here
    base = 2.0
    x = base + np.arange(50) * 1e-10
    w = np.linspace(1e-10, 0.5e-10, 50)
    cells = cellquad.power_cells(x, w, -2.0 / 3.0)
    ref = base ** (-2.0 / 3.0) * 0.5 * (w[:-1] + w[1:]) * np.diff(x)
    assert np.all(cells > 0)
    assert np.max(np.abs(cells - ref) / ref) < 1e-6


def test_power_suffix_matches_total_and_is_monotone():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 5.0, 60))
    x[0] = 0.0
    w = np.sort(rng.uniform(0.0, 1.0, 60))[::-1]
    suf = cellquad.power_suffix(x, w, -2.0 / 3.0)
    assert suf[0] == pytest.approx(cellquad.power_total(x, w, -2.0 / 3.0), rel=1e-12)
    assert np.all(np.diff(suf) <= 1e-15)
    assert suf[-1] == 0.0


def test_linear_suffix_trapezoid():
    x = np.array([0.0, 1.0, 3.0])
    w = np.array([1.0, 0.5, 0.0])
    suf = cellquad.linear_suffix(x, w)
    np.testing.assert_allclose(suf, [0.75 + 0.5, 0.5, 0.0])


def test_reciprocal_linear_cumulative():
    # d(x) = 1 + x: int_0^x dz/(1+z) = log(1+x)
    x = np.linspace(0.0, 2.0, 11)
    d = 1.0 + x
    got = cellquad.reciprocal_linear_cumulative(x, d)
    np.testing.assert_allclose(got, np.log1p(x), rtol=1e-13)


def test_reciprocal_linear_cumulative_flat_cell():
    x = np.array([0.0, 1.0, 2.0])
    d = np.array([2.0, 2.0, 4.0])
    got = cellquad.reciprocal_linear_cumulative(x, d)
    assert got[1] == pytest.approx(0.5)
    assert got[2] == pytest.approx(0.5 + np.log(2.0) / 2.0)
