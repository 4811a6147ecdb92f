import mpmath
import numpy as np
import pytest

import lswkit as lk
from lswkit import cellquad
from lswkit.map_iteration import apply_map, cube_root_map, normalize


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


def _narrow_and_wide_grid():
    # uniform cells near the origin, then a run of cells 1e-7 wide at
    # distance ~2 (narrow: du < 1e-4 u) between wide ones
    x = np.concatenate((np.linspace(0.0, 2.0, 40), 2.0 + np.arange(1, 30) * 1e-7,
                        np.linspace(2.5, 6.0, 20)))
    return x, np.exp(-x) * (1.0 + 0.3 * np.cos(7.0 * x))


def test_power_cells_exponent_array_matches_scalar_calls():
    x, w = _narrow_and_wide_grid()
    s = np.array([-2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.25])
    rows = cellquad.power_cells(x, w, s)
    assert rows.shape == (len(s), len(x) - 1)
    for si, row in zip(s, rows):
        # for a lone exponent of 1/2, 1 or 2 numpy may take sqrt, a copy or
        # a square where a row of a batch takes pow; the primitive
        # differences magnify that last ulp by up to u/du < 1e4
        np.testing.assert_allclose(row, cellquad.power_cells(x, w, si), rtol=1e-12, atol=0)


@pytest.mark.parametrize("s", [-2.0 / 3.0, -1.0 / 3.0, np.array([-2.0 / 3.0, -0.5, 0.0])])
def test_power_cells_expands_only_the_narrow_cells(s):
    x, w = _narrow_and_wide_grid()
    # reference: both formulas on every cell, the expansion picked on narrow ones
    s_col = np.asarray(s, dtype=float)[..., None]
    u0, u1, w0, w1 = x[:-1], x[1:], w[:-1], w[1:]
    du = u1 - u0
    m = (w1 - w0) / du
    a = w0 - m * u0
    p1 = np.diff(np.power(x, s_col + 1.0)) / (s_col + 1.0)
    p2 = np.diff(np.power(x, s_col + 2.0)) / (s_col + 2.0)
    full = a * p1 + m * p2
    um, wm = 0.5 * (u0 + u1), 0.5 * (w0 + w1)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = s_col * du**2 / (12.0 * um) * (m + wm * (s_col - 1.0) / (2.0 * um))
        mid = np.power(um, s_col) * du * (wm + corr)
    narrow = du < 1e-4 * u0
    assert 0 < np.count_nonzero(narrow) < len(du)
    np.testing.assert_array_equal(cellquad.power_cells(x, w, s), np.where(narrow, mid, full))


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



@pytest.mark.parametrize("n", [88, 2048, 5000])
def test_power_cells_lone_exponent_keeps_its_batch_bits(n):
    # numpy's power takes sqrt or a square for an exponent 1/2 or 2 in some
    # layouts and pow in others; a lone exponent and every row of a batch
    # take the same path, so memoized moments do not depend on call order
    x = np.concatenate(([0.0], np.geomspace(1e-6, 40.0, n - 1)))
    w = np.exp(-x)
    for batch in ([-0.5, 0.0], [-2.0 / 3.0, -0.5, 0.0], [-0.5, -0.5, -0.5, 0.0, 0.5]):
        rows = cellquad.power_cells(x, w, np.array(batch))
        for si, row in zip(batch, rows):
            np.testing.assert_array_equal(row, cellquad.power_cells(x, w, si))


def test_flux_total_is_the_cube_root_form_of_the_power_total():
    # the same cells, narrow ones included, with x^(1/3) by np.cbrt and
    # x^(4/3) as x * x^(1/3) instead of two pow passes
    x, w = _narrow_and_wide_grid()
    for lo in (0, 1, 45):
        got = cellquad.flux_total(x[lo:], w[lo:])
        assert got == pytest.approx(cellquad.power_total(x[lo:], w[lo:], -2.0 / 3.0), rel=1e-14)
    assert cellquad.flux_total(x[-1:], w[-1:]) == 0.0
    # int_0^1 x^(-2/3) dx = 3 for w == 1
    assert cellquad.flux_total(np.linspace(0.0, 1.0, 400), np.ones(400)) == pytest.approx(3.0, rel=1e-15)


_EXPONENTS = np.array([-2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.5])


def _mp_power_total(x, w, s, shift=0.0):
    """50-digit integral of (x - shift)^s * wlin(x): each cell's exact
    primitive, on the float nodes and exponent."""
    with mpmath.workdps(50):
        s = mpmath.mpf(float(s))
        u = [mpmath.mpf(float(v)) - mpmath.mpf(shift) for v in x]
        w = [mpmath.mpf(float(v)) for v in w]
        total = mpmath.mpf(0)
        for u0, u1, w0, w1 in zip(u[:-1], u[1:], w[:-1], w[1:]):
            m = (w1 - w0) / (u1 - u0)
            total += ((w0 - m * u0) * (u1 ** (s + 1) - u0 ** (s + 1)) / (s + 1)
                      + m * (u1 ** (s + 2) - u0 ** (s + 2)) / (s + 2))
        return total


def _total_cases():
    base = np.linspace(0.0, 3.0, 40)
    # pairs of nodes 1e-9, 3e-5 and one ulp apart, relative to their position
    pairs = np.sort(np.concatenate((base, base[1:] * (1.0 + 1e-9), base[1:] * (1.0 + 3e-5),
                                    np.nextafter(base[1:], 9.0))))
    prof = lk.constant_beta(0.5).profile
    for _ in range(50):
        prof = apply_map(normalize(prof, 0.5, 1.0)[1], cube_root_map())
    yield "narrow-pairs", pairs, np.exp(-pairs), 0.0
    # w drops by half across a cell one ulp wide
    yield "one-ulp-drop", np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 2.0]), \
        np.array([1.0, 0.9, 0.8, 0.3, 0.0]), 0.0
    yield "two-nodes", np.array([0.0, 1.7]), np.array([1.0, 0.2]), 0.0
    yield "two-nodes-flat", np.array([0.0, 3e-5]), np.array([1.0, 1.0]), 0.0
    # x - shift is exact on [shift, 2 shift]
    x = 2.5 + np.linspace(0.0, 2.5, 30)
    yield "shift", x, np.exp(2.5 - x), 2.5
    # over 200 narrow cells: quantile nodes a few ulp apart near the support end
    yield "constant-beta(0.5)-after-50-cube-root-steps", prof.grid, prof.values, 0.0


@pytest.mark.parametrize("case", list(_total_cases()), ids=lambda c: c[0])
def test_power_total_is_within_4_eps_of_a_50_digit_reference(case):
    name, x, w, shift = case
    if name.startswith("constant-beta"):
        assert np.count_nonzero(np.diff(x) < 1e-4 * x[:-1]) > 200
    got = cellquad.power_total(x, w, _EXPONENTS, shift)
    for s, total in zip(_EXPONENTS, got):
        ref = _mp_power_total(x, w, s, shift)
        assert float(abs(mpmath.mpf(float(total)) - ref) / ref) <= 4 * np.finfo(float).eps, s


@pytest.mark.parametrize("n", [2, 9, 88, 2048, 5000])
def test_power_total_lone_exponent_keeps_its_batch_bits(n):
    x = np.concatenate(([0.0], np.geomspace(1e-6, 40.0, n - 1)))
    w = np.exp(-x)
    for lo in (0, 1):  # from u = 0, and from its first positive node
        for batch in ([-0.5, 0.0], [-2.0 / 3.0, -0.5, -1.0 / 3.0], [-0.5, -0.5, 0.0, 0.5, 2.0]):
            totals = cellquad.power_total(x[lo:], w[lo:], np.array(batch))
            assert totals.tolist() == [cellquad.power_total(x[lo:], w[lo:], s) for s in batch]


def test_power_total_matches_the_per_cell_sum():
    # the by-parts total and the per-cell route agree to rounding, with the
    # narrow-cell expansion on the narrow cells
    x, w = _narrow_and_wide_grid()
    for lo in (0, 1):
        got = cellquad.power_total(x[lo:], w[lo:], _EXPONENTS)
        ref = cellquad.power_cells(x[lo:], w[lo:], _EXPONENTS).sum(axis=-1)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
