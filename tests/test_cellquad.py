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
    # distance ~2 (narrow: du < 1e-2 u) between wide ones
    x = np.concatenate((np.linspace(0.0, 2.0, 40), 2.0 + np.arange(1, 30) * 1e-7,
                        np.linspace(2.5, 6.0, 20)))
    return x, np.exp(-x) * (1.0 + 0.3 * np.cos(7.0 * x))


@pytest.mark.parametrize("s", [-2.0 / 3.0, -1.0 / 3.0, np.array([-2.0 / 3.0, -0.5, 0.0])])
def test_power_cells_expands_only_the_narrow_cells(s):
    x, w = _narrow_and_wide_grid()
    # reference: both forms of the tilted integral on every cell, the series
    # picked on narrow ones (r = du/u below 1e-2)
    u, w0, w1 = x[1:-1], w[1:-1], w[2:]
    r = (x[2:] - u) / u
    narrow = r < 1e-2
    assert 0 < np.count_nonzero(narrow) < len(r)
    for si in np.atleast_1d(s):
        s1 = si + 1.0
        e = np.expm1(np.log1p(r) * s1)
        closed = (e * (1.0 + r) - s1 * r) / (s1 * (si + 2.0) * r)
        term = series = 0.5 * r
        for j in range(1, 8):
            term = term * r * ((si - j + 1.0) / (j + 2.0))
            series = series + term
        cells = (w1 * (e / s1) + (w0 - w1) * np.where(narrow, series, closed)) * u ** s1
        first = x[1] ** s1 * (w[1] + (w[0] - w[1]) / (si + 2.0)) / s1
        np.testing.assert_array_equal(cellquad.power_cells(x, w, si), np.concatenate(([first], cells)))
        # the closed form cancels on the narrow cells, losing a million ulps
        assert np.max(np.abs(closed - series)[narrow] / series[narrow]) > 1e-10


def test_power_suffix_matches_total_and_is_monotone():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 5.0, 60))
    x[0] = 0.0
    w = np.sort(rng.uniform(0.0, 1.0, 60))[::-1]
    suf = cellquad.power_suffix(x, w, -2.0 / 3.0)
    assert suf[0] == pytest.approx(cellquad.power_total(x, w, -2.0 / 3.0), rel=1e-12)
    assert np.all(np.diff(suf) <= 0.0)
    assert suf[-1] == 0.0


def test_linear_suffix_trapezoid():
    x = np.array([0.0, 1.0, 3.0])
    w = np.array([1.0, 0.5, 0.0])
    suf = cellquad.linear_suffix(x, w)
    np.testing.assert_allclose(suf, [0.75 + 0.5, 0.5, 0.0])


_EXPONENTS = np.array([-2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.5])


def _mp_cells(x, w, s, shift=0.0):
    """50-digit integrals of (x - shift)^s * wlin(x) over each cell: its exact
    primitive, on the float nodes and exponent."""
    with mpmath.workdps(50):
        s = mpmath.mpf(float(s))
        u = [mpmath.mpf(float(v)) - mpmath.mpf(shift) for v in x]
        w = [mpmath.mpf(float(v)) for v in w]
        cells = []
        for u0, u1, w0, w1 in zip(u[:-1], u[1:], w[:-1], w[1:]):
            m = (w1 - w0) / (u1 - u0)
            cells.append((w0 - m * u0) * (u1 ** (s + 1) - u0 ** (s + 1)) / (s + 1)
                         + m * (u1 ** (s + 2) - u0 ** (s + 2)) / (s + 2))
        return cells


def _mp_power_total(x, w, s, shift=0.0):
    """50-digit integral of (x - shift)^s * wlin(x)."""
    with mpmath.workdps(50):
        return mpmath.fsum(_mp_cells(x, w, s, shift))


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
    # the by-parts total and the sum of the cells agree to rounding, with the
    # series on the narrow cells
    x, w = _narrow_and_wide_grid()
    for lo in (0, 1):
        got = cellquad.power_total(x[lo:], w[lo:], _EXPONENTS)
        ref = [cellquad.power_cells(x[lo:], w[lo:], s).sum() for s in _EXPONENTS]
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


def test_power_total_is_zero_on_a_one_node_slice():
    # the solver's far field when the origin split takes every survivor
    assert cellquad.power_total(np.array([2.5]), np.array([0.3]), -2.0 / 3.0) == 0.0
    assert cellquad.power_total(np.array([2.5]), np.array([0.3]), _EXPONENTS).tolist() == [0.0] * 5
    # int_0^1 x^(-2/3) dx = 3 for w == 1
    assert cellquad.power_total(np.linspace(0.0, 1.0, 400), np.ones(400), -2.0 / 3.0) == \
        pytest.approx(3.0, rel=1e-15)


def test_power_cells_are_within_1e_13_of_a_50_digit_reference():
    # a first cell from 0, then r = du/u from 1e-15 to 1e3, on both sides of
    # the switch to the series at 1e-2; the first w drops by 1e3 on every
    # cell, so the tilted integral carries each cell, and the second is smooth
    r = np.concatenate((np.geomspace(1e-15, 1e3, 37), np.geomspace(5e-3, 2e-2, 9),
                        [1e-2 * (1.0 - 1e-15), 1e-2, 1e-2 * (1.0 + 1e-15)]))
    np.random.default_rng(1).shuffle(r)
    x = np.concatenate(([0.0], 1e-3 * np.cumprod(np.concatenate(([1.0], 1.0 + r)))))
    for w in (1e-3 ** np.arange(len(x)), np.exp(-4.0 * x / x[-1])):
        for s in (-0.9, -2.0 / 3.0, -1.0 / 3.0, 0.0, 0.5, 2.0, 3.0):
            cells = cellquad.power_cells(x, w, s)
            assert np.all(cells >= 0.0)
            for got, ref in zip(cells, _mp_cells(x, w, s)):
                assert float(abs(mpmath.mpf(float(got)) - ref) / ref) <= 1e-13, s


def _suffix_data():
    yield "exponential", lk.exponential().profile
    yield "constant-beta(0.5)", lk.constant_beta(0.5).profile
    yield "power-tail(1)", lk.power_tail(1.0).profile


@pytest.mark.parametrize("case", list(_suffix_data()), ids=lambda c: c[0])
def test_power_suffix_is_within_1e_12_of_a_50_digit_reference(case):
    _, prof = case
    x, w = prof.grid, prof.values
    s = -2.0 / 3.0
    got = cellquad.power_suffix(x, w, s)
    assert got[-1] == 0.0
    # 20 spread nodes and the last five with w > 0 before the last node,
    # where the suffix is small and its cells narrow
    held = np.nonzero(w[:-1] > 0)[0]
    nodes = sorted(set(np.linspace(0, held[-1], 20).astype(int)) | set(held[-5:]))
    cells = _mp_cells(x, w, s)
    with mpmath.workdps(50):
        ref = [mpmath.fsum(cells[i:]) for i in nodes]
    for i, total in zip(nodes, ref):
        assert float(abs(mpmath.mpf(float(got[i])) - total) / total) <= 1e-12, i
