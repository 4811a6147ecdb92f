import numpy as np
import pytest

import lswkit as lk
from lswkit.cli import main
from lswkit.families import make_family


ALL_BUILTINS = [
    lk.constant_beta(0.25),
    lk.constant_beta(0.5),
    lk.constant_beta(2.0),
    lk.exponential(),
    lk.indicator(),
    lk.oscillating_exponential(0.3),
    lk.oscillating_compact(1.0, 0.2),
    lk.power_tail(1.0),
]


@pytest.mark.parametrize("fam", ALL_BUILTINS, ids=lambda f: f.name)
def test_grid_values_match_closed_form(fam):
    if fam.w_exact is None:
        return
    np.testing.assert_allclose(
        fam.profile.values[:-1], fam.w_exact(fam.profile.grid[:-1]), rtol=1e-10, atol=1e-300
    )


@pytest.mark.parametrize("fam", ALL_BUILTINS, ids=lambda f: f.name)
def test_mean_matches(fam):
    if fam.mean_exact is None:
        return
    assert fam.profile.mean == pytest.approx(fam.mean_exact, rel=2e-5)


def test_constant_beta_discrete_estimate():
    for b in (0.25, 0.5, 1.0, 2.0):
        fam = lk.constant_beta(b)
        est = lk.beta_from_profile(fam.profile)
        ok = ~est.low_confidence
        bulk = fam.profile.values[: len(est.values)] >= fam.profile.w0 * 2.0**-30
        assert np.max(np.abs(est.values[ok & bulk] - b)) < 5e-3, b


def test_oscillating_exponential_beta_formula():
    fam = lk.oscillating_exponential(0.2)
    xs = np.linspace(0.0, 15.0, 400)
    # finite differences of the closed-form h reproduce beta_exact
    d = 1e-5
    h = fam.h_exact
    num = (h(xs + d) - 2.0 * h(xs) + h(xs - d)) / d**2 * h(xs)
    den = ((h(xs + d) - h(xs - d)) / (2.0 * d)) ** 2
    np.testing.assert_allclose(num / den, fam.beta_exact(xs), atol=1e-5)


def test_power_tail_constant_beta():
    fam = lk.power_tail(0.5)
    est = lk.beta_from_profile(fam.profile)
    ok = ~est.low_confidence
    assert np.max(np.abs(est.values[ok] - 3.0)) < 0.02


def test_power_tail_honours_its_grid_size():
    # 4096 is the default n, not a floor: a smaller n builds a smaller grid
    default, explicit = lk.power_tail(1.0), lk.power_tail(1.0, n=4096)
    assert np.array_equal(default.profile.grid, explicit.profile.grid)
    assert np.array_equal(default.profile.values, explicit.profile.values)
    grid = lk.power_tail(1.0, n=2048).profile.grid
    assert len(grid) == 2047 and np.all(np.diff(grid) > 0)


def test_constant_beta_states_its_grid_floor(capsys):
    # beta > 1 raises n to 4096, and the line `lswkit families` prints says so;
    # beta < 1 honours n
    floor = lk.constant_beta(2.0, n=4096).profile.grid
    for n in (512, 2048):
        assert np.array_equal(lk.constant_beta(2.0, n=n).profile.grid, floor)
    assert len(floor) == 4095
    assert len(lk.constant_beta(0.5, n=1024).profile.grid) < len(lk.constant_beta(0.5).profile.grid)
    assert main(["families"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("constant-beta"))
    assert line.endswith("beta > 1 raises n to 4096 at least.")


def test_indicator_profile():
    fam = lk.indicator()
    assert fam.profile.mass == pytest.approx(1.0, abs=1e-14)
    assert fam.profile.sup_x == 1.0


def test_quantile_grid_properties():
    grid = lk.quantile_grid(lambda q: -np.log(q), n=512, deep=30)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    # the deepest node reaches the 2^-30 survival level
    assert grid[-1] == pytest.approx(30.0 * np.log(2.0), rel=1e-10)


@pytest.mark.parametrize("per_halving, deep", [(8, 45), (16, 45), (8, 30)])
def test_quantile_grid_levels_built_once_and_read_only(per_halving, deep):
    seen = []

    def quantile(q):
        seen.append(q)
        return -np.log(q)

    grids = [lk.quantile_grid(quantile, n=512, deep=deep, per_halving=per_halving)
             for _ in range(2)]
    assert seen[0] is seen[1] and not seen[0].flags.writeable
    # the reference: the levels built afresh on every call
    m = per_halving
    levels = np.array([2.0 ** (-k / m) for k in range(1, m * deep + 1)])
    np.testing.assert_array_equal(seen[0], levels)
    for grid in grids:
        np.testing.assert_array_equal(
            grid, lk.quantile_grid(lambda q: -np.log(levels), n=512, deep=deep,
                                   per_halving=per_halving))


@pytest.mark.parametrize("fam, size, last_two, total", [
    (lambda: lk.oscillating_exponential(0.3), 2047,
     (30.977321523166392, 31.10708712403215), 11437.396949306127),
    (lambda: lk.oscillating_compact(1.0, 0.1), 4096,
     (0.9999999999999674, 1.0), 2213.5668943018254),
])
def test_oscillating_grids_unchanged(fam, size, last_two, total):
    # the grid of the vectorized bisection quantiles is pinned to the one of
    # the scalar root-finding loop they replaced
    grid = fam().profile.grid
    assert len(grid) == size
    np.testing.assert_allclose(grid[-2:], last_two, rtol=1e-14)
    assert float(np.sum(grid)) == pytest.approx(total, rel=1e-14)


def test_make_family_dispatch():
    fam = make_family("constant-beta", beta=0.5)
    assert fam.name.startswith("constant-beta")
    with pytest.raises(lk.ConfigError):
        make_family("no-such-family")
    with pytest.raises(lk.ConfigError, match="'exponential' takes no parameter.*eps"):
        make_family("exponential", eps=0.3)


def test_parameter_validation():
    with pytest.raises(lk.ConfigError):
        lk.constant_beta(-1.0)
    with pytest.raises(lk.ConfigError):
        lk.oscillating_exponential(0.7)
    with pytest.raises(lk.ConfigError):
        lk.power_tail(0.0)
    with pytest.raises(lk.ConfigError):
        lk.oscillating_compact(-0.5, 0.1)


def test_self_similar_family_seed():
    fam = make_family("self-similar", alpha=0.05)
    assert fam.profile.mass == pytest.approx(1.0, rel=1e-6)
    assert fam.beta_exact(0.0) == pytest.approx(0.05 * 1.035241154488942, abs=1e-6)


def _fill_gap(quantile, n=2048, deep=45, support_end=None, per_halving=8):
    """Least distance from a fill node of the grid to a quantile node of the
    bulk, over the fill spacing."""
    grid = lk.quantile_grid(quantile, n=n, deep=deep, support_end=support_end,
                            per_halving=per_halving)
    xq = quantile(lk.families.quantile_levels(per_halving, deep))
    bulk = xq[:10 * per_halving]
    spacing = bulk[-1] / (max(n - len(xq), 2) - 1)
    fill = grid[(grid > 0) & (grid < bulk[-1]) & ~np.isin(grid, xq)]
    j = np.searchsorted(bulk, fill)
    gaps = np.minimum(np.abs(fill - bulk[np.minimum(j, len(bulk) - 1)]),
                      np.abs(fill - bulk[np.maximum(j - 1, 0)]))
    return float(np.min(gaps)) / spacing


GRID_FAMILIES = {
    "exponential": lk.exponential,
    "power-tail(1)": lambda n: lk.power_tail(1.0, n=n),
    "constant-beta(2)": lambda n: lk.constant_beta(2.0, n=n),
    "constant-beta(0.5)": lambda n: lk.constant_beta(0.5, n=n),
    "oscillating-exponential(0.3)": lambda n: lk.oscillating_exponential(0.3, n=n),
    "oscillating-compact(1, 0.2)": lambda n: lk.oscillating_compact(1.0, 0.2, n=n),
}


@pytest.mark.parametrize("name", GRID_FAMILIES)
def test_family_grids_keep_fill_nodes_off_quantile_nodes(name, monkeypatch):
    # a fill node near a quantile node leaves a cell of rounding width; the
    # gap is read on the arguments each family passes to quantile_grid
    calls = []
    real = lk.families.quantile_grid

    def recorded(quantile, **kwargs):
        calls.append((quantile, kwargs))
        return real(quantile, **kwargs)

    monkeypatch.setattr(lk.families, "quantile_grid", recorded)
    for n in (1024, 2048, 4096, 8192, 16384):
        GRID_FAMILIES[name](n)
    monkeypatch.undo()
    assert len(calls) == 5
    for quantile, kwargs in calls:
        assert _fill_gap(quantile, **kwargs) >= lk.families.FILL_GAP_FRACTION


def test_exponential_grids_keep_fill_nodes_off_quantile_nodes():
    # the fill of e^(-x) ends at 10 ln 2, and the quantile node of level 2^-6
    # sits at 0.6 of that: a fill node lands on it, up to rounding, whenever
    # n - 361 is a multiple of 5 (at n = 4096 the cell was 8.9e-16 wide)
    for n in range(1026, 16385, 5):
        assert _fill_gap(lambda q: -np.log(q), n=n) >= lk.families.FILL_GAP_FRACTION, n
    grid = lk.exponential(4096).profile.grid
    assert np.min(np.diff(grid)) > 1e-9
