import importlib.util
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lswkit as lk
from lswkit import cellquad, map_iteration
from lswkit.map_iteration import (
    MapF, linear_map, cube_root_map, apply_map, beta_transform, normalize, iterate,
)


def test_cube_root_map_constants():
    F = cube_root_map()
    assert F(0.0) == pytest.approx(2.0 ** (1.0 / 3.0) - 1.0, abs=1e-14)


def test_map_validation():
    with pytest.raises(lk.ConfigError):
        linear_map(1.0)
    with pytest.raises(lk.ConfigError):
        # F(0) = 0 is not allowed
        MapF(name="bad", f=lambda x: 0.5 * np.asarray(x, float),
             fprime=lambda x: np.full_like(np.asarray(x, float), 0.5),
             finv=lambda y: 2.0 * np.asarray(y, float))


def test_inverse_round_trip():
    F = cube_root_map()
    xs = np.array([0.0, 0.4, 1.0, 7.5])
    np.testing.assert_allclose(F.inverse(F(xs)), xs, atol=1e-10)


def _bisection_inverse(F, y):
    """Reference F^{-1}: 80 halvings of [0, (max y - F(0))/F'(0) + 1]."""
    f0 = float(F.f(0.0))
    lo = np.zeros_like(y)
    hi = np.full_like(y, (float(np.max(y)) - f0) / float(F.fprime(0.0)) + 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = F.f(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _levels(F):
    """y from exactly F(0) up to 1e7, geometrically spaced above F(0)."""
    f0 = float(F(0.0))
    return np.concatenate(([f0], f0 + np.geomspace(1e-16, 1e7 - f0, 2000)))


MAPS = [cube_root_map(), linear_map(0.3), linear_map(0.5), linear_map(0.7)]


@pytest.mark.parametrize("F", MAPS, ids=lambda F: F.name)
def test_inverse_matches_bisection(F):
    y = _levels(F)
    x, ref = F.inverse(y), _bisection_inverse(F, y)
    ulp = np.spacing(np.maximum(np.abs(y), 1.0))
    assert np.all(np.abs(x - ref) <= 4 * ulp)
    # both residuals sit at the rounding floor of F: Newton's stays within
    # 3 ulp, within 2 ulp of bisection's at each level, and near F(0) its
    # worst is no larger than bisection's
    res, res_ref = np.abs(F(x) - y) / ulp, np.abs(F(ref) - y) / ulp
    assert np.max(res) <= 3.0
    assert np.all(res <= res_ref + 2.0)
    near = y - y[0] <= 1e-8
    assert np.max(res[near]) <= np.max(res_ref[near])
    assert x[0] == 0.0
    assert type(F.inverse(y[0])) is float and F.inverse(y[0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MAPS),
       st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-16, max_value=1e7)),
                min_size=1, max_size=50),
       st.data())
def test_inverse_is_elementwise(F, offsets, data):
    # an entry that stops moving keeps its x, so inverting a subset of the
    # levels gives the same bits as inverting all of them
    y = np.minimum(float(F(0.0)) + np.array(offsets), 1e7)
    idx = data.draw(st.lists(st.integers(0, len(y) - 1), max_size=len(y)))
    assert F.inverse(y[idx]).tobytes() == F.inverse(y)[idx].tobytes()


def test_map_rejects_an_inverse_that_does_not_invert():
    F = cube_root_map()
    with pytest.raises(lk.ConfigError, match="finv must invert f"):
        MapF(name="off", f=F.f, fprime=F.fprime, finv=lambda y: F.finv(y) * (1.0 + 1e-9))


def test_map_rejects_an_f_that_steps_back_between_adjacent_floats():
    # the cube-root map's old form: its F at the float after x = 2.0 lies one
    # ulp below F(2.0), which apply_map's images cannot absorb
    F = cube_root_map()
    old = lambda x: 2.0 ** (1.0 / 3.0) + np.asarray(x, float) - np.cbrt(1.0 + np.asarray(x, float))
    assert old(np.nextafter(2.0, np.inf)) < old(2.0)
    with pytest.raises(lk.ConfigError, match="adjacent floats"):
        MapF(name="old-cube-root", f=old, fprime=F.fprime, finv=F.finv)
    # the package's own maps pass the same check
    for lam in (0.3, 0.5, 0.7):
        linear_map(lam)


_F0 = 2.0 ** (1.0 / 3.0) - 1.0   # the cube-root map's F(0)
_Q1 = 2.0 / np.sqrt(27.0)        # where t^3 - t = q turns from three real roots to one


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=_F0, max_value=np.finfo(float).max), min_size=1, max_size=60))
def test_cube_root_inverse_is_finite_and_nondecreasing_up_to_the_float_maximum(ys):
    # warning-free too: pytest turns an overflow or invalid warning into an error
    y = np.sort(np.array(ys))
    x = cube_root_map().inverse(y)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0) and np.all(np.diff(x) >= 0.0)


@pytest.mark.parametrize("y0", [_F0, _F0 + _Q1, 1.0, 3.0, 1e3, 1e20, np.finfo(float).max],
                         ids=["F(0)", "F(0)+q1", "1", "3", "1e3", "1e20", "max"])
def test_cube_root_inverse_is_nondecreasing_float_by_float(y0):
    # 4,000 consecutive floats on either side of y0 (across the branch at q1),
    # and 8,000 below the float maximum
    k = np.arange(-8000, 1) if y0 == np.finfo(float).max else np.arange(-4000, 4000)
    y = y0 + k * np.spacing(np.nextafter(y0, 0.0))
    y = y[y >= _F0]
    x = cube_root_map().inverse(y)
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) >= 0.0)


def _mp_cube_root_inverse(y):
    """50-digit x with F(x) = y: Newton on v (2 + v (3 + v)) = q = y - F(0),
    from a start right of the root, where it decreases onto it."""
    with mpmath.workdps(50):
        q = mpmath.mpf(float(y)) - mpmath.mpf(_F0)
        if q <= 0:
            return mpmath.mpf(0)
        v = min(q / 2, mpmath.cbrt(q))
        while True:
            new = v - (v * (2 + v * (3 + v)) - q) / (2 + v * (6 + 3 * v))
            if new >= v:
                return q + v
            v = new


def test_cube_root_inverse_is_within_an_ulp_of_a_50_digit_reference():
    rng = np.random.default_rng(5)
    y = np.concatenate((
        [_F0], _F0 + np.geomspace(1e-17, 1e150, 1500), _F0 + 10.0 ** rng.uniform(-3.0, 3.0, 1500),
        _F0 + _Q1 * (1.0 + np.linspace(-1e-6, 1e-6, 201)),   # around the branch at q1
        _F0 + _Q1 + np.arange(-100, 100) * np.spacing(_Q1)))
    x = cube_root_map().inverse(y)
    with mpmath.workdps(50):
        err = [float(abs(mpmath.mpf(float(xi)) - _mp_cube_root_inverse(yi))) for xi, yi in zip(x, y)]
    assert np.max(np.array(err) / np.spacing(np.maximum(x, 1.0))) <= 1.0


@pytest.mark.parametrize("x0", [1e-12, 0.5, 1.0, 1.0013063359232797, 7.3, 1e8, 1e200])
def test_cube_root_map_is_nondecreasing_float_by_float(x0):
    # w(F(.)) on a steep profile, where nodes sit an ulp apart, needs it:
    # the indicator's image after 7 normalized steps ends near 1.0013 that way
    x = x0 + np.arange(20000) * np.spacing(x0)
    assert np.all(np.diff(cube_root_map()(x)) >= 0.0)


def test_apply_map_composition():
    fam = lk.exponential()
    F = cube_root_map()
    image = apply_map(fam.profile, F)
    xs = np.linspace(0.0, 10.0, 200)
    np.testing.assert_allclose(image.w_at(xs), fam.profile.w_at(F(xs)), rtol=2e-3)


def _full_route(profile, F, n_grid=2048):
    """apply_map by the route that inverts every source node: F^{-1} at all
    nodes at or beyond F(0), the filter on coincident images, a validated raw
    image profile and the quantile grid of its ``quantile``."""
    f0 = float(F(0.0))
    mask = profile.grid >= f0
    y = np.concatenate(([f0], profile.grid[mask]))
    vals = np.concatenate(([profile.w_at(f0)], profile.values[mask]))
    x = np.concatenate(([0.0], F.inverse(y[1:])))
    keep = np.concatenate(([True], np.diff(x) > 0))
    x, vals = x[keep], vals[keep]
    x[0] = 0.0
    tail = profile.tail
    if tail.kind == "exponential":
        tail = lk.TailModel.exponential(tail.param * float(F.fprime(x[-1])))
    raw = lk.SurvivalProfile(x, vals, tail)
    grid = lk.quantile_grid(raw.quantile, n=n_grid, deep=45,
                            support_end=raw.sup_x if np.isfinite(raw.sup_x) else None)
    return lk.SurvivalProfile(grid, profile.w_at(F(grid)), raw.tail)


def _assert_same_profile(a, b):
    assert a.grid.tobytes() == b.grid.tobytes()
    assert a.values.tobytes() == b.values.tobytes()
    assert a.tail == b.tail


ROUTE_PROFILES = {
    "exponential": lambda: lk.exponential().profile,
    "constant-beta(0.5)": lambda: lk.constant_beta(0.5).profile,
    "power-tail(1)": lambda: lk.power_tail(1.0).profile,
    "indicator": lambda: lk.indicator().profile,  # compact, last value 1
    "oscillating-compact(1, 0.2)": lambda: lk.oscillating_compact(1.0, 0.2).profile,  # last value 0
    # compact, with its last positive value below every level and a zero
    # beyond the support end, so that neither the last node nor any level's
    # cell ends at the support end
    "deep-drop": lambda: lk.SurvivalProfile(np.array([0.0, 0.3, 0.6, 0.9, 1.2, 1.5]),
                                            np.array([1.0, 0.7, 0.4, 1e-20, 0.0, 0.0])),
}


@pytest.mark.parametrize("F", [cube_root_map(), linear_map(0.5)], ids=lambda F: F.name)
@pytest.mark.parametrize("name", ROUTE_PROFILES)
def test_apply_map_equals_the_full_route(name, F):
    prof = ROUTE_PROFILES[name]()
    _assert_same_profile(apply_map(prof, F), _full_route(prof, F))
    # and along ten normalize-and-map steps, each route from its own states
    new = ref = prof
    for _ in range(10):
        new = apply_map(normalize(new, 0.5, 1.0)[1], F)
        ref = _full_route(normalize(ref, 0.5, 1.0)[1], F)
        _assert_same_profile(new, ref)


def test_apply_map_degenerate_image():
    fam = lk.indicator()  # support [0,1]; F(0) = 2^(1/3)-1 < 1 is fine
    F = cube_root_map()
    apply_map(fam.profile, F)
    narrow = lk.SurvivalProfile(np.array([0.0, 0.1, 0.2]), np.array([1.0, 0.5, 0.0]))
    with pytest.raises(lk.DegenerateImageError):
        apply_map(narrow, F)


def test_beta_transform_linear_equality():
    # affine F acts on beta by exact composition
    fam = lk.exponential()
    F = linear_map(0.5)
    tb = beta_transform(fam.profile, F)
    base = lk.beta_from_profile(fam.profile)
    ok = ~tb.low_confidence
    diff = tb.values[ok] - base.at(F(tb.grid[ok]))
    assert np.max(np.abs(diff)) < 1e-6


def test_beta_transform_pointwise_inequality():
    fam = lk.constant_beta(0.5)
    F = cube_root_map()
    tb = beta_transform(fam.profile, F)
    base = lk.beta_from_profile(fam.profile)
    ok = ~tb.low_confidence
    excess = tb.values[ok] - base.at(F(tb.grid[ok]))
    assert np.max(excess) <= 1e-8


def test_normalize_scales_moment():
    fam = lk.exponential()
    lam, scaled = normalize(fam.profile, 0.5, 2.0)
    assert scaled.moment(0.5) ** 2.0 == pytest.approx(2.0, rel=1e-8)
    assert lam > 0


def test_iterate_sup_beta_nonincreasing():
    fam = lk.exponential()
    hist = iterate(fam.profile, cube_root_map(), 0.5, 1.0, 25)
    sb = np.array(hist.sup_beta)
    assert np.all(np.diff(sb) <= 1e-8)
    assert len(hist.n) == 26
    assert hist.final_profile is not None


def test_iterate_history_save(tmp_path):
    fam = lk.constant_beta(0.5)
    hist = iterate(fam.profile, cube_root_map(), 0.5, 1.0, 5)
    path = tmp_path / "hist.csv"
    hist.save(path)
    header = path.read_text().splitlines()[0]
    assert "sup_beta" in header


def test_iterate_takes_one_moment_per_exponent(monkeypatch):
    # each recorded state takes <X^a> for a in {1/3, 1/2, 2/3} in one
    # pass; normalize reuses the memoized <X^(1/2)>
    calls = []
    power_total = cellquad.power_total

    def counted(*args, **kwargs):
        calls.append(args[2])
        return power_total(*args, **kwargs)

    monkeypatch.setattr(cellquad, "power_total", counted)
    n_steps = 2
    iterate(lk.exponential().profile, cube_root_map(), 0.5, 1.0, n_steps, n_grid=512)
    assert len(calls) == n_steps + 1
    for s in calls:
        np.testing.assert_array_equal(s, np.array([1.0 / 3.0, 0.5, 2.0 / 3.0]) - 1.0)


def test_benchmark_probes_of_this_layer_resolve():
    # perfbench times this layer by wrapping these attributes; a rename here
    # would silently turn its map_iteration.*_s metrics into None
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owned = {}
    for _, owner, attr in tracer.SPAN_PROBES:
        if owner is map_iteration:
            owned[attr] = owner
        elif getattr(owner, "__module__", None) == map_iteration.__name__:
            owned[f"{owner.__name__}.{attr}"] = owner
    assert sorted(owned) == ["IterationHistory.save", "MapF.inverse", "apply_map", "normalize",
                             "quantile_grid"]
    for name, owner in owned.items():
        # the tracer wraps only an attribute the owner itself defines
        assert vars(owner).get(name.rpartition(".")[2]) is not None, name
