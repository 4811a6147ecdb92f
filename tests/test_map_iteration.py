import numpy as np
import pytest

import lswkit as lk
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
             fprime=lambda x: np.full_like(np.asarray(x, float), 0.5))


def test_inverse_round_trip():
    F = cube_root_map()
    xs = np.array([0.0, 0.4, 1.0, 7.5])
    np.testing.assert_allclose(F.inverse(F(xs)), xs, atol=1e-10)


def test_apply_map_composition():
    fam = lk.exponential()
    F = cube_root_map()
    image = apply_map(fam.profile, F)
    xs = np.linspace(0.0, 10.0, 200)
    np.testing.assert_allclose(image.w_at(xs), fam.profile.w_at(F(xs)), rtol=2e-3)


def test_apply_map_makes_one_quantile_call(monkeypatch):
    fam = lk.exponential()
    calls = []
    quantile = lk.SurvivalProfile.quantile

    def counted(self, q):
        calls.append(np.shape(q))
        return quantile(self, q)

    monkeypatch.setattr(lk.SurvivalProfile, "quantile", counted)
    apply_map(fam.profile, cube_root_map())
    # the whole quantile grid of the image in one array call
    assert calls == [(360,)]


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
