import numpy as np
import pytest

import lswkit as lk
from lswkit.profiles import derivative_nonuniform


@pytest.fixture(scope="module")
def expf():
    return lk.exponential()


def test_mass_and_mean_exponential(expf):
    assert expf.profile.mass == pytest.approx(1.0, abs=1e-5)
    assert expf.profile.mean == pytest.approx(1.0, abs=1e-5)


def test_moments_exponential(expf):
    # E[X^(1/2)] = Gamma(3/2) = sqrt(pi)/2
    assert expf.profile.moment(0.5) == pytest.approx(0.88622692545275801, abs=1e-5)
    assert expf.profile.moment(0.25) == pytest.approx(0.90640247705547703, abs=2e-5)


def test_energy_exponential(expf):
    # (2/3) Gamma(2/3)
    assert expf.profile.energy() == pytest.approx(0.90274529295093361, abs=1e-5)


def test_moment_and_energy_compact():
    fam = lk.constant_beta(0.5)
    assert fam.profile.moment(0.5) == pytest.approx(0.94280904158206337, abs=1e-8)
    assert fam.profile.energy() == pytest.approx(0.95244063118091968, abs=1e-8)


def test_moment_power_tail():
    fam = lk.power_tail(1.0)
    assert fam.profile.moment(0.5) == pytest.approx(np.pi / 4.0, abs=1e-4)


def test_w_at_h_at_between_nodes(expf):
    xs = np.array([0.05, 0.7, 3.33, 12.1])
    np.testing.assert_allclose(expf.profile.w_at(xs), np.exp(-xs), rtol=2e-3)
    np.testing.assert_allclose(expf.profile.h_at(xs), np.exp(-xs), rtol=2e-3)


def test_quantile_round_trip(expf):
    for q in (0.9, 0.5, 0.01, 2.0 ** -20):
        x = expf.profile.quantile(q)
        assert expf.profile.w_at(x) / expf.profile.w0 == pytest.approx(q, rel=1e-8)


def _tailed(kind):
    # a flat run at 0.8 and 0.5, and a positive last value the tail continues
    grid = np.array([0.0, 0.3, 0.7, 1.0, 1.6, 2.0, 2.5, 3.1])
    vals = np.array([1.0, 0.8, 0.8, 0.8, 0.5, 0.5, 0.3, 0.25 if kind != "compact" else 0.0])
    tail = {"compact": lk.TailModel.compact(), "exponential": lk.TailModel.exponential(1.3),
            "power": lk.TailModel.power(2.5)}[kind]
    return lk.SurvivalProfile(grid, vals, tail)


@pytest.mark.parametrize("kind", ["compact", "exponential", "power"])
def test_quantile_array_equals_scalar_calls(kind):
    prof = _tailed(kind)
    # node levels (flat runs, the last value), levels between them and below
    # the last value, where the tail model answers
    levels = np.concatenate((prof.values[prof.values > 0] / prof.w0,
                             [0.9, 0.65, 0.26, 0.25, 0.2, 1e-3, 2.0 ** -40]))
    with np.errstate(all="raise"):
        xs = prof.quantile(levels)
        one_by_one = [prof.quantile(q) for q in levels]
    assert all(type(x) is float for x in one_by_one)
    assert np.array_equal(xs, np.array(one_by_one))
    assert prof.quantile(levels[:6].reshape(2, 3)).shape == (2, 3)


@pytest.mark.parametrize("kind", ["compact", "exponential", "power"])
def test_quantile_on_flat_runs_and_tail(kind):
    prof = _tailed(kind)
    # the largest x with w(x) >= q w(0) ends a flat run at its last node
    np.testing.assert_array_equal(prof.quantile(np.array([1.0, 0.8, 0.5])), [0.0, 1.0, 2.0])
    x = prof.quantile(0.28)
    assert prof.w_at(x) == pytest.approx(0.28, rel=1e-12)
    last = prof.values[-1] / prof.w0
    if kind == "compact":
        assert prof.quantile(1e-3) == pytest.approx(2.5 + 0.6 * (0.3 - 1e-3) / 0.3, rel=1e-12)
    else:
        # at and below the last value the tail model is inverted exactly
        assert prof.quantile(last) == 3.1
        for q in (0.5 * last, 1e-6):
            assert prof.w_at(prof.quantile(q)) == pytest.approx(q * prof.w0, rel=1e-12)


@pytest.mark.parametrize("bad", [[0.5, 0.0, 0.3], [0.5, 1.5], [np.nan], [-0.1]])
def test_quantile_rejects_any_bad_level(expf, bad):
    with pytest.raises(ValueError):
        expf.profile.quantile(np.array(bad))


def test_beta_from_profile_exponential(expf):
    b = lk.beta_from_profile(expf.profile)
    ok = ~b.low_confidence
    assert np.max(np.abs(b.values[ok] - 1.0)) < 2e-3


def test_beta_sup_inf(expf):
    b = lk.beta_from_profile(expf.profile)
    assert b.sup == pytest.approx(1.0, abs=2e-3)
    assert b.inf == pytest.approx(1.0, abs=2e-3)


def test_beta_envelope_brackets_truth():
    fam = lk.oscillating_exponential(0.3)
    lo, hi = lk.beta_envelope(fam.profile)
    xs = np.linspace(0.0, 20.0, 500)
    bx = fam.beta_exact(xs)
    assert hi >= np.max(bx) - 1e-3
    assert lo <= np.min(bx) + 0.02


def test_dilate_preserves_beta():
    fam = lk.constant_beta(0.5)
    d = fam.profile.dilate(3.0)
    assert d.mean == pytest.approx(3.0 * fam.profile.mean, rel=1e-10)
    b = lk.beta_from_profile(d)
    b0 = lk.beta_from_profile(fam.profile)
    # dilation is exactly scale covariant node by node where the data is
    # resolved; the last few rounding-level nodes are excluded
    res = fam.profile.values[: len(b.values)] >= fam.profile.w0 * 2.0**-20
    assert np.max(np.abs(b.values[res] - b0.values[res])) < 1e-8


def test_save_load_round_trip(tmp_path, expf):
    path = tmp_path / "prof.csv"
    expf.profile.save(path)
    back = lk.SurvivalProfile.load(path)
    np.testing.assert_array_equal(back.grid, expf.profile.grid)
    np.testing.assert_array_equal(back.values, expf.profile.values)
    assert back.tail.kind == expf.profile.tail.kind


def test_regular_variation_linear_end():
    fam = lk.constant_beta(0.5)
    est = lk.regular_variation_exponent(fam.profile)
    assert not est.oscillatory
    assert est.exponent == pytest.approx(1.0, abs=0.02)


def test_regular_variation_survives_density_oscillation():
    # the survival function of this family varies regularly with index p
    # even though its beta function oscillates at the end; the estimator
    # works at survival level and must converge here
    fam = lk.oscillating_compact(1.0, 0.2)
    est = lk.regular_variation_exponent(fam.profile)
    assert not est.oscillatory
    assert est.exponent == pytest.approx(1.0, abs=0.02)


def test_regular_variation_oscillatory_flag():
    # log-periodic modulation of the survival exponent itself
    u = np.logspace(-0.5, -12.0, 4000)
    x = 1.0 - u
    w = u * np.exp(0.3 * np.sin(np.log(u)))
    prof = lk.SurvivalProfile(np.concatenate(([0.0], x)), np.concatenate(([1.0], w)))
    est = lk.regular_variation_exponent(prof)
    assert est.oscillatory


def test_regular_variation_needs_compact_support(expf):
    with pytest.raises(lk.UnsupportedOperationError):
        lk.regular_variation_exponent(expf.profile)


def test_derivative_nonuniform_quadratic():
    x = np.array([0.0, 0.1, 0.25, 0.6, 1.0])
    y = x**2
    np.testing.assert_allclose(derivative_nonuniform(x, y), 2.0 * x, atol=1e-12)


def test_degenerate_profile_rejected():
    with pytest.raises(lk.LswkitError):
        lk.SurvivalProfile(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
