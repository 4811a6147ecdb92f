import numpy as np
import pytest

import lswkit as lk
from lswkit.self_similar import (
    f_alpha, f_alpha_roots, f_alpha_near_root, build_profile,
    g_alpha_profile, beta_star, seed_solver,
)

ALPHAS = (0.02, 0.05, 0.10, 0.14)

# minimal roots of 1 - z^(1/3) + alpha z, from an independent root finder
A_ALPHA = {0.02: 1.06528880824987, 0.05: 1.18919602604202,
           0.10: 1.53467305145763, 0.14: 2.33970699749704}

# gamma by independent high-accuracy ODE integration of the profile mass
GAMMA = {0.02: 1.013408044050976, 0.05: 1.035241154488942,
         0.10: 1.077640868063607, 0.14: 1.119688425519023}


@pytest.fixture(scope="module")
def profiles():
    return {a: build_profile(a) for a in ALPHAS}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_roots_match_reference(alpha):
    a = f_alpha_roots(alpha)
    assert a == pytest.approx(A_ALPHA[alpha], rel=1e-12)
    assert f_alpha(alpha, a) == pytest.approx(0.0, abs=1e-13)


def test_root_validation():
    for bad in (0.0, 4.0 / 27.0, 0.5):
        with pytest.raises(lk.ConfigError):
            f_alpha_roots(bad)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_near_root_expansion_cancellation_free(alpha):
    a = f_alpha_roots(alpha)
    u = np.logspace(-1, -14, 40)
    direct = f_alpha(alpha, a - u)
    stable = f_alpha_near_root(alpha, a, u)
    # where the direct form still has digits the two must agree
    big = u > 1e-6
    np.testing.assert_allclose(stable[big], direct[big], rtol=1e-6)
    # the stable form stays positive and asymptotically linear in u
    slope = stable / u
    assert np.all(stable > 0)
    assert np.std(slope[u < 1e-8]) / np.mean(slope[u < 1e-8]) < 1e-6


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gamma_matches_reference(alpha, profiles):
    assert profiles[alpha].gamma == pytest.approx(GAMMA[alpha], abs=5e-6)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_flux_residual(alpha, profiles):
    assert profiles[alpha].z4_residual <= 1e-5


@pytest.mark.parametrize("alpha", ALPHAS)
def test_g_alpha_endpoints_and_monotonicity(alpha, profiles):
    prof = profiles[alpha]
    g = g_alpha_profile(prof)
    assert abs(g.g0 - alpha * prof.gamma) <= 1e-4
    assert abs(g.g_end - g.g_end_exact) <= 1e-4
    assert g.g_end_exact == pytest.approx(3.0 * alpha * prof.a_alpha ** (2.0 / 3.0), rel=1e-12)
    assert np.max(np.maximum(-np.diff(g.values), 0.0)) <= 1e-8


def test_beta_star_origin(profiles):
    prof = profiles[0.05]
    bs = beta_star(prof)
    assert float(bs.at(0.0)) == pytest.approx(0.05 * prof.gamma, rel=1e-6)


def test_seed_profile_normalization(profiles):
    seed = seed_solver(profiles[0.05])
    assert seed.mass == pytest.approx(1.0, rel=1e-6)
    assert seed.w0 == pytest.approx(1.0, rel=1e-10)
    assert np.isfinite(seed.sup_x)
    # support end is a_alpha / gamma in normalized variables
    assert seed.sup_x == pytest.approx(profiles[0.05].a_alpha / profiles[0.05].gamma, rel=1e-8)


def test_build_profile_rejects_degenerate_alpha():
    with pytest.raises(lk.ConfigError):
        build_profile(4.0 / 27.0)


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 0.148])
def test_build_profile_names_alpha_and_its_interval(alpha):
    # the message holds on either side of the interval
    with pytest.raises(lk.ConfigError) as err:
        build_profile(alpha)
    assert str(err.value).startswith(f"alpha = {alpha:g} must lie in (0, 4/27 - 0.001)")


def test_profile_save(tmp_path, profiles):
    g = g_alpha_profile(profiles[0.05])
    path = tmp_path / "ss.csv"
    profiles[0.05].save(path, g=g.values)
    assert path.exists()
    meta = path.with_suffix(".json").read_text()
    assert "z4_residual" in meta
