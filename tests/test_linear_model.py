import numpy as np
import pytest

import lswkit as lk
from lswkit.linear_model import (
    LinearModelConfig, run_linear_model, stability_check, affine_exactness_check,
)
from lswkit.lsw_solver import coarsening_identity_check, mass_drift


@pytest.fixture(scope="module")
def half_run():
    fam = lk.constant_beta(0.5)
    return fam, run_linear_model(fam.profile, 200.0, beta0=fam.beta_exact)


def test_mass_is_algebraically_conserved(half_run):
    _, res = half_run
    assert mass_drift(res.trace) < 1e-12


def test_identity_holds_pointwise(half_run):
    _, res = half_run
    rep = coarsening_identity_check(res.trace)
    assert rep["frac_within_2pct"] == 1.0
    assert rep["max_rel_error"] < 5e-3


def test_growth_rate_matches_boundary_beta(half_run):
    fam, res = half_run
    rep = stability_check(fam.profile, res)
    assert rep.applicable and not rep.oscillatory
    assert rep.slope == pytest.approx(0.5, abs=1e-4)
    assert rep.rv_exponent == pytest.approx(1.0, abs=0.02)


def test_affine_reconstruction(half_run):
    _, res = half_run
    assert affine_exactness_check(res) < 1e-5


def test_oscillatory_boundary_flagged_inapplicable():
    fam = lk.oscillating_compact(1.0, 0.2)
    res = run_linear_model(fam.profile, 5.0)
    rep = stability_check(fam.profile, res)
    assert not rep.applicable
    assert "oscillates" in rep.note


def test_unbounded_support_flagged_inapplicable():
    fam = lk.exponential()
    res = run_linear_model(fam.profile, 5.0, beta0=fam.beta_exact)
    rep = stability_check(fam.profile, res)
    assert not rep.applicable
    assert "unbounded" in rep.note


def test_indicator_is_stationary():
    # flat survival means beta = 0, so Lambda never grows and the boundary
    # label saturates strictly inside the support
    fam = lk.indicator()
    res = run_linear_model(fam.profile, 50.0, beta0=fam.beta_exact)
    lam = np.array(res.trace.Lambda)
    np.testing.assert_allclose(lam, lam[0], rtol=1e-12)
    assert res.B < fam.profile.sup_x


def test_trace_format_matches_full_solver(half_run):
    _, res = half_run
    a = res.trace.as_arrays()
    for key in ("t", "tau", "L", "Lambda", "E", "beta0", "mass", "gamma"):
        assert key in a
        assert len(a[key]) == len(a["t"])


def test_step_count_logarithmic():
    fam = lk.constant_beta(0.5)
    res = run_linear_model(fam.profile, 1e4, beta0=fam.beta_exact)
    # delta-proportional steps in Lambda give O(log t_final) work
    assert len(res.trace.t) < 500
