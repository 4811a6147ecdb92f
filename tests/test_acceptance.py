"""End-to-end acceptance checks, one test per advertised guarantee.

A guarantee the CLI also checks is asserted through the CLI's own check
table, ``lswkit.cli.CHECKS``, so both hold the same bound; the tests pin
only what the CLI does not assert.  Module-scoped fixtures share the long
solver runs between criteria.
"""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import lswkit as lk
from lswkit import jensen
from lswkit.cli import CHECKS
from lswkit.lsw_solver import SolverConfig, advance_global, dyadic_report
from lswkit.linear_model import run_linear_model, stability_check
from lswkit.map_iteration import linear_map, cube_root_map, iterate, beta_transform
from lswkit.profiles import beta_from_profile
from lswkit.self_similar import build_profile, g_alpha_profile


# Λ(T)/T regression floors over T in [5, 20], frozen at first validated
# build from a step-refinement study (observed minima 0.3289 and 0.5316)
LAMBDA_FLOOR = {"exponential": 0.30, "power_tail": 0.48}


@pytest.fixture(scope="module")
def exp_run():
    fam = lk.exponential()
    return fam, advance_global(fam.profile, 20.0, SolverConfig(delta=0.05, tol=1e-6),
                               beta0=fam.beta_exact, snapshot_times=(20.0,))


@pytest.fixture(scope="module")
def exp_run_half_step():
    fam = lk.exponential()
    return fam, advance_global(fam.profile, 20.0, SolverConfig(delta=0.025, tol=1e-6),
                               beta0=fam.beta_exact)


@pytest.fixture(scope="module")
def power_run():
    fam = lk.power_tail(1.0)
    return fam, advance_global(fam.profile, 20.0, SolverConfig(delta=0.05, tol=1e-6),
                               beta0=fam.beta_exact, snapshot_times=(20.0,))


@pytest.fixture(scope="module")
def half_beta_run():
    fam = lk.constant_beta(0.5)
    return fam, advance_global(fam.profile, 20.0, SolverConfig(delta=0.05, tol=1e-6),
                               beta0=fam.beta_exact,
                               snapshot_times=(0.0, 2.5, 5.0, 10.0, 20.0))


@pytest.fixture(scope="module")
def stationary_run():
    fam = lk.make_family("self-similar", alpha=0.05)
    rate = float(fam.beta_exact(0.0))
    t_final = float((np.exp(2.0 * rate) - 1.0) / rate)
    res = advance_global(fam.profile, t_final, SolverConfig(delta=0.05, tol=1e-5),
                         beta0=fam.beta_exact, snapshot_times=(t_final,))
    return fam, rate, res


@pytest.fixture(scope="module")
def linear_run():
    fam = lk.constant_beta(0.5)
    return fam, run_linear_model(fam.profile, 200.0, beta0=fam.beta_exact)


def passes(model: str, name: str, opts: dict | None = None, **run) -> bool:
    """The verdict of table entry (model, name) on the given runner output."""
    return CHECKS[(model, name)](SimpleNamespace(**run), opts or {}).passed


def test_c01_constant_beta_round_trip():
    for beta in (0.25, 0.5, 1.0, 2.0):
        fam = lk.constant_beta(beta)
        est = beta_from_profile(fam.profile)
        prof = fam.profile
        bulk = (~est.low_confidence) & (prof.w_at(est.grid) >= prof.w0 * 2.0**-30)
        idx = np.flatnonzero(bulk)
        spacing = 0.5 * (est.grid[np.minimum(idx + 1, len(est.grid) - 1)]
                         - est.grid[np.maximum(idx - 1, 0)])
        err = np.abs(est.values[idx] - beta)
        assert np.all(err <= np.maximum(10.0 * spacing, 1e-2)), beta


def test_c02_self_similar_identities():
    for alpha in (0.02, 0.05, 0.10, 0.14):
        prof = build_profile(alpha)
        g = g_alpha_profile(prof)
        for name in ("z4", "g_end", "monotone"):
            assert passes("self_similar", name, prof=prof, g=g), (alpha, name)


def test_c03_self_similar_stationarity(stationary_run):
    fam, _, res = stationary_run
    assert passes("lsw", "stationarity", fam=fam, result=res)


def test_c04_coarsening_identity(exp_run, power_run):
    for fam, res in (exp_run, power_run):
        assert passes("lsw", "identity", fam=fam, result=res), fam.name


def check_on(model: str, name: str, **run):
    """The full result of table entry (model, name) on the given runner output."""
    return CHECKS[(model, name)](SimpleNamespace(**run), {})


def test_c04_identity_fails_on_a_beta0_biased_by_3_percent(exp_run):
    # every centred-difference sample then misses beta0 by about 3%, past 2%
    fam, res = exp_run
    trace = dataclasses.replace(res.trace, beta0=[1.03 * b for b in res.trace.beta0])
    r = check_on("lsw", "identity", fam=fam, result=SimpleNamespace(trace=trace))
    assert not r.passed and r.value < r.bound


def test_c05_conservation(exp_run, power_run, half_beta_run, stationary_run):
    stationary = (stationary_run[0], stationary_run[2])
    for fam, res in (exp_run, power_run, half_beta_run, stationary):
        assert passes("lsw", "conservation", fam=fam, result=res), fam.name


def test_c05_conservation_fails_on_a_mass_row_off_by_2e_4(exp_run):
    fam, res = exp_run
    mass = list(res.trace.mass)
    mass[len(mass) // 2] *= 1.0 + 2e-4
    trace = dataclasses.replace(res.trace, mass=mass)
    r = check_on("lsw", "conservation", fam=fam, result=SimpleNamespace(trace=trace))
    assert not r.passed and r.value > r.bound


def test_c06_upper_bounds(exp_run, power_run, half_beta_run):
    for fam, res in (exp_run, power_run, half_beta_run):
        assert passes("lsw", "upper_bound", fam=fam, result=res), fam.name


def test_c07_lower_bound_floor(exp_run, power_run):
    for key, (_, res) in (("exponential", exp_run), ("power_tail", power_run)):
        a = res.trace.as_arrays()
        win = (a["t"] >= 5.0) & (a["t"] <= 20.0)
        rate = a["Lambda"][win] / a["t"][win]
        assert float(np.min(rate)) >= LAMBDA_FLOOR[key], key


def test_c08_picard_contraction(exp_run, exp_run_half_step):
    fam, res = exp_run
    assert passes("lsw", "picard", fam=fam, result=res)
    fc = max(p.first_correction for p in res.picard)
    fc_half = max(p.first_correction for p in exp_run_half_step[1].picard)
    # cube-root step scaling predicts a 2^(1/3) reduction, allowed factor 2
    ratio = fc / fc_half
    assert 2.0 ** (1.0 / 3.0) / 2.0 <= ratio <= 2.0 ** (1.0 / 3.0) * 2.0


@pytest.mark.parametrize("doctored", [{"iterations": 11}, {"ratios": [0.01, 1.0]}],
                         ids=["11-sweeps", "ratio-1"])
def test_c08_picard_fails_past_its_sweeps_or_its_ratio(exp_run, doctored):
    # one step with a sweep past the cap of 10, or with a contraction ratio
    # that is not strictly below 1: the check reports the bound it misses
    fam, res = exp_run
    picard = list(res.picard)
    picard[len(picard) // 2] = dataclasses.replace(picard[len(picard) // 2], **doctored)
    r = check_on("lsw", "picard", fam=fam, result=SimpleNamespace(picard=picard))
    assert not r.passed
    assert r.value > r.bound if "iterations" in doctored else r.value >= r.bound


def test_c09_linear_model_stability(linear_run):
    fam, res = linear_run
    # the CLI fails an inapplicable stability check; here it must apply
    assert stability_check(fam.profile, res).applicable
    assert passes("linear", "stability", {"beta_limit": "0.5"}, fam=fam, result=res)
    # beta(0,t) is transported exactly through the affine label map
    a = res.trace.as_arrays()
    np.testing.assert_allclose(a["beta0"], 0.5, atol=1e-6)


def test_c10_monotonicity_suite(half_beta_run):
    fam, res = half_beta_run
    assert passes("lsw", "monotonicity", fam=fam, result=res)


def test_c10_monotonicity_fails_on_a_jacobian_dip(half_beta_run):
    # the transported beta reads dF/dx as 1/jac, so a dip of 1e-3 in the
    # Jacobian at one survivor is a spike in beta, about twice its rise from
    # one node to the next there, and beta falls after it
    fam, res = half_beta_run
    snap = res.snapshots[-1]
    jac = snap.jac.copy()
    jac[len(jac) // 2] *= 1.0 - 1e-3
    doctored = SimpleNamespace(snapshots=[dataclasses.replace(snap, jac=jac)],
                               ensemble=res.ensemble)
    assert not passes("lsw", "monotonicity", fam=fam, result=doctored)


def test_c11_dyadic_ratio(half_beta_run):
    fam, res = half_beta_run
    rep = dyadic_report(res.snapshots)
    assert passes("lsw", "dyadic", fam=fam, result=res, dyadic=rep)
    # per-level ratios never decrease as rescaled time advances
    n = min(min(len(r["ratios"]) for r in rep["snapshots"]), 10)
    stack = np.array([r["ratios"][:n] for r in rep["snapshots"]])
    assert np.min(np.diff(stack, axis=0)) >= -1e-6


def test_c12_map_iteration():
    fam = lk.exponential()
    F = cube_root_map()
    hist = iterate(fam.profile, F, 0.5, 1.0, 100)
    for name in ("sup_beta", "pointwise"):
        assert passes("map_iteration", name, fam=fam, F=F, hist=hist), name
    base = beta_from_profile(fam.profile)
    lb = beta_transform(fam.profile, linear_map(0.5))
    ok = ~lb.low_confidence
    assert np.max(np.abs(lb.values[ok] - base.at(linear_map(0.5)(lb.grid[ok])))) <= 1e-6


def test_c13_jensen_suite():
    families = [lk.constant_beta(0.25), lk.constant_beta(0.5), lk.constant_beta(2.0),
                lk.exponential(), lk.oscillating_exponential(0.3),
                lk.oscillating_compact(1.0, 0.2), lk.power_tail(1.0), lk.indicator()]
    for fam in families:
        for alpha in (0.25, 0.5):
            certificates = {name: getattr(jensen, name)(fam.profile, alpha)
                            for name in ("reverse_jensen", "sharp_jensen")}
            names = list(certificates) + (["tail_bounds", "gap"] if alpha == 0.5 else [])
            for name in names:
                if fam.name == "indicator" and name == "sharp_jensen":
                    # inf beta = 0 leaves no strict gap to certify: not evaluated
                    run = SimpleNamespace(certificates=certificates)
                    assert CHECKS[("analysis", name)](run, {}) is None, alpha
                    continue
                assert passes("analysis", name, fam=fam, alpha=alpha,
                              certificates=certificates), (fam.name, alpha, name)
    assert passes("analysis", "regular_variation", {"rv_target": "1.0"},
                  fam=lk.constant_beta(0.5))
