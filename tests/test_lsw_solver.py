import warnings

import numpy as np
import pytest

import lswkit as lk
from lswkit import cellquad, lsw_solver
from lswkit.lsw_solver import (
    SolverConfig, make_ensemble, advance_global, exit_time_frozen, drift,
    coarsening_identity_check, beta_along_flow, g_profile, normalized_view,
    dyadic_intervals, dyadic_report,
)


@pytest.fixture(scope="module")
def short_exp_run():
    fam = lk.exponential()
    return fam, advance_global(fam.profile, 2.0, SolverConfig(tol=1e-6),
                               beta0=fam.beta_exact, snapshot_times=(2.0,))


def test_drift_sign_and_zero():
    L = 2.0
    assert drift(L, L) == pytest.approx(0.0, abs=1e-14)
    assert drift(0.1, L) < 0
    assert drift(10.0 * L, L) > 0


def test_exit_time_frozen_against_quadrature():
    from scipy.integrate import quad

    L = 1.7
    for x in (0.05, 0.3, 0.9 * L):
        ref, _ = quad(lambda z: 1.0 / (1.0 - (z / L) ** (1.0 / 3.0)), 0.0, x,
                      points=[0.0], limit=200)
        assert exit_time_frozen(x, L) == pytest.approx(ref, rel=1e-10)


def test_make_ensemble_starts_on_grid():
    fam = lk.constant_beta(0.5)
    ens = make_ensemble(fam.profile, fam.beta_exact)
    assert np.all(np.diff(ens.pos) > 0)
    assert np.all(ens.jac == 1.0)
    np.testing.assert_array_equal(ens.labels, ens.pos)


def test_mass_conservation_short_run(short_exp_run):
    _, res = short_exp_run
    m = np.array(res.trace.mass)
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-5


def test_lambda_increases(short_exp_run):
    _, res = short_exp_run
    lam = np.array(res.trace.Lambda)
    assert np.all(np.diff(lam) > 0)


def test_identity_short_run(short_exp_run):
    _, res = short_exp_run
    rep = coarsening_identity_check(res.trace)
    assert rep["frac_within_2pct"] >= 0.95


def test_picard_contraction(short_exp_run):
    _, res = short_exp_run
    assert max(p.iterations for p in res.picard) <= 10
    assert all(r < 1.0 for p in res.picard for r in p.ratios)


def test_indicator_is_stationary():
    fam = lk.indicator()
    res = advance_global(fam.profile, 3.0, SolverConfig(), beta0=fam.beta_exact)
    lam = np.array(res.trace.Lambda)
    np.testing.assert_allclose(lam, 1.0, atol=1e-12)
    m = np.array(res.trace.mass)
    np.testing.assert_allclose(m, 1.0, atol=1e-12)


def test_snapshot_profile_round_trip(short_exp_run):
    _, res = short_exp_run
    snap = res.snapshots[-1]
    prof = snap.profile()
    assert prof.w0 == pytest.approx(snap.w0b)
    assert prof.grid[0] == 0.0


def test_normalized_view_scaling(short_exp_run):
    _, res = short_exp_run
    snap = res.snapshots[-1]
    y, ws = normalized_view(snap)
    # w*(0) equals the conserved mass in the normalized variables
    assert ws[0] == pytest.approx(res.trace.mass[-1], rel=1e-10)
    assert y[0] == 0.0


def test_transported_beta_matches_direct(short_exp_run):
    fam, res = short_exp_run
    snap = res.snapshots[-1]
    tb, direct = beta_along_flow(snap, fam.profile, res.ensemble.beta0)
    ok = ~tb.low_confidence
    bulk = ok & (np.interp(tb.grid, np.concatenate(([0], snap.pos)),
                           np.concatenate(([snap.w0b], snap.w))) > snap.w0b * 2.0**-12)
    dv = np.interp(tb.grid[bulk], direct.grid[~direct.low_confidence],
                   direct.values[~direct.low_confidence])
    assert np.max(np.abs(tb.values[bulk] - dv)) < 0.02


def test_g_profile_nonnegative(short_exp_run):
    _, res = short_exp_run
    gx, gv = g_profile(res.snapshots[-1])
    assert np.min(gv) >= -1e-10


def test_dyadic_intervals_exact_halving():
    # w = 1 - x/2: levels 2^-N are hit at x = 2(1 - 2^-N), so
    # |I_N| = 2^-N and adjacent ratios are exactly 2
    fam = lk.constant_beta(0.5)
    y = np.concatenate(([0.0], fam.profile.grid[1:]))
    w = fam.profile.w_at(y)
    lens = dyadic_intervals(y, w, n_levels=12)
    ratios = lens[:-1] / lens[1:]
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-9)


def test_dyadic_report_structure(short_exp_run):
    _, res = short_exp_run
    rep = dyadic_report(res.snapshots)
    assert len(rep["snapshots"]) == len(res.snapshots)
    assert "ratios" in rep["snapshots"][0]


def test_trace_save_header(tmp_path, short_exp_run):
    _, res = short_exp_run
    path = tmp_path / "trace.csv"
    res.trace.save(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,tau,L,Lambda,E,beta0,mass,gamma"


def test_jacobian_transport_tracks_stretching(short_exp_run):
    # dx/dy from the transported Jacobian vs finite differences of the
    # label-position pairs, away from the origin cusp
    _, res = short_exp_run
    ens = res.ensemble
    mid = slice(200, 1500)
    fd = np.gradient(ens.pos[mid], ens.labels[mid])
    np.testing.assert_allclose(ens.jac[mid], fd, rtol=2e-3)


def test_extinction_reported():
    fam = lk.indicator(n=32)
    res = advance_global(fam.profile, 50.0, SolverConfig(), beta0=fam.beta_exact)
    assert res.terminated == "extinction"
    assert res.trace.t[-1] < 50.0


def test_theta_quadrature_matches_closed_form():
    # time to reach the origin from x under frozen L, against the primitive
    L = 1.3
    xs = np.linspace(1e-6, 0.9 * L, 30)
    u = np.cbrt(xs / L)
    phi = -(u**2) / 2.0 - u - np.log1p(-u)
    np.testing.assert_allclose([exit_time_frozen(x, L) for x in xs],
                               3.0 * L * phi, rtol=1e-12)


def test_phi_primitive_matches_both_branch_form():
    # each branch is evaluated only where it applies; the result must be
    # bit-identical to evaluating both everywhere and selecting
    u = np.concatenate((np.linspace(0.0, 1.0 - 1e-12, 2001),
                        [np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0)]))
    k = np.arange(3, 61).reshape(-1, 1)
    series = np.sum(u ** (k + 1) / (k * (k + 1)), axis=0)
    closed = -u**3 / 6 - u**2 / 2 + u + (1.0 - u) * np.log1p(-u)
    np.testing.assert_array_equal(lsw_solver._phi_primitive(u),
                                  np.where(u < 0.25, series, closed))


def test_descent_warns_when_newton_cannot_converge(monkeypatch):
    # a map whose value flips by a relative 1e-8 between calls keeps every
    # Newton step far above both stopping floors
    clean = lsw_solver._phi_of_u
    flips = [1.0]

    def noisy(u):
        flips[0] = -flips[0]
        return clean(u) * (1.0 + 1e-8 * flips[0])

    monkeypatch.setattr(lsw_solver, "_phi_of_u", noisy)
    x = np.linspace(0.1, 0.8, 50)
    with pytest.warns(RuntimeWarning, match="50 of 50 entries did not converge"):
        lsw_solver._analytic_descent(x, 1.0, 1e-3)


@pytest.mark.parametrize("ds", [1e-9, 1e-5, 1e-3, 0.05, 0.5])
def test_descent_inverts_exit_time(monkeypatch, ds):
    L = 1.3
    x = L * np.geomspace(1e-6, 0.9, 400, endpoint=False)
    tte = exit_time_frozen(x, L)
    x, tte = x[tte > ds], tte[tte > ds]
    clean = lsw_solver._phi_of_u
    calls = [0]

    def counted(u):
        calls[0] += 1
        return clean(u)

    monkeypatch.setattr(lsw_solver, "_phi_of_u", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lsw_solver._analytic_descent(x, L, ds)
    # one call for the target, one per Newton iteration
    assert calls[0] - 1 <= 8
    monkeypatch.setattr(lsw_solver, "_phi_of_u", clean)
    # exit_time_frozen cancels to ~x/L from O((x/L)^(1/3)) terms, so for
    # small x/L its own rounding floor exceeds 1e-12 relative; allow that
    u = np.cbrt(x / L)
    floor = 4.0 * 3.0 * L * np.finfo(float).eps * (u + np.abs(np.log1p(-u)))
    ref = tte - ds
    assert np.all(np.abs(exit_time_frozen(out, L) - ref) <= 1e-12 * ref + floor)


def test_far_field_cache_matches_full_quadrature(short_exp_run):
    _, res = short_exp_run
    ens = res.ensemble
    L = res.trace.L[-1]
    w0b = float(ens.initial.w_at(lsw_solver.boundary_label(ens, L)))
    # the clip of w at w0b in the augmented state never binds
    assert np.all(ens.w <= w0b)
    far = cellquad.power_suffix(ens.pos, ens.w, -2.0 / 3.0)
    x, w = lsw_solver._augmented_state(ens, w0b)
    third = -2.0 / 3.0
    # linear cells throughout
    full = (cellquad.power_total(x, w, third) / (3.0 * w0b)) ** 3
    assert lsw_solver.l_from_state(ens, w0b, far=far) == pytest.approx(full, rel=1e-13)
    # time-to-origin cells next to the origin, linear cells beyond
    assert x[1] < 0.125 * L
    k = lsw_solver._origin_split(x, L)
    near, _ = lsw_solver._theta_cell_integrals(x[:k + 1], w[:k + 1], L)
    split = ((near + cellquad.power_total(x[k:], w[k:], third)) / (3.0 * w0b)) ** 3
    assert lsw_solver.l_from_state(ens, w0b, L_guess=L, far=far) == pytest.approx(split, rel=1e-13)
    assert lsw_solver.l_from_state(ens, w0b, L_guess=L) == pytest.approx(split, rel=1e-13)
