import copy
import dataclasses
import functools
import importlib.util
import warnings
from pathlib import Path

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


def test_solver_config_holds_what_a_section_sets():
    assert tuple(f.name for f in dataclasses.fields(SolverConfig)) == ("delta", "tol")


@pytest.mark.parametrize("key, value", [("delta", -0.05), ("delta", 0.0), ("delta", np.nan),
                                        ("tol", 0.0), ("tol", -1e-6), ("tol", np.inf)])
def test_solver_config_rejects_a_step_or_tolerance_that_is_not_positive(key, value):
    with pytest.raises(lk.ConfigError, match=f"^{key} = "):
        SolverConfig(**{key: value})


def _never(*args, **kwargs):
    raise AssertionError("the stepper was reached")


@pytest.mark.parametrize("t_final", [np.nan, -1.0, np.inf])
def test_advance_global_rejects_an_unusable_t_final(t_final, monkeypatch):
    # on a NaN or negative t_final the run would take no step and pass
    monkeypatch.setattr(lsw_solver, "picard_solve_interval", _never)
    with pytest.raises(lk.ConfigError, match="^t_final = "):
        advance_global(lk.exponential().profile, t_final)


@pytest.mark.parametrize("times, outside", [((0.25, 3.0), "3"), ((0.25, np.nan), "nan")],
                         ids=["late", "nan"])
def test_advance_global_rejects_a_snapshot_time_it_never_reaches(times, outside, monkeypatch):
    # the run would end as "t_final" with fewer snapshots than asked for
    monkeypatch.setattr(lsw_solver, "picard_solve_interval", _never)
    with pytest.raises(lk.ConfigError,
                       match=rf"^snapshot time\(s\) {outside} outside \[0, t_final=0.5\]$"):
        advance_global(lk.indicator(64).profile, 0.5, snapshot_times=times)


def test_snapshots_share_the_ensemble_arrays_and_the_first_keeps_the_initial_state():
    # a snapshot is the record of its step, with the ensemble's arrays; a
    # write into one of them anywhere in a later Picard step would show here
    fam = lk.exponential()
    start = make_ensemble(fam.profile)
    res = advance_global(fam.profile, 5.0, SolverConfig(tol=1e-6), beta0=fam.beta_exact,
                         snapshot_times=(0.0, 5.0))
    first, last = res.snapshots
    assert first.t == 0.0 and last.t == 5.0 and res.terminated == "t_final"
    for name in ("labels", "pos", "w"):
        np.testing.assert_array_equal(getattr(first, name), getattr(start, name))
    np.testing.assert_array_equal(first.jac, 1.0)
    assert all(getattr(last, name) is getattr(res.ensemble, name)
               for name in ("labels", "pos", "w", "jac"))


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
    rel = coarsening_identity_check(res.trace)
    assert np.mean(rel <= 0.02) >= 0.95


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
    tb = beta_along_flow(snap, fam.profile, res.ensemble.beta0)
    direct = lk.beta_from_profile(snap.profile())
    ok = ~tb.low_confidence
    bulk = ok & (np.interp(tb.grid, np.concatenate(([0], snap.pos)),
                           np.concatenate(([snap.w0b], snap.w))) > snap.w0b * 2.0**-12)
    # at the origin the direct estimate is a one-sided quotient across the
    # cube-root cusp of the label map; the transported beta there matches
    # the trace's beta(0,t) instead (test_acceptance)
    bulk[0] = False
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


def test_jacobian_update_does_not_cancel_at_x_equal_L():
    # one frozen-L substep from survivors at x = L(1 -+ gap); the Jacobian
    # ratio |1 - u'|/|1 - u| of the exact flow, with e = u - 1 and q = e'/e,
    # solves ln q = ds/(3L) - e^2 (q^2 - 1)/2 - 2e(q - 1), iterated in 50 digits
    import mpmath

    L, a, ds = 1.3, 0.7, 2e-3
    gaps = np.array([1e-9, 1e-11, 1e-13])
    pos = L * np.concatenate((1.0 - gaps, 1.0 + gaps[::-1]))
    fam = lk.exponential()
    ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.exp(-pos),
                              initial=fam.profile, beta0=fam.beta_exact, t=a)
    lsw_solver._advance(ens, [a, a + ds], [[L, L, L]])
    assert len(ens.jac) == len(pos)
    ref = []
    with mpmath.workdps(50):
        c = mpmath.mpf(ds) / (3 * mpmath.mpf(L))
        for x in pos:
            e = mpmath.cbrt(mpmath.mpf(x) / mpmath.mpf(L)) - 1
            q = mpmath.exp(c)
            for _ in range(8):
                q = mpmath.exp(c - e * e * (q * q - 1) / 2 - 2 * e * (q - 1))
            ref.append(float(q))
    # a ratio of the rounded distances 1 - u cancels: it is off by up to 5e-4 here
    np.testing.assert_allclose(ens.jac, ref, rtol=1e-14, atol=0)


def test_transported_beta_does_not_drop_at_six_panels(monkeypatch):
    # halving-profile's datum at 6 panels of 2 substeps: a Jacobian update
    # that cancels near x = L(t), which every later exit crosses, put a drop
    # of 8.1e-6 into the transported beta of this snapshot
    monkeypatch.setattr(lsw_solver, "N_CHEB", 6)
    monkeypatch.setattr(lsw_solver, "NSUB", 2)
    fam = lk.constant_beta(0.5)
    res = advance_global(fam.profile, 2.6, SolverConfig(tol=1e-6), beta0=fam.beta_exact,
                         snapshot_times=(2.5,))
    tb = beta_along_flow(res.snapshots[0], fam.profile, res.ensemble.beta0)
    bv = tb.values[~tb.low_confidence]
    assert np.max(np.maximum(-np.diff(bv), 0.0), initial=0.0) <= 1e-6


def test_panel_layout_keeps_lambda_near_a_fine_layout(monkeypatch):
    # the panel layout was chosen as the coarsest whose Lambda(20) stays
    # within 5e-7 of 16 panels of 4 substeps; power-tail(1) at t = 5
    fam = lk.power_tail(1.0)

    def final_lambda():
        return advance_global(fam.profile, 5.0, SolverConfig(tol=1e-6),
                              beta0=fam.beta_exact).trace.Lambda[-1]

    chosen = final_lambda()
    monkeypatch.setattr(lsw_solver, "N_CHEB", 16)
    monkeypatch.setattr(lsw_solver, "NSUB", 4)
    fine = final_lambda()
    # the fine layout runs: a step that kept the 3 x 3 layout would read the same bits
    assert chosen != fine and chosen == pytest.approx(fine, rel=5e-7)


@pytest.mark.parametrize("family", ["exponential", "power-tail(1)"])
def test_steps_of_40_L_end_with_survivors_above_the_origin_and_in_order(family):
    # delta = 40 takes the whole run in one step, whose middle panel's
    # substeps are longer than the exit time from 0.9 L, the edge of the
    # descent's share; the RK4 step past that edge would carry such
    # survivors through the origin
    fam = {"exponential": lk.exponential, "power-tail(1)": lambda: lk.power_tail(1.0)}[family]()
    res = advance_global(fam.profile, 20.0, SolverConfig(delta=40.0, tol=1e-6), beta0=fam.beta_exact)
    pos = res.ensemble.pos
    assert res.terminated == "t_final" and res.trace.t[-1] == 20.0
    assert np.all(pos > 0.0) and np.all(pos[1:] > pos[:-1])


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
    with pytest.warns(lk.ConvergenceWarning, match="50 of 50 entries did not converge"):
        lsw_solver._analytic_descent(np.cbrt(x), 1.0, 1e-3)


def test_inverse_table_is_increasing_with_ratio_in_unit_interval():
    # the descent interpolates u/s in s, so s must increase strictly, and
    # phi(u) >= u^3/3 keeps u/s in (0, 1]
    s, ratio = lsw_solver._INVERSE_S, lsw_solver._INVERSE_RATIO
    assert len(s) == len(ratio) == lsw_solver._INVERSE_NODES + 1
    assert np.all(np.diff(s) > 0)
    assert np.all((ratio > 0.0) & (ratio <= 1.0))


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
        cut, _, u_new = lsw_solver._analytic_descent(np.cbrt(x / L), L, ds)
    out = L * u_new ** 3
    assert cut == 0
    # one call for the target, one per Newton iteration
    assert calls[0] - 1 <= 8
    monkeypatch.setattr(lsw_solver, "_phi_of_u", clean)
    # exit_time_frozen cancels to ~x/L from O((x/L)^(1/3)) terms, so for
    # small x/L its own rounding floor exceeds 1e-12 relative; allow that
    u = np.cbrt(x / L)
    floor = 4.0 * 3.0 * L * np.finfo(float).eps * (u + np.abs(np.log1p(-u)))
    ref = tte - ds
    assert np.all(np.abs(exit_time_frozen(out, L) - ref) <= 1e-12 * ref + floor)


def _w0b_at(ens, L):
    # w0 at the label arriving at the origin of ens, read at L
    return float(ens.initial.w_at(lsw_solver._origin([ens], np.array([L]))[0])[0])


def test_far_field_matches_full_quadrature(short_exp_run):
    _, res = short_exp_run
    ens = res.ensemble
    L = res.trace.L[-1]
    w0b = _w0b_at(ens, L)
    # the clip of w at w0b in the augmented state never binds
    assert np.all(ens.w <= w0b)
    far = cellquad.power_suffix(ens.pos, ens.w, -2.0 / 3.0)
    x, w = lsw_solver._augmented_state(ens, w0b)
    third = -2.0 / 3.0
    # linear cells throughout
    full = (cellquad.power_total(x, w, third) / (3.0 * w0b)) ** 3
    assert lsw_solver.l_from_state(ens, w0b) == pytest.approx(full, rel=1e-13)
    # time-to-origin cells next to the origin, linear cells beyond
    assert x[1] < 0.125 * L
    k = lsw_solver._origin_split(ens.pos, L)
    near = lsw_solver._theta_cell_integrals(x[:k + 1], w[:k + 1], [L], [k + 1])[0]
    split = ((near + cellquad.power_total(x[k:], w[k:], third)) / (3.0 * w0b)) ** 3
    assert lsw_solver.l_from_state(ens, w0b, L_guess=L) == pytest.approx(split, rel=1e-13)
    # the far field is the suffix integral from survivor k - 1, w unclipped
    assert far[k - 1] == pytest.approx(cellquad.power_total(x[k:], w[k:], third), rel=1e-13)


def _layout():
    return lsw_solver._layout(lsw_solver.N_CHEB, lsw_solver.NSUB)


def _advance_panels(ens, path):
    """A copy of ens carried along ``path`` one ``_advance`` per panel, with
    the cube root carried between panels, and a full copy of it at every node."""
    lay = _layout()
    scratch, at_nodes, root = copy.copy(ens), [], None
    for ss, L_sub in zip(path.t + path.dt * lay.ends, lsw_solver._contract(lay.sub, path.values)):
        root = lsw_solver._advance(scratch, ss.tolist(), L_sub.tolist(), root)
        at_nodes.append(copy.copy(scratch))
    return scratch, at_nodes


def _first_sweep(ens, cfg=SolverConfig(tol=1e-6)):
    """Chebyshev nodes of one Picard step from ens, the first sweep's path,
    and a full copy of the transported ensemble at every node."""
    L0 = lsw_solver._state_L(ens, lsw_solver.l_from_state(ens, ens.initial.w0))[0]
    path = lsw_solver.PicardPath(ens.t, cfg.delta * L0, np.full(lsw_solver.N_CHEB + 1, L0))
    return path.t + path.dt * _layout().nodes, path, _advance_panels(ens, path)[1]


def _sweep_flux(moments, guesses):
    """A sweep's one flux evaluation at its node states, each at the w0b of
    the label its guess reads there, and those w0b."""
    w0b = moments[0].initial.w_at(lsw_solver._origin(moments, guesses)[0])
    return lsw_solver._flux_L(moments, w0b, guesses), w0b


def _assert_batch_matches_per_node(ens, path, at_nodes, guesses, monkeypatch):
    # the batch reads what the sweep's transport keeps at each node, and
    # gives each node the bits its lone l_from_state gives it
    monkeypatch.setattr(lsw_solver, "EXTINCTION_FLOOR", 1)
    _, moments, extinct = lsw_solver._transport(ens, path.dt, path.values)
    assert extinct is None and len(moments) == len(at_nodes)
    got, w0b = _sweep_flux(moments, guesses)
    for i, (node, guess) in enumerate(zip(at_nodes, guesses)):
        assert w0b[i] == _w0b_at(node, guess)
        assert got[i] == lsw_solver.l_from_state(node, _w0b_at(node, guess), guess)


@pytest.mark.parametrize("family", ["exponential", "power-tail"])
def test_batched_resolution_matches_per_node(family, short_exp_run, monkeypatch):
    if family == "exponential":
        ens = short_exp_run[1].ensemble
    else:
        ens = make_ensemble(lk.power_tail(1.0).profile)
    _, path, at_nodes = _first_sweep(ens)
    guesses = path.values[1:].copy()
    # two nodes read a guess so small that they take the head-cell branch;
    # the last node takes the time-to-origin cells
    small = [lsw_solver.N_CHEB // 4, 5 * lsw_solver.N_CHEB // 8]
    guesses[small] *= 1e-6
    assert [lsw_solver._origin_split(e.pos, g) > 0 for e, g in zip(at_nodes, guesses)] == \
        [i not in small for i in range(lsw_solver.N_CHEB)]
    _assert_batch_matches_per_node(ens, path, at_nodes, guesses, monkeypatch)


def test_batched_resolution_head_cell_branch(monkeypatch):
    # four survivors on [0, 1]: the first sits at x = 0.25 >= L/8 throughout
    ens = make_ensemble(lk.indicator(n=4).profile)
    _, path, at_nodes = _first_sweep(ens, SolverConfig())
    guesses = path.values[1:].copy()
    assert all(e.pos[0] >= 0.125 * g for e, g in zip(at_nodes, guesses))
    _assert_batch_matches_per_node(ens, path, at_nodes, guesses, monkeypatch)


@pytest.mark.parametrize("family", ["exponential", "power-tail"])
def test_resolution_stops_on_its_error_bound(family, short_exp_run):
    # the bound stop d r/(1-r) agrees with iterating until the change is
    # below 1e-15, within the 1e-13 max(L, 1) floor, and takes fewer flux
    # evaluations than stopping on the change alone
    ens = short_exp_run[1].ensemble if family == "exponential" else \
        make_ensemble(lk.power_tail(1.0).profile)
    _, path, at_nodes = _first_sweep(ens)
    fewer = 0
    for node, guess in zip(at_nodes, path.values[1:].tolist()):
        got, *_, evals = lsw_solver._state_L(node, guess)
        prev, changes = guess, []
        for _ in range(lsw_solver._RESOLVE_CAP):
            new = lsw_solver.l_from_state(node, _w0b_at(node, prev), prev)
            changes.append(abs(new - prev))
            prev = new
            if changes[-1] < 1e-15 * max(prev, 1.0):
                break
        assert changes[-1] < 1e-15 * max(prev, 1.0)
        assert abs(got - prev) <= 1e-13 * max(prev, 1.0)
        on_change = next(i + 1 for i, d in enumerate(changes) if d < 1e-13 * max(prev, 1.0))
        assert evals <= on_change
        fewer += evals < on_change
    assert fewer


def test_resolution_warns_at_its_cap(short_exp_run, monkeypatch):
    # a flux whose value flips by a relative 1e-8 between calls keeps the
    # change, and its error bound, far above the floor; a seeded first
    # iteration counts toward the cap
    _, path, at_nodes = _first_sweep(short_exp_run[1].ensemble)
    node, guess = at_nodes[-1], float(path.values[-1])
    first = lsw_solver.l_from_state(node, _w0b_at(node, guess), guess)
    clean = lsw_solver._flux_L
    flips = [1.0]

    def noisy(*args):
        flips[0] = -flips[0]
        return clean(*args) * (1.0 + 1e-8 * flips[0])

    monkeypatch.setattr(lsw_solver, "_flux_L", noisy)
    cap = lsw_solver._RESOLVE_CAP
    for args, evals in (((guess,), cap), ((first, guess), cap - 1)):
        with pytest.warns(lk.ConvergenceWarning, match=f"did not converge in {cap} iterations"):
            assert lsw_solver._state_L(node, *args)[-1] == evals


# A flux evaluation that reads every state afresh (its split, its clipped
# near cells, a whole far-field suffix array), kept as the reference of
# ``_flux_L``.


def _ref_boundary_labels(states, L):
    t, x1, y1, t0, y0 = np.array([(s.t, s.pos[0], s.labels[0], s.exit_t, s.exit_y)
                                  for s in states]).reshape(-1, 5).T
    t1 = t + exit_time_frozen(x1, L)
    ok = np.isfinite(t1) & (t1 > t0)
    return np.where(ok, y0 + (y1 - y0) * (t - t0) / np.where(ok, t1 - t0, 1.0), y0)


def _ref_flux_L(states, w0b, L_guess):
    near, ks = np.empty(len(states)), np.ones(len(states), dtype=int)
    far = [cellquad.power_suffix(s.pos, s.w, -2.0 / 3.0) for s in states]
    cells = []
    for i, state in enumerate(states):
        if L_guess[i] > 0 and state.pos[0] < lsw_solver.ORIGIN_FRACTION * L_guess[i]:
            ks[i] = k = lsw_solver._origin_split(state.pos, L_guess[i])
            cells.append((i, *lsw_solver._augmented_state(state, w0b[i], k)))
        else:
            near[i] = cellquad.power_total(*lsw_solver._augmented_state(state, w0b[i], 1),
                                           -2.0 / 3.0)
    if cells:
        idx, xs, ws = map(list, zip(*cells))
        near[idx] = lsw_solver._theta_cell_integrals(np.concatenate(xs), np.concatenate(ws),
                                                     L_guess[idx], [len(x) for x in xs])
    return np.array([((near[i] + far[i][ks[i] - 1]) / (3.0 * w0b[i])) ** 3
                     for i in range(len(states))])


@pytest.mark.parametrize("family, cfg", [
    ("exponential", SolverConfig(tol=1e-6)),
    ("indicator(512)", SolverConfig()),
    ("power-tail(1)", SolverConfig(tol=1e-6)),
])
def test_resolution_matches_the_per_iteration_route(family, cfg, monkeypatch):
    # each sweep's one flux evaluation reads every node at the w0b of the
    # label its guess reads, and agrees with the reference at every node
    fam = {"exponential": lk.exponential, "indicator(512)": lambda: lk.indicator(n=512),
           "power-tail(1)": lambda: lk.power_tail(1.0)}[family]()
    flux, captured = lsw_solver._flux_L, []

    def recorded(states, w0b, L_guess):
        captured.append((states, w0b, L_guess.copy(), flux(states, w0b, L_guess)))
        return captured[-1][3]

    monkeypatch.setattr(lsw_solver, "_flux_L", recorded)
    advance_global(fam.profile, 1.0, cfg, beta0=fam.beta_exact)
    sweeps = [c for c in captured if len(c[0]) == lsw_solver.N_CHEB]
    assert len(sweeps) >= 20
    for states, w0b, guesses, got in sweeps:
        np.testing.assert_array_equal(w0b, fam.profile.w_at(_ref_boundary_labels(states, guesses)))
        np.testing.assert_allclose(got, _ref_flux_L(states, w0b, guesses), rtol=1e-13, atol=0)


@pytest.mark.parametrize("ds_over_L", [1e-25, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5])
def test_prefix_exit_screening_matches_full_screening(ds_over_L):
    # the descent cuts the exits from its own targets phi(u) - ds/(3L) over
    # its share of the survivors; the cut runs through the last target <= 0,
    # and agrees with a screening of every survivor by its frozen-L exit time
    L, a = 1.3, 0.7
    fam = lk.exponential()
    pos = L * np.geomspace(1e-24, 0.99, 4000)
    jac = np.linspace(1.0, 2.0, len(pos))
    ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.exp(-pos),
                              initial=fam.profile, beta0=fam.beta_exact, jac=jac, t=a)
    b = a + ds_over_L * L
    lsw_solver._advance(ens, [a, b], [[L, L, L]])
    ds = b - a
    exiting = np.flatnonzero(lsw_solver._phi_of_u(np.cbrt(pos / L)) - ds / (3.0 * L) <= 0)
    assert len(exiting)
    m = exiting[-1] + 1
    np.testing.assert_array_equal(ens.labels, pos[m:])
    tte = exit_time_frozen(pos, L)
    if ds_over_L >= 1e-15:
        # the exits are a prefix, the mask of the exit times within ds, and
        # the last one sorts last by exit time; at 1e-25 the rounding of phi
        # at tiny x scatters them over the cut
        assert len(exiting) == m and np.array_equal(exiting, np.flatnonzero(tte <= ds))
        assert np.argsort(tte[exiting])[-1] == m - 1
    # the last exit reaches the origin within the substep, at its frozen-L exit time
    assert a <= ens.exit_t <= b
    assert abs(ens.exit_t - (a + tte[m - 1])) <= 1e-12 * ds + 4.0 * np.spacing(b)
    # as |v| = 1 at the origin, the exit's Jacobian is J / |v| at its last position
    assert (ens.exit_y, ens.exit_jac) == (pos[m - 1], jac[m - 1] / (1.0 - np.cbrt(pos[m - 1] / L)))


def test_origin_interpolates_label_and_jacobian_at_one_time():
    # between the last exit at t0 and the first survivor's frozen-L exit at
    # t1, the label at the origin is linear and the Jacobian log-linear in
    # time, ending at the survivor's J/|v|; an exit not later than t0, or a
    # Jacobian that is not positive, falls back to the last exit's
    L, t = 1.3, 1.5
    pos = np.array([0.2, 0.7])

    def state(**last):
        exit_ = dict(exit_t=1.0, exit_y=0.5, exit_jac=2.0) | last
        return lsw_solver.Ensemble(labels=np.array([1.0, 2.0]), pos=pos, w=np.ones(2),
                                   jac=np.array([3.0, 4.0]), initial=None, beta0=None,
                                   t=t, **exit_)

    t1 = t + float(exit_time_frozen(pos[0], L))
    f = (t - 1.0) / (t1 - 1.0)
    j1 = 3.0 / (1.0 - np.cbrt(pos[0] / L))
    states = [state(), state(exit_t=t1), state(exit_jac=0.0)]
    yb, jb = lsw_solver._origin(states, np.full(3, L))
    np.testing.assert_allclose(yb, [0.5 + 0.5 * f, 0.5, 0.5 + 0.5 * f], rtol=1e-15)
    np.testing.assert_allclose(jb, [2.0 * (j1 / 2.0) ** f, 2.0, 0.0], rtol=1e-14)


def test_the_last_exit_is_timed_within_its_substep():
    # a survivor whose phi rounds to 0 reaches the origin 3L (ds/(3L)) before
    # the end of a substep from a = 0, and that product can round above ds:
    # the exit is then timed at a, not before it
    L = 1.3
    x = L * np.geomspace(1e-24, 1e-18, 200)
    x0 = x[lsw_solver._phi_of_u(np.cbrt(x / L)) == 0.0][0]
    ds = next(d for d in np.linspace(6e-30, 7e-30, 1000) if 3.0 * L * (d / (3.0 * L)) > d)
    pos = np.array([x0, 0.5 * L])
    ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.ones(2), initial=None,
                              beta0=None, t=0.0, exit_t=-1.0)
    lsw_solver._advance(ens, [0.0, ds], [[L, L, L]])
    assert ens.n_alive == 1 and ens.exit_y == x0
    assert ens.exit_t == 0.0


def test_sweeps_read_the_layout_table(short_exp_run, monkeypatch):
    ens = short_exp_run[1].ensemble
    nodes, path, _ = _first_sweep(ens)
    # a path that is not constant, as in later sweeps
    values = path.values * (1.0 + 0.01 * np.sin(nodes))
    lay = _layout()
    advance, weights, calls = lsw_solver._advance, lsw_solver._lagrange_weights, []

    def counted(e, ss, L_sub, root=None):
        calls.append((ss, L_sub))
        return advance(e, ss, L_sub, root)

    monkeypatch.setattr(lsw_solver, "_advance", counted)
    monkeypatch.setattr(lsw_solver, "_lagrange_weights", _never)
    lsw_solver._transport(ens, path.dt, values)
    assert len(calls) == lsw_solver.N_CHEB
    for i, (ss, L_sub) in enumerate(calls):
        # a panel's substep ends are t + dt * its row of the table, the last
        # one its end node, bit for bit
        assert ss == (path.t + path.dt * lay.ends[i]).tolist() and ss[-1] == nodes[i + 1]
        # L at each substep's (start, middle, end) is the path's value there,
        # with the weights of that one point
        start, end = lay.ends[i, :-1], lay.ends[i, 1:]
        for row, points in zip(L_sub, np.column_stack((start, start + 0.5 * (end - start), end))):
            assert row == [float(lsw_solver._contract(weights(lay.nodes, p), values)) for p in points]


def _ulps(r, ref):
    return np.abs(r - ref) / np.spacing(ref)


@pytest.mark.parametrize("family", ["exponential", "indicator"])
def test_carried_root_tracks_the_positions(family, short_exp_run, monkeypatch):
    # at every substep of a sweep, the root each share starts from is within
    # 4 ulp of the cube root of the positions it belongs to
    if family == "exponential":
        ens = short_exp_run[1].ensemble
    else:
        ens = make_ensemble(lk.indicator(n=512).profile)
    nodes, path, _ = _first_sweep(ens, SolverConfig())
    values = path.values * (1.0 + 0.01 * np.sin(40.0 * nodes))
    advance, descent, rk4 = lsw_solver._advance, lsw_solver._analytic_descent, lsw_solver._rk4
    moved, seen, worst = [], [], []

    def tracked(e, *args):
        moved.append(e)
        return advance(e, *args)

    def checked_descent(u, L, ds):
        # the descent's share leads the positions of the ensemble it moves
        seen.append(moved[-1].pos)
        worst.append(np.max(_ulps(u, np.cbrt(seen[-1][:len(u)] / L))))
        return descent(u, L, ds)

    def checked_rk4(x, r, ds, L_a, L_mid, L_b):
        worst.append(np.max(_ulps(r, np.cbrt(x / L_mid))))
        return rk4(x, r, ds, L_a, L_mid, L_b)

    monkeypatch.setattr(lsw_solver, "_advance", tracked)
    monkeypatch.setattr(lsw_solver, "_analytic_descent", checked_descent)
    monkeypatch.setattr(lsw_solver, "_rk4", checked_rk4)
    lsw_solver._transport(ens, path.dt, values)
    # both shares run at every substep
    assert len(seen) == lsw_solver.N_CHEB * lsw_solver.NSUB and len(worst) == 2 * len(seen)
    assert max(worst) <= 4.0


def test_exits_leave_the_carried_root_by_the_leading_cut():
    # at ds = 1e-25 L the rounding of phi at tiny x makes the exits, the
    # targets phi(u) - ds/(3L) <= 0, a scattered subset of the head; the cut
    # runs through the last of them, and the carried root must drop the same
    # entries as the positions
    L, a = 1.3, 0.7
    fam = lk.exponential()
    pos = L * np.geomspace(1e-24, 0.99, 4000)
    b = a + 1e-25 * L
    ds = 0.5 * (b - a)
    exiting = np.flatnonzero(lsw_solver._phi_of_u(np.cbrt(pos / L)) - ds / (3.0 * L) <= 0)
    assert len(exiting) and exiting[-1] + 1 > len(exiting)
    out = []
    for root in (None, (np.cbrt(pos / L), L)):
        ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.exp(-pos),
                                  initial=fam.profile, beta0=fam.beta_exact, t=a)
        labels = ens.labels
        out.append((ens, lsw_solver._advance(ens, [a, 0.5 * (a + b), b], [[L, L, L]] * 2, root)))
        # the survivors' labels stay a view of the labels they started from
        assert np.shares_memory(ens.labels, labels)
    (fresh, fresh_root), (carried, carried_root) = out
    np.testing.assert_array_equal(carried.labels, pos[exiting[-1] + 1:])
    for name in ("pos", "jac"):
        np.testing.assert_array_equal(getattr(carried, name), getattr(fresh, name))
    np.testing.assert_array_equal(carried_root[0], fresh_root[0])


def test_stop_on_bound_returns_the_confirming_sweep(short_exp_run):
    # a step that stops on the error bound returns what a further full sweep
    # through the last iterate's path would, and that sweep would converge
    ens = short_exp_run[1].ensemble
    cfg = SolverConfig(tol=1e-6)
    L0 = lsw_solver._state_L(ens, short_exp_run[1].trace.L[-1])[0]
    out, path, stats = lsw_solver.picard_solve_interval(ens, cfg.delta * L0, L0, cfg)
    assert stats.converged and stats.stopped_on_bound and stats.iterations >= 2
    confirm, moments = _advance_panels(ens, path)
    resolved = _sweep_flux(moments, path.values[1:])[0]
    assert np.max(np.abs(resolved - path.values[1:])) < cfg.tol * L0
    for name in ("labels", "pos", "w", "jac"):
        np.testing.assert_array_equal(getattr(out, name), getattr(confirm, name))
    assert (out.t, out.exit_t, out.exit_y, out.exit_jac) == \
        (confirm.t, confirm.exit_t, confirm.exit_y, confirm.exit_jac)


def test_stop_on_bound_builds_each_path_once(short_exp_run, monkeypatch):
    # the sweeps and the confirming transport read the layout's table: no
    # Lagrange weight is computed, per sweep or per step, and the one path
    # built is the one returned; a warm start computes the weights of its
    # quadratic once
    built, weights = [], []
    lagrange = lsw_solver._lagrange_weights

    class Counted(lsw_solver.PicardPath):
        def __new__(cls, *args):
            built.append(super().__new__(cls, *args))
            return built[-1]

    _layout()
    monkeypatch.setattr(lsw_solver, "PicardPath", Counted)
    monkeypatch.setattr(lsw_solver, "_lagrange_weights", lambda *a: weights.append(a) or lagrange(*a))
    ens = short_exp_run[1].ensemble
    cfg = SolverConfig(tol=1e-6)
    L0 = lsw_solver._state_L(ens, short_exp_run[1].trace.L[-1])[0]
    _, path, stats = lsw_solver.picard_solve_interval(ens, cfg.delta * L0, L0, cfg)
    assert stats.stopped_on_bound and stats.iterations >= 2
    assert len(built) == 1 and built[0] is path and weights == []
    lsw_solver.picard_solve_interval(ens, cfg.delta * L0, L0, cfg, path)
    assert len(built) == 2 and len(weights) == 1


def test_solver_never_writes_into_ensemble_arrays(short_exp_run, monkeypatch):
    # the survivors an exit leaves are views of the arrays before it, and
    # shallow copies share them: both are safe only while the solver never
    # writes into an ensemble array, which read-only arrays turn into an error
    frozen = copy.copy(short_exp_run[1].ensemble)
    arrays = {name: getattr(frozen, name).copy() for name in ("labels", "pos", "w", "jac")}
    for name, array in arrays.items():
        array.setflags(write=False)
        setattr(frozen, name, array)
    last_exit = (frozen.t, frozen.exit_t, frozen.exit_y, frozen.exit_jac)
    assert frozen.exit_t > 0
    L0 = lsw_solver._state_L(frozen, short_exp_run[1].trace.L[-1])[0]
    # a step to a plain stop and one to a stop on the bound, both with exits
    for tol, on_bound in ((1e-3, False), (1e-6, True)):
        cfg = SolverConfig(tol=tol)
        out, _, stats = lsw_solver.picard_solve_interval(frozen, cfg.delta * L0, L0, cfg)
        assert stats.converged and stats.stopped_on_bound == on_bound and out.t > frozen.t
        assert out.n_alive < frozen.n_alive
    # advance_global from the frozen ensemble, for three steps, with snapshots
    monkeypatch.setattr(lsw_solver, "make_ensemble", lambda profile, beta0: frozen)
    t_end = frozen.t + 3.0 * cfg.delta * L0
    res = advance_global(frozen.initial, t_end, cfg, beta0=frozen.beta0,
                         snapshot_times=(frozen.t, t_end))
    assert res.terminated == "t_final" and len(res.picard) >= 3 and len(res.snapshots) == 2
    assert res.ensemble.exit_t > frozen.exit_t
    # labels and w stay views of the arrays the run started from
    for name in ("labels", "w"):
        assert np.shares_memory(getattr(res.ensemble, name), arrays[name])
    assert all(getattr(frozen, name) is array for name, array in arrays.items())
    assert (frozen.t, frozen.exit_t, frozen.exit_y, frozen.exit_jac) == last_exit


def _final_step(res):
    # the ensemble at the end of a run, its resolved L, the next step's length and the run's config
    cfg = SolverConfig(tol=1e-6)
    L0 = lsw_solver._state_L(res.ensemble, res.trace.L[-1])[0]
    return res.ensemble, L0, cfg.delta * L0, cfg


def test_warm_start_falls_back_to_cold_on_a_nonpositive_extrapolation(short_exp_run):
    ens, L0, dt, cfg = _final_step(short_exp_run[1])
    # a prior path whose midpoint sits far above both ends: the quadratic
    # through it, in z = 2(s - t)/dt, falls below 0 at the step's last nodes
    f = _layout().nodes
    prior = lsw_solver.PicardPath(ens.t - dt, dt, L0 * (1.0 + 396.0 * f * (1.0 - f)))
    assert lsw_solver._contract(_layout().mid, prior.values) == pytest.approx(100.0 * L0)
    z = 1.0 - np.cos(np.pi * np.arange(lsw_solver.N_CHEB + 1) / lsw_solver.N_CHEB)
    assert np.min(0.5 * z * (z + 1) - 100.0 * z * (z + 2) + 0.5 * (z + 1) * (z + 2)) < 0
    cold_ens, cold_path, cold = lsw_solver.picard_solve_interval(ens, dt, L0, cfg)
    warm_ens, warm_path, warm = lsw_solver.picard_solve_interval(ens, dt, L0, cfg, prior)
    assert warm.converged and warm == cold
    np.testing.assert_array_equal(warm_path.values, cold_path.values)
    np.testing.assert_array_equal(warm_ens.pos, cold_ens.pos)


def test_warm_and_cold_steps_agree(short_exp_run):
    ens, L0, dt, cfg = _final_step(short_exp_run[1])
    # one real accepted step, whose path warm-starts the next
    first, prior, stats = lsw_solver.picard_solve_interval(ens, dt, L0, cfg)
    L1 = lsw_solver._state_L(first, L0)[0] if stats.stopped_on_bound else stats.end_state[0]
    _, cold_path, cold = lsw_solver.picard_solve_interval(first, cfg.delta * L1, L1, cfg)
    _, warm_path, warm = lsw_solver.picard_solve_interval(first, cfg.delta * L1, L1, cfg, prior)
    assert cold.converged and warm.converged
    assert (warm_path.t, warm_path.dt) == (cold_path.t, cold_path.dt)
    assert np.max(np.abs(warm_path.values - cold_path.values)) <= 2.0 * cfg.tol * L1
    assert warm.first_correction < 0.01 * cold.first_correction
    # on this step both take two sweeps, and only the cold start stops on
    # the bound and pays a confirming transport
    assert warm.iterations <= cold.iterations
    assert warm.iterations + warm.stopped_on_bound < cold.iterations + cold.stopped_on_bound


def test_end_node_resolution_is_reused_exactly(monkeypatch):
    # _state_L runs once at t = 0 and once per accepted step, at its end
    # node; a plain stop seeds it with the last sweep's evaluation there,
    # which gives the bits of a fresh _state_L from the L that evaluation
    # started from, one evaluation fewer
    picard, state_L = lsw_solver.picard_solve_interval, lsw_solver._state_L
    steps, resolutions = [], []

    def recorded(*args):
        out = picard(*args)
        steps.append(out)
        return out

    def counted(ens, *args):
        resolutions.append((ens.t, args))
        return state_L(ens, *args)

    monkeypatch.setattr(lsw_solver, "picard_solve_interval", recorded)
    monkeypatch.setattr(lsw_solver, "_state_L", counted)
    fam = lk.exponential()
    res = advance_global(fam.profile, 2.0, SolverConfig(tol=1e-6), beta0=fam.beta_exact)
    accepted = [out for out in steps if out[2].converged]
    assert [stats for _, _, stats in accepted] == res.picard
    assert 0 < sum(stats.stopped_on_bound for stats in res.picard) < len(accepted)
    assert [t for t, _ in resolutions] == [0.0] + [out.t for out, _, _ in accepted]
    for (out, path, stats), (_, args), L in zip(accepted, resolutions[1:], res.trace.L[1:]):
        assert stats.end_state[0] == L
        *end, evals = state_L(out, *args)
        assert tuple(end) == stats.end_state
        assert evals == stats.flux_evals - stats.iterations
        # from the accepted path's value at the end node: afresh after the
        # bound stop's transport, else seeded as the last sweep's value there
        first, L_from = args
        assert first == path.values[-1]
        assert (L_from is None) == stats.stopped_on_bound
        if not stats.stopped_on_bound:
            fresh = state_L(out, L_from)
            assert fresh[:4] == stats.end_state and fresh[4] == evals + 1


@pytest.mark.parametrize("family, tol", [("exponential", 1e-6), ("power-tail(1)", 1e-6),
                                         ("constant-beta(0.5)", 1e-8)])
def test_every_end_state_is_a_fixed_point(family, tol, monkeypatch):
    # every accepted step's (L, y_b, w0b, J_b) is what _state_L resolves on the
    # ensemble the step returns, from that L, within 1e-12
    fam = {"exponential": lk.exponential, "power-tail(1)": lambda: lk.power_tail(1.0),
           "constant-beta(0.5)": lambda: lk.constant_beta(0.5)}[family]()
    picard, steps = lsw_solver.picard_solve_interval, []
    monkeypatch.setattr(lsw_solver, "picard_solve_interval",
                        lambda *args: steps.append(picard(*args)) or steps[-1])
    res = advance_global(fam.profile, 2.0, SolverConfig(tol=tol), beta0=fam.beta_exact)
    assert res.terminated == "t_final"
    for out, _, stats in steps:
        if stats.converged:
            ref = lsw_solver._state_L(out, stats.end_state[0])[:4]
            np.testing.assert_allclose(stats.end_state, ref, rtol=1e-12, atol=0)


@functools.cache
def _run_to_half(family):
    fam = {"exponential": lk.exponential, "power-tail(1)": lambda: lk.power_tail(1.0),
           "indicator(512)": lambda: lk.indicator(n=512)}[family]()
    return advance_global(fam.profile, 0.5, SolverConfig(tol=1e-6), beta0=fam.beta_exact)


@pytest.mark.parametrize("scale", [1.0 + 1e-7, 1.0, 0.9])
@pytest.mark.parametrize("family", ["exponential", "power-tail(1)", "indicator(512)"])
def test_seeded_resolution_matches_a_fresh_one(family, scale):
    # _state_L seeded with l_from_state at g, the flux balance's first
    # iteration from g, gives the bits of _state_L from g, one evaluation fewer
    res = _run_to_half(family)
    ens = res.ensemble
    g = scale * res.trace.L[-1]
    first = lsw_solver.l_from_state(ens, _w0b_at(ens, g), g)
    seeded, fresh = lsw_solver._state_L(ens, first, g), lsw_solver._state_L(ens, g)
    assert seeded[:4] == fresh[:4]
    assert seeded[4] == fresh[4] - 1


def test_stationary_steps_take_one_flux_evaluation():
    # on the stationary indicator datum each step ends on its first sweep,
    # whose end-node evaluation is already the fixed point: _state_L adds none
    fam = lk.indicator(n=512)
    res = advance_global(fam.profile, 1.0, SolverConfig(), beta0=fam.beta_exact)
    assert res.terminated == "t_final" and len(res.picard) >= 10
    assert all(p.iterations == 1 and p.flux_evals == 1 for p in res.picard)


def test_warm_starts_cut_the_sweeps(short_exp_run):
    # with every step after the first warm-started, the t = 2 run takes 74
    # sweeps over 37 steps; cold starts take 103
    iters = [p.iterations for p in short_exp_run[1].picard[1:]]
    assert sum(iters) <= 2.25 * len(iters)


def test_first_step_is_a_cold_start(short_exp_run):
    # the first step has no prior path: its first correction is measured
    # from the constant L0, and it is the largest of the run
    fam, res = short_exp_run
    ens = make_ensemble(fam.profile, fam.beta_exact)
    L0 = lsw_solver._state_L(ens, lsw_solver.l_from_state(ens, fam.profile.w0))[0]
    cfg = SolverConfig(tol=1e-6)
    assert res.trace.L[0] == L0
    assert res.picard[0] == lsw_solver.picard_solve_interval(ens, cfg.delta * L0, L0, cfg)[2]
    assert res.picard[0].first_correction == max(p.first_correction for p in res.picard)


def test_layout_table_reproduces_cubics():
    lay = _layout()
    f = lay.nodes
    assert len(f) == 4
    # a panel's first and last substep ends are its nodes, bit for bit, so
    # its end time t + dt * ends is the node time t + dt * nodes
    np.testing.assert_array_equal(lay.ends[:, 0], f[:-1])
    np.testing.assert_array_equal(lay.ends[:, -1], f[1:])
    # a point at a node reads exactly that node's unit row
    eye = np.eye(len(f))
    np.testing.assert_array_equal(lsw_solver._lagrange_weights(f, f), eye)
    np.testing.assert_array_equal(lay.sub[:, :, 0, 0], eye[:, :-1])
    np.testing.assert_array_equal(lay.sub[:, :, -1, 2], eye[:, 1:])
    # through 4 nodes, any cubic is reproduced to rounding at the (start,
    # middle, end) of every substep and at the step's middle
    h = np.diff(f)[:, None] / lsw_solver.NSUB
    start = f[:-1, None] + h * np.arange(lsw_solver.NSUB)
    points = np.stack((start, start + 0.5 * h, start + h), axis=-1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.normal(size=4)
        cubic = lambda z: np.polynomial.polynomial.polyval(2.0 * z - 1.0, c)
        ref = np.append(cubic(points), cubic(0.5))
        ours = np.append(lsw_solver._contract(lay.sub, cubic(f)), lsw_solver._contract(lay.mid, cubic(f)))
        np.testing.assert_allclose(ours, ref, rtol=0, atol=16.0 * np.finfo(float).eps * np.max(np.abs(ref)))


def test_a_monkeypatched_layout_reaches_the_run(short_exp_run, monkeypatch):
    # the table is keyed on the layout in use: at 6 panels of 2 substeps a
    # sweep runs 6 _advance calls of 2 substeps, ending at the 7 nodes
    monkeypatch.setattr(lsw_solver, "N_CHEB", 6)
    monkeypatch.setattr(lsw_solver, "NSUB", 2)
    advance, calls = lsw_solver._advance, []

    def counted(e, ss, L_sub, root=None):
        calls.append(ss)
        return advance(e, ss, L_sub, root)

    monkeypatch.setattr(lsw_solver, "_advance", counted)
    ens, L0, dt, cfg = _final_step(short_exp_run[1])
    _, path, stats = lsw_solver.picard_solve_interval(ens, dt, L0, cfg)
    assert stats.converged and len(path.values) == 7
    assert len(calls) == 6 * (stats.iterations + stats.stopped_on_bound)
    assert all(len(ss) == 3 for ss in calls)
    j = np.arange(7)
    nodes = ens.t + dt * (0.5 * (1.0 - np.cos(np.pi * j / 6)))
    assert [ss[-1] for ss in calls[:6]] == nodes[1:].tolist()


def test_phi_primitive_series_is_cut_where_no_bit_moves():
    # below u = 1/4 the series stops at k = 28; the terms up to k = 60 that
    # it leaves out are each below half an ulp of the sum
    rng = np.random.default_rng(11)
    u = np.concatenate((0.25 * rng.random(20000), 0.25 * rng.random(2000) ** 8,
                        np.nextafter(0.25, 0.0) - 1e-9 * rng.random(2000), [0.0]))
    k = np.arange(3, 61).reshape(-1, 1)
    np.testing.assert_array_equal(lsw_solver._phi_primitive(u),
                                  np.sum(u ** (k + 1) / (k * (k + 1)), axis=0))


def test_segmented_theta_cells_match_the_one_state_formula(short_exp_run):
    # each segment gets the one-state formula bit for bit: 9 L^(4/3) in
    # Python's pow, one np.sum over the segment's cells
    ens = short_exp_run[1].ensemble
    L_end = short_exp_run[1].trace.L[-1]
    Ls = [L_end * (0.8 + 0.01 * i) for i in range(60)]
    segments = []
    for L in Ls:
        x, w = lsw_solver._augmented_state(ens, _w0b_at(ens, L))
        k = lsw_solver._origin_split(ens.pos, L)
        segments.append((x[:k + 1], w[:k + 1]))
    assert len({len(x) for x, _ in segments}) > 1
    got = lsw_solver._theta_cell_integrals(np.concatenate([x for x, _ in segments]),
                                           np.concatenate([w for _, w in segments]),
                                           np.array(Ls), [len(x) for x, _ in segments])
    for (x, w), L, near in zip(segments, Ls, got):
        u, theta, slope = lsw_solver._theta_cells(x, w, L)
        d13 = 3.0 * np.diff(np.cbrt(x))
        dphi = np.diff(lsw_solver._phi_primitive(u))
        ref = float(np.sum(w[:-1] * d13 + slope * (9.0 * L ** (4.0 / 3.0) * dphi - theta[:-1] * d13)))
        assert near == ref
        assert lsw_solver._theta_cell_integrals(x, w, [L], [len(x)])[0] == ref


def _perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_probes_of_the_transport_layer_resolve():
    # perfbench times transport by wrapping these attributes; a rename here
    # would silently turn its lsw_solver.transport.* metrics into None
    tracer = _perfbench_tracer()
    layer = {"transport", "exit_screen", "descent", "rk4"}
    spans = sorted(attr for label, owner, attr in tracer.SPAN_PROBES
                   if owner is lsw_solver and label in layer)
    assert spans == ["_advance", "_analytic_descent", "_rk4", "exit_time_frozen"]
    counted = [attr for _, parent, owner, attr in tracer.COUNT_PROBES
               if owner is lsw_solver and parent == "descent"]
    assert counted == ["_phi_of_u"]
    for attr in spans + counted:
        assert vars(lsw_solver).get(attr) is not None, attr


def test_traced_descent_iterations_are_the_loop_count(monkeypatch):
    # the tracer reads iterations per descent as its _phi_of_u calls less one
    # for the target; the loop must then converge within that many passes
    # and not within one fewer
    L, a, b = 1.3, 0.4, 0.4 + 3e-3
    fam = lk.exponential()
    pos = L * np.geomspace(1e-6, 0.85, 300)
    ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.exp(-pos),
                              initial=fam.profile, beta0=fam.beta_exact, t=a)
    monkeypatch.setattr(lsw_solver, "NSUB", 1)
    tracer = _perfbench_tracer()
    with tracer.Tracer() as t:
        lsw_solver._advance(ens, [a, b], [[L, L, L]])
    metrics = t.metrics(1)
    assert metrics["lsw_solver.transport.descent_calls"] == 1
    iters = metrics["lsw_solver.transport.newton_iters_per_call"]
    assert iters == int(iters) >= 2
    survivors = pos[exit_time_frozen(pos, L) > b - a]
    u = np.cbrt(survivors / L)
    monkeypatch.setattr(lsw_solver, "_HALLEY_CAP", int(iters))
    np.testing.assert_array_equal(L * lsw_solver._analytic_descent(u, L, b - a)[2] ** 3, ens.pos)
    monkeypatch.setattr(lsw_solver, "_HALLEY_CAP", int(iters) - 1)
    with pytest.warns(lk.ConvergenceWarning):
        lsw_solver._analytic_descent(u, L, b - a)


def test_traced_solver_layers_resolve(monkeypatch):
    # perfbench reads the transport and Picard layers by wrapping solver
    # functions by name; a restructure that stops calling them through those
    # names would turn its per-layer metrics into None, or count other units
    tracer = _perfbench_tracer()
    transport, transports = lsw_solver._transport, []

    def counted(*args):
        transports.append(args)
        return transport(*args)

    monkeypatch.setattr(lsw_solver, "_transport", counted)
    fam = lk.exponential()
    with tracer.Tracer() as t:
        res = advance_global(fam.profile, 0.5, SolverConfig(tol=1e-6), beta0=fam.beta_exact)
    metrics = t.metrics(1)
    layers = {name: value for name, value in metrics.items()
              if name.startswith(("lsw_solver.transport.", "lsw_solver.picard."))}
    assert len(layers) == 13 and all(v is not None for v in layers.values()), layers
    assert metrics["lsw_solver.transport.calls"] == lsw_solver.N_CHEB * len(transports)
    assert metrics["lsw_solver.transport.newton_iters_per_call"] >= 2
    assert metrics["lsw_solver.picard.steps"] == len(res.picard)
    assert metrics["lsw_solver.picard.sweeps"] == sum(p.iterations for p in res.picard)
    # _state_L resolves t = 0 and each accepted step's end node; its flux
    # evaluations are each step's beyond its sweeps, and those at t = 0
    ens = make_ensemble(fam.profile, fam.beta_exact)
    at_zero = lsw_solver._state_L(ens, lsw_solver.l_from_state(ens, fam.profile.w0))[-1]
    assert metrics["lsw_solver.lres.calls"] == len(res.picard) + 1
    assert metrics["lsw_solver.lres.flux_evals"] == \
        sum(p.flux_evals - p.iterations for p in res.picard) + at_zero
