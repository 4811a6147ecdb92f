import copy
import dataclasses
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
        out = L * lsw_solver._analytic_descent(np.cbrt(x / L), L, ds) ** 3
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
    w0b = float(ens.initial.w_at(lsw_solver._boundary_labels([ens], L)[0]))
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
    k = lsw_solver._origin_split(ens.pos, L)
    near = lsw_solver._theta_cell_integrals(x[:k + 1], w[:k + 1], [L], [k + 1])[0]
    split = ((near + cellquad.power_total(x[k:], w[k:], third)) / (3.0 * w0b)) ** 3
    assert lsw_solver.l_from_state(ens, w0b, L_guess=L, far=far) == pytest.approx(split, rel=1e-13)
    assert lsw_solver.l_from_state(ens, w0b, L_guess=L) == pytest.approx(split, rel=1e-13)


def _advance_panels(ens, nodes, path):
    """A copy of ens carried through the panels of ``nodes`` one ``_advance``
    at a time, with the cube root carried between panels, and a full copy of
    it at every node."""
    scratch, at_nodes, root = copy.copy(ens), [], None
    for a, b in zip(nodes[:-1], nodes[1:]):
        ss, points = lsw_solver._panel_times(np.array([a, b]))
        root = lsw_solver._advance(scratch, ss[0].tolist(), path(points[0]).tolist(), root)
        at_nodes.append(copy.copy(scratch))
    return scratch, at_nodes


def _first_sweep(ens, cfg=SolverConfig(tol=1e-6)):
    """Chebyshev nodes of one Picard step from ens, the first sweep's path,
    and a full copy of the transported ensemble at every node."""
    L0 = lsw_solver._state_L(ens, lsw_solver.l_from_state(ens, ens.initial.w0))[0]
    j = np.arange(lsw_solver.N_CHEB + 1)
    nodes = ens.t + cfg.delta * L0 * 0.5 * (1.0 - np.cos(np.pi * j / lsw_solver.N_CHEB))
    path = lsw_solver.NaturalSpline(nodes, np.full(len(nodes), L0))
    return nodes, path, _advance_panels(ens, nodes, path)[1]


def _assert_batch_matches_per_node(ens, path, at_nodes, guesses, monkeypatch):
    # the batch reads what the sweep's transport keeps at each node
    nodes = path.x
    monkeypatch.setattr(lsw_solver, "EXTINCTION_FLOOR", 1)
    _, moments, extinct = lsw_solver._transport(ens, nodes, path)
    assert extinct is None and len(moments) == len(at_nodes)
    flux = lsw_solver._flux_L
    batch_sizes = []

    def counted(states, *args):
        batch_sizes.append(len(states))
        return flux(states, *args)

    monkeypatch.setattr(lsw_solver, "_flux_L", counted)
    L, yb, w0b, _ = lsw_solver._resolve_L(moments, guesses, ens.initial)
    per_node_iters = []
    for i, (node, guess) in enumerate(zip(at_nodes, guesses)):
        start = len(batch_sizes)
        ref = lsw_solver._state_L(node, float(guess))
        per_node_iters.append(len(batch_sizes) - start)
        assert (L[i], yb[i], w0b[i]) == ref
    # the batch runs iteration j over exactly the nodes that alone take more than j
    iters = np.array(per_node_iters)
    assert batch_sizes[:iters.max()] == [int(np.sum(iters > j)) for j in range(iters.max())]
    return iters


@pytest.mark.parametrize("family", ["exponential", "power-tail"])
def test_batched_resolution_matches_per_node(family, short_exp_run, monkeypatch):
    if family == "exponential":
        ens = short_exp_run[1].ensemble
    else:
        ens = make_ensemble(lk.power_tail(1.0).profile)
    _, path, at_nodes = _first_sweep(ens)
    guesses = path(np.array([e.t for e in at_nodes]))
    # two nodes start from a guess so small that their first flux evaluation
    # takes the head-cell branch
    guesses[[2, 5]] *= 1e-6
    assert all(at_nodes[i].pos[0] >= 0.125 * guesses[i] for i in (2, 5))
    iters = _assert_batch_matches_per_node(ens, path, at_nodes, guesses, monkeypatch)
    assert len(set(iters)) > 1


def test_batched_resolution_head_cell_branch(monkeypatch):
    # four survivors on [0, 1]: the first sits at x = 0.25 >= L/8 throughout
    ens = make_ensemble(lk.indicator(n=4).profile)
    _, path, at_nodes = _first_sweep(ens, SolverConfig())
    guesses = path(np.array([e.t for e in at_nodes]))
    assert all(e.pos[0] >= 0.125 * g for e, g in zip(at_nodes, guesses))
    _assert_batch_matches_per_node(ens, path, at_nodes, guesses, monkeypatch)


@pytest.mark.parametrize("family", ["exponential", "power-tail"])
def test_resolution_stops_on_its_error_bound(family, short_exp_run):
    # the bound stop d r/(1-r) agrees with iterating each node until its
    # change is below 1e-15, within the 1e-13 max(L, 1) floor, and takes
    # fewer flux evaluations than stopping on the change alone
    ens = short_exp_run[1].ensemble if family == "exponential" else \
        make_ensemble(lk.power_tail(1.0).profile)
    _, path, at_nodes = _first_sweep(ens)
    guesses = path(np.array([e.t for e in at_nodes]))
    L, _, _, evals = lsw_solver._resolve_L(at_nodes, guesses, ens.initial)
    on_change = 0
    for node, guess, got in zip(at_nodes, guesses, L):
        far = [cellquad.power_suffix(node.pos, node.w, -2.0 / 3.0)]
        prev, changes = float(guess), []
        for _ in range(lsw_solver._RESOLVE_CAP):
            w0b = node.initial.w_at(lsw_solver._boundary_labels([node], np.array([prev])))
            new = float(lsw_solver._flux_L([node], w0b, np.array([prev]), far)[0])
            changes.append(abs(new - prev))
            prev = new
            if changes[-1] < 1e-15 * max(prev, 1.0):
                break
        assert changes[-1] < 1e-15 * max(prev, 1.0)
        assert abs(got - prev) <= 1e-13 * max(prev, 1.0)
        on_change = max(on_change, next(i + 1 for i, d in enumerate(changes)
                                        if d < 1e-13 * max(prev, 1.0)))
    assert evals < on_change


def test_resolution_warns_at_its_cap(short_exp_run, monkeypatch):
    # a flux whose value flips by a relative 1e-8 between calls keeps every
    # node's change, and its error bound, far above the floor
    _, path, at_nodes = _first_sweep(short_exp_run[1].ensemble)
    clean = lsw_solver._flux_L
    flips = [1.0]

    def noisy(*args):
        flips[0] = -flips[0]
        return clean(*args) * (1.0 + 1e-8 * flips[0])

    monkeypatch.setattr(lsw_solver, "_flux_L", noisy)
    guesses = path(np.array([e.t for e in at_nodes]))
    with pytest.warns(lk.ConvergenceWarning, match="8 of 8 nodes did not converge in 40 iterations"):
        evals = lsw_solver._resolve_L(at_nodes, guesses, at_nodes[0].initial)[3]
    assert evals == lsw_solver._RESOLVE_CAP


@pytest.mark.parametrize("ds_over_L", [1e-25, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5])
def test_prefix_exit_screening_matches_full_screening(ds_over_L, monkeypatch):
    L, a = 1.3, 0.7
    fam = lk.exponential()
    pos = L * np.geomspace(1e-24, 0.99, 4000)
    ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.exp(-pos),
                              initial=fam.profile, beta0=fam.beta_exact,
                              jac=np.linspace(1.0, 2.0, len(pos)), t=a)
    b = a + ds_over_L * L
    monkeypatch.setattr(lsw_solver, "NSUB", 1)
    lsw_solver._advance(ens, [a, b], [[L, L, L]])
    ds = b - a
    tte = exit_time_frozen(pos, L)
    exiting = tte <= ds
    assert np.any(exiting)
    # the ensemble keeps the exit that sorts last by exit time
    last = np.flatnonzero(exiting)[np.argsort(tte[exiting])[-1]]
    jac = np.linspace(1.0, 2.0, len(pos))
    assert (ens.exit_t, ens.exit_y, ens.exit_jac) == \
        (a + tte[last], pos[last], jac[last] / lsw_solver._speed(pos[last], L))
    np.testing.assert_array_equal(ens.labels, pos[~exiting])


def test_one_spline_evaluation_per_sweep(short_exp_run):
    nodes, path, _ = _first_sweep(short_exp_run[1].ensemble)
    # a path that is not constant, as in later sweeps
    path = lsw_solver.NaturalSpline(nodes, path(nodes) * (1.0 + 0.01 * np.sin(nodes)))
    calls = []

    def counted(s):
        calls.append(np.array(s))
        return path(s)

    lsw_solver._transport(short_exp_run[1].ensemble, nodes, counted)
    assert [c.shape for c in calls] == [(lsw_solver.N_CHEB, lsw_solver.NSUB, 3)]
    # each panel's rows are the (start, middle, end) of its substeps, as
    # np.linspace spaces them, and the path's values there are the pointwise ones
    for a, b, rows in zip(nodes[:-1], nodes[1:], calls[0]):
        ss = np.linspace(a, b, lsw_solver.NSUB + 1)
        ds = np.diff(ss)
        points = np.column_stack((ss[:-1], ss[:-1] + 0.5 * ds, ss[:-1] + ds))
        np.testing.assert_array_equal(rows, points)
        assert [p.tolist() for p in path(rows)] == [[float(path(p)) for p in row] for row in points]


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
    path = lsw_solver.NaturalSpline(nodes, path(nodes) * (1.0 + 0.01 * np.sin(40.0 * nodes)))
    log_exits, descent, rk4 = lsw_solver._log_exits, lsw_solver._analytic_descent, lsw_solver._rk4
    seen, worst = [], []

    def screened(e, *args):
        keep = log_exits(e, *args)
        seen.append(e.pos)
        return keep

    def checked_descent(u, L, ds):
        worst.append(np.max(_ulps(u, np.cbrt(seen[-1][:len(u)] / L))))
        return descent(u, L, ds)

    def checked_rk4(x, r, ds, L_a, L_mid, L_b):
        worst.append(np.max(_ulps(r, np.cbrt(x / L_mid))))
        return rk4(x, r, ds, L_a, L_mid, L_b)

    monkeypatch.setattr(lsw_solver, "_log_exits", screened)
    monkeypatch.setattr(lsw_solver, "_analytic_descent", checked_descent)
    monkeypatch.setattr(lsw_solver, "_rk4", checked_rk4)
    lsw_solver._transport(ens, nodes, path)
    # both shares run at every substep
    assert len(seen) == lsw_solver.N_CHEB * lsw_solver.NSUB and len(worst) == 2 * len(seen)
    assert max(worst) <= 4.0


def test_exits_leave_the_carried_root_by_mask():
    # at ds = 1e-25 L the rounding of the exit times at tiny x makes the
    # exits a scattered subset of the head, not a prefix; the carried root
    # must drop the same entries as the positions
    L, a = 1.3, 0.7
    fam = lk.exponential()
    pos = L * np.geomspace(1e-24, 0.99, 4000)
    b = a + 1e-25 * L
    exiting = np.flatnonzero(exit_time_frozen(pos, L) <= b - a)
    assert len(exiting) and exiting[-1] + 1 > len(exiting)
    out = []
    for root in (None, (np.cbrt(pos / L), L)):
        ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos.copy(), w=np.exp(-pos),
                                  initial=fam.profile, beta0=fam.beta_exact, t=a)
        out.append((ens, lsw_solver._advance(ens, [a, 0.5 * (a + b), b], [[L, L, L]] * 2, root)))
    (fresh, fresh_root), (carried, carried_root) = out
    np.testing.assert_array_equal(carried.labels, np.delete(pos, exiting))
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
    nodes = path.x
    confirm, moments = _advance_panels(ens, nodes, path)
    resolved = lsw_solver._resolve_L(moments, path(nodes[1:]), ens.initial)[0]
    assert np.max(np.abs(resolved - path(nodes[1:]))) < cfg.tol * L0
    for name in ("labels", "pos", "w", "jac"):
        np.testing.assert_array_equal(getattr(out, name), getattr(confirm, name))
    assert (out.t, out.exit_t, out.exit_y, out.exit_jac) == \
        (confirm.t, confirm.exit_t, confirm.exit_y, confirm.exit_jac)


def test_stop_on_bound_builds_each_path_once(short_exp_run, monkeypatch):
    # one spline per sweep and one for the confirming transport, which is
    # the one returned
    built = []

    class Counted(lsw_solver.NaturalSpline):
        def __init__(self, x, y):
            super().__init__(x, y)
            built.append(self)

    monkeypatch.setattr(lsw_solver, "NaturalSpline", Counted)
    ens = short_exp_run[1].ensemble
    cfg = SolverConfig(tol=1e-6)
    L0 = lsw_solver._state_L(ens, short_exp_run[1].trace.L[-1])[0]
    _, path, stats = lsw_solver.picard_solve_interval(ens, cfg.delta * L0, L0, cfg)
    assert stats.stopped_on_bound
    assert len(built) == stats.iterations + 1 and path is built[-1]


def test_solver_never_writes_into_ensemble_arrays(short_exp_run, monkeypatch):
    # shallow copies of an ensemble are independent only while the solver
    # rebinds its arrays; a write into a read-only array raises
    frozen = copy.copy(short_exp_run[1].ensemble)
    arrays = {name: getattr(frozen, name).copy() for name in ("labels", "pos", "w", "jac")}
    for name, array in arrays.items():
        array.setflags(write=False)
        setattr(frozen, name, array)
    last_exit = (frozen.t, frozen.exit_t, frozen.exit_y, frozen.exit_jac)
    assert frozen.exit_t > 0
    cfg = SolverConfig(tol=1e-6)
    L0 = lsw_solver._state_L(frozen, short_exp_run[1].trace.L[-1])[0]
    out, _, stats = lsw_solver.picard_solve_interval(frozen, cfg.delta * L0, L0, cfg)
    assert stats.converged and out.t > frozen.t
    # advance_global from the frozen ensemble, for three steps
    monkeypatch.setattr(lsw_solver, "make_ensemble", lambda profile, beta0: frozen)
    res = advance_global(frozen.initial, frozen.t + 3.0 * cfg.delta * L0, cfg,
                         beta0=frozen.beta0)
    assert res.terminated == "t_final" and len(res.picard) >= 3
    assert res.ensemble.exit_t > frozen.exit_t
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
    prior = lsw_solver.NaturalSpline(ens.t + dt * np.array([-1.0, -0.5, 0.0]),
                                     L0 * np.array([1.0, 100.0, 1.0]))
    z = 1.0 - np.cos(np.pi * np.arange(lsw_solver.N_CHEB + 1) / lsw_solver.N_CHEB)
    assert np.min(0.5 * z * (z + 1) - 100.0 * z * (z + 2) + 0.5 * (z + 1) * (z + 2)) < 0
    cold_ens, cold_path, cold = lsw_solver.picard_solve_interval(ens, dt, L0, cfg)
    warm_ens, warm_path, warm = lsw_solver.picard_solve_interval(ens, dt, L0, cfg, prior)
    assert warm.converged and warm == cold
    np.testing.assert_array_equal(warm_path(warm_path.x), cold_path(cold_path.x))
    np.testing.assert_array_equal(warm_ens.pos, cold_ens.pos)


def test_warm_and_cold_steps_agree(short_exp_run):
    ens, L0, dt, cfg = _final_step(short_exp_run[1])
    # one real accepted step, whose path warm-starts the next
    first, prior, stats = lsw_solver.picard_solve_interval(ens, dt, L0, cfg)
    L1 = lsw_solver._state_L(first, L0)[0] if stats.stopped_on_bound else stats.end_state[0]
    _, cold_path, cold = lsw_solver.picard_solve_interval(first, cfg.delta * L1, L1, cfg)
    _, warm_path, warm = lsw_solver.picard_solve_interval(first, cfg.delta * L1, L1, cfg, prior)
    assert cold.converged and warm.converged
    nodes = cold_path.x
    np.testing.assert_array_equal(warm_path.x, nodes)
    assert np.max(np.abs(warm_path(nodes) - cold_path(nodes))) <= 2.0 * cfg.tol * L1
    assert warm.first_correction < 0.01 * cold.first_correction
    # on this step both take two sweeps, and only the cold start stops on
    # the bound and pays a confirming transport
    assert warm.iterations <= cold.iterations
    assert warm.iterations + warm.stopped_on_bound < cold.iterations + cold.stopped_on_bound


def test_end_node_resolution_is_reused_exactly(monkeypatch):
    # a step that converged on a small correction records the L its last
    # sweep resolved at the end node; only the initial state and steps that
    # stopped on the bound go through _state_L
    picard, state_L = lsw_solver.picard_solve_interval, lsw_solver._state_L
    steps, resolved_at = [], []

    def recorded(*args):
        out = picard(*args)
        steps.append(out)
        return out

    def counted(ens, L_guess):
        resolved_at.append(ens.t)
        return state_L(ens, L_guess)

    monkeypatch.setattr(lsw_solver, "picard_solve_interval", recorded)
    monkeypatch.setattr(lsw_solver, "_state_L", counted)
    fam = lk.exponential()
    res = advance_global(fam.profile, 2.0, SolverConfig(tol=1e-6), beta0=fam.beta_exact)
    accepted = [out for out in steps if out[2].converged]
    assert [stats for _, _, stats in accepted] == res.picard
    on_bound = [out[0].t for out in accepted if out[2].stopped_on_bound]
    assert 0 < len(on_bound) < len(accepted)
    assert resolved_at == [0.0] + on_bound
    for (out, _, stats), L_prev, L in zip(accepted, res.trace.L, res.trace.L[1:]):
        if not stats.stopped_on_bound:
            assert stats.end_state[0] == L
            ref = state_L(out, L_prev)
            np.testing.assert_allclose(stats.end_state, ref, rtol=1e-12, atol=0)


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


def test_natural_spline_matches_scipy():
    from scipy.interpolate import CubicSpline

    j = np.arange(lsw_solver.N_CHEB + 1)
    nodes = 2.0 + 0.05 * 0.5 * (1.0 - np.cos(np.pi * j / lsw_solver.N_CHEB))
    values = 1.3 * (1.0 + 0.01 * np.sin(40.0 * nodes))
    ours, ref = lsw_solver.NaturalSpline(nodes, values), CubicSpline(nodes, values, bc_type="natural")
    s = np.concatenate((nodes, np.linspace(nodes[0] - 0.01, nodes[-1] + 0.01, 2001)))
    np.testing.assert_allclose(ours(s), ref(s), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(ours(nodes), values)
    grid = s[:2000].reshape(400, 5)
    assert ours(grid).shape == grid.shape
    np.testing.assert_array_equal(ours.x, nodes)


def test_segmented_theta_cells_match_the_one_state_formula(short_exp_run):
    # each segment gets the one-state formula bit for bit: 9 L^(4/3) in
    # Python's pow, one np.sum over the segment's cells
    ens = short_exp_run[1].ensemble
    L_end = short_exp_run[1].trace.L[-1]
    Ls = [L_end * (0.8 + 0.01 * i) for i in range(60)]
    segments = []
    for L in Ls:
        w0b = float(ens.initial.w_at(lsw_solver._boundary_labels([ens], L)[0]))
        x, w = lsw_solver._augmented_state(ens, w0b)
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
    np.testing.assert_array_equal(L * lsw_solver._analytic_descent(u, L, b - a) ** 3, ens.pos)
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
