import dataclasses
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


def _first_sweep(ens, cfg=SolverConfig(tol=1e-6)):
    """Chebyshev nodes of one Picard step from ens, the first sweep's path,
    and a full copy of the transported ensemble at every node."""
    L0 = lsw_solver._state_L(ens, lsw_solver.l_from_state(ens, ens.initial.w0))[0]
    j = np.arange(lsw_solver.N_CHEB + 1)
    nodes = ens.t + cfg.delta * L0 * 0.5 * (1.0 - np.cos(np.pi * j / lsw_solver.N_CHEB))
    path = lsw_solver.CubicSpline(nodes, np.full(len(nodes), L0), bc_type="natural")
    scratch, at_nodes = ens.copy(), []
    for a, b in zip(nodes[:-1], nodes[1:]):
        lsw_solver._advance(scratch, a, b, path)
        at_nodes.append(scratch.copy())
    return nodes, path, at_nodes


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
    L, yb, w0b = lsw_solver._resolve_L(moments, guesses, ens.initial)
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
    lsw_solver._advance(ens, a, b, lambda s: np.full(np.shape(s), L))
    ds = b - a
    tte = exit_time_frozen(pos, L)
    exiting = tte <= ds
    order = np.argsort(tte[exiting])
    assert np.any(exiting)
    assert ens.exit_t[1:] == (a + tte[exiting][order]).tolist()
    assert ens.exit_y[1:] == pos[exiting][order].tolist()
    jac = np.linspace(1.0, 2.0, len(pos))
    assert ens.exit_jac[1:] == (jac[exiting] / lsw_solver._speed(pos[exiting], L))[order].tolist()
    np.testing.assert_array_equal(ens.labels, pos[~exiting])


def test_one_spline_evaluation_per_panel(short_exp_run):
    nodes, path, _ = _first_sweep(short_exp_run[1].ensemble)
    # a path that is not constant, as in later sweeps
    path = lsw_solver.CubicSpline(nodes, path(nodes) * (1.0 + 0.01 * np.sin(nodes)),
                                  bc_type="natural")
    calls = []

    def counted(s):
        calls.append(np.shape(s))
        return path(s)

    ens = short_exp_run[1].ensemble.copy()
    for a, b in zip(nodes[:-1], nodes[1:]):
        lsw_solver._advance(ens, a, b, counted)
        ss = np.linspace(a, b, 3)
        ds = np.diff(ss)
        points = np.column_stack((ss[:-1], ss[:-1] + 0.5 * ds, ss[:-1] + ds))
        assert [p.tolist() for p in path(points)] == [[float(path(p)) for p in row] for row in points]
    assert calls == [(2, 3)] * (len(nodes) - 1)


def test_stop_on_bound_returns_the_confirming_sweep(short_exp_run):
    # a step that stops on the error bound returns what a further full sweep
    # through the last iterate's path would, and that sweep would converge
    ens = short_exp_run[1].ensemble
    cfg = SolverConfig(tol=1e-6)
    L0 = lsw_solver._state_L(ens, short_exp_run[1].trace.L[-1])[0]
    out, path, stats = lsw_solver.picard_solve_interval(ens, cfg.delta * L0, L0, cfg)
    assert stats.converged and stats.stopped_on_bound and stats.iterations >= 2
    nodes = path.x
    confirm = ens.copy()
    moments = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        lsw_solver._advance(confirm, a, b, path)
        moments.append(confirm.copy())
    resolved = lsw_solver._resolve_L(moments, path(nodes[1:]), ens.initial)[0]
    assert np.max(np.abs(resolved - path(nodes[1:]))) < cfg.tol * L0
    for name in ("labels", "pos", "w", "jac"):
        np.testing.assert_array_equal(getattr(out, name), getattr(confirm, name))
    assert (out.t, out.exit_t, out.exit_y, out.exit_jac) == \
        (confirm.t, confirm.exit_t, confirm.exit_y, confirm.exit_jac)


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
