import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lswkit as lk
from lswkit import cellquad, jensen, lsw_solver
from lswkit.lsw_solver import exit_time_frozen


def random_profile(draw_floats, n):
    """Strictly decreasing survival data on a positive grid from raw draws."""
    gaps = np.array(draw_floats, float)[:n]
    grid = np.concatenate(([0.0], np.cumsum(gaps)))
    drops = np.array(draw_floats, float)[n:2 * n]
    w = 1.0 + np.concatenate(([0.0], np.cumsum(-drops)))
    w -= w[-1]  # compact support: end exactly at zero
    return lk.SurvivalProfile(grid, w / w[0])


profile_strategy = st.builds(
    random_profile,
    st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=16, max_size=16),
    st.just(8),
)


@settings(max_examples=60, deadline=None)
@given(profile_strategy)
def test_mass_between_trivial_bounds(prof):
    # h(0) = integral of w over the support, bracketed by endpoint rectangles
    assert 0.0 < prof.mass <= prof.w0 * prof.sup_x + 1e-12


@settings(max_examples=60, deadline=None)
@given(profile_strategy)
def test_suffix_mass_decreasing(prof):
    xs = np.linspace(0.0, prof.sup_x, 40)
    h = prof.h_at(xs)
    assert np.all(np.diff(h) <= 1e-12)
    assert h[0] == pytest.approx(prof.mass, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(profile_strategy, st.floats(min_value=0.05, max_value=0.95))
def test_quantile_round_trip(prof, q):
    x = prof.quantile(q)
    assert prof.w_at(x) == pytest.approx(q * prof.w0, rel=1e-9)


def with_tail(prof, kind):
    """The profile lifted to a positive last value, continued by a ``kind`` tail."""
    if kind == "compact":
        return prof
    tail = lk.TailModel.exponential(1.5) if kind == "exponential" else lk.TailModel.power(2.5)
    return lk.SurvivalProfile(prof.grid, prof.values + 0.05, tail)


@settings(max_examples=60, deadline=None)
@given(profile_strategy, st.sampled_from(["compact", "exponential", "power"]),
       st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=12))
def test_quantile_array_is_elementwise(prof, kind, qs):
    prof = with_tail(prof, kind)
    # every node level, the last value included, plus the drawn levels
    levels = np.concatenate((prof.values[prof.values > 0] / prof.w0, qs))
    xs = prof.quantile(levels)
    one_by_one = [prof.quantile(q) for q in levels]
    assert all(type(x) is float for x in one_by_one)
    assert np.array_equal(xs, np.array(one_by_one))


@settings(max_examples=60, deadline=None)
@given(profile_strategy)
def test_dilate_scales_mass_linearly(prof):
    # dilate maps X to lam X: survival values are unchanged, lengths scale
    lam = 1.7
    scaled = prof.dilate(lam)
    assert scaled.mass == pytest.approx(lam * prof.mass, rel=1e-12)
    assert scaled.w0 == pytest.approx(prof.w0, rel=1e-12)
    assert scaled.sup_x == pytest.approx(lam * prof.sup_x, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(profile_strategy, st.floats(min_value=0.1, max_value=0.9))
def test_truncated_mean_below_mean(prof, frac):
    y = frac * prof.sup_x
    tm = jensen.truncated_mean(prof, y)
    assert -1e-12 <= tm <= prof.mean + 1e-12


@settings(max_examples=60, deadline=None)
@given(profile_strategy, st.floats(min_value=0.05, max_value=0.6))
def test_conditional_mean_dominates_threshold(prof, frac):
    x = frac * prof.sup_x
    cm = jensen.conditional_mean(prof, x)
    assert cm >= x - 1e-12
    assert cm <= prof.sup_x + 1e-12


@settings(max_examples=60, deadline=None)
@given(profile_strategy, st.floats(min_value=0.1, max_value=0.9))
def test_moment_interpolates_between_bounds(prof, alpha):
    # Jensen upper bound and the trivial positivity lower bound
    m = prof.moment(alpha)
    assert 0.0 < m <= prof.mean ** alpha + 1e-12


@settings(max_examples=60, deadline=None)
@given(profile_strategy)
def test_power_cells_positive_and_additive(prof):
    x, w = prof.grid, prof.values
    cells = cellquad.power_cells(x, w, -1.0 / 3.0)
    assert np.all(cells >= 0.0)
    total = cellquad.power_total(x, w, -1.0 / 3.0)
    assert total == pytest.approx(float(np.sum(cells)), rel=1e-12)
    suffix = cellquad.power_suffix(x, w, -1.0 / 3.0)
    assert suffix[0] == pytest.approx(total, rel=1e-12)
    assert np.all(np.diff(suffix) <= 0.0)


@settings(max_examples=60, deadline=None)
@given(profile_strategy)
def test_energy_upper_bound(prof):
    # x^(-1/3) >= sup_x^(-1/3) on the support gives a floor; the rectangle
    # bound w <= w0 gives a ceiling via the explicit primitive
    e = prof.energy()
    floor = prof.mass * prof.sup_x ** (-1.0 / 3.0)
    ceil = prof.w0 * prof.sup_x ** (2.0 / 3.0)
    assert floor - 1e-12 <= e <= ceil + 1e-12


@settings(max_examples=40, deadline=None)
@given(profile_strategy)
def test_expectation_monotone_in_integrand(prof):
    lo = jensen.expectation(prof, lambda x: np.sqrt(x))
    hi = jensen.expectation(prof, lambda x: np.sqrt(x) + 1.0)
    assert hi == pytest.approx(lo + 1.0, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(profile_strategy)
def test_beta_envelope_brackets_values(prof):
    b = lk.beta_from_profile(prof)
    ok = ~b.low_confidence
    if np.count_nonzero(ok) < 4:
        return
    lo, hi = lk.beta_envelope(prof)
    assert lo <= float(np.min(b.values[ok])) + 1e-9
    assert hi >= float(np.max(b.values[ok])) - 1e-9


# the frozen-L descent: positions x/L in [1e-15, 0.9), the range it serves
# in the solver (a short last substep can leave survivors near 1e-12 L), and
# L over six decades; at the small end the residual test runs at the
# rounding floor of _phi_of_u, so these show that the floor is reached
x_over_L = st.floats(min_value=1e-15, max_value=0.9, exclude_max=True)
lengths = st.floats(min_value=1e-3, max_value=1e3)


@settings(max_examples=300, deadline=None)
@given(x_over_L, lengths, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
# a target below the rounding of phi at the tabulated start, from where an
# unguarded Halley step lands at u = 3.9994 with a NaN residual
@example(r=1e-8, L=1.0, frac=0.9999999999999998)
def test_descent_inverts_exit_time_for_any_substep(r, L, frac):
    x = np.array([r * L])
    tte = exit_time_frozen(x, L)
    ds = frac * float(tte[0])
    assume(ds < tte[0])
    u = np.cbrt(x / L)
    cut, early, u_new = lsw_solver._analytic_descent(u, L, ds)
    # the floor of test_lsw_solver.py::test_descent_inverts_exit_time: the
    # rounding of exit_time_frozen, which cancels for small x/L
    floor = 4.0 * 3.0 * L * np.finfo(float).eps * (u + np.abs(np.log1p(-u)))
    ref = tte - ds
    if cut:
        # its target rounds to <= 0: the time it has left, and how early
        # it reaches the origin, are within that rounding
        assert cut == 1 and ref[0] <= floor[0] and 0.0 <= early <= 1e-12 * tte[0] + floor[0]
        return
    assert len(u_new) == 1 and early == 0.0
    out = L * u_new ** 3
    assert np.all(np.abs(exit_time_frozen(out, L) - ref) <= 1e-12 * ref + floor)


@settings(max_examples=150, deadline=None)
@given(st.lists(x_over_L, min_size=1, max_size=40), lengths,
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_descent_is_elementwise(rs, L, frac):
    # each entry freezes once it converges, so it ends where it would alone;
    # an entry the batch keeps is kept alone, and the last one it cuts is cut
    u = np.cbrt(np.sort(rs))
    ds = frac * float(np.min(exit_time_frozen(L * u**3, L)))
    cut, _, batch = lsw_solver._analytic_descent(u, L, ds)
    alone = [lsw_solver._analytic_descent(u[i:i + 1], L, ds) for i in range(len(u))]
    assert [m for m, _, _ in alone[cut:]] == [0] * (len(u) - cut)
    assert np.array_equal(batch, np.array([r[0] for _, _, r in alone[cut:]]))
    assert not cut or alone[cut - 1][0] == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(x_over_L, min_size=1, max_size=40), lengths,
       st.floats(min_value=0.0, max_value=5e-3))
def test_descent_needs_at_most_two_iterations(rs, L, ds_over_L):
    # ds/L <= 5e-3 covers the widest substep at delta = 0.05; with a cap of
    # 2 iterations, the untested Halley step and its residual test, needing
    # a second step raises the cap warning
    x = L * np.array(rs)
    ds = ds_over_L * L
    x = x[exit_time_frozen(x, L) > ds]
    assume(len(x))
    with mock.patch.object(lsw_solver, "_HALLEY_CAP", 2), warnings.catch_warnings():
        warnings.simplefilter("error", lk.ConvergenceWarning)
        lsw_solver._analytic_descent(np.cbrt(x / L), L, ds)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=0.9655), min_size=1, max_size=40), lengths,
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_descent_from_the_table_matches_the_second_order_start(us, L, frac):
    # the roots the descent serves, from its tiny-root threshold to
    # (0.9)^(1/3); a threshold of 1 sends every entry through the
    # second-order start and up to 60 Halley passes
    u = np.sort(us)
    ds = frac * float(np.min(exit_time_frozen(L * u**3, L)))
    cut, _, out = lsw_solver._analytic_descent(u, L, ds)
    with mock.patch.object(lsw_solver, "_TINY_ROOT", 1.0):
        ref_cut, _, ref = lsw_solver._analytic_descent(u, L, ds)
    assert cut == ref_cut
    phi = lsw_solver._phi_of_u
    floor = lsw_solver._PHI_FLOOR * (phi(ref) + ref * (2.0 + 0.5 * ref))
    assert np.all(np.abs(phi(out) - phi(ref)) <= 2.0 * floor)


def _exits_by_mask(pos, ds, L):
    """The survivors that reach the origin within ds at frozen L, by the
    target phi(u) - ds/(3L) <= 0 of every survivor below L, and the one the
    cut keeps as the last exit: the largest exit time, the later entry on a
    tie."""
    u = np.cbrt(pos / L)
    target = np.full(len(pos), np.inf)
    below = u < 1.0
    target[below] = lsw_solver._phi_of_u(u[below]) - ds / (3.0 * L)
    exiting = np.flatnonzero(target <= 0)
    tte = exit_time_frozen(pos, L)
    last = exiting[np.argsort(tte[exiting], kind="stable")[-1]] if len(exiting) else None
    return target, exiting, last


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e-6, max_value=1.5), st.integers(1, 3)),
                min_size=1, max_size=40),
       lengths, st.integers(0, 39), st.sampled_from([0.5, 1.0, 2.0]))
def test_exit_cut_matches_the_exit_mask(entries, L, j, scale):
    # sorted positions, some of them repeated so that their exit times tie,
    # and a substep ending at, before or after an entry's exit time
    x_over_L, repeats = zip(*sorted(entries))
    pos = L * np.repeat(x_over_L, repeats)
    a = 0.5
    b = a + scale * float(np.minimum(exit_time_frozen(pos, L)[j % len(pos)], L))
    ds = b - a
    target, exiting, last = _exits_by_mask(pos, ds, L)
    assume(np.all(target[1:] >= target[:-1]))
    n = len(pos)
    arrays = dict(labels=np.arange(1.0, n + 1.0), pos=pos, w=np.linspace(1.0, 0.5, n),
                  jac=np.linspace(1.0, 3.0, n))
    keep = np.ones(n, dtype=bool)
    keep[exiting] = False
    ens = lsw_solver.Ensemble(**arrays, initial=None, beta0=None, t=a,
                              exit_t=0.25, exit_y=0.5, exit_jac=2.0)
    # the survivors the cut keeps, moved without the exits
    alone = lsw_solver.Ensemble(**{k: v[keep] for k, v in arrays.items()}, initial=None,
                                beta0=None, t=a)
    lsw_solver._advance(ens, [a, b], [[L, L, L]])
    lsw_solver._advance(alone, [a, b], [[L, L, L]])
    for name in ("labels", "w"):
        np.testing.assert_array_equal(getattr(ens, name), arrays[name][keep])
    for name in ("pos", "jac"):
        np.testing.assert_array_equal(getattr(ens, name), getattr(alone, name))
    if last is None:
        assert (ens.exit_t, ens.exit_y, ens.exit_jac) == (0.25, 0.5, 2.0)
        return
    assert (ens.exit_y, ens.exit_jac) == \
        (arrays["labels"][last], arrays["jac"][last] / lsw_solver._speed(pos[last], L))
    # within the substep, at the frozen-L exit time
    assert a <= ens.exit_t <= b
    assert abs(ens.exit_t - (a + exit_time_frozen(pos[last], L))) <= 1e-12 * ds + 4.0 * np.spacing(b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-15, max_value=40.0), min_size=1, max_size=60, unique=True),
       lengths, st.floats(min_value=-15.0, max_value=0.85),
       st.floats(min_value=-0.05, max_value=0.05), st.floats(min_value=-0.05, max_value=0.05),
       st.booleans())
# survivors above 0.9 L that reach the origin within a 6.7 L substep, past
# which the RK4 step would carry them
@example(x_over_L=[0.5, 0.9, 0.91, 0.92, 0.95, 1.1], L=1.0, log_ds=0.826, da=0.0, db=0.0,
         carried=False)
def test_every_substep_keeps_the_survivors_off_the_origin(x_over_L, L, log_ds, da, db, carried):
    # three substeps from survivors across the descent's share and the RK4
    # share, of 1e-15 L up to the ~6.7 L that delta = 40 takes, with L moving
    # within each: after every substep the survivors lie above 0 and in
    # order, and an exit within it is recorded at a time within it
    pos = L * np.sort(x_over_L)
    n = len(pos)
    ens = lsw_solver.Ensemble(labels=pos.copy(), pos=pos, w=np.linspace(1.0, 0.5, n),
                              initial=None, beta0=None, t=0.0)
    root = (np.cbrt(pos / L), L) if carried else None
    ds = L * 10.0 ** log_ds
    for a, b in zip(ds * np.arange(3), ds * np.arange(1, 4)):
        alive = ens.n_alive
        L_sub = [(L * (1.0 + da), L * (1.0 + 0.5 * (da + db)), L * (1.0 + db))]
        root = lsw_solver._advance(ens, [a, b], L_sub, root)
        assert np.all(ens.pos > 0.0) and np.all(ens.pos[1:] >= ens.pos[:-1])
        if ens.n_alive < alive:
            assert a <= ens.exit_t <= b


FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_runs_after():
    pass
"""


def test_failing_property_does_not_stop_the_run(tmp_path):
    # hypothesis prints a failing example through an import that warns; the
    # repo's filterwarnings must let that failure count as one, and the
    # tests after it run
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
