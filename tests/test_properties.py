import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    assert np.all(np.diff(suffix) <= 1e-15)


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
def test_descent_inverts_exit_time_for_any_substep(r, L, frac):
    x = np.array([r * L])
    tte = exit_time_frozen(x, L)
    ds = frac * float(tte[0])
    assume(ds < tte[0])
    u = np.cbrt(x / L)
    out = L * lsw_solver._analytic_descent(u, L, ds) ** 3
    # the floor of test_lsw_solver.py::test_descent_inverts_exit_time: the
    # rounding of exit_time_frozen, which cancels for small x/L
    floor = 4.0 * 3.0 * L * np.finfo(float).eps * (u + np.abs(np.log1p(-u)))
    ref = tte - ds
    assert np.all(np.abs(exit_time_frozen(out, L) - ref) <= 1e-12 * ref + floor)


@settings(max_examples=150, deadline=None)
@given(st.lists(x_over_L, min_size=1, max_size=40), lengths,
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_descent_is_elementwise(rs, L, frac):
    # each entry freezes once it converges, so it ends where it would alone
    u = np.cbrt(np.array(rs))
    ds = frac * float(np.min(exit_time_frozen(L * u**3, L)))
    batch = lsw_solver._analytic_descent(u, L, ds)
    alone = [lsw_solver._analytic_descent(u[i:i + 1], L, ds)[0] for i in range(len(u))]
    assert np.array_equal(batch, np.array(alone))


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
    u = np.array(us)
    ds = frac * float(np.min(exit_time_frozen(L * u**3, L)))
    out = lsw_solver._analytic_descent(u, L, ds)
    with mock.patch.object(lsw_solver, "_TINY_ROOT", 1.0):
        ref = lsw_solver._analytic_descent(u, L, ds)
    phi = lsw_solver._phi_of_u
    floor = lsw_solver._PHI_FLOOR * (phi(ref) + ref * (2.0 + 0.5 * ref))
    assert np.all(np.abs(phi(out) - phi(ref)) <= 2.0 * floor)


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
