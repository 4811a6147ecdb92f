"""The solver's in-place kernels against the one-expression forms they replaced.

Each reference below is a kernel in its one-expression form, the form its
in-place code replaced: one expression per quantity.  The kernels that now work
in place perform the same operations in the same order, so they must return the
same bits: an edit that reorders an operation, reassociates a sum or turns a
division into a multiplication fails here instead of silently moving an output.
The second half calls the kernels on read-only arrays, so a write into an
argument or a carried root raises.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lswkit import cellquad, lsw_solver
from lswkit.errors import ConvergenceWarning
from lswkit.lsw_solver import Ensemble


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def frozen(*arrays):
    """Read-only copies of ``arrays``."""
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.setflags(write=False)
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# the references


def ref_phi_of_u(u):
    return -0.5 * u * u - u - np.log1p(-u)


def ref_drift(x, L):
    return np.cbrt(np.asarray(x, float) / L) - 1.0


def ref_rk4(x, r, ds, L_a, L_mid, L_b):
    k1 = r * (L_mid / L_a) ** (1.0 / 3.0) - 1.0
    k2 = ref_drift(x + 0.5 * ds * k1, L_mid)
    k3 = ref_drift(x + 0.5 * ds * k2, L_mid)
    k4 = ref_drift(x + ds * k3, L_b)
    out = x + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, np.cbrt(out / L_mid)


def ref_halley_step(f, un, half):
    return f * un * (1.0 - un) / (un * un * un - f * (1.0 - half))


def ref_analytic_descent(u, L, ds, phi_of_u=ref_phi_of_u):
    c = ds / (3.0 * L)
    target = phi_of_u(u) - c
    exits = np.flatnonzero(target <= 0)
    m = int(exits[-1]) + 1 if len(exits) else 0
    early = -3.0 * L * float(target[m - 1]) if m else 0.0
    u, target = u[m:], target[m:]
    s = np.cbrt(3.0 * target)
    start = s * np.interp(s, lsw_solver._INVERSE_S, lsw_solver._INVERSE_RATIO)
    low = np.minimum(u, start) < lsw_solver._TINY_ROOT
    guard = None
    if low.any():
        tiny = u < lsw_solver._TINY_ROOT
        if tiny.any():
            ut = u[tiny]
            u2 = ut * ut
            n = c * (1.0 - ut) / u2
            start[tiny] = np.minimum(ut - n * (1.0 + (0.5 * c) * (2.0 - ut) / (u2 * ut)), s[tiny])
        guard = np.flatnonzero(low)
    moving = np.ones(len(u), bool)
    un = start
    for i in range(lsw_solver._HALLEY_CAP):
        phi = phi_of_u(un)
        f = phi - target
        half = 0.5 * un
        if i:
            moving &= ~(np.abs(f) <= lsw_solver._PHI_FLOOR * (phi + un * (2.0 + half)))
            if not moving.any():
                break
        step = f * un * (1.0 - un) / (un * un * un - f * (1.0 - half))
        if guard is not None:
            sg, ug = step[guard], un[guard]
            step[guard] = np.where((sg <= ug) & (sg > ug - 1.0), sg, 0.0)
        if i:
            np.subtract(un, step, out=un, where=moving)
        else:
            un -= step
    return m, early, un


def same_descent(new, ref) -> bool:
    """Both descents cut the same entries, record the same last exit and
    return the same roots, bit for bit."""
    return new[:2] == ref[:2] and same_bits(new[2], ref[2])


def ref_advance(ens, ss, L_sub, root=None):
    for a, b, (L_a, L_mid, L_b) in zip(ss[:-1], ss[1:], L_sub):
        ds = b - a
        ens.t = b
        x = ens.pos
        r = np.cbrt(x / L_mid) if root is None else root[0] * (root[1] / L_mid) ** (1.0 / 3.0)
        root = r, L_mid
        if len(x) == 0:
            continue
        edge = L_mid * max(0.9, -math.expm1(-1.5 - ds / (3.0 * L_mid)) ** 3)
        low = int(np.searchsorted(x, edge))
        cut = 0
        if low:
            cut, early, u = ref_analytic_descent(r[:low], L_mid, ds)
        if cut:
            ens.exit_t, ens.exit_y = max(b - early, a), float(ens.labels[cut - 1])
            ens.exit_jac = float(ens.jac[cut - 1] / (1.0 - r[cut - 1]))
            ens.labels, ens.w, ens.jac = ens.labels[cut:], ens.w[cut:], ens.jac[cut:]
            x, r, low = x[cut:], r[cut:], low - cut
        out, r_out = np.empty_like(x), np.empty_like(x)
        if low:
            r_out[:low] = u
            out[:low] = L_mid * u ** 3
        if low < len(x):
            out[low:], r_out[low:] = ref_rk4(x[low:], r[low:], ds, L_a, L_mid, L_b)
        ratio = np.exp(ds / (3.0 * L_mid) - 0.5 * (r_out - r) * (r_out + r + 2.0))
        ens.jac = np.multiply(ens.jac, ratio, out=ratio)
        ens.pos = out
        root = r_out, L_mid
    return root


# ---------------------------------------------------------------------------
# inputs


def sorted_positions(seed, n, lo, hi):
    """n sorted positions in [lo, hi), log-uniform, with a few narrow cells."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    if n > 8:
        # neighbours 1e-7 relative apart: narrow cells, which power_cells
        # takes by its series
        x[: n // 8] = x[n // 8: 2 * (n // 8)] * (1.0 + 1e-7)
    return np.sort(x)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=3000)
lengths = st.floats(min_value=1e-2, max_value=1e2)


@settings(max_examples=100, deadline=None)
@given(seeds, sizes)
def test_phi_of_u_matches_its_one_expression_form_on_arrays(seed, n):
    u = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))
    assert same_bits(lsw_solver._phi_of_u(u), ref_phi_of_u(u))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_phi_of_u_matches_its_one_expression_form_on_scalars(u):
    for arg in (u, np.float64(u), np.array(u)):
        new, ref = lsw_solver._phi_of_u(arg), ref_phi_of_u(arg)
        assert type(new) is type(ref) and same_bits(new, ref)


@settings(max_examples=100, deadline=None)
@given(seeds, sizes, lengths, st.floats(min_value=1e-6, max_value=0.1),
       st.floats(min_value=-0.01, max_value=0.01), st.floats(min_value=-0.01, max_value=0.01))
def test_rk4_matches_its_one_expression_form(seed, n, L, ds_over_L, da, db):
    # the RK4 share: survivors from 0.9 L out to 50 L; _rk4 takes arrays only
    L_a, L_mid, L_b = L * (1.0 + da), L, L * (1.0 + db)
    x = sorted_positions(seed, n, 0.9 * L, 50.0 * L)
    args = (x, np.cbrt(x / L_mid), ds_over_L * L, L_a, L_mid, L_b)
    new, ref = lsw_solver._rk4(*args), ref_rk4(*args)
    assert same_bits(new[0], ref[0]) and same_bits(new[1], ref[1])


def descent_inputs(seed, n, L, ds_over_L):
    # the descent share, below 0.9 L and down to 1e-12 L, where roots fall
    # under _TINY_ROOT; ds up to 0.05 L cuts the first entries as exits
    x = sorted_positions(seed, n, 1e-12 * L, 0.9 * L)
    return np.cbrt(x / L), ds_over_L * L


def counted(phi, calls):
    """``phi``, recording a copy of each argument in ``calls``."""
    def wrapper(u):
        calls.append(np.copy(u))
        return phi(u)
    return wrapper


@settings(max_examples=100, deadline=None)
@given(seeds, sizes, st.floats(min_value=1e-6, max_value=1.0))
def test_halley_step_matches_its_one_expression_form(seed, n, scale):
    # iterates anywhere in (0, 1) with residuals up to ``scale`` of phi: the
    # step's rounding rarely reaches a converged root, so it is pinned here
    rng = np.random.default_rng(seed)
    un = np.sort(rng.uniform(0.0, 1.0, n))
    f = scale * rng.standard_normal(n) * ref_phi_of_u(un)
    half = 0.5 * un
    assert same_bits(lsw_solver._halley_step(f, un, half), ref_halley_step(f, un, half))
    for i in (0, n - 1):
        args = (float(f[i]), float(un[i]), float(half[i]))
        assert same_bits(lsw_solver._halley_step(*args), ref_halley_step(*args))
        args = tuple(np.array(a) for a in args)
        assert same_bits(lsw_solver._halley_step(*args), ref_halley_step(*args))


@settings(max_examples=100, deadline=None)
@given(seeds, sizes, lengths, st.floats(min_value=0.0, max_value=0.05))
def test_descent_matches_its_one_expression_form(seed, n, L, ds_over_L):
    u, ds = descent_inputs(seed, n, L, ds_over_L)
    new_calls, ref_calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsw_solver, "_phi_of_u", counted(lsw_solver._phi_of_u, new_calls))
        new = lsw_solver._analytic_descent(u, L, ds)
    ref = ref_analytic_descent(u, L, ds, counted(ref_phi_of_u, ref_calls))
    assert same_descent(new, ref)
    # one call for the target and one per Halley iteration, as the reference,
    # at the same iterates
    assert len(new_calls) == len(ref_calls) >= 2
    assert all(same_bits(a, b) for a, b in zip(new_calls, ref_calls))


def ensemble_inputs(seed, n, L, ds_over_L):
    # survivors from 1e-9 L, which exit within the panel, out to 40 L,
    # across the 0.9 L split between the descent and RK4
    x = sorted_positions(seed, n, 1e-9 * L, 40.0 * L)
    rng = np.random.default_rng(seed + 1)
    ens = Ensemble(labels=x * 1.5, pos=x, w=np.exp(-x / L), initial=None, beta0=None,
                   jac=rng.uniform(0.5, 2.0, n), t=1.0, exit_t=0.5, exit_y=0.0)
    ds = ds_over_L * L
    ss = [1.0, 1.0 + ds, 1.0 + 2.0 * ds, 1.0 + 3.0 * ds]
    L_sub = [(L * (1.0 + 1e-3 * i), L * (1.0 + 1e-3 * (i + 0.5)), L * (1.0 + 1e-3 * (i + 1)))
             for i in range(3)]
    return ens, ss, L_sub


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, lengths, st.floats(min_value=1e-6, max_value=0.02), st.booleans())
def test_advance_matches_its_one_expression_form(seed, n, L, ds_over_L, carried):
    # positions, roots and the Jacobian ratio over a panel of three substeps,
    # from a carried root or a fresh one
    ens, ss, L_sub = ensemble_inputs(seed, n, L, ds_over_L)
    root = (np.cbrt(ens.pos / (0.99 * L)), 0.99 * L) if carried else None
    new, ref = ens.shallow_copy(), ens.shallow_copy()
    new_root = lsw_solver._advance(new, ss, L_sub, root)
    ref_root = ref_advance(ref, ss, L_sub, root)
    assert same_bits(new_root[0], ref_root[0]) and new_root[1] == ref_root[1]
    for name in ("labels", "pos", "w", "jac"):
        assert same_bits(getattr(new, name), getattr(ref, name)), name
    assert (new.t, new.exit_t, new.exit_y, new.exit_jac) == (ref.t, ref.exit_t, ref.exit_y, ref.exit_jac)


# ---------------------------------------------------------------------------
# read-only guard: no kernel writes into an argument or a carried root


def test_rk4_writes_into_no_argument():
    x, r = frozen(np.linspace(1.0, 20.0, 500), np.cbrt(np.linspace(1.0, 20.0, 500) / 1.1))
    new = lsw_solver._rk4(x, r, 0.01, 1.09, 1.1, 1.11)
    ref = ref_rk4(x, r, 0.01, 1.09, 1.1, 1.11)
    assert same_bits(new[0], ref[0]) and same_bits(new[1], ref[1])
    assert new[0].flags.writeable and new[1].flags.writeable


@pytest.mark.parametrize("ds", [3e-12, 1e-4, 0.05])
def test_descent_writes_into_no_argument(ds):
    # every ds cuts the first entries as exits, and at 3e-12 survivors with
    # roots below _TINY_ROOT follow them: every branch of the descent
    (u,) = frozen(descent_inputs(3, 800, 1.0, ds)[0])
    new = lsw_solver._analytic_descent(u, 1.0, ds)
    assert same_descent(new, ref_analytic_descent(u, 1.0, ds))
    assert new[0] and (ds > 1e-11 or u[new[0]] < lsw_solver._TINY_ROOT)


def test_descent_calls_phi_once_for_the_target_and_once_per_iteration(monkeypatch):
    # the contract of perfbench's phi_in_descent count probe: iterations + 1
    calls = []
    monkeypatch.setattr(lsw_solver, "_phi_of_u", counted(lsw_solver._phi_of_u, calls))
    u = np.cbrt(np.linspace(0.01, 0.8, 300))
    lsw_solver._analytic_descent(u, 1.0, 1e-3)
    # one step, then the test that stops it
    assert len(calls) == 1 + 2
    calls.clear()
    monkeypatch.setattr(lsw_solver, "_HALLEY_CAP", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lsw_solver._analytic_descent(u, 1.0, 1e-3)
    assert [w.category for w in caught] == [ConvergenceWarning]
    assert len(calls) == 1 + 1


@pytest.mark.parametrize("carried", [False, True])
def test_advance_writes_into_no_ensemble_array_or_carried_root(carried):
    ens, ss, L_sub = ensemble_inputs(5, 2000, 1.0, 0.01)
    ens.labels, ens.pos, ens.w, ens.jac = frozen(ens.labels, ens.pos, ens.w, ens.jac)
    root = (frozen(np.cbrt(ens.pos / 0.99))[0], 0.99) if carried else None
    ref = ens.shallow_copy()
    new_root = lsw_solver._advance(ens, ss, L_sub, root)
    ref_root = ref_advance(ref, ss, L_sub, root)
    assert ens.exit_t > 0.5   # survivors exited
    assert same_bits(new_root[0], ref_root[0])
    assert same_bits(ens.pos, ref.pos) and same_bits(ens.jac, ref.jac)


def test_power_cells_writes_into_no_argument():
    u = np.concatenate(([0.0], sorted_positions(11, 1500, 1e-6, 30.0)))
    w = np.exp(-u)
    ref = {s: cellquad.power_cells(u, w, s) for s in (-2.0 / 3.0, 0.5, 2.0)}
    u, w = frozen(u, w)
    for s, cells in ref.items():
        assert same_bits(cellquad.power_cells(u, w, s), cells)


def test_theta_cell_integrals_write_into_no_argument():
    # two states joined as _flux_L joins them: the origin and each one's
    # survivors below L/8
    x1, x2 = np.linspace(0.0, 0.12, 200), np.linspace(0.0, 0.15, 300)
    x, w = frozen(np.concatenate((x1, x2)), np.concatenate((np.exp(-x1), np.exp(-x2))))
    Ls, n = frozen([1.0, 1.2])[0], [200, 300]
    new = lsw_solver._theta_cell_integrals(x, w, Ls, n)
    alone = [lsw_solver._theta_cell_integrals(np.array(xs), np.exp(-xs), [L], [len(xs)])[0]
             for xs, L in ((x1, 1.0), (x2, 1.2))]
    assert np.array_equal(new, alone)
