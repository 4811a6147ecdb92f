"""Characteristic-ensemble solver for the coarsening transport system.

The survival function obeys a transport equation whose characteristics
satisfy dx/ds = -[1 - (x/L(s))^(1/3)], with the nonlocal parameter L fixed
by the flux balance L^(1/3) = (1/3) int x^(-2/3) w dx / w(0,t).  Values of w
ride the characteristics unchanged, so the state is a label/position pair
per characteristic; L over each short interval is resolved by fixed-point
iteration on the path L(s), which is a contraction for small enough steps.

Characteristics reaching x = 0 are dissolving clusters; the last exit is
kept, and the label currently arriving at the origin reconstructs w(0,t) and
hence the mean cluster volume Lambda = mass/w(0,t).  Solver code rebinds
ensemble arrays and never writes into them, so shallow copies are safe.
"""
from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import cellquad
from .errors import ConvergenceWarning, ExtinctionError
from .profiles import (
    SurvivalProfile, BetaProfile, beta_from_profile, beta_interpolant, derivative_nonuniform,
    low_confidence_mask, write_csv,
)


def drift(x, L):
    return np.cbrt(np.asarray(x, float) / L) - 1.0


def _phi_of_u(u):
    # time-to-origin integrand antiderivative, in units of 3L
    return -0.5 * u * u - u - np.log1p(-u)


_HALLEY_CAP = 60
# the rounding floor of _phi_of_u(u), which cancels to ~u^3/3 from O(u) terms:
# a few eps times u + |log1p(-u)|
_PHI_FLOOR = 4.0 * np.finfo(float).eps
# below this root _phi_of_u cancels, its relative rounding growing like eps/u^2,
# so the descent does not read its start from the tabulated inverse there
_TINY_ROOT = 1e-3
_INVERSE_NODES = 4096


def _inverse_table() -> tuple[np.ndarray, np.ndarray]:
    # the inverse of s = cbrt(3 phi(u)) as pairs (s, u/s); phi(u) ~ u^3/3
    # makes (0, 1) its value at the origin
    u = np.linspace(_TINY_ROOT, 0.999, _INVERSE_NODES)
    s = np.cbrt(3.0 * _phi_of_u(u))
    return np.concatenate(([0.0], s)), np.concatenate(([1.0], u / s))


_INVERSE_S, _INVERSE_RATIO = _inverse_table()


def exit_time_frozen(x, L):
    """Time for a characteristic at x < L to reach 0 with L held fixed."""
    u = np.cbrt(np.maximum(x, 0.0) / L)
    return np.where(u < 1.0, 3.0 * L * _phi_of_u(np.minimum(u, 1.0 - 1e-15)), np.inf)


def _analytic_descent(u, L, ds):
    """Advance the survivors at u = (x/L)^(1/3) < 1 by ds with L frozen, by
    inverting the exit-time map; returns their new roots u', positions L u'^3.

    Exact for frozen L (entries that would cross 0 must have been screened
    out by the caller).  Halley steps on phi(u') = phi(u) - ds/(3L) start
    from the tabulated inverse of s = cbrt(3 phi), read at s = cbrt(3*target),
    which one step makes exact to rounding; the first step is taken without a
    test, and each entry stops once its residual is within the rounding floor
    of ``_phi_of_u``.  Entries still moving after the iteration cap are
    reported in a ConvergenceWarning.
    """
    c = ds / (3.0 * L)
    target = _phi_of_u(u) - c
    s = np.cbrt(3.0 * target)
    start = s * np.interp(s, _INVERSE_S, _INVERSE_RATIO)
    tiny = u < _TINY_ROOT
    if tiny.any():
        # target cancels here; start from the second-order Taylor
        # estimate of the inverse map, u - n (1 + n phi''/(2 phi')) with the
        # Newton step n = c/phi', phi' = u^2/(1-u), phi'' = u(2-u)/(1-u)^2,
        # capped by s, an upper bound of the root as phi(u) >= u^3/3
        ut = u[tiny]
        u2 = ut * ut
        n = c * (1.0 - ut) / u2
        start[tiny] = np.minimum(ut - n * (1.0 + (0.5 * c) * (2.0 - ut) / (u2 * ut)), s[tiny])
    moving = target > 0
    # an entry with target <= 0 would exit within ds and ends at the origin;
    # 0.5 only keeps its arithmetic finite
    un = np.where(moving, start, 0.5)
    for i in range(_HALLEY_CAP):
        phi = _phi_of_u(un)
        f = phi - target
        half = 0.5 * un
        if i:
            # |log1p(-u)| = phi + u + u^2/2
            moving &= np.abs(f) > _PHI_FLOOR * (phi + un * (2.0 + half))
            if not moving.any():
                break
        # Halley's step f / (phi' - f phi''/(2 phi')), both sides times u(1-u)
        step = f * un * (1.0 - un) / (un * un * un - f * (1.0 - half))
        np.subtract(un, step, out=un, where=moving)
    else:
        warnings.warn(f"_analytic_descent: {int(np.count_nonzero(moving))} of {len(un)} "
                      f"entries did not converge in {_HALLEY_CAP} Halley iterations",
                      ConvergenceWarning, stacklevel=2)
    return np.where(target > 0, un, 0.0)


def _rk4(x, r, ds, L_a, L_mid, L_b):
    """One RK4 step of length ds from x, whose root (x/L_mid)^(1/3) is r;
    returns the new positions and their roots at L_mid."""
    # the first stage's root at L_a is r rescaled
    k1 = r * (L_mid / L_a) ** (1.0 / 3.0) - 1.0
    k2 = drift(x + 0.5 * ds * k1, L_mid)
    k3 = drift(x + 0.5 * ds * k2, L_mid)
    k4 = drift(x + ds * k3, L_b)
    out = x + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, np.cbrt(out / L_mid)


@dataclass
class SolverConfig:
    delta: float = 0.05          # step length as a fraction of the current L
    tol: float = 1e-8            # Picard tolerance relative to L


MAX_PICARD = 50         # sweeps before a step counts as not converged
N_CHEB = 8              # Chebyshev panels per Picard interval
NSUB = 2                # integrator substeps per panel
EXTINCTION_FLOOR = 16   # a run stops when fewer survivors are left
MAX_HALVINGS = 6        # step halvings before a run ends as a Picard failure


@dataclass
class Ensemble:
    """Surviving characteristics plus the last exit; arrays are rebound, never written into."""

    labels: np.ndarray           # initial positions y_i (immutable)
    pos: np.ndarray              # current positions x_i(t), increasing
    w: np.ndarray                # w0(y_i), carried unchanged
    initial: SurvivalProfile
    beta0: Callable              # beta function of the initial data
    jac: np.ndarray = None       # dx/dy along each characteristic
    t: float = 0.0
    exit_t: float = 0.0
    exit_y: float = 0.0
    exit_jac: float = 1.0

    def __post_init__(self):
        if self.jac is None:
            self.jac = np.ones_like(self.pos)

    @property
    def n_alive(self) -> int:
        return len(self.pos)


def make_ensemble(profile: SurvivalProfile, beta0: Optional[Callable] = None) -> Ensemble:
    """Seed one characteristic per grid node with positive position."""
    if beta0 is None:
        beta0 = beta_interpolant(profile)
    mask = profile.grid > 0
    return Ensemble(labels=profile.grid[mask].copy(), pos=profile.grid[mask].copy(),
                    w=profile.values[mask].copy(), initial=profile, beta0=beta0)


def _speed(x, L):
    # magnitude of the drift; the Jacobian dx/dy along a characteristic is
    # proportional to it while L is frozen, since d(ln J)/ds = v'(x) = d(ln|v|)/ds
    return _speed_at_root(np.cbrt(np.asarray(x, float) / L))


def _speed_at_root(r):
    # the drift magnitude at r = (x/L)^(1/3)
    return np.maximum(np.abs(1.0 - r), 1e-12)


def _log_exits(ens: Ensemble, a: float, ds: float, L: float) -> Optional[np.ndarray]:
    """Drop the survivors that reach x = 0 within ds of time a at frozen L;
    keep the last exit.  Returns the mask of the survivors kept, or None if
    none exits."""
    x = ens.pos
    # phi(u) >= u^3/3 makes the exit time at least x, so only a prefix
    # can exit; the margins cover the rounding of _phi_of_u at tiny u
    k = int(np.searchsorted(x, max(2.0 * ds, 1e-18 * L), "right"))
    if not k:
        return None
    tte = exit_time_frozen(x[:k], L)
    exiting = np.flatnonzero(tte <= ds)
    if not len(exiting):
        return None
    last = exiting[np.argsort(tte[exiting])[-1]]
    ens.exit_t, ens.exit_y = a + float(tte[last]), float(ens.labels[last])
    # |v| = 1 at the origin, so J there is J / |v(x)|
    ens.exit_jac = float(ens.jac[last] / _speed(x[last], L))
    keep = np.ones(len(x), dtype=bool)
    keep[exiting] = False
    ens.labels, ens.pos, ens.w, ens.jac = ens.labels[keep], x[keep], ens.w[keep], ens.jac[keep]
    return keep


def _panel_times(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Substep times of the panels between ``nodes``: row i holds the NSUB + 1
    ends of panel i's substeps, bit for bit as np.linspace(nodes[i],
    nodes[i + 1], NSUB + 1) gives them, and the (start, middle, end) times
    of each of its substeps."""
    ss = nodes[:-1, None] + np.arange(NSUB + 1) * (np.diff(nodes) / NSUB)[:, None]
    ss[:, -1] = nodes[1:]
    ds = np.diff(ss, axis=1)
    start = ss[:, :-1]
    return ss, np.stack((start, start + 0.5 * ds, start + ds), axis=-1)


def _advance(ens: Ensemble, ss: list, L_sub: list, root: Optional[tuple] = None) -> tuple:
    """March survivors through the substeps between the times ``ss`` of one
    panel, dropping exits; ``L_sub`` holds (L_a, L_mid, L_b), L at the
    start, middle and end of each substep.

    ``root`` is the pair (r, L) with r = (pos/L)^(1/3), carried from the
    panel before; it is computed afresh when None.  Returns the pair at the
    panel's end, so each substep rescales the root by a scalar instead of
    taking a cube root of every survivor."""
    for a, b, (L_a, L_mid, L_b) in zip(ss[:-1], ss[1:], L_sub):
        ds = b - a
        keep = _log_exits(ens, a, ds, L_a)
        ens.t = b
        x = ens.pos
        if root is None:
            r = np.cbrt(x / L_mid)
        else:
            r = (root[0] if keep is None else root[0][keep]) * (root[1] / L_mid) ** (1.0 / 3.0)
        root = r, L_mid
        if len(x) == 0:
            continue
        # positions increase, so x < 0.9 L_mid, the descent's share, is a prefix
        low = int(np.searchsorted(x, 0.9 * L_mid))
        out, r_out = np.empty_like(x), np.empty_like(x)
        if low:
            r_out[:low] = u = _analytic_descent(r[:low], L_mid, ds)
            out[:low] = L_mid * u ** 3
        if low < len(x):
            out[low:], r_out[low:] = _rk4(x[low:], r[low:], ds, L_a, L_mid, L_b)
        ens.jac = ens.jac * _speed_at_root(r_out) / _speed_at_root(r)
        ens.pos = out
        root = r_out, L_mid
    return root


def _boundary_labels(states: list, L) -> np.ndarray:
    """Label arriving at x = 0 in each ensemble of ``states``, by exit-time
    interpolation between the last exit and the first survivor's."""
    t, x1, y1, t0, y0 = np.array([(s.t, s.pos[0], s.labels[0], s.exit_t, s.exit_y)
                                  for s in states]).reshape(-1, 5).T
    t1 = t + exit_time_frozen(x1, L)
    ok = np.isfinite(t1) & (t1 > t0)
    return np.where(ok, y0 + (y1 - y0) * (t - t0) / np.where(ok, t1 - t0, 1.0), y0)


def boundary_jacobian(ens: Ensemble, L: float) -> float:
    """dx/dy of the characteristic currently at the origin.

    Interpolated in log between the last exit and the projected exit of the
    first survivor; its reciprocal is the slope dF/dx of the label map at
    x = 0.
    """
    t0, j0 = ens.exit_t, ens.exit_jac
    if ens.n_alive == 0:
        return j0
    t1 = ens.t + float(exit_time_frozen(ens.pos[0], L))
    j1 = float(ens.jac[0]) / float(_speed(ens.pos[0], L))
    if not np.isfinite(t1) or t1 <= t0 or not j0 > 0 or not j1 > 0:
        return j0
    lj = np.log(j0) + (np.log(j1) - np.log(j0)) * (ens.t - t0) / (t1 - t0)
    return float(np.exp(lj))


def _augmented_state(state, w0b: float, n: Optional[int] = None):
    """(x, w) of an Ensemble or Snapshot, or of its first n survivors, behind
    the origin node (0, w0b), w clipped at w0b."""
    x = np.concatenate(([0.0], state.pos[:n]))
    w = np.concatenate(([w0b], np.minimum(state.w[:n], w0b)))
    return x, w


# the series of _phi_primitive and _phi_u2_primitive run over k = 3..60
_PHI_K = np.arange(3, 61).reshape(-1, 1)
_PHI_POW, _PHI_DEN = _PHI_K + 1, _PHI_K * (_PHI_K + 1)


def _phi_primitive(u):
    # int_0^u phi(s) ds = sum_{k>=3} u^(k+1)/(k(k+1)); closed form cancels
    # below u = 0.25, so switch to the series there
    u = np.asarray(u, float)
    out = np.empty_like(u)
    small = u < 0.25
    us, ub = u[small], u[~small]
    out[small] = np.sum(us ** _PHI_POW / _PHI_DEN, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~small] = -ub**3 / 6 - ub**2 / 2 + ub + (1.0 - ub) * np.log1p(-ub)
    return out


def _phi_u2_primitive(u):
    # int_0^u phi(s) s^2 ds = sum_{k>=3} u^(k+3)/(k(k+3))
    return np.sum(np.asarray(u, float) ** (_PHI_K + 3) / (_PHI_K * (_PHI_K + 3)), axis=0)


def _theta_cells(x, w, L):
    """(u, theta, slope) of the cells of x, with w linear in the frozen-L
    time-to-origin theta on each cell.

    The label map has a cube-root cusp at the origin that a linear-in-x cell
    model cannot follow; in the time-to-origin parameter the transported
    profile is smooth, and both int x^(-2/3) w dx and int w dx stay
    elementary.  Requires x < L throughout.
    """
    u = np.minimum(np.cbrt(x / L), 1.0 - 1e-12)
    theta = 3.0 * L * _phi_of_u(u)
    dtheta = np.diff(theta)
    slope = np.where(dtheta > 0, np.diff(w) / np.where(dtheta > 0, dtheta, 1.0), 0.0)
    return u, theta, slope


def _theta_cell_integrals(x, w, Ls, n):
    """Flux integral, int x^(-2/3) w dx over the cells of each of several
    states, in the time-to-origin model: x and w join the states' nodes, n
    counts them and Ls holds one L per state."""
    u, theta, slope = _theta_cells(x, w, np.repeat(Ls, n))
    d13 = 3.0 * np.diff(np.cbrt(x))
    dphi = np.diff(_phi_primitive(u))
    # Python's pow: numpy's array pow differs from it in the last bit
    c = np.repeat([9.0 * float(l) ** (4.0 / 3.0) for l in Ls], n)[:-1]
    cells = w[:-1] * d13 + slope * (c * dphi - theta[:-1] * d13)
    # the cell joining one state's last node to the next one's origin is dropped
    return np.array([float(np.sum(cells[end - m:end - 1])) for m, end in zip(n, np.cumsum(n))])


def _theta_cell_mass(x, w, L) -> float:
    """Mass integral, int w dx over the cells of x, in the time-to-origin model."""
    u, theta, slope = _theta_cells(x, w, L)
    dx = np.diff(x)
    dpsi = np.diff(_phi_u2_primitive(u))
    return float(np.sum(w[:-1] * dx + slope * (9.0 * L * L * dpsi - theta[:-1] * dx)))


def _origin_split(pos, L):
    # survivors of the cells that get the time-parametrized model: those
    # below L/8 and the first one at or above it
    return max(min(int(np.searchsorted(pos, 0.125 * L)) + 1, len(pos)), 1)


def _flux_L(states: list, w0b: np.ndarray, L_guess: np.ndarray, far: list) -> np.ndarray:
    """``l_from_state`` at each ensemble of ``states``, with its w0b[i],
    L_guess[i] and far[i]; one ``_theta_cell_integrals`` call serves them all."""
    near, ks = np.empty(len(states)), np.ones(len(states), dtype=int)
    cells = []       # (state, x, w) of the time-to-origin cells
    for i, state in enumerate(states):
        if L_guess[i] > 0 and state.pos[0] < 0.125 * L_guess[i]:
            ks[i] = k = _origin_split(state.pos, L_guess[i])
            cells.append((i, *_augmented_state(state, w0b[i], k)))
        else:
            near[i] = cellquad.power_total(*_augmented_state(state, w0b[i], 1), -2.0 / 3.0)
    if cells:
        idx, xs, ws = map(list, zip(*cells))
        near[idx] = _theta_cell_integrals(np.concatenate(xs), np.concatenate(ws),
                                          L_guess[idx], [len(x) for x in xs])
    return np.array([((near[i] + far[i][ks[i] - 1]) / (3.0 * w0b[i])) ** 3
                     for i in range(len(states))])


def l_from_state(ens: Ensemble, w0b: float, L_guess: Optional[float] = None,
                 far: Optional[np.ndarray] = None) -> float:
    """L from the flux balance, exact per cell for the linear representative.

    With L_guess given, cells near the origin switch to the time-to-origin
    model of the integrand, which removes the cusp bias of the linear cells.
    ``far`` is ``cellquad.power_suffix(ens.pos, ens.w, -2/3)``, the x^(-2/3)
    integrals from each survivor to the last; a caller that varies only w0b
    and L_guess computes it once.  It leaves w unclipped at w0b, where the
    clip cannot bind: w0b = w0(y_b) with y_b at or below the first
    survivor's label, and w0 is nonincreasing.
    """
    if ens.n_alive == 0:
        raise ExtinctionError("no surviving characteristics")
    if far is None:
        far = cellquad.power_suffix(ens.pos, ens.w, -2.0 / 3.0)
    guess = np.array([np.nan if L_guess is None else L_guess])
    return float(_flux_L([ens], np.array([w0b]), guess, [far])[0])


_RESOLVE_CAP = 40   # fixed-point iterations before _resolve_L reports a node as not converged


def _resolve_L(states: list, L_guess, initial: SurvivalProfile):
    """Self-consistent (L, y_b, w0b) arrays at each ensemble of ``states``, by
    one fixed-point iteration from L_guess over all of them, and the number
    of ``_flux_L`` batches it took.

    A node stops once its change d, or the error bound d r/(1-r) of d and
    its contraction ratio r = d/d_prev, is below 1e-13 max(L, 1).  Each node
    leaves the batch once it stops, so it takes the iterations and values it
    would alone; nodes still moving at ``_RESOLVE_CAP`` iterations are
    reported in a ConvergenceWarning.
    """
    if any(s.n_alive == 0 for s in states):
        raise ExtinctionError("no surviving characteristics")
    L = np.array(L_guess, dtype=float)
    # only the cells next to the origin and w0b change between iterations
    far = [cellquad.power_suffix(s.pos, s.w, -2.0 / 3.0) for s in states]
    act = np.arange(len(states))
    change = np.full(len(states), np.nan)   # each node's last change; NaN fails every test
    for evals in range(1, _RESOLVE_CAP + 1):
        active = [states[i] for i in act]
        w0b = initial.w_at(_boundary_labels(active, L[act]))
        L_new = _flux_L(active, w0b, L[act], [far[i] for i in act])
        d = np.abs(L_new - L[act])
        r = d / change[act]
        floor = 1e-13 * np.maximum(L[act], 1.0)
        # the bound test d r/(1-r) < floor, false for r >= 1
        done = (d < floor) | (d * r < floor * (1.0 - r))
        L[act], change[act] = L_new, d
        act = act[~done]
        if len(act) == 0:
            break
    else:
        warnings.warn(f"_resolve_L: {len(act)} of {len(states)} nodes did not converge "
                      f"in {_RESOLVE_CAP} iterations", ConvergenceWarning, stacklevel=2)
    yb = _boundary_labels(states, L)
    return L, yb, initial.w_at(yb), evals


def _state_L(ens: Ensemble, L_guess: float) -> tuple[float, float, float]:
    """Self-consistent (L, y_b, w0b) at the ensemble's current time."""
    return tuple(float(v[0]) for v in _resolve_L([ens], [L_guess], ens.initial)[:3])


@dataclass
class PicardStats:
    iterations: int
    first_correction: float      # the first sweep's correction of the starting path
    ratios: list
    converged: bool
    stopped_on_bound: bool = False   # converged on the error bound, not a confirming sweep
    end_state: Optional[tuple] = None   # (L, y_b, w0b) the last sweep resolved at the end node
    flux_evals: int = 0          # _flux_L batches the sweeps' L-resolutions took


def _transport(ens: Ensemble, nodes: np.ndarray, path):
    """A copy of ens carried along ``path`` through the panels of ``nodes``,
    what L-resolution reads of it at each node, and the ExtinctionError of a
    node with fewer than ``EXTINCTION_FLOOR`` survivors, where it stops.

    One call of ``path`` gives L at every substep of every panel; each panel
    is one ``_advance``, and the survivors' cube root carries from one panel
    to the next."""
    ss, points = _panel_times(nodes)
    scratch = copy.copy(ens)
    moments = []
    root = None
    for panel_ss, panel_L in zip(ss.tolist(), path(points).tolist()):
        root = _advance(scratch, panel_ss, panel_L, root)
        if scratch.n_alive < EXTINCTION_FLOOR:
            return scratch, moments, ExtinctionError(
                f"survivor count fell below {EXTINCTION_FLOOR} at t={panel_ss[-1]:g}")
        moments.append(copy.copy(scratch))
    return scratch, moments, None


class NaturalSpline:
    """The natural cubic spline through (x, y), zero second derivative at both
    ends; each panel is a cubic in s - x[i], evaluated by Horner's rule, and
    the end panels' cubics extend it beyond the nodes."""

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        h, slope = np.diff(x), np.diff(y) / np.diff(x)
        # second derivatives m: zero at the ends; inside, row j of the
        # tridiagonal system is h[j], 2(h[j] + h[j+1]), h[j+1], solved by one
        # forward and one back sweep over floats (it is diagonally dominant)
        hs, rhs = h.tolist(), (6.0 * np.diff(slope)).tolist()
        diag = [2.0 * (hl + hr) for hl, hr in zip(hs, hs[1:])]
        for j in range(1, len(rhs)):
            f = hs[j] / diag[j - 1]
            diag[j] -= f * hs[j]
            rhs[j] -= f * rhs[j - 1]
        m = [0.0] * len(x)
        for j in range(len(rhs) - 1, -1, -1):
            m[j + 1] = (rhs[j] - hs[j + 1] * m[j + 2]) / diag[j]
        m = np.array(m)
        # a row per panel: its left node, then its cubic's coefficients, gathered at once
        self._panels = np.column_stack((x[:-1], np.diff(m) / (6.0 * h), 0.5 * m[:-1],
                                        slope - h * (2.0 * m[:-1] + m[1:]) / 6.0, y[:-1]))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        p = self._panels[np.searchsorted(self.x[1:-1], s, side="right")]
        t = s - p[..., 0]
        return ((p[..., 1] * t + p[..., 2]) * t + p[..., 3]) * t + p[..., 4]


def picard_solve_interval(ens: Ensemble, dt: float, L0: float, cfg: SolverConfig,
                          prior: Optional[NaturalSpline] = None
                          ) -> tuple[Ensemble, NaturalSpline, PicardStats]:
    """Resolve L(s) on [t, t+dt] by fixed-point iteration.

    The iteration starts from L == L0, or, given the accepted path ``prior``
    of the step that ended at t, from the quadratic through its values at
    the start and middle of that step and L0 at t; the first correction is
    measured from this starting path.  Each sweep transports a scratch copy
    of the ensemble through the current L path and resolves L at all
    Chebyshev nodes of the interval at once; the map is a contraction for dt
    small compared to L.  Once the error bound d_k r/(1-r) of correction d_k
    and ratio r = d_k/d_(k-1) is below tol * L0, a transport through iterate
    k's path ends the step.
    """
    j = np.arange(N_CHEB + 1)
    nodes = ens.t + dt * 0.5 * (1.0 - np.cos(np.pi * j / N_CHEB))
    L_vals = np.full(len(nodes), L0)
    if prior is not None:
        # three-point Lagrange form in z = 2(s - t)/h, with the prior's values at z = -2, -1
        h = ens.t - prior.x[0]
        a, b = prior(np.array([prior.x[0], ens.t - 0.5 * h]))
        z = 2.0 * (nodes[1:] - ens.t) / h
        warm = 0.5 * a * z * (z + 1.0) - b * z * (z + 2.0) + 0.5 * L0 * (z + 1.0) * (z + 2.0)
        if np.all(np.isfinite(warm) & (warm > 0)):
            L_vals[1:] = warm
    diffs = []
    scratch = end = None
    converged = on_bound = False
    flux_evals = 0
    for _ in range(MAX_PICARD):
        path = NaturalSpline(nodes, L_vals)
        scratch, moments, extinct = _transport(ens, nodes, path)
        resolved, yb, w0b, evals = _resolve_L(moments, path(nodes[1:len(moments) + 1]),
                                              ens.initial)
        flux_evals += evals
        # a node whose L is not positive ends the sweep before any later panel
        if not np.all(np.isfinite(resolved) & (resolved > 0)):
            break
        if extinct:
            raise extinct
        new_vals = np.concatenate(([L0], resolved))
        diff = float(np.max(np.abs(new_vals - L_vals)))
        diffs.append(diff)
        L_vals = new_vals
        if diff < cfg.tol * L0:
            converged = True
            end = (float(resolved[-1]), float(yb[-1]), float(w0b[-1]))
            break
        r = diff / diffs[-2] if len(diffs) > 1 and diffs[-2] > 0 else 1.0
        if r < 1.0 and diff * r / (1.0 - r) < cfg.tol * L0:
            path = NaturalSpline(nodes, L_vals)
            scratch, _, extinct = _transport(ens, nodes, path)
            if extinct:
                raise extinct
            converged = on_bound = True
            break
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]
    stats = PicardStats(iterations=len(diffs), first_correction=diffs[0] if diffs else 0.0,
                        ratios=ratios, converged=converged, stopped_on_bound=on_bound,
                        end_state=end, flux_evals=flux_evals)
    return scratch, path if on_bound else NaturalSpline(nodes, L_vals), stats


@dataclass
class Snapshot:
    t: float
    tau: float
    labels: np.ndarray
    pos: np.ndarray
    w: np.ndarray
    y_b: float
    w0b: float
    L: float
    Lambda: float
    jac: np.ndarray     # dx/dy at the surviving nodes

    def profile(self) -> SurvivalProfile:
        return SurvivalProfile(*_augmented_state(self, self.w0b))


@dataclass
class CoarseningTrace:
    t: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    L: list = field(default_factory=list)
    Lambda: list = field(default_factory=list)
    E: list = field(default_factory=list)
    beta0: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    gamma: list = field(default_factory=list)

    def as_arrays(self) -> dict:
        return {k: np.array(getattr(self, k)) for k in
                ("t", "tau", "L", "Lambda", "E", "beta0", "mass", "gamma")}

    def save(self, path: str | Path) -> None:
        write_csv(path, "t,tau,L,Lambda,E,beta0,mass,gamma",
                  (self.t, self.tau, self.L, self.Lambda, self.E, self.beta0, self.mass, self.gamma))


@dataclass
class RunResult:
    trace: CoarseningTrace
    snapshots: list
    ensemble: Ensemble
    picard: list                 # PicardStats per accepted global step
    terminated: str = "t_final"


def _record(trace: CoarseningTrace, ens: Ensemble, L: float, yb: float, w0b: float) -> None:
    x, w = _augmented_state(ens, w0b)
    # the tail beyond the last survivor stretches with the label-map Jacobian
    tail = ens.initial.tail_mass * (float(ens.jac[-1]) if len(ens.jac) else 1.0)
    if ens.n_alive and ens.pos[0] < 0.125 * L:
        k = _origin_split(ens.pos, L)
        near = _theta_cell_mass(x[:k + 1], w[:k + 1], L)
        mass = near + float(np.trapezoid(w[k:], x[k:])) + tail
    else:
        mass = float(np.trapezoid(w, x)) + tail
    lam = mass / w0b
    energy = (2.0 / 3.0) * cellquad.power_total(x, w, -1.0 / 3.0)
    # slope of the label map at the origin: reciprocal of the transported
    # Jacobian; one-sided differences are useless here because dF/dx has a
    # cube-root cusp inherited from the drift gradient
    fp0 = 1.0 / boundary_jacobian(ens, L)
    h0b = float(ens.initial.h_at(yb))
    beta_origin = float(ens.beta0(yb)) * fp0 * mass / h0b if h0b > 0 else 0.0
    if trace.t:
        dtau = (ens.t - trace.t[-1]) * 0.5 * (1.0 / lam + 1.0 / trace.Lambda[-1])
        tau = trace.tau[-1] + dtau
    else:
        tau = 0.0
    trace.t.append(ens.t)
    trace.tau.append(tau)
    trace.L.append(L)
    trace.Lambda.append(lam)
    trace.E.append(energy)
    trace.beta0.append(beta_origin)
    trace.mass.append(mass)
    trace.gamma.append(lam / L)


def advance_global(profile: SurvivalProfile, t_final: float,
                   cfg: SolverConfig = SolverConfig(),
                   beta0: Optional[Callable] = None,
                   snapshot_times: tuple = ()) -> RunResult:
    """Evolve to t_final with steps dt = delta * L, Picard-resolving each."""
    ens = make_ensemble(profile, beta0)
    trace = CoarseningTrace()
    snapshots: list[Snapshot] = []
    picard_log: list[PicardStats] = []
    L, yb, w0b = _state_L(ens, l_from_state(ens, profile.w0))
    _record(trace, ens, L, yb, w0b)
    pending = sorted(snapshot_times)
    terminated = "t_final"

    def maybe_snapshot():
        nonlocal pending
        while pending and ens.t >= pending[0] - 1e-12:
            snapshots.append(Snapshot(
                t=ens.t, tau=trace.tau[-1], labels=ens.labels.copy(),
                pos=ens.pos.copy(), w=ens.w.copy(), y_b=yb, w0b=w0b,
                L=L, Lambda=trace.Lambda[-1], jac=ens.jac.copy(),
            ))
            pending = pending[1:]

    maybe_snapshot()
    prior = None
    while ens.t < t_final - 1e-12:
        dt = min(cfg.delta * L, t_final - ens.t)
        try:
            for _ in range(MAX_HALVINGS + 1):
                advanced, path, stats = picard_solve_interval(ens, dt, L, cfg, prior)
                if stats.converged:
                    break
                dt *= 0.5
            else:
                terminated = "picard_failure"
                break
        except ExtinctionError:
            terminated = "extinction"
            break
        ens, prior = advanced, path
        picard_log.append(stats)
        # a step that stopped on the bound returns a transport nothing has resolved
        L, yb, w0b = _state_L(ens, L) if stats.stopped_on_bound else stats.end_state
        _record(trace, ens, L, yb, w0b)
        maybe_snapshot()
    return RunResult(trace=trace, snapshots=snapshots, ensemble=ens,
                     picard=picard_log, terminated=terminated)


# ---------------------------------------------------------------------------
# diagnostics on traces and snapshots


def mass_drift(trace: CoarseningTrace) -> float:
    """Largest relative deviation of the recorded mass from its initial value."""
    m = np.array(trace.mass)
    return float(np.max(np.abs(m - m[0])) / m[0])


IDENTITY_FLOOR = 1e-8   # least |beta(0,t)| an identity error is taken relative to


def coarsening_identity_check(trace: CoarseningTrace) -> dict:
    """Centered-difference d(Lambda)/dt against the recorded beta(0,t).

    Serves the full solver and the affine model, which record the same trace.
    The denominator floor ``IDENTITY_FLOOR`` keeps the relative error
    meaningful for stationary data where both sides vanish identically.
    """
    a = trace.as_arrays()
    t, lam, b = a["t"], a["Lambda"], a["beta0"]
    if len(t) < 3:
        raise ValueError("trace too short")
    dl = (lam[2:] - lam[:-2]) / (t[2:] - t[:-2])
    bmid = b[1:-1]
    rel = np.abs(dl - bmid) / np.maximum(np.abs(bmid), IDENTITY_FLOOR)
    return {
        "max_rel_error": float(np.max(rel)),
        "frac_within_2pct": float(np.mean(rel <= 0.02)),
        "rel_errors": rel,
        "t_mid": t[1:-1],
    }


def beta_along_flow(snap: Snapshot, initial: SurvivalProfile,
                    beta0: Callable) -> tuple[BetaProfile, BetaProfile]:
    """beta(.,t) via the transported form and via direct differentiation.

    Transported form: beta(x,t) = beta0(F(x,t)) * dF/dx * h(x,t) / h0(F(x,t)),
    with F the label map and h the current tail mass.
    """
    x, w = _augmented_state(snap, snap.w0b)
    y = np.concatenate(([snap.y_b], snap.labels))
    # dF/dx is the reciprocal of the transported Jacobian dx/dy at the
    # survivors; a difference quotient over their gaps, as small as ~1e-8,
    # would read position rounding.  The origin keeps a one-sided quotient.
    fp = np.concatenate((derivative_nonuniform(x[:3], y[:3])[:1], 1.0 / snap.jac))
    # the analytic tail beyond the last survivor is the initial tail mass
    # stretched by the local Jacobian dx/dy of the label map
    j_end = float(snap.jac[-1]) if len(snap.jac) else 1.0
    h_cur = cellquad.linear_suffix(x, w) + initial.tail_mass * j_end
    h0 = initial.h_at(y)
    ok = h0 > 0
    vals = np.where(ok, beta0(y) * fp * h_cur / np.where(ok, h0, 1.0), 0.0)
    # masked where the direct estimate is, so the two compare on one node set
    transported = BetaProfile(grid=x, values=vals, support_end=float(x[-1]),
                              low_confidence=low_confidence_mask(x))
    direct = beta_from_profile(snap.profile())
    return transported, direct


def g_profile(snap: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """The damping rate g(x,t) of the beta transport equation at survivor nodes.

    g = (1/(3 L^(1/3))) [x^(-2/3) - int_x x'^(-2/3) w / int_x w]; nonnegative
    because the kernel is decreasing.
    """
    x, w = snap.pos, np.minimum(snap.w, snap.w0b)
    S = cellquad.power_suffix(x, w, -2.0 / 3.0)
    H = cellquad.linear_suffix(x, w)
    ok = H > 0
    g = np.where(ok, x ** (-2.0 / 3.0) - S / np.where(ok, H, 1.0), 0.0)
    g = g / (3.0 * np.cbrt(snap.L))
    return x[ok], g[ok]


def normalized_view(snap: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """(y, w*) with y = x/Lambda and w* = Lambda * w; w*(0) = mass."""
    x, w = _augmented_state(snap, snap.w0b)
    return x / snap.Lambda, snap.Lambda * w


def dyadic_intervals(y: np.ndarray, w_star: np.ndarray, n_levels: int = 14) -> np.ndarray:
    """Lengths |I_N| between the levels where w* falls through 2^(-N).

    Returns NaN where a level is unresolved by the data.
    """
    w0 = w_star[0]
    out = np.full(n_levels, np.nan)
    levels = w0 * 2.0 ** (-np.arange(n_levels + 1, dtype=float))
    ys = np.interp(-levels, -w_star, y, left=np.nan, right=np.nan)
    for n in range(n_levels):
        if np.isfinite(ys[n]) and np.isfinite(ys[n + 1]):
            out[n] = ys[n + 1] - ys[n]
    return out


def dyadic_report(snaps: list) -> dict:
    """Interval lengths and adjacent ratios per snapshot, in rescaled time."""
    rows = []
    for snap in snaps:
        y, ws = normalized_view(snap)
        lens = dyadic_intervals(y, ws)
        rows.append({"tau": snap.tau, "lengths": lens,
                     "ratios": lens[:-1] / lens[1:]})
    return {"snapshots": rows}

