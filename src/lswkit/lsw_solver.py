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
ensemble arrays and never writes into them, so shallow copies, and the views
of the survivors an exit leaves, are safe.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import cellquad
from .errors import ConvergenceWarning, ExtinctionError, require_setting
from .profiles import (
    SurvivalProfile, BetaProfile, beta_from_profile, beta_interpolant, derivative_nonuniform,
    low_confidence_mask, write_csv,
)


def drift(x, L):
    v = np.cbrt(np.asarray(x, float) / L)
    v -= 1.0
    return v


def _phi_of_u(u):
    # time-to-origin integrand antiderivative, in units of 3L; one expression,
    # as in place it is no faster on the few hundred entries of a descent and
    # slower on the scalars and one-entry arrays of the boundary readers
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


def _halley_step(f, u, half):
    """Halley's step f / (phi' - f phi''/(2 phi')) on phi(u) - target = f,
    both sides times u(1-u), with half = u/2: in place, the operations of
    f * u * (1 - u) / (u * u * u - f * (1 - half))."""
    step = f * u
    step *= 1.0 - u
    den = u * u
    den *= u
    tmp = 1.0 - half
    tmp *= f
    den -= tmp
    step /= den
    return step


def _analytic_descent(u, L, ds):
    """Advance the survivors at u = (x/L)^(1/3) < 1, in increasing order, by
    ds with L frozen, by inverting the exit-time map; returns (m, early, u'):
    the first m entries reach the origin within ds, the last of them
    ``early`` before its end (0.0 when m is 0), and u' holds the new roots
    of the rest.

    Exact for frozen L.  An entry exits within ds exactly when its target
    phi(u) - ds/(3L) is <= 0; the exit time grows with u, so the exits lead,
    and the cut runs through the last entry whose target is <= 0 (where
    phi is rounding, near x ~ 1e-24 L, it takes the entries between scattered
    exits too).  Halley steps on phi(u') = target start from the tabulated
    inverse of s = cbrt(3 phi), read at s = cbrt(3*target), which one step
    makes exact to rounding; the first step is taken without a test, and
    each entry stops once its residual is within the rounding floor of
    ``_phi_of_u``, or keeps moving if its residual is NaN.  An entry whose
    root or start lies below ``_TINY_ROOT`` takes no step out of [0, 1).
    Entries still moving after the iteration cap are reported in a
    ConvergenceWarning.
    """
    c = ds / (3.0 * L)
    target = _phi_of_u(u)
    target -= c
    exits = (target <= 0.0).nonzero()[0]
    m, early = 0, 0.0
    if len(exits):
        m = int(exits[-1]) + 1
        early = -3.0 * L * float(target[m - 1])
        u, target = u[m:], target[m:]
    s = 3.0 * target
    np.cbrt(s, out=s)
    start = np.interp(s, _INVERSE_S, _INVERSE_RATIO)
    start *= s
    # below _TINY_ROOT phi cancels: a root there does not read its start from
    # the table, and a start there can face a target under the rounding of
    # phi, where a Halley step can throw it far out of [0, 1)
    low = np.minimum(u, start) < _TINY_ROOT
    guard = None
    if low.any():
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
        # these entries take only the steps that keep them inside [0, 1)
        guard = low.nonzero()[0]
    un = start
    moving = np.ones(len(un), bool)
    for i in range(_HALLEY_CAP):
        phi = _phi_of_u(un)
        f = phi - target
        half = 0.5 * un
        if i:
            # |log1p(-u)| = phi + u + u^2/2; a NaN residual keeps moving.
            # The bound _PHI_FLOOR * (phi + un * (2 + half)), in place
            bound = half + 2.0
            bound *= un
            bound += phi
            bound *= _PHI_FLOOR
            moving &= ~(np.abs(f, out=phi) <= bound)
            if not moving.any():
                break
        step = _halley_step(f, un, half)
        if guard is not None:
            sg, ug = step[guard], un[guard]
            step[guard] = np.where((sg <= ug) & (sg > ug - 1.0), sg, 0.0)
        if i:
            np.subtract(un, step, out=un, where=moving)
        else:
            un -= step
    else:
        warnings.warn(f"_analytic_descent: {int(np.count_nonzero(moving))} of {len(un)} "
                      f"entries did not converge in {_HALLEY_CAP} Halley iterations",
                      ConvergenceWarning, stacklevel=2)
    return m, early, un


def _rk4(x, r, ds, L_a, L_mid, L_b):
    """One RK4 step of length ds from x, whose root (x/L_mid)^(1/3) is r;
    returns the new positions and their roots at L_mid."""
    # the first stage's root at L_a is r rescaled
    k1 = r * (L_mid / L_a) ** (1.0 / 3.0)
    k1 -= 1.0
    # the stages read the drift at x + (ds/2) k1, x + (ds/2) k2 and x + ds k3
    y = k1 * (0.5 * ds)
    y += x
    k2 = drift(y, L_mid)
    np.multiply(k2, 0.5 * ds, out=y)
    y += x
    k3 = drift(y, L_mid)
    np.multiply(k3, ds, out=y)
    y += x
    k4 = drift(y, L_b)
    # x + (ds / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= ds / 6.0
    k2 += x
    root = k2 / L_mid
    return k2, np.cbrt(root, out=root)


@dataclass
class SolverConfig:
    delta: float = 0.05          # step length as a fraction of the current L
    tol: float = 1e-8            # Picard tolerance relative to L

    def __post_init__(self):
        require_setting("delta", self.delta)
        require_setting("tol", self.tol)


MAX_PICARD = 50         # sweeps before a step counts as not converged
N_CHEB = 3              # Chebyshev panels per Picard interval
NSUB = 3                # integrator substeps per panel
EXTINCTION_FLOOR = 16   # a run stops when fewer survivors are left
MAX_HALVINGS = 6        # step halvings before a run ends as a Picard failure
ORIGIN_FRACTION = 0.125  # survivors below this times L get the time-to-origin cell model


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

    def shallow_copy(self) -> Ensemble:
        """``copy.copy`` without its dispatch: the copy shares the arrays."""
        out = object.__new__(type(self))
        out.__dict__ = self.__dict__.copy()
        return out


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
    return np.maximum(np.abs(1.0 - np.cbrt(np.asarray(x, float) / L)), 1e-12)


def _lagrange_weights(x, s) -> np.ndarray:
    """The Lagrange basis of the nodes x at the points s, node axis first: a
    product over the other nodes in node order, so a point at node j reads
    exactly row j of the identity."""
    return np.array([math.prod([(s - xk) / (xj - xk) for xk in x if xk != xj], start=1.0) for xj in x])


def _contract(w, y):
    """sum_j w[j] y[j], one node at a time in node order: no bit depends on
    BLAS or on w's shape, and a unit row gives its node's y exactly."""
    out = w[0] * y[0]
    for wj, yj in zip(w[1:], y[1:]):
        out = out + wj * yj
    return out


_Layout = namedtuple("_Layout", "nodes ends sub mid")


@functools.cache
def _layout(n_cheb: int, nsub: int) -> _Layout:
    """What n_cheb Chebyshev panels of nsub substeps fix in every Picard step,
    in fractions of the step: the nodes, each panel's substep ends (its first
    and last are its nodes), and the nodes' Lagrange weights at each
    substep's (start, middle, end) and at the step's middle."""
    f = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_cheb + 1) / n_cheb))
    ends = np.linspace(f[:-1], f[1:], nsub + 1, axis=1)
    start, end = ends[:, :-1], ends[:, 1:]
    points = np.stack((start, start + 0.5 * (end - start), end), axis=-1)
    return _Layout(f, ends, _lagrange_weights(f, points), _lagrange_weights(f, 0.5))


def _advance(ens: Ensemble, ss: list, L_sub: list, root: Optional[tuple] = None) -> tuple:
    """March survivors through the substeps between the times ``ss`` of one
    panel, cutting off the exits; ``L_sub`` holds (L_a, L_mid, L_b), L at the
    start, middle and end of each substep.

    ``root`` is the pair (r, L) with r = (pos/L)^(1/3), carried from the
    panel before; it is computed afresh when None.  Returns the pair at the
    panel's end, so each substep rescales the root by a scalar instead of
    taking a cube root of every survivor."""
    for a, b, (L_a, L_mid, L_b) in zip(ss[:-1], ss[1:], L_sub):
        ds = b - a
        ens.t = b
        x = ens.pos
        if root is None:
            r = np.cbrt(x / L_mid)
        else:
            r = root[0] * (root[1] / L_mid) ** (1.0 / 3.0)
        root = r, L_mid
        if len(x) == 0:
            continue
        # positions increase, so the descent's share is a prefix: x < 0.9 L_mid,
        # widened over every survivor that can reach the origin within ds,
        # whose root is below 1 - exp(-1.5 - ds/(3 L_mid)) as phi(u) > -log(1 - u) - 1.5
        low = int(x.searchsorted(L_mid * max(0.9, -math.expm1(-1.5 - ds / (3.0 * L_mid)) ** 3)))
        if low:
            cut, early, u = _analytic_descent(r[:low], L_mid, ds)
            if cut:
                # the exits are the leading survivors; the last one is kept,
                # and as |v| = 1 at the origin, J there is J / |v(x)|
                ens.exit_t, ens.exit_y = max(b - early, a), float(ens.labels[cut - 1])
                ens.exit_jac = float(ens.jac[cut - 1] / (1.0 - r[cut - 1]))
                ens.labels, ens.w, ens.jac = ens.labels[cut:], ens.w[cut:], ens.jac[cut:]
                x, r, low = x[cut:], r[cut:], low - cut
            out, r_out = np.empty_like(x), np.empty_like(x)
            r_out[:low] = u
            np.power(u, 3, out=out[:low])
            out[:low] *= L_mid
            if low < len(x):
                out[low:], r_out[low:] = _rk4(x[low:], r[low:], ds, L_a, L_mid, L_b)
        else:
            out, r_out = _rk4(x, r, ds, L_a, L_mid, L_b)
        # |1 - u'| / |1 - u| along the frozen-L flow, in a form that does not
        # cancel at u = 1: exp(ds / (3 L_mid) - 0.5 * (r_out - r) * (r_out + r + 2)),
        # in place
        ratio = r_out - r
        ratio *= 0.5
        tmp = r_out + r
        tmp += 2.0
        ratio *= tmp
        np.subtract(ds / (3.0 * L_mid), ratio, out=ratio)
        np.exp(ratio, out=ratio)
        ens.jac = np.multiply(ens.jac, ratio, out=ratio)
        ens.pos = out
        root = r_out, L_mid
    return root


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


# the series of _phi_u2_primitive runs over k = 3..60, that of _phi_primitive
# over k = 3..28: on u < 1/4 each later term is below half an ulp of the sum,
# 12/(k(k+1)) 4^(3-k) < 2^-54 of its first term, so adding them in order
# would change no bit
_PHI_K = np.arange(3, 61).reshape(-1, 1)
_PHI_POW, _PHI_DEN = _PHI_K[:26] + 1, _PHI_K[:26] * (_PHI_K[:26] + 1)   # k = 3..28


def _phi_primitive(u):
    # int_0^u phi(s) ds = sum_{k>=3} u^(k+1)/(k(k+1)); closed form cancels
    # below u = 0.25, so switch to the series there
    u = np.asarray(u, float)
    out = np.empty_like(u)
    small = u < 0.25
    big = ~small
    us, ub = u[small], u[big]
    out[small] = (us ** _PHI_POW / _PHI_DEN).sum(axis=0)
    # finite for u < 1, which _theta_cells ensures
    out[big] = -ub**3 / 6 - ub**2 / 2 + ub + (1.0 - ub) * np.log1p(-ub)
    return out


def _phi_u2_primitive(u):
    # int_0^u phi(s) s^2 ds = sum_{k>=3} u^(k+3)/(k(k+3))
    return (np.asarray(u, float) ** (_PHI_K + 3) / (_PHI_K * (_PHI_K + 3))).sum(axis=0)


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
    dtheta = theta[1:] - theta[:-1]
    rising = dtheta > 0
    slope = np.where(rising, (w[1:] - w[:-1]) / np.where(rising, dtheta, 1.0), 0.0)
    return u, theta, slope


def _theta_cell_integrals(x, w, Ls, n):
    """Flux integral, int x^(-2/3) w dx over the cells of each of several
    states, in the time-to-origin model: x and w join the states' nodes, n
    counts them and Ls holds one L per state."""
    Ls = np.asarray(Ls, dtype=float)
    u, theta, slope = _theta_cells(x, w, Ls.repeat(n))
    r, phi = np.cbrt(x), _phi_primitive(u)
    d13 = 3.0 * (r[1:] - r[:-1])
    dphi = phi[1:] - phi[:-1]
    # Python's pow: numpy's array pow differs from it in the last bit
    c = np.array([9.0 * l ** (4.0 / 3.0) for l in Ls.tolist()]).repeat(n)[:-1]
    cells = w[:-1] * d13 + slope * (c * dphi - theta[:-1] * d13)
    # the cell joining one state's last node to the next one's origin is
    # dropped; each state's cells are summed as they would be alone
    # (np.add.reduceat adds them in another order)
    ends = itertools.accumulate(n)
    return np.array([cells[end - m:end - 1].sum() for m, end in zip(n, ends)])


def _theta_cell_mass(x, w, L) -> float:
    """Mass integral, int w dx over the cells of x, in the time-to-origin model."""
    u, theta, slope = _theta_cells(x, w, L)
    dx = x[1:] - x[:-1]
    psi = _phi_u2_primitive(u)
    return float((w[:-1] * dx + slope * (9.0 * L * L * (psi[1:] - psi[:-1]) - theta[:-1] * dx)).sum())


def _origin_split(pos, L) -> int:
    """Survivors whose cells get the time-to-origin model at L: those below
    ORIGIN_FRACTION * L and the first one at or above it; 0, a linear head
    cell, when none lies below or L is not positive."""
    j = int(pos.searchsorted(ORIGIN_FRACTION * L)) if L > 0 else 0
    return min(j + 1, len(pos)) if j else 0


def _boundary_labels(states: list, L: np.ndarray) -> np.ndarray:
    """Label arriving at x = 0 in each of ``states`` at its L, by exit-time
    interpolation between the last exit and the first survivor's."""
    t, x1, y1, t0, y0 = np.array([(s.t, s.pos[0], s.labels[0], s.exit_t, s.exit_y)
                                  for s in states]).reshape(-1, 5).T
    t1 = t + exit_time_frozen(x1, L)
    ok = np.isfinite(t1) & (t1 > t0)
    return np.where(ok, y0 + (y1 - y0) * (t - t0) / np.where(ok, t1 - t0, 1.0), y0)


def _flux_L(states: list, w0b: np.ndarray, L_guess: np.ndarray) -> np.ndarray:
    """``l_from_state`` at each of ``states``, with its w0b[i] and L_guess[i].

    A state splits at k = ``_origin_split(pos, L_guess)``: time-to-origin
    cells over the origin and its first k survivors, one
    ``_theta_cell_integrals`` call for every state that has them, and linear
    cells from survivor k - 1 on, the far field, one ``cellquad.power_total``
    with w unclipped at w0b, where the clip cannot bind: w0b = w0(y_b) with
    y_b at or below the first survivor's label, and w0 is nonincreasing.  A
    state with k = 0 is linear throughout, one ``power_total`` over its
    augmented state.
    """
    ks = [_origin_split(s.pos, l) for s, l in zip(states, L_guess.tolist())]
    far = np.empty(len(states))
    for i, (s, k) in enumerate(zip(states, ks)):
        x, w = (s.pos[k - 1:], s.w[k - 1:]) if k else _augmented_state(s, w0b[i])
        far[i] = cellquad.power_total(x, w, -2.0 / 3.0)
    near = np.zeros(len(states))
    th = [i for i, k in enumerate(ks) if k]
    if th:
        xs, ws = zip(*(_augmented_state(states[i], w0b[i], ks[i]) for i in th))
        near[th] = _theta_cell_integrals(np.concatenate(xs), np.concatenate(ws), L_guess[th],
                                         [ks[i] + 1 for i in th])
    return ((near + far) / (3.0 * w0b)) ** 3


def l_from_state(ens: Ensemble, w0b: float, L_guess: Optional[float] = None) -> float:
    """L from the flux balance, exact per cell for the linear representative.

    With L_guess given, cells near the origin switch to the time-to-origin
    model of the integrand, which removes the cusp bias of the linear cells.
    """
    if ens.n_alive == 0:
        raise ExtinctionError("no surviving characteristics")
    guess = np.array([np.nan if L_guess is None else L_guess])
    return float(_flux_L([ens], np.array([w0b]), guess)[0])


_RESOLVE_CAP = 40   # fixed-point iterations before _state_L reports no convergence


def _state_L(ens: Ensemble, L_guess: float, L_from: Optional[float] = None) -> tuple:
    """Self-consistent (L, y_b, w0b) at the ensemble's current time, by
    fixed-point iteration of the flux balance from L_guess, and the number
    of ``l_from_state`` evaluations it took.

    Given ``L_from``, L_guess is the flux balance's value at L_from: the
    first iteration, taken without evaluating it again.  The iteration stops
    once its change d, or the error bound d r/(1-r) of d and its contraction
    ratio r = d/d_prev, is below 1e-13 max(L, 1), with L the value d moved
    from; one still moving after ``_RESOLVE_CAP`` iterations is reported in
    a ConvergenceWarning.
    """
    def labels(L):
        return _boundary_labels([ens], np.array([L]))

    L, new = (L_guess, None) if L_from is None else (L_from, L_guess)
    change, evals = math.nan, 0   # NaN: the first change has no ratio
    for _ in range(_RESOLVE_CAP):
        if new is None:
            new = l_from_state(ens, ens.initial.w_at(labels(L))[0], L)
            evals += 1
        d = abs(new - L)
        r = d / change
        floor = 1e-13 * max(L, 1.0)
        L, new, change = new, None, d
        # the bound test d r/(1-r) < floor, false for r >= 1
        if d < floor or d * r < floor * (1.0 - r):
            break
    else:
        warnings.warn(f"_state_L: L at t={ens.t:g} did not converge in {_RESOLVE_CAP} iterations",
                      ConvergenceWarning, stacklevel=2)
    yb = labels(L)
    return float(L), float(yb[0]), float(ens.initial.w_at(yb)[0]), evals


@dataclass
class PicardStats:
    iterations: int
    first_correction: float      # the first sweep's correction of the starting path
    ratios: list
    converged: bool
    stopped_on_bound: bool = False   # converged on the error bound, not a confirming sweep
    end_state: Optional[tuple] = None   # (L, y_b, w0b) at the end node of a converged step
    flux_evals: int = 0          # flux evaluations: one per sweep, plus the end node's _state_L ones


def _transport(ens: Ensemble, dt: float, L_vals: np.ndarray):
    """A copy of ens carried through the panels of the step [t, t + dt] along
    the path with values ``L_vals`` at its nodes, a copy of it at each node
    for the flux balance to read, and the ExtinctionError of a node with
    fewer than ``EXTINCTION_FLOOR`` survivors, where it stops.

    The substep times and the path's values there are read off the layout's
    table; each panel is one ``_advance``, and the survivors' cube root
    carries from one panel to the next."""
    lay = _layout(N_CHEB, NSUB)
    scratch = ens.shallow_copy()
    moments = []
    root = None
    L_sub = _contract(lay.sub, L_vals.tolist())
    for panel_ss, panel_L in zip((ens.t + dt * lay.ends).tolist(), L_sub.tolist()):
        root = _advance(scratch, panel_ss, panel_L, root)
        if scratch.n_alive < EXTINCTION_FLOOR:
            return scratch, moments, ExtinctionError(
                f"survivor count fell below {EXTINCTION_FLOOR} at t={panel_ss[-1]:g}")
        moments.append(scratch.shallow_copy())
    return scratch, moments, None


# L on the Picard step [t, t + dt]: the polynomial through ``values`` at the
# layout's nodes t + dt * nodes, read anywhere through ``_lagrange_weights``
PicardPath = namedtuple("PicardPath", "t dt values")


def picard_solve_interval(ens: Ensemble, dt: float, L0: float, cfg: SolverConfig,
                          prior: Optional[PicardPath] = None
                          ) -> tuple[Ensemble, PicardPath, PicardStats]:
    """Resolve L(s) on [t, t+dt] by fixed-point iteration on the polynomial
    path through L at the interval's Chebyshev nodes.

    The iteration starts from L == L0, or, given the accepted path ``prior``
    of the step that ended at t, from the quadratic through its values at
    the start and middle of that step and L0 at t; the first correction is
    measured from this starting path.  Each sweep transports a scratch copy
    of the ensemble through the current L path and evaluates the flux
    balance once at every Chebyshev node of the interval, at the w0b of the
    label its path value reads there, so path and L converge together; the
    map is a contraction for dt small compared to L.  A sweep whose
    correction is below tol * L0 ends the step, and ``_state_L`` resolves
    its end node with that sweep's evaluation there as its first iteration.
    Once the error bound d_k r/(1-r) of correction d_k and ratio
    r = d_k/d_(k-1) is below tol * L0, a transport through iterate k's path
    ends the step instead, and ``_state_L`` resolves its end node from the
    path's end value.
    """
    lay = _layout(N_CHEB, NSUB)
    L_vals = np.full(len(lay.nodes), L0)
    if prior is not None:
        # the quadratic in (s - t) / prior.dt through the prior's start, its middle and L0
        knots = np.array([prior.values[0], _contract(lay.mid, prior.values), L0])
        warm = _contract(_lagrange_weights((-1.0, -0.5, 0.0), lay.nodes[1:] * (dt / prior.dt)), knots)
        if (np.isfinite(warm) & (warm > 0)).all():
            L_vals[1:] = warm
    diffs = []
    converged = on_bound = False
    flux_evals = 0
    for _ in range(MAX_PICARD):
        scratch, moments, extinct = _transport(ens, dt, L_vals)
        guess = L_vals[1:len(moments) + 1]
        resolved = _flux_L(moments, ens.initial.w_at(_boundary_labels(moments, guess)), guess)
        flux_evals += 1
        # a node whose L is not positive ends the sweep before any later panel
        if not (np.isfinite(resolved) & (resolved > 0)).all():
            break
        if extinct:
            raise extinct
        new_vals = np.concatenate(([L0], resolved))
        diff = float(np.abs(new_vals - L_vals).max())
        diffs.append(diff)
        L_vals = new_vals
        if diff < cfg.tol * L0:
            converged = True
            break
        r = diff / diffs[-2] if len(diffs) > 1 and diffs[-2] > 0 else 1.0
        if r < 1.0 and diff * r / (1.0 - r) < cfg.tol * L0:
            converged = on_bound = True
            break
    if on_bound:
        scratch, _, extinct = _transport(ens, dt, L_vals)
        if extinct:
            raise extinct
    if converged:
        # a plain stop's last sweep evaluated the end node at guess[-1]
        *end, evals = _state_L(scratch, L_vals[-1], None if on_bound else guess[-1])
        flux_evals += evals
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]
    stats = PicardStats(iterations=len(diffs), first_correction=diffs[0] if diffs else 0.0,
                        ratios=ratios, converged=converged, stopped_on_bound=on_bound,
                        end_state=tuple(end) if converged else None,
                        flux_evals=flux_evals)
    return scratch, PicardPath(ens.t, dt, L_vals), stats


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
        return {f.name: np.array(getattr(self, f.name)) for f in fields(self)}

    def append(self, **row) -> None:
        """Add one row, given as a value for every column."""
        for f in fields(self):
            getattr(self, f.name).append(row[f.name])

    def save(self, path: str | Path) -> None:
        names = [f.name for f in fields(self)]
        write_csv(path, ",".join(names), [getattr(self, k) for k in names])


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
    k = _origin_split(ens.pos, L)
    # the trapezoid rule over the cells from node k on, as np.trapezoid sums it
    cells = w[k + 1:] + w[k:-1]
    cells *= x[k + 1:] - x[k:-1]
    cells /= 2.0
    mass = float(cells.sum())
    if k:
        mass = _theta_cell_mass(x[:k + 1], w[:k + 1], L) + mass
    mass += tail
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
    trace.append(t=ens.t, tau=tau, L=L, Lambda=lam, E=energy, beta0=beta_origin, mass=mass,
                 gamma=lam / L)


def advance_global(profile: SurvivalProfile, t_final: float,
                   cfg: SolverConfig = SolverConfig(),
                   beta0: Optional[Callable] = None,
                   snapshot_times: tuple = ()) -> RunResult:
    """Evolve to t_final with steps dt = delta * L, Picard-resolving each."""
    require_setting("t_final", t_final, ">=")
    ens = make_ensemble(profile, beta0)
    trace = CoarseningTrace()
    snapshots: list[Snapshot] = []
    picard_log: list[PicardStats] = []
    pending = sorted(snapshot_times)
    terminated = "t_final"
    prior = None
    L, yb, w0b, _ = _state_L(ens, l_from_state(ens, profile.w0))
    while True:
        # the state at t = 0 or at the end of an accepted step
        _record(trace, ens, L, yb, w0b)
        while pending and ens.t >= pending[0] - 1e-12:
            snapshots.append(Snapshot(
                t=ens.t, tau=trace.tau[-1], labels=ens.labels.copy(),
                pos=ens.pos.copy(), w=ens.w.copy(), y_b=yb, w0b=w0b,
                L=L, Lambda=trace.Lambda[-1], jac=ens.jac.copy(),
            ))
            pending.pop(0)
        if ens.t >= t_final - 1e-12:
            break
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
        L, yb, w0b = stats.end_state
    return RunResult(trace=trace, snapshots=snapshots, ensemble=ens,
                     picard=picard_log, terminated=terminated)


# ---------------------------------------------------------------------------
# diagnostics on traces and snapshots


def mass_drift(trace: CoarseningTrace) -> float:
    """Largest relative deviation of the recorded mass from its initial value."""
    m = np.array(trace.mass)
    return float(np.max(np.abs(m - m[0])) / m[0])


IDENTITY_FLOOR = 1e-8   # least |beta(0,t)| an identity error is taken relative to


def coarsening_identity_check(trace: CoarseningTrace) -> np.ndarray:
    """Relative errors of the centered-difference d(Lambda)/dt against the
    recorded beta(0,t), one per interior trace row.

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
    return np.abs(dl - bmid) / np.maximum(np.abs(bmid), IDENTITY_FLOOR)


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
    levels = w0 * 2.0 ** (-np.arange(n_levels + 1, dtype=float))
    return np.diff(np.interp(-levels, -w_star, y, left=np.nan, right=np.nan))


def dyadic_report(snaps: list) -> dict:
    """Interval lengths and adjacent ratios per snapshot, in rescaled time."""
    rows = []
    for snap in snaps:
        y, ws = normalized_view(snap)
        lens = dyadic_intervals(y, ws)
        rows.append({"tau": snap.tau, "lengths": lens,
                     "ratios": lens[:-1] / lens[1:]})
    return {"snapshots": rows}

