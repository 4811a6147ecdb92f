"""Characteristic-ensemble solver for the coarsening transport system.

The survival function obeys a transport equation whose characteristics
satisfy dx/ds = -[1 - (x/L(s))^(1/3)], with the nonlocal parameter L fixed
by the flux balance L^(1/3) = (1/3) int x^(-2/3) w dx / w(0,t).  Values of w
ride the characteristics unchanged, so the state is a label/position pair
per characteristic; L over each short interval is resolved by fixed-point
iteration on the path L(s), which is a contraction for small enough steps.

Characteristics reaching x = 0 are dissolving clusters; their labels and
exit times are logged, and the label currently arriving at the origin
reconstructs w(0,t) and hence the mean cluster volume Lambda = mass/w(0,t).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import cellquad
from .errors import ExtinctionError
from .profiles import (
    SurvivalProfile, BetaProfile, beta_from_profile, beta_interpolant, derivative_nonuniform,
    low_confidence_mask, write_csv,
)


def drift(x, L):
    return -(1.0 - np.cbrt(np.asarray(x, float) / L))


def _phi_of_u(u):
    # time-to-origin integrand antiderivative, in units of 3L
    return -0.5 * u * u - u - np.log1p(-u)


_EPS = np.finfo(float).eps
_NEWTON_CAP = 60
_NEWTON_FLOOR_ULPS = 4.0


def exit_time_frozen(x, L):
    """Time for a characteristic at x < L to reach 0 with L held fixed."""
    x = np.asarray(x, float)
    u = np.cbrt(np.clip(x, 0.0, None) / L)
    with np.errstate(invalid="ignore"):
        out = np.where(u < 1.0, 3.0 * L * _phi_of_u(np.minimum(u, 1.0 - 1e-15)), np.inf)
    return out


def _analytic_descent(x, L, ds):
    """Advance x < L by ds with L frozen, by inverting the exit-time map.

    Exact for frozen L; returns positions (entries that would cross 0 must
    have been screened out by the caller).  Each entry stops once its Newton
    step falls to 1e-13 relative or to the rounding floor of ``_phi_of_u``;
    entries still moving after the iteration cap are reported in a
    RuntimeWarning.
    """
    u = np.minimum(np.cbrt(x / L), 1.0 - 1e-15)
    target = _phi_of_u(u) - ds / (3.0 * L)
    done = target <= 0
    # phi(u) >= u^3/3, so cbrt(3*target) bounds the root from above as u
    # does; the map is increasing and convex, so Newton descends
    # monotonically onto the root from there
    un = np.where(done, 0.0, np.minimum(u, np.cbrt(3.0 * target)))
    for _ in range(_NEWTON_CAP):
        f = _phi_of_u(un) - target
        fp = np.maximum(un * un / (1.0 - un), 1e-300)
        step = np.where(done, 0.0, f / fp)
        # _phi_of_u cancels to ~u^3/3 from O(u) terms, so f carries an
        # absolute rounding error of a few eps*(u + |log1p(-u)|)
        floor = _NEWTON_FLOOR_ULPS * _EPS * (un + np.abs(np.log1p(-un))) / fp
        new = un - step
        un = np.where(new <= 0.0, 0.5 * un, new)
        done |= np.abs(step) <= np.maximum(1e-13 * un, floor)
        if done.all():
            return L * un**3
    warnings.warn(f"_analytic_descent: {int(np.count_nonzero(~done))} of {len(un)} "
                  f"entries did not converge in {_NEWTON_CAP} Newton iterations",
                  RuntimeWarning, stacklevel=2)
    return L * un**3


def _rk4(x, ds, L_a, L_mid, L_b):
    k1 = drift(x, L_a)
    k2 = drift(x + 0.5 * ds * k1, L_mid)
    k3 = drift(x + 0.5 * ds * k2, L_mid)
    k4 = drift(x + ds * k3, L_b)
    return x + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    """Surviving characteristics plus exit history."""

    labels: np.ndarray           # initial positions y_i (immutable)
    pos: np.ndarray              # current positions x_i(t), increasing
    w: np.ndarray                # w0(y_i), carried unchanged
    initial: SurvivalProfile
    beta0: Callable              # beta function of the initial data
    jac: np.ndarray = None       # dx/dy along each characteristic
    t: float = 0.0
    exit_t: list = field(default_factory=lambda: [0.0])
    exit_y: list = field(default_factory=lambda: [0.0])
    exit_jac: list = field(default_factory=lambda: [1.0])

    def __post_init__(self):
        if self.jac is None:
            self.jac = np.ones_like(self.pos)

    def copy(self) -> "Ensemble":
        return Ensemble(labels=self.labels, pos=self.pos.copy(), w=self.w,
                        initial=self.initial, beta0=self.beta0,
                        jac=self.jac.copy(), t=self.t,
                        exit_t=list(self.exit_t), exit_y=list(self.exit_y),
                        exit_jac=list(self.exit_jac))

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
    return np.maximum(np.abs(1.0 - np.cbrt(np.asarray(x, float) / L)), 1e-12)


def _advance(ens: Ensemble, s0: float, s1: float, L_of_s) -> None:
    """March survivors from absolute time s0 to s1 in NSUB substeps, logging
    exits in place; one call of ``L_of_s`` gives L at the start, middle and
    end of each substep."""
    ss = np.linspace(s0, s1, NSUB + 1)
    dss = np.diff(ss)
    L_sub = L_of_s(np.column_stack((ss[:-1], ss[:-1] + 0.5 * dss, ss[:-1] + dss)))
    for a, b, ds, (L_a, L_mid, L_b) in zip(ss[:-1], ss[1:], dss, L_sub):
        x = ens.pos
        # phi(u) >= u^3/3 makes the exit time at least x, so only a prefix
        # can exit; the margins cover the rounding of _phi_of_u at tiny u
        tte = exit_time_frozen(x[:np.searchsorted(x, max(2.0 * ds, 1e-18 * L_a), "right")], L_a)
        exiting = np.flatnonzero(tte <= ds)
        if len(exiting):
            order = np.argsort(tte[exiting])
            ens.exit_t.extend((a + tte[exiting][order]).tolist())
            ens.exit_y.extend(ens.labels[exiting][order].tolist())
            # |v| = 1 at the origin, so J there is J / |v(x)|
            ens.exit_jac.extend(
                (ens.jac[exiting] / _speed(x[exiting], L_a))[order].tolist())
            keep = np.ones(len(x), dtype=bool)
            keep[exiting] = False
            ens.labels = ens.labels[keep]
            ens.pos = ens.pos[keep]
            ens.w = ens.w[keep]
            ens.jac = ens.jac[keep]
            x = ens.pos
        if len(x) == 0:
            ens.t = b
            continue
        # positions increase, so x < 0.9 L_mid, the descent's share, is a prefix
        low = int(np.searchsorted(x, 0.9 * L_mid))
        out = np.empty_like(x)
        if low:
            out[:low] = _analytic_descent(x[:low], L_mid, ds)
        if low < len(x):
            out[low:] = _rk4(x[low:], ds, L_a, L_mid, L_b)
        ens.jac = ens.jac * _speed(out, L_mid) / _speed(x, L_mid)
        ens.pos = out
        ens.t = b


def _boundary_labels(states: list, L) -> np.ndarray:
    """Label arriving at x = 0 in each ensemble of ``states``, by exit-time
    interpolation between the last logged exit and the first survivor's."""
    t, x1, y1, t0, y0 = np.array([(s.t, s.pos[0], s.labels[0], s.exit_t[-1], s.exit_y[-1])
                                  for s in states]).reshape(-1, 5).T
    t1 = t + exit_time_frozen(x1, L)
    ok = np.isfinite(t1) & (t1 > t0)
    return np.where(ok, y0 + (y1 - y0) * (t - t0) / np.where(ok, t1 - t0, 1.0), y0)


def boundary_jacobian(ens: Ensemble, L: float) -> float:
    """dx/dy of the characteristic currently at the origin.

    Interpolated in log between the last logged exit and the projected exit
    of the first survivor; its reciprocal is the slope dF/dx of the label
    map at x = 0.
    """
    t0, j0 = ens.exit_t[-1], ens.exit_jac[-1]
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


def _resolve_L(states: list, L_guess, initial: SurvivalProfile):
    """Self-consistent (L, y_b, w0b) arrays at each ensemble of ``states``, by
    one fixed-point iteration from L_guess over all of them; each leaves it
    once converged, so it takes the iterations and values it would alone."""
    if any(s.n_alive == 0 for s in states):
        raise ExtinctionError("no surviving characteristics")
    L = np.array(L_guess, dtype=float)
    # only the cells next to the origin and w0b change between iterations
    far = [cellquad.power_suffix(s.pos, s.w, -2.0 / 3.0) for s in states]
    act = np.arange(len(states))
    for _ in range(40):
        active = [states[i] for i in act]
        w0b = initial.w_at(_boundary_labels(active, L[act]))
        L_new = _flux_L(active, w0b, L[act], [far[i] for i in act])
        done = np.abs(L_new - L[act]) < 1e-13 * np.maximum(L[act], 1.0)
        L[act] = L_new
        act = act[~done]
        if len(act) == 0:
            break
    yb = _boundary_labels(states, L)
    return L, yb, initial.w_at(yb)


def _state_L(ens: Ensemble, L_guess: float) -> tuple[float, float, float]:
    """Self-consistent (L, y_b, w0b) at the ensemble's current time."""
    return tuple(float(v[0]) for v in _resolve_L([ens], [L_guess], ens.initial))


@dataclass
class PicardStats:
    iterations: int
    first_correction: float
    ratios: list
    converged: bool
    stopped_on_bound: bool = False   # converged on the error bound, not a confirming sweep


def _transport(ens: Ensemble, nodes: np.ndarray, path):
    """A copy of ens carried along ``path`` through the panels of ``nodes``,
    what L-resolution reads of it at each node, and the ExtinctionError of a
    node with fewer than ``EXTINCTION_FLOOR`` survivors, where it stops."""
    scratch = ens.copy()
    moments = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        _advance(scratch, a, b, path)
        if scratch.n_alive < EXTINCTION_FLOOR:
            return scratch, moments, ExtinctionError(
                f"survivor count fell below {EXTINCTION_FLOOR} at t={b:g}")
        # the arrays are shared: _advance replaces them, never writes into them
        moments.append(Ensemble(scratch.labels, scratch.pos, scratch.w, scratch.initial, scratch.beta0,
                                scratch.jac, scratch.t, scratch.exit_t[-1:], scratch.exit_y[-1:]))
    return scratch, moments, None


def picard_solve_interval(ens: Ensemble, dt: float, L0: float,
                          cfg: SolverConfig) -> tuple[Ensemble, "CubicSpline", PicardStats]:
    """Resolve L(s) on [t, t+dt] by fixed-point iteration from L == L0.

    Each sweep transports a scratch copy of the ensemble through the current
    L path and resolves L at all Chebyshev nodes of the interval at once;
    the map is a contraction for dt small compared to L.  Once the error
    bound d_k r/(1-r) of correction d_k and ratio r = d_k/d_(k-1) is below
    tol * L0, a transport through iterate k's path ends the step.
    """
    j = np.arange(N_CHEB + 1)
    nodes = ens.t + dt * 0.5 * (1.0 - np.cos(np.pi * j / N_CHEB))
    L_vals = np.full(len(nodes), L0)
    diffs = []
    scratch = None
    converged = on_bound = False
    for _ in range(MAX_PICARD):
        path = CubicSpline(nodes, L_vals, bc_type="natural")
        scratch, moments, extinct = _transport(ens, nodes, path)
        resolved = _resolve_L(moments, path(nodes[1:len(moments) + 1]), ens.initial)[0]
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
            break
        r = diff / diffs[-2] if len(diffs) > 1 and diffs[-2] > 0 else 1.0
        if r < 1.0 and diff * r / (1.0 - r) < cfg.tol * L0:
            scratch, _, extinct = _transport(ens, nodes, CubicSpline(nodes, L_vals, bc_type="natural"))
            if extinct:
                raise extinct
            converged = on_bound = True
            break
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]
    stats = PicardStats(iterations=len(diffs), first_correction=diffs[0] if diffs else 0.0,
                        ratios=ratios, converged=converged, stopped_on_bound=on_bound)
    return scratch, CubicSpline(nodes, L_vals, bc_type="natural"), stats


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
    jac: Optional[np.ndarray] = None   # dx/dy at the surviving nodes

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
    while ens.t < t_final - 1e-12:
        dt = min(cfg.delta * L, t_final - ens.t)
        stats = None
        for _ in range(MAX_HALVINGS + 1):
            try:
                advanced, _, stats = picard_solve_interval(ens, dt, L, cfg)
            except ExtinctionError:
                terminated = "extinction"
                break
            if stats.converged:
                break
            dt *= 0.5
        if terminated == "extinction" or stats is None or not stats.converged:
            if terminated != "extinction":
                terminated = "picard_failure"
            break
        ens = advanced
        picard_log.append(stats)
        L, yb, w0b = _state_L(ens, L)
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
    fp = derivative_nonuniform(x, y)
    # the analytic tail beyond the last survivor is the initial tail mass
    # stretched by the local Jacobian dx/dy of the label map
    j_end = float(snap.jac[-1]) if snap.jac is not None and len(snap.jac) else 1.0
    h_cur = cellquad.linear_suffix(x, w) + initial.tail_mass * j_end
    h0 = initial.h_at(y)
    ok = h0 > 0
    vals = np.where(ok, beta0(y) * fp * h_cur / np.where(ok, h0, 1.0), 0.0)
    # dF/dx is a difference quotient too, so the same nodes are unreliable
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


def dyadic_report(snaps: list, n_levels: int = 14) -> dict:
    """Interval lengths and adjacent ratios per snapshot, in rescaled time."""
    rows = []
    for snap in snaps:
        y, ws = normalized_view(snap)
        lens = dyadic_intervals(y, ws, n_levels)
        rows.append({"tau": snap.tau, "lengths": lens,
                     "ratios": lens[:-1] / lens[1:]})
    return {"snapshots": rows}

