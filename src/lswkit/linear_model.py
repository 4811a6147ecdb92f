"""Exactly solvable coarsening model with affine transport velocity.

Replacing the cube-root velocity by its affine analogue dx/dt = -(1 - x/L)
with L = Lambda = mass/w(0,t) makes the label map affine,

    F(x,t) = e^(-tau) x + B(t),  w(x,t) = w0(F(x,t)),

and the whole flow reduces to two scalar ODEs,

    dtau/dt = w0(B) / mass0,     dB/dt = e^(-tau).

Mass conservation becomes the algebraic identity e^tau h0(B) = mass0, the
beta function is transported exactly (beta(x,t) = beta0(F(x,t))), and the
coarsening identity d(Lambda)/dt = beta(0,t) holds pointwise.  This module
integrates the reduced system and exposes the same trace format as the full
solver, so the two can be compared check for check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cellquad
from .errors import require_setting
from .profiles import (SurvivalProfile, beta_from_profile, beta_interpolant,
                       regular_variation_exponent)
from .lsw_solver import CoarseningTrace


SURVIVAL_FLOOR = 1e-12  # a run stops once w0(B)/w0(0) falls below this


@dataclass
class LinearRunResult:
    trace: CoarseningTrace
    tau: float
    B: float
    Bs: list = field(default_factory=list)     # B at each trace time
    terminated: str = "t_final"
    mass_defect: float = 0.0    # largest |e^tau h0(B) - mass0|/mass0 of a step, before projection


def _rk4(f, y, s, h):
    """One classical RK4 step of dy/ds = f(y, s) from s, of length h."""
    k1 = f(y, s)
    k2 = f(y + 0.5 * h * k1, s + 0.5 * h)
    k3 = f(y + 0.5 * h * k2, s + 0.5 * h)
    k4 = f(y + h * k3, s + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rhs(state: np.ndarray, profile: SurvivalProfile, mass0: float) -> np.ndarray:
    tau, B = state
    return np.array([profile.w_at(B) / mass0, np.exp(-tau)])


def _energy(profile: SurvivalProfile, tau: float, B: float) -> float:
    """(2/3) e^(2 tau/3) int_B (y - B)^(-1/3) w0(y) dy, exact per cell.

    The analytic-tail remainder beyond the last node is bounded above by
    (y_max - B)^(-1/3) times the tail mass, negligible for deep grids.
    """
    mask = profile.grid > B
    y = np.concatenate(([B], profile.grid[mask]))
    w = np.concatenate(([profile.w_at(B)], profile.values[mask]))
    body = cellquad.power_total(y, w, -1.0 / 3.0, shift=B)
    tail = profile.tail_mass * (y[-1] - B) ** (-1.0 / 3.0) if profile.tail_mass > 0 else 0.0
    return (2.0 / 3.0) * np.exp(2.0 * tau / 3.0) * (body + tail)


def run_linear_model(profile: SurvivalProfile, t_final: float, delta: float = 0.05,
                     beta0=None) -> LinearRunResult:
    """Integrate the reduced (tau, B) system to t_final with RK4.

    Steps are ``delta`` times the current Lambda, so late-time coarsening
    costs logarithmically many steps.
    """
    require_setting("delta", delta)
    require_setting("t_final", t_final, ">=")
    if beta0 is None:
        beta0 = beta_interpolant(profile)
    mass0 = profile.mass
    state = np.array([0.0, 0.0])
    t = 0.0
    trace = CoarseningTrace()
    Bs: list = []
    terminated = "t_final"
    defect = 0.0

    def record():
        tau, B = state
        w0b = profile.w_at(B)
        lam = mass0 / w0b
        trace.append(t=t, tau=tau, L=lam, Lambda=lam, E=_energy(profile, tau, B),
                     beta0=float(beta0(B)), mass=float(np.exp(tau) * profile.h_at(B)), gamma=1.0)
        Bs.append(float(B))

    record()
    while t < t_final - 1e-12:
        w0b = profile.w_at(state[1])
        if w0b <= SURVIVAL_FLOOR * profile.w0:
            terminated = "extinction"
            break
        lam = mass0 / w0b
        dt = min(delta * lam, t_final - t)
        state = _rk4(lambda y, s: _rhs(y, profile, mass0), state, t, dt)
        t += dt
        if profile.w_at(state[1]) <= 0.0:
            terminated = "extinction"
            break
        # project tau back onto the conserved manifold e^tau h0(B) = mass0,
        # which the continuous flow preserves exactly but RK4 drifts off;
        # the drift of this step is what the conservation check reads
        hB = profile.h_at(state[1])
        defect = max(defect, abs(np.exp(state[0]) * hB - mass0) / mass0)
        if hB > 0:
            state[0] = np.log(mass0 / hB)
        record()
    return LinearRunResult(trace=trace, tau=float(state[0]), B=float(state[1]),
                           Bs=Bs, terminated=terminated, mass_defect=float(defect))


@dataclass
class StabilityReport:
    slope: float                 # fitted Lambda(t)/t over the final window
    rv_exponent: Optional[float]
    oscillatory: bool
    applicable: bool
    note: str = ""


def stability_check(profile: SurvivalProfile, result: LinearRunResult) -> StabilityReport:
    """Compare the late-time growth rate Lambda/t with the boundary beta limit.

    Applicable when the initial profile has a regularly varying end (the boundary
    beta converges) and the final third of the run holds at least 2 rows to fit.
    """
    a = result.trace.as_arrays()
    t, lam = a["t"], a["Lambda"]
    win = t >= (2.0 / 3.0) * t[-1]
    fits = np.count_nonzero(win) >= 2
    slope = float(np.polyfit(t[win], lam[win], 1)[0]) if fits else np.nan
    rv_exp = None
    oscillatory = False
    applicable = bool(fits)
    note = "" if fits else "fewer than 2 trace rows to fit a slope"
    if not np.isfinite(profile.sup_x):
        applicable = False
        note = "support is unbounded; the growth-rate assertion needs compact data"
    else:
        try:
            est = regular_variation_exponent(profile)
            rv_exp = est.exponent
            oscillatory = est.oscillatory
        except Exception as exc:  # sparse end grids
            note = f"regular-variation estimate unavailable: {exc}"
        # the survival function can vary regularly while its derivative still
        # oscillates, so also check the boundary beta values directly
        bb = beta_from_profile(profile)
        a = profile.sup_x
        end = (~bb.low_confidence) & (bb.grid > a - 1e-2 * a) & (bb.grid < a)
        if np.count_nonzero(end) >= 8:
            spread = float(np.max(bb.values[end]) - np.min(bb.values[end]))
            if spread > 0.05:
                oscillatory = True
        if oscillatory:
            applicable = False
            note = "boundary beta oscillates; no growth-rate limit is claimed"
    return StabilityReport(slope=slope, rv_exponent=rv_exp,
                           oscillatory=oscillatory, applicable=applicable, note=note)


def affine_exactness_check(result: LinearRunResult) -> float:
    """Max deviation between directly integrated characteristics and the
    affine reconstruction x(t) = (y - B(t)) e^tau(t).

    Integrates dx/dt = -(1 - x/Lambda(t)) with RK4 along the recorded
    Lambda(t) path for a few sample labels beyond the final boundary value,
    which never exit; the agreement certifies that the reduced two-variable
    system reproduces the full characteristic flow.
    """
    t = np.array(result.trace.t)
    lam = np.array(result.trace.Lambda)
    B_end = result.Bs[-1]

    def f(x, s):
        return -(1.0 - x / np.interp(s, t, lam))

    worst = 0.0
    for y in B_end + np.array([0.5, 1.0, 2.0]):
        x = float(y)
        for a, b in zip(t[:-1], t[1:]):
            x = _rk4(f, x, a, b - a)
        recon = (y - B_end) * np.exp(result.trace.tau[-1])
        worst = max(worst, abs(x - recon) / max(abs(recon), 1.0))
    return worst
