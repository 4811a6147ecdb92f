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
from .profiles import (SurvivalProfile, beta_from_profile, beta_interpolant,
                       regular_variation_exponent)
from .lsw_solver import CoarseningTrace


SURVIVAL_FLOOR = 1e-12  # a run stops once w0(B)/w0(0) falls below this


@dataclass
class LinearModelConfig:
    delta: float = 0.05          # step as a fraction of the current Lambda


@dataclass
class LinearRunResult:
    trace: CoarseningTrace
    tau: float
    B: float
    taus: list = field(default_factory=list)   # tau at each trace time
    Bs: list = field(default_factory=list)     # B at each trace time
    terminated: str = "t_final"

    def label_map(self):
        """F(x, t_final) = e^(-tau) x + B."""
        a = np.exp(-self.tau)
        b = self.B
        return lambda x: a * np.asarray(x, float) + b


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


def run_linear_model(profile: SurvivalProfile, t_final: float,
                     cfg: LinearModelConfig = LinearModelConfig(),
                     beta0=None) -> LinearRunResult:
    """Integrate the reduced (tau, B) system to t_final with RK4.

    Steps scale with the current Lambda, so late-time coarsening costs
    logarithmically many steps.
    """
    if beta0 is None:
        beta0 = beta_interpolant(profile)
    mass0 = profile.mass
    state = np.array([0.0, 0.0])
    t = 0.0
    trace = CoarseningTrace()
    taus: list = []
    Bs: list = []
    terminated = "t_final"

    def record():
        tau, B = state
        w0b = profile.w_at(B)
        lam = mass0 / w0b
        trace.t.append(t)
        trace.tau.append(tau)
        trace.L.append(lam)
        trace.Lambda.append(lam)
        trace.E.append(_energy(profile, tau, B))
        trace.beta0.append(float(beta0(B)))
        trace.mass.append(float(np.exp(tau) * profile.h_at(B)))
        trace.gamma.append(1.0)
        taus.append(float(tau))
        Bs.append(float(B))

    record()
    while t < t_final - 1e-12:
        w0b = profile.w_at(state[1])
        if w0b <= SURVIVAL_FLOOR * profile.w0:
            terminated = "extinction"
            break
        lam = mass0 / w0b
        dt = min(cfg.delta * lam, t_final - t)
        k1 = _rhs(state, profile, mass0)
        k2 = _rhs(state + 0.5 * dt * k1, profile, mass0)
        k3 = _rhs(state + 0.5 * dt * k2, profile, mass0)
        k4 = _rhs(state + dt * k3, profile, mass0)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if profile.w_at(state[1]) <= 0.0:
            terminated = "extinction"
            break
        # project tau back onto the conserved manifold e^tau h0(B) = mass0,
        # which the continuous flow preserves exactly but RK4 drifts off
        hB = profile.h_at(state[1])
        if hB > 0:
            state[0] = np.log(mass0 / hB)
        record()
    if not trace.t or trace.t[-1] < t_final - 1e-9:
        if terminated == "t_final":
            terminated = "extinction"
    return LinearRunResult(trace=trace, tau=float(state[0]), B=float(state[1]),
                           taus=taus, Bs=Bs, terminated=terminated)


@dataclass
class StabilityReport:
    slope: float                 # fitted Lambda(t)/t over the final window
    beta_end: float              # beta0 at the end of the run
    rv_exponent: Optional[float]
    oscillatory: bool
    applicable: bool
    note: str = ""


def stability_check(profile: SurvivalProfile, result: LinearRunResult) -> StabilityReport:
    """Compare the late-time growth rate Lambda/t with the boundary beta limit.

    Applicable when the initial profile has a regularly varying end (the
    boundary beta converges); flagged inapplicable for oscillatory tails.
    """
    a = result.trace.as_arrays()
    t, lam, b = a["t"], a["Lambda"], a["beta0"]
    win = t >= (2.0 / 3.0) * t[-1]
    slope = float(np.polyfit(t[win], lam[win], 1)[0])
    rv_exp = None
    oscillatory = False
    applicable = True
    note = ""
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
    return StabilityReport(slope=slope, beta_end=float(b[-1]), rv_exponent=rv_exp,
                           oscillatory=oscillatory, applicable=applicable, note=note)


def affine_exactness_check(result: LinearRunResult, labels=None) -> float:
    """Max deviation between directly integrated characteristics and the
    affine reconstruction x(t) = (y - B(t)) e^tau(t).

    Integrates dx/dt = -(1 - x/Lambda(t)) with RK4 along the recorded
    Lambda(t) path for a few sample labels; the agreement certifies that the
    reduced two-variable system reproduces the full characteristic flow.
    """
    t = np.array(result.trace.t)
    lam = np.array(result.trace.Lambda)
    taus = np.array(result.taus)
    Bs = np.array(result.Bs)
    if labels is None:
        # labels beyond the final boundary value, so the samples never exit
        labels = Bs[-1] + np.array([0.5, 1.0, 2.0])

    def lam_at(s):
        return np.interp(s, t, lam)

    worst = 0.0
    for y in np.atleast_1d(labels):
        x = float(y)
        for a, b in zip(t[:-1], t[1:]):
            dt = b - a
            f = lambda xx, ss: -(1.0 - xx / lam_at(ss))
            k1 = f(x, a)
            k2 = f(x + 0.5 * dt * k1, a + 0.5 * dt)
            k3 = f(x + 0.5 * dt * k2, a + 0.5 * dt)
            k4 = f(x + dt * k3, b)
            x += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        recon = (y - Bs[-1]) * np.exp(taus[-1])
        worst = max(worst, abs(x - recon) / max(abs(recon), 1.0))
    return worst
