"""The benchmark's workloads: scenario sections, initial data and output checks.

Every workload is a set of ``lswkit run`` scenario sections.  Inputs are
closed-form families with fixed grids; the seed only picks values that do
not change how much work a round does (snapshot times, a map slope, the
moment exponent of the Jensen certificates, the self-similar parameter).

The checks read the files the CLI wrote and compare them with values the
benchmark computes itself (closed forms, its own quadrature, root finding
and least squares) or with properties the method must have.  None compares
with a stored copy of an earlier output.  Each check returns a list of
failures, each starting with the check's key.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import integrate

# accuracy figures below this read as this: they are rounding, not method
# error, and a metric must never read 0
ACCURACY_FLOOR = 1e-9
# |beta(0,t)| below this is not resolved by a centred difference over steps
# of 0.05 L, so the identity defect is taken relative to this floor instead
BETA_FLOOR = 1e-3

MASS_DRIFT_MAX = 1e-4
IDENTITY_WITHIN = 0.02
IDENTITY_FRACTION = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    # (family, parameters) built at set-up, as ``lswkit.make_family`` takes them
    initial: tuple
    sections: Callable[[random.Random], dict]
    check: Callable[[Path, dict], list]
    accuracy: Callable[[Path, dict], tuple]


def read_csv(path: Path) -> dict:
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _floored(value: float) -> float:
    return max(float(value), ACCURACY_FLOOR)


def mass_drift(trace: dict) -> float:
    m = trace["mass"]
    return float(np.max(np.abs(m - m[0])) / m[0])


def identity_defects(trace: dict, floor: float) -> np.ndarray:
    """|centred dLambda/dt - beta(0,t)| / max(|beta(0,t)|, floor) at interior rows."""
    t, lam, b = trace["t"], trace["Lambda"], trace["beta0"]
    dl = (lam[2:] - lam[:-2]) / (t[2:] - t[:-2])
    return np.abs(dl - b[1:-1]) / np.maximum(np.abs(b[1:-1]), floor)


def trace_accuracy(trace: dict) -> tuple:
    return (_floored(mass_drift(trace)),
            _floored(np.median(identity_defects(trace, BETA_FLOOR))))


# ---------------------------------------------------------------------------
# coarsening workloads: one lsw scenario per round


def _snapshot_times(rng: random.Random, t_final: float) -> str:
    times = sorted(round(rng.uniform(0.05 * t_final, t_final), 3) for _ in range(3))
    return ", ".join(f"{v:g}" for v in times)


def check_trace(trace: dict, t_final: float, sup_beta0: float | None = None,
                identity: bool = False, stationary: bool = False) -> list:
    """Checks on a solver trace; sup_beta0 is sup beta of the initial data."""
    fails = []
    t, lam = trace["t"], trace["Lambda"]
    if not abs(t[-1] - t_final) <= 1e-9 * t_final:
        fails.append(f"t_final: trace ends at t={t[-1]:.6g}, before t_final={t_final:g}")
    drift = mass_drift(trace)
    if not drift <= MASS_DRIFT_MAX:
        fails.append(f"mass_drift: {drift:.3g} > {MASS_DRIFT_MAX:g}")
    if sup_beta0 is not None:
        slack = float(np.max(lam - (lam[0] + sup_beta0 * t)))
        if not slack <= 1e-9 * lam[0]:
            fails.append(f"upper_bound: Lambda exceeds Lambda(0) + t sup beta0 by {slack:.3g}")
        e_slack = float(np.max(trace["E"] - lam ** (-1.0 / 3.0)))
        if not e_slack <= 1e-9:
            fails.append(f"energy_bound: E exceeds Lambda^(-1/3) by {e_slack:.3g}")
    if identity:
        # the CLI's definition: relative to |beta(0,t)| floored at 1e-8
        frac = float(np.mean(identity_defects(trace, 1e-8) <= IDENTITY_WITHIN))
        if not frac >= IDENTITY_FRACTION:
            fails.append(f"identity: {frac:.3f} of samples within 2%, want {IDENTITY_FRACTION}")
    if stationary:
        dev = max(float(np.max(np.abs(lam - 1.0))), float(np.max(np.abs(trace["L"] - 1.0))))
        if not dev <= 1e-12:
            fails.append(f"stationary: Lambda or L deviates from 1 by {dev:.3g}")
    return fails


def check_snapshots(out: Path, trace: dict, times: str) -> list:
    """Each snapshot is the first step at or after its time, with the trace's Lambda."""
    fails = []
    for i, ts in enumerate(float(v) for v in times.split(",")):
        path = out / f"snapshot_{i}.csv"
        if not path.exists():
            fails.append(f"snapshot: {path.name} missing")
            continue
        snap = read_csv(path)
        k = int(np.searchsorted(trace["t"], ts - 1e-12))
        if k == len(trace["t"]):
            fails.append(f"snapshot: {path.name} at t={ts:g} is past the end of the trace")
            continue
        lam = float(np.trapezoid(snap["w"], snap["x"]) / snap["w"][0])
        if not abs(lam - trace["Lambda"][k]) <= 1e-4 * trace["Lambda"][k]:
            fails.append(f"snapshot: {path.name} has Lambda {lam:.9g}, "
                         f"trace has {trace['Lambda'][k]:.9g} at t={trace['t'][k]:.6g}")
    return fails


def _coarsening(name, family, t_final, tol, checks, sup_beta0, identity, stationary,
                family_params=None):
    params = dict(family_params or {})

    def sections(rng):
        opts = {"model": "lsw", "family": family, "t_final": f"{t_final:g}",
                "snapshots": _snapshot_times(rng, t_final), "checks": checks}
        if tol is not None:
            opts["tol"] = f"{tol:g}"
        opts.update({k: str(v) for k, v in params.items()})
        return {name: opts}

    def check(root, secs):
        out = root / name
        trace = read_csv(out / "trace.csv")
        return (check_trace(trace, t_final, sup_beta0, identity, stationary)
                + check_snapshots(out, trace, secs[name]["snapshots"]))

    def accuracy(root, secs):
        return trace_accuracy(read_csv(root / name / "trace.csv"))

    return Workload(name=name, initial=((family, params),), sections=sections,
                    check=check, accuracy=accuracy)


COARSEN_EXPONENTIAL = _coarsening(
    "coarsen-exponential",
    family="exponential", t_final=1.0, tol=1e-6,
    checks="conservation, upper_bound, identity, picard",
    # w = e^(-x) has h = e^(-x) and beta = h'' h / h'^2 = 1 everywhere
    sup_beta0=1.0, identity=True, stationary=False,
)

COARSEN_DIRAC = _coarsening(
    "coarsen-dirac",
    family="indicator", t_final=5.0, tol=None,
    checks="conservation, identity",
    sup_beta0=0.0, identity=False, stationary=True,
    family_params={"n": 512},
)


# ---------------------------------------------------------------------------
# profile analysis: map iteration, Jensen certificates, self-similar profile
# and the linear comparison model; no solver work

HALF_BETA = 0.5   # constant-beta member with w = 1 - x/2, exact on any grid
CUBE_STEPS = 100
# iterate loses the grid for some slopes (0.307, 0.317, 0.347, ... fail
# within 20 steps), so the slope is fixed rather than drawn from the seed;
# at slope 0.5 and 20 steps beta = 0.5 holds to 1e-10
LINEAR_SLOPE = 0.5
LINEAR_STEPS = 20
LINEAR_T_FINAL = 200.0


def _closed_form_w(family: str):
    """(w, support end) of the closed-form families the Jensen sections use."""
    if family == "exponential":
        return (lambda x: math.exp(-x)), math.inf
    return (lambda x: 1.0 - (1.0 - HALF_BETA) * x), 1.0 / (1.0 - HALF_BETA)


def closed_form_moment(family: str, alpha: float) -> float:
    """<X^alpha> = alpha int x^(alpha-1) w dx / w(0) by adaptive quadrature."""
    w, end = _closed_form_w(family)
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    head = integrate.quad(w, 0.0, min(end, 1.0), weight="alg", wvar=(alpha - 1.0, 0.0), **opts)[0]
    if end > 1.0:
        head += integrate.quad(lambda x: x ** (alpha - 1.0) * w(x), 1.0, end, **opts)[0]
    return alpha * head / w(0.0)


def closed_form_mean(family: str) -> float:
    w, end = _closed_form_w(family)
    return integrate.quad(w, 0.0, end, epsabs=0.0, epsrel=1e-12, limit=200)[0] / w(0.0)


def drift_root(alpha: float) -> float:
    """Smallest root of 1 - z^(1/3) + alpha z, by bisection on [1, (3 alpha)^(-3/2)]."""
    lo, hi = 1.0, (1.0 / (3.0 * alpha)) ** 1.5
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if 1.0 - mid ** (1.0 / 3.0) + alpha * mid > 0.0:
            lo = mid
        else:
            hi = mid


def self_similar_flux(z: np.ndarray, w: np.ndarray, a: float) -> float:
    """int_0^a z^(-2/3) w dz = 3 int w d(z^(1/3)), trapezoid in s = z^(1/3), w(a) = 0."""
    s = np.cbrt(np.append(z, a))
    ws = np.append(w, 0.0)
    return float(3.0 * np.trapezoid(ws, s))


def _analysis_sections(rng: random.Random) -> dict:
    alpha = round(rng.uniform(0.2, 0.5), 3)
    alpha_ss = round(rng.uniform(0.03, 0.12), 4)
    cube = {"model": "map_iteration", "map": "cube-root", "n_steps": str(CUBE_STEPS),
            "checks": "pointwise, sup_beta"}
    jensen_checks = "reverse_jensen, sharp_jensen, tail_bounds, gap"
    return {
        "map-cube-exponential": dict(cube, family="exponential"),
        "map-cube-half-beta": dict(cube, family="constant-beta", beta=str(HALF_BETA)),
        "map-cube-power-tail": dict(cube, family="power-tail", eps="1.0"),
        "map-linear-half-beta": {
            "model": "map_iteration", "map": "linear", "lam": str(LINEAR_SLOPE),
            "family": "constant-beta", "beta": str(HALF_BETA), "n_steps": str(LINEAR_STEPS),
            "checks": "pointwise, sup_beta"},
        "jensen-exponential": {"model": "analysis", "family": "exponential",
                               "alpha": str(alpha), "checks": jensen_checks},
        "jensen-half-beta": {"model": "analysis", "family": "constant-beta",
                             "beta": str(HALF_BETA), "alpha": str(alpha), "rv_target": "1.0",
                             "checks": jensen_checks + ", regular_variation"},
        "self-similar": {"model": "self_similar", "alpha": str(alpha_ss),
                         "checks": "z4, g_end, monotone"},
        "linear-model": {"model": "linear", "family": "constant-beta", "beta": str(HALF_BETA),
                         "t_final": f"{LINEAR_T_FINAL:g}", "beta_limit": str(HALF_BETA),
                         "checks": "stability, identity, conservation, affine"},
    }


def check_map_history(hist: dict, n_steps: int, constant: float | None) -> list:
    """Cube-root map: sup beta never rises.  Linear map: a constant beta stays put."""
    fails = []
    if len(hist["n"]) != n_steps + 1:
        fails.append(f"map_steps: history has {len(hist['n'])} rows, want {n_steps + 1}")
    sb = hist["sup_beta"]
    if constant is None:
        rise = float(np.max(np.diff(sb), initial=0.0))
        if not rise <= 1e-8:
            fails.append(f"sup_beta: sup beta rises by {rise:.3g} under the cube-root map")
    else:
        dev = float(max(np.max(np.abs(sb - constant)), np.max(np.abs(hist["inf_beta"] - constant))))
        if not dev <= 1e-8:
            fails.append(f"constant_beta: beta leaves {constant:g} by {dev:.3g} under the linear map")
    return fails


def check_jensen(out: Path, family: str, alpha: float, beta_inf: float) -> list:
    fails = []
    moment, mean = closed_form_moment(family, alpha), closed_form_mean(family)
    rev = json.loads((out / "reverse_jensen.json").read_text())
    sharp = json.loads((out / "sharp_jensen.json").read_text())
    for cert in (rev, sharp):
        if not abs(cert["lhs"] - moment) <= 1e-5 * moment:
            fails.append(f"moment: profile.moment({alpha:g}) = {cert['lhs']:.10g}, "
                         f"quadrature gives {moment:.10g}")
    if not moment >= rev["C_used"] * mean ** alpha:
        fails.append(f"reverse_jensen: <X^a> = {moment:.6g} < C <X>^a with C = {rev['C_used']:.6g}")
    # the sharp certificate's margin for inf beta = beta_inf
    margin = 1e-3 * alpha * (1.0 - alpha) * beta_inf / (1.0 + beta_inf)
    gap = 1.0 - moment / mean ** alpha
    if not gap > margin:
        fails.append(f"sharp_jensen: gap {gap:.6g} does not clear margin {margin:.3g}")
    return fails


def check_self_similar(out: Path, alpha: float) -> list:
    fails = []
    meta = json.loads((out / "self_similar.json").read_text())
    root = drift_root(alpha)
    if not abs(meta["a_alpha"] - root) <= 1e-12 * root:
        fails.append(f"support_end: a_alpha = {meta['a_alpha']:.17g}, root is {root:.17g}")
    prof = read_csv(out / "self_similar.csv")
    flux = self_similar_flux(prof["z"], prof["w_star"], root)
    if not abs(flux - 3.0) <= 1e-5:
        fails.append(f"self_similar_flux: int z^(-2/3) w = {flux:.9g}, want 3")
    return fails


def check_linear_model(trace: dict) -> list:
    fails = []
    t, lam = trace["t"], trace["Lambda"]
    if not abs(t[-1] - LINEAR_T_FINAL) <= 1e-9 * LINEAR_T_FINAL:
        fails.append(f"t_final: linear model ends at t={t[-1]:.6g}")
    win = t >= (2.0 / 3.0) * t[-1]
    tw, lw = t[win], lam[win]
    slope = float(np.sum((tw - tw.mean()) * (lw - lw.mean())) / np.sum((tw - tw.mean()) ** 2))
    if not abs(slope - HALF_BETA) <= 0.05:
        fails.append(f"linear_slope: Lambda/t slope {slope:.4f}, want {HALF_BETA} +- 0.05")
    return fails


def _analysis_check(root: Path, secs: dict) -> list:
    fails = []
    for name, opts in secs.items():
        out = root / name
        if opts["model"] == "map_iteration":
            constant = HALF_BETA if opts["map"] == "linear" else None
            found = check_map_history(read_csv(out / "history.csv"), int(opts["n_steps"]), constant)
        elif opts["model"] == "analysis":
            beta_inf = 1.0 if opts["family"] == "exponential" else HALF_BETA
            found = check_jensen(out, opts["family"], float(opts["alpha"]), beta_inf)
        elif opts["model"] == "self_similar":
            found = check_self_similar(out, float(opts["alpha"]))
        else:
            found = check_linear_model(read_csv(out / "trace.csv"))
        fails += [f"{f} [{name}]" for f in found]
    return fails


def _analysis_accuracy(root: Path, secs: dict) -> tuple:
    return trace_accuracy(read_csv(root / "linear-model" / "trace.csv"))


PROFILE_ANALYSIS = Workload(
    name="profile-analysis",
    initial=(("exponential", {}), ("constant-beta", {"beta": HALF_BETA}),
             ("power-tail", {"eps": 1.0})),
    sections=_analysis_sections,
    check=_analysis_check,
    accuracy=_analysis_accuracy,
)

WORKLOADS = {w.name: w for w in (COARSEN_EXPONENTIAL, COARSEN_DIRAC, PROFILE_ANALYSIS)}
