"""Scenario runner: INI configs in, traces / certificates / summaries out.

Commands:

    lswkit run <config.ini> [--output DIR]   execute each section as a scenario
    lswkit families                          list built-in initial data
    lswkit compare <a.csv> <b.csv> [--tol T] diff two trace files column-wise

Each config section chooses a model (lsw, linear, map_iteration,
self_similar, analysis), an initial-data family with parameters, numeric
settings, and a comma-separated list of checks.  A runner per model runs
it, writes its outputs and returns what the checks read; each requested
check is then looked up in ``CHECKS`` by (model, name), and every section
gets a ``summary.json`` with all of its rows.  The exit status is nonzero
exactly when a requested check fails or is not evaluated (an unknown name,
a check that needs snapshots the run did not take, or a certificate that
does not apply), a solver run stops before t_final, or a kernel gives up at
its iteration cap (a ``ConvergenceWarning``); a section that sets a key its
model does not read, or a parameter its family does not take, fails before
it runs.  Scenario crashes are reported and counted as failures without
aborting the batch.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvergenceWarning
from .families import make_family
from . import jensen
from .lsw_solver import (
    SolverConfig, advance_global, coarsening_identity_check, mass_drift, beta_along_flow,
    g_profile, normalized_view, dyadic_report,
)
from .linear_model import (
    LinearModelConfig, run_linear_model, stability_check, affine_exactness_check,
)
from .map_iteration import MapF, linear_map, cube_root_map, iterate, beta_transform
from .profiles import beta_from_profile, json_number, regular_variation_exponent, write_csv
from .self_similar import build_profile, g_alpha_profile

OUTPUT_ROOT_ENV = "LSWKIT_OUTPUT_ROOT"

FAMILY_PARAM_KEYS = ("beta", "eps", "p", "alpha", "n")
FAMILY_DESCRIPTIONS = {
    "constant-beta": "closed forms with constant beta (parameter beta > 0)",
    "exponential": "w = exp(-x), the beta = 1 profile",
    "indicator": "single unit cluster, w = 1 on [0,1]",
    "oscillating-exponential": "h = exp(-x)(1 + eps cos x), oscillating beta (|eps| < 1/2)",
    "oscillating-compact": "compact support with beta oscillating at the end (params p, eps)",
    "power-tail": "density ~ (1+x)^-(2+eps); constant beta = (1+eps)/eps",
    "self-similar": "stationary profile of the normalized flow (parameter alpha)",
}


def _build_family(opts: dict):
    # make_family fails on a parameter the family does not take
    params = {key: int(opts[key]) if key == "n" else float(opts[key])
              for key in FAMILY_PARAM_KEYS if key in opts}
    return make_family(opts.get("family", "exponential"), **params)


def _requested(opts: dict) -> list:
    return [c.strip() for c in opts.get("checks", "").split(",") if c.strip()]


def _make_map(opts: dict) -> MapF:
    kind = opts.get("map", "cube-root")
    if kind == "linear":
        return linear_map(float(opts.get("lam", 0.5)))
    if kind == "cube-root":
        return cube_root_map()
    raise ConfigError(f"unknown map {kind!r}; choose linear or cube-root")


# ---------------------------------------------------------------------------
# per-model runners: each runs its model, writes its output files and
# returns what the checks read; ``summary`` holds the model's own
# summary.json fields


def _run_lsw(opts: dict, outdir: Path) -> SimpleNamespace:
    fam = _build_family(opts)
    cfg = SolverConfig(delta=float(opts.get("delta", 0.05)), tol=float(opts.get("tol", 1e-8)))
    t_final = float(opts.get("t_final", 20.0))
    snaps = tuple(float(v) for v in opts.get("snapshots", "").split(",") if v.strip())
    requested = _requested(opts)
    if "stationarity" in requested:
        # evolve to the requested rescaled time: Lambda grows linearly at the
        # stationary rate beta*(0), so t(tau) is explicit
        if fam.beta_exact is None:
            raise ConfigError("stationarity check needs a family with a known beta")
        rate = float(fam.beta_exact(0.0))
        tau_target = float(opts.get("tau_target", 2.0))
        t_final = float((np.exp(tau_target * rate) - 1.0) / rate)
        snaps = tuple(sorted(set(snaps) | {t_final}))
    result = advance_global(fam.profile, t_final, cfg, beta0=fam.beta_exact,
                            snapshot_times=snaps)
    result.trace.save(outdir / "trace.csv")
    for i, snap in enumerate(result.snapshots):
        snap.profile().save(outdir / f"snapshot_{i}.csv")
    dyadic = None
    if "dyadic" in requested and result.snapshots:
        dyadic = dyadic_report(result.snapshots)
        (outdir / "dyadic.json").write_text(json.dumps(
            [{"tau": r["tau"], "lengths": r["lengths"].tolist(),
              "ratios": r["ratios"].tolist()} for r in dyadic["snapshots"]],
            indent=2) + "\n")
    if result.snapshots:
        write_csv(outdir / "normalized.csv", "y,w_star", normalized_view(result.snapshots[-1]))
    summary = {"T_final": result.trace.t[-1] if result.trace.t else 0.0,
               "steps": len(result.picard),
               "picard_iters_total": int(sum(p.iterations for p in result.picard)),
               "flux_evals": int(sum(p.flux_evals for p in result.picard)),
               "picard_on_bound": int(sum(p.stopped_on_bound for p in result.picard)),
               "terminated": result.terminated}
    return SimpleNamespace(fam=fam, result=result, dyadic=dyadic, summary=summary)


def _run_linear(opts: dict, outdir: Path) -> SimpleNamespace:
    fam = _build_family(opts)
    cfg = LinearModelConfig(delta=float(opts.get("delta", 0.05)))
    t_final = float(opts.get("t_final", 200.0))
    result = run_linear_model(fam.profile, t_final, cfg, beta0=fam.beta_exact)
    result.trace.save(outdir / "trace.csv")
    summary = {"T_final": result.trace.t[-1] if result.trace.t else 0.0,
               "tau_final": result.tau, "terminated": result.terminated}
    return SimpleNamespace(fam=fam, result=result, summary=summary)


def _run_map_iteration(opts: dict, outdir: Path) -> SimpleNamespace:
    fam = _build_family(opts)
    F = _make_map(opts)
    hist = iterate(fam.profile, F, float(opts.get("rho", 0.5)), float(opts.get("k_norm", 1.0)),
                   int(opts.get("n_steps", 20)), n_grid=int(opts.get("n_grid", 2048)))
    hist.save(outdir / "history.csv")
    return SimpleNamespace(fam=fam, F=F, hist=hist)


def _run_self_similar(opts: dict, outdir: Path) -> SimpleNamespace:
    prof = build_profile(float(opts.get("alpha", 0.05)))
    g = g_alpha_profile(prof)
    prof.save(outdir / "self_similar.csv", g=g.values)
    return SimpleNamespace(prof=prof, g=g)


def _run_analysis(opts: dict, outdir: Path) -> SimpleNamespace:
    if opts.get("family") == "self-similar":
        raise ConfigError("family = self-similar in an analysis section: alpha would be both "
                          "the profile parameter and the Jensen exponent")
    # alpha is the Jensen exponent here, not a family parameter
    fam = _build_family({key: value for key, value in opts.items() if key != "alpha"})
    alpha = float(opts.get("alpha", 0.5))
    certificates = {}
    for name in ("reverse_jensen", "sharp_jensen"):
        if name in _requested(opts):
            certificates[name] = getattr(jensen, name)(fam.profile, alpha)
            certificates[name].to_json(outdir / f"{name}.json")
    return SimpleNamespace(fam=fam, alpha=alpha, certificates=certificates)


MODEL_RUNNERS = {
    "lsw": _run_lsw,
    "linear": _run_linear,
    "map_iteration": _run_map_iteration,
    "self_similar": _run_self_similar,
    "analysis": _run_analysis,
}

# the keys a section of each model may set, besides model, checks and output:
# what its runner and its checks read
_FAMILY_KEYS = ("family",) + FAMILY_PARAM_KEYS
MODEL_KEYS = {
    "lsw": _FAMILY_KEYS + ("delta", "tol", "t_final", "snapshots", "tau_target"),
    "linear": _FAMILY_KEYS + ("delta", "t_final", "beta_limit", "stability_tol", "affine_tol"),
    "map_iteration": _FAMILY_KEYS + ("map", "lam", "rho", "k_norm", "n_steps", "n_grid"),
    "self_similar": ("alpha",),
    "analysis": _FAMILY_KEYS + ("alpha", "rv_target", "rv_tol", "rv_expect"),
}


# ---------------------------------------------------------------------------
# the checks: each reads a runner's result and the section options, and
# returns a CheckResult, or None when the run produced no data for it


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    value: float      # the quantity compared; NaN where nothing is compared
    bound: float      # what it is compared with; NaN where no bound applies
    detail: str


NOT_EVALUATED = CheckResult(False, math.nan, math.nan, "unknown or not evaluated")

# default bounds; affine, stability and regular_variation take theirs from
# affine_tol, stability_tol and rv_tol when a section sets them
BOUNDS = {
    "conservation": 1e-4,       # relative mass drift; a step's RK4 mass defect (linear)
    "identity": (0.02, 0.95),   # relative error, least fraction of samples within it
    "upper_bound": 1e-9,        # Lambda slack relative to Lambda(0), and E slack
    "picard": (10, 1.0),        # most sweeps in a step, contraction ratio strictly below
    "monotonicity": 1e-6,
    "stationarity": 1e-2,       # sup |w* - w*(0)| and |beta(0,tau) - beta*(0)|
    "dyadic": (2.0, 0.1, 10),   # ratio at the last of the levels, tolerance, levels needed
    "pointwise": 1e-8,
    "sup_beta": 1e-8,
    "z4": 1e-5,
    "g_end": 1e-4,              # |g(0) - alpha gamma| and the end-value error
    "monotone": 1e-8,
    "affine": 1e-6,
    "stability": 0.05,
    "regular_variation": 0.05,
}


def _at_most(name: str, measure, fmt: str, option: str = "") -> Callable:
    """A check that passes while ``measure(run)`` is at most the bound of
    ``name``, or the section's ``option`` where the section sets it."""
    def check(run, opts) -> CheckResult:
        value = measure(run)
        bound = float(opts.get(option, BOUNDS[name]))
        return CheckResult(value <= bound, value, bound, fmt.format(value))
    return check


def _identity(run, opts) -> CheckResult:
    within, fraction = BOUNDS["identity"]
    rel = coarsening_identity_check(run.result.trace)["rel_errors"]
    frac = float(np.mean(rel <= within))
    return CheckResult(frac >= fraction, frac, fraction,
                       f"{frac:.3f} of samples within {within:.0%}")


def _upper_bound(run, opts) -> CheckResult:
    bound = BOUNDS["upper_bound"]
    a = run.result.trace.as_arrays()
    lam = a["Lambda"]
    slack = float(np.max(lam - (lam[0] + beta_from_profile(run.fam.profile).sup * a["t"])))
    # Jensen: E = w(0) <X^(2/3)> <= w(0) Lambda^(2/3) = mass Lambda^(-1/3)
    e_slack = float(np.max(a["E"] - a["mass"] * lam ** (-1.0 / 3.0)))
    ok = slack <= bound * lam[0] and e_slack <= bound
    return CheckResult(bool(ok), max(slack / lam[0], e_slack), bound,
                       f"Lambda slack {slack:.3g}, E slack {e_slack:.3g}")


def _picard(run, opts) -> CheckResult:
    max_sweeps, max_ratio = BOUNDS["picard"]
    iters = max(p.iterations for p in run.result.picard)
    ratios = [r for p in run.result.picard for r in p.ratios]
    ok = iters <= max_sweeps and all(r < max_ratio for r in ratios)
    return CheckResult(ok, iters, max_sweeps,
                       f"max iterations {iters}, max ratio {max(ratios, default=0.0):.3g}")


def _monotonicity(run, opts) -> CheckResult | None:
    """Worst failure of beta(., t) to rise and of g(., t) to be >= 0 and fall."""
    res = run.result
    if not res.snapshots:
        return None
    worst = 0.0
    for snap in res.snapshots:
        tb, _ = beta_along_flow(snap, run.fam.profile, res.ensemble.beta0)
        bv = tb.values[~tb.low_confidence]
        worst = max(worst, float(np.max(np.maximum(-np.diff(bv), 0.0), initial=0.0)))
        gx, gv = g_profile(snap)
        worst = max(worst, float(np.max(-gv, initial=0.0)))
        worst = max(worst, float(np.max(np.diff(gv[gx < 0.9 * gx[-1]]), initial=0.0)))
    bound = BOUNDS["monotonicity"]
    return CheckResult(worst <= bound, worst, bound, f"worst violation {worst:.3g}")


def _stationarity(run, opts) -> CheckResult | None:
    res, prof = run.result, run.fam.profile
    if not res.snapshots:
        return None
    y, ws = normalized_view(res.snapshots[-1])
    yy = np.linspace(0.0, max(float(y[-1]), float(prof.sup_x)), 8192)
    sup = float(np.max(np.abs(np.interp(yy, y, ws, right=0.0) - prof.w_at(yy))))
    berr = float(abs(res.trace.beta0[-1] - float(run.fam.beta_exact(0.0))))
    bound = BOUNDS["stationarity"]
    return CheckResult(max(sup, berr) <= bound, max(sup, berr), bound,
                       f"sup |w*-w*(0)| {sup:.3g}, |beta(0,tau)-beta*(0)| {berr:.3g}")


def _dyadic(run, opts) -> CheckResult | None:
    if run.dyadic is None:
        return None
    target, tol, levels = BOUNDS["dyadic"]
    last = run.dyadic["snapshots"][-1]["ratios"]
    finite = last[np.isfinite(last)]
    dev = float(abs(finite[levels - 1] - target)) if len(finite) >= levels else math.inf
    return CheckResult(dev <= tol, dev, tol,
                       f"final ratios {np.array2string(finite[:10], precision=3)}")


def _stability(run, opts) -> CheckResult | None:
    rep = stability_check(run.fam.profile, run.result)
    target = opts.get("beta_limit")
    if not rep.applicable or target is None:
        return None
    tol = float(opts.get("stability_tol", BOUNDS["stability"]))
    dev = abs(rep.slope - float(target))
    return CheckResult(dev <= tol, dev, tol, f"slope {rep.slope:.4f} vs {float(target):.4f}")


def _pointwise_excess(run) -> float:
    """Largest excess of the transformed beta T_F beta(x) over beta(F(x))."""
    tb = beta_transform(run.fam.profile, run.F)
    base = beta_from_profile(run.fam.profile)
    ok = ~tb.low_confidence
    return float(np.max(tb.values[ok] - base.at(run.F(tb.grid[ok])), initial=-np.inf))


def _g_end(run, opts) -> CheckResult:
    err0 = abs(run.g.g0 - run.prof.alpha * run.prof.gamma)
    err1 = abs(run.g.g_end - run.g.g_end_exact)
    bound = BOUNDS["g_end"]
    return CheckResult(max(err0, err1) <= bound, max(err0, err1), bound,
                       f"|g(0)-alpha*gamma|={err0:.3g}, end error {err1:.3g}")


def _certificate(name: str, fmt: str) -> Callable:
    """A Jensen certificate that holds, with value <X^alpha>; one that does
    not apply is not evaluated."""
    def check(run, opts) -> CheckResult | None:
        cert = run.certificates[name]
        if not cert.applicable:
            return None
        return CheckResult(cert.passed, cert.lhs, math.nan, fmt.format(cert))
    return check


def _bound_report(rep) -> CheckResult:
    return CheckResult(rep.passed, rep.max_violation, rep.tol,
                       f"max violation {rep.max_violation:.3g}")


def _regular_variation(run, opts) -> CheckResult | None:
    est = regular_variation_exponent(run.fam.profile)
    target = opts.get("rv_target")
    if est.oscillatory:
        return CheckResult(opts.get("rv_expect", "") == "oscillatory", est.residual, math.nan,
                           f"oscillatory, residual {est.residual:.3g}")
    if target is None:
        return None
    tol = float(opts.get("rv_tol", BOUNDS["regular_variation"]))
    dev = abs(est.exponent - float(target))
    return CheckResult(dev <= tol, dev, tol, f"exponent {est.exponent:.4f}")


CHECKS = {
    ("lsw", "conservation"): _at_most("conservation", lambda run: mass_drift(run.result.trace),
                                      "max relative mass drift {:.3g}"),
    ("lsw", "upper_bound"): _upper_bound,
    ("lsw", "identity"): _identity,
    ("lsw", "picard"): _picard,
    ("lsw", "monotonicity"): _monotonicity,
    ("lsw", "stationarity"): _stationarity,
    ("lsw", "dyadic"): _dyadic,
    ("linear", "conservation"): _at_most("conservation", lambda run: run.result.mass_defect,
                                         "max relative RK4 mass defect {:.3g}"),
    ("linear", "identity"): _identity,
    ("linear", "affine"): _at_most("affine", lambda run: affine_exactness_check(run.result),
                                   "max reconstruction deviation {:.3g}", option="affine_tol"),
    ("linear", "stability"): _stability,
    ("map_iteration", "pointwise"): _at_most("pointwise", _pointwise_excess, "max excess {:.3g}"),
    ("map_iteration", "sup_beta"): _at_most(
        "sup_beta", lambda run: float(np.max(np.diff(run.hist.sup_beta), initial=0.0)),
        "max increase {:.3g}"),
    ("self_similar", "z4"): _at_most("z4", lambda run: run.prof.z4_residual, "residual {:.3g}"),
    ("self_similar", "g_end"): _g_end,
    ("self_similar", "monotone"): _at_most(
        "monotone", lambda run: float(np.max(np.maximum(-np.diff(run.g.values), 0.0))),
        "worst decrease {:.3g}"),
    ("analysis", "reverse_jensen"): _certificate("reverse_jensen", "C={0.C_used:.4g}"),
    ("analysis", "sharp_jensen"): _certificate("sharp_jensen", "eta={0.eta_used:.4g}"),
    ("analysis", "tail_bounds"): lambda run, opts: _bound_report(
        jensen.tail_and_conditional_bounds(run.fam.profile)),
    ("analysis", "gap"): lambda run, opts: _bound_report(
        jensen.quantitative_jensen_gap(run.fam.profile, run.alpha)),
    ("analysis", "regular_variation"): _regular_variation,
}


def _run_section(section: str, model: str, opts: dict, outdir: Path) -> dict:
    """Run one section, evaluate its requested checks and write its summary.json."""
    if model not in MODEL_RUNNERS:
        raise ConfigError(f"unknown model {model!r}")
    unknown = [key for key in opts if key not in ("model", "checks", "output") + MODEL_KEYS[model]]
    if unknown:
        raise ConfigError(f"unknown key(s) for model {model!r}: {', '.join(unknown)}")
    capped = []
    show = warnings.showwarning

    def intercept(message, category, filename, lineno, file=None, line=None):
        # cap warnings are counted; every other warning shows as it happens
        if issubclass(category, ConvergenceWarning):
            capped.append(str(message))
        else:
            show(message, category, filename, lineno, file, line)

    with warnings.catch_warnings():
        warnings.simplefilter("always", ConvergenceWarning)
        warnings.showwarning = intercept
        run = MODEL_RUNNERS[model](opts, outdir)
        results = {}
        for name in _requested(opts):
            check = CHECKS.get((model, name))
            # a name not registered for the model, or a check without the data
            # it needs, has not passed
            results[name] = (check(run, opts) if check else None) or NOT_EVALUATED
    summary = getattr(run, "summary", {})
    if summary.get("terminated", "t_final") != "t_final":
        # a run that stopped short of t_final must not read as passed
        results["termination"] = CheckResult(
            False, summary["T_final"], math.nan,
            f"run ended by {summary['terminated']} at t={summary['T_final']:g}")
    if capped:
        # nor a run whose kernel gave up at its iteration cap
        results["convergence"] = CheckResult(
            False, len(capped), 0,
            f"{len(capped)} kernel call(s) hit the iteration cap, first: {capped[0]}")
    record = {"model": model, "scenario": section, **summary,
              "violations": [name for name, r in results.items() if not r.passed],
              "checks": {name: {"passed": bool(r.passed), "value": json_number(r.value),
                                "bound": json_number(r.bound), "detail": r.detail}
                         for name, r in results.items()}}
    (outdir / "summary.json").write_text(json.dumps(record, indent=2) + "\n")
    return results


def run_config(config_path: str, output_root: str | None = None) -> int:
    parser = configparser.ConfigParser()
    read = parser.read(config_path)
    if not read:
        print(f"error: cannot read config {config_path}", file=sys.stderr)
        return 2
    root = Path(output_root or os.environ.get(OUTPUT_ROOT_ENV) or
                Path(config_path).resolve().parent / "out")
    failures = 0
    rows = []
    for section in parser.sections():
        opts = dict(parser.items(section))
        model = opts.get("model", "lsw")
        outdir = root / opts.get("output", section)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            results = _run_section(section, model, opts, outdir)
        except Exception as exc:
            # one crashing section is a failure, not the end of the batch;
            # its summary.json keeps the traceback
            error = f"{type(exc).__name__}: {exc}"
            rows.append((section, "FAIL", error, time.perf_counter() - t0))
            failures += 1
            crash = {"model": model, "scenario": section, "error": error,
                     "traceback": traceback.format_exc()}
            (outdir / "summary.json").write_text(json.dumps(crash, indent=2) + "\n")
            continue
        elapsed = time.perf_counter() - t0
        if not results:
            rows.append((section, "ok", "no checks requested", elapsed))
        for name, r in results.items():
            rows.append((section, "ok" if r.passed else "FAIL", f"{name}: {r.detail}", elapsed))
            if not r.passed:
                failures += 1
    width = max((len(r[0]) for r in rows), default=8)
    for section, status, detail, elapsed in rows:
        print(f"{section:<{width}}  {status:<4}  {detail}  [{elapsed:.2f}s]")
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


def list_families() -> int:
    for name in sorted(FAMILY_DESCRIPTIONS):
        print(f"{name:<26} {FAMILY_DESCRIPTIONS[name]}")
    return 0


def compare_traces(path_a: str, path_b: str, tol: float | None = None) -> int:
    a = np.genfromtxt(path_a, delimiter=",", names=True)
    b = np.genfromtxt(path_b, delimiter=",", names=True)
    cols_a, cols_b = a.dtype.names, b.dtype.names
    if cols_a != cols_b:
        print(f"column mismatch: {cols_a} vs {cols_b}")
        return 1
    n = min(len(a), len(b))
    worst = 0.0
    for col in cols_a:
        va, vb = np.atleast_1d(a[col])[:n], np.atleast_1d(b[col])[:n]
        denom = np.maximum(np.abs(va), 1e-300)
        rel = float(np.max(np.abs(va - vb) / denom))
        worst = max(worst, rel)
        print(f"{col:<10} max rel diff {rel:.6g}")
    if len(a) != len(b):
        print(f"row count differs: {len(a)} vs {len(b)} (compared first {n})")
        if tol is not None:
            print(f"FAIL: row counts differ ({len(a)} vs {len(b)})")
            return 1
    if tol is not None and worst > tol:
        print(f"FAIL: max relative difference {worst:.6g} exceeds {tol:g}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lswkit", description="coarsening dynamics scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute scenarios from an INI config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None,
                       help=f"output root (default: $" + OUTPUT_ROOT_ENV + " or ./out)")
    sub.add_parser("families", help="list built-in initial-data families")
    p_cmp = sub.add_parser("compare", help="diff two trace CSV files")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_config(args.config, args.output)
    if args.command == "families":
        return list_families()
    return compare_traces(args.a, args.b, args.tol)


if __name__ == "__main__":
    sys.exit(main())
