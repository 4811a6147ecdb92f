"""Scenario runner: ``lswkit run <config.ini> [--output DIR]`` runs each section of
a config as a scenario, ``lswkit families`` lists the built-in initial data and
``lswkit compare <a.csv> <b.csv> [--tol T]`` diffs two traces column-wise.

A section chooses a model, an initial-data family with parameters, settings
and a comma-separated list of checks.  ``SETTINGS`` parses it before anything
runs; a runner per model runs it, each requested check is looked up in
``CHECKS`` by (model, name), and every section gets a ``summary.json``.  The
exit status is nonzero exactly when a section fails: a key its model does not
read, a value that does not parse or lies outside its domain, a requested check
that fails or is not evaluated, a run that stops before t_final, a kernel at
its iteration cap (a ``ConvergenceWarning``), or a crash, which spares the rest.
"""
from __future__ import annotations

import argparse
import configparser
import inspect
import math
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceWarning, require_setting
from .families import FAMILY_BUILDERS, make_family
from . import jensen
from .lsw_solver import (SolverConfig, advance_global, coarsening_identity_check, mass_drift,
                         beta_along_flow, g_profile, normalized_view, dyadic_report)
from .linear_model import run_linear_model, stability_check, affine_exactness_check
from .map_iteration import linear_map, cube_root_map, iterate, beta_transform
from .profiles import beta_from_profile, regular_variation_exponent, write_csv, write_json
from .self_similar import build_profile, g_alpha_profile

OUTPUT_ROOT_ENV = "LSWKIT_OUTPUT_ROOT"


def _given(opts: dict, *keys) -> dict:
    """The ``keys`` the section sets; the rest keep the library's defaults."""
    return {key: opts[key] for key in keys if key in opts}


def _build_family(opts: dict):
    # make_family fails on a parameter the family does not take
    return make_family(opts["family"], **_given(opts, *(key for key in _FAMILY if key != "family")))


# ---------------------------------------------------------------------------
# per-model runners: each runs its model on the parsed settings, writes its
# output files and returns what the checks read (``summary``: its summary.json fields)


def _run_lsw(opts: dict, outdir: Path) -> SimpleNamespace:
    fam = _build_family(opts)
    cfg = SolverConfig(**_given(opts, "delta", "tol"))
    t_final, snaps = opts["t_final"], opts["snapshots"]
    if "stationarity" in opts["checks"]:
        # evolve to the requested rescaled time: Lambda grows linearly at the
        # stationary rate beta*(0), so t(tau) is explicit, and t = tau at rate 0
        if fam.beta_exact is None:
            raise ConfigError("stationarity check needs a family with a known beta")
        rate, tau = float(fam.beta_exact(0.0)), opts["tau_target"]
        t_final = float((np.exp(tau * rate) - 1.0) / rate) if rate else tau
        snaps = tuple(sorted(set(snaps) | {t_final}))
    result = advance_global(fam.profile, t_final, cfg, beta0=fam.beta_exact, snapshot_times=snaps)
    result.trace.save(outdir / "trace.csv")
    for i, snap in enumerate(result.snapshots):
        snap.profile().save(outdir / f"snapshot_{i}.csv")
    dyadic = None
    if "dyadic" in opts["checks"] and result.snapshots:
        dyadic = dyadic_report(result.snapshots)
        write_json(outdir / "dyadic.json",
                   [{"tau": r["tau"], "lengths": r["lengths"].tolist(),
                     "ratios": r["ratios"].tolist()} for r in dyadic["snapshots"]])
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
    result = run_linear_model(fam.profile, opts["t_final"], beta0=fam.beta_exact,
                              **_given(opts, "delta"))
    result.trace.save(outdir / "trace.csv")
    summary = {"T_final": result.trace.t[-1] if result.trace.t else 0.0,
               "tau_final": result.tau, "terminated": result.terminated}
    return SimpleNamespace(fam=fam, result=result, summary=summary)


def _run_map_iteration(opts: dict, outdir: Path) -> SimpleNamespace:
    fam = _build_family(opts)
    F = linear_map(opts["lam"]) if opts["map"] == "linear" else cube_root_map()
    hist = iterate(fam.profile, F, 0.5, 1.0, opts["n_steps"], **_given(opts, "n_grid"))
    hist.save(outdir / "history.csv")
    return SimpleNamespace(fam=fam, F=F, hist=hist)


def _run_self_similar(opts: dict, outdir: Path) -> SimpleNamespace:
    prof = build_profile(opts["alpha"])
    g = g_alpha_profile(prof)
    prof.save(outdir / "self_similar.csv", g=g.values)
    return SimpleNamespace(prof=prof, g=g)


def _run_analysis(opts: dict, outdir: Path) -> SimpleNamespace:
    if opts["family"] == "self-similar":
        raise ConfigError("family = self-similar in an analysis section: alpha would be both "
                          "the profile parameter and the Jensen exponent")
    fam = _build_family({key: value for key, value in opts.items() if key != "alpha"})
    certificates = {}
    for name in ("reverse_jensen", "sharp_jensen"):
        if name in opts["checks"]:
            certificates[name] = getattr(jensen, name)(fam.profile, opts["alpha"])
            certificates[name].to_json(outdir / f"{name}.json")
    return SimpleNamespace(fam=fam, alpha=opts["alpha"], certificates=certificates)


MODEL_RUNNERS = {"lsw": _run_lsw, "linear": _run_linear, "map_iteration": _run_map_iteration,
                 "self_similar": _run_self_similar, "analysis": _run_analysis}

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

# the bounds; stability takes its own from stability_tol (default: its bound here)
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


def _at_most(name: str, measure, fmt: str) -> Callable:
    """A check that passes while ``measure(run)`` is at most the bound of ``name``."""
    def check(run, opts) -> CheckResult:
        value = measure(run)
        bound = BOUNDS[name]
        return CheckResult(value <= bound, value, bound, fmt.format(value))
    return check


def _after_a_step(check: Callable) -> Callable:
    """``check``, not evaluated on a run that took no step: its trace holds one row."""
    return lambda run, opts: check(run, opts) if len(run.result.trace.t) > 1 else None


def _identity(run, opts) -> CheckResult | None:
    if len(run.result.trace.t) < 3:     # no centred difference
        return None
    within, fraction = BOUNDS["identity"]
    rel = coarsening_identity_check(run.result.trace)
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


def _picard(run, opts) -> CheckResult | None:
    if not run.result.picard:
        return None
    max_sweeps, max_ratio = BOUNDS["picard"]
    iters = max(p.iterations for p in run.result.picard)
    ratios = [r for p in run.result.picard for r in p.ratios]
    detail = f"max iterations {iters}, max ratio {max(ratios, default=0.0):.3g}"
    slow = [r for r in ratios if not r < max_ratio]
    if slow and iters <= max_sweeps:
        # within the sweep cap, the step fails on its contraction ratio
        return CheckResult(False, max(slow), max_ratio, detail)
    return CheckResult(iters <= max_sweeps, iters, max_sweeps, detail)


def _monotonicity(run, opts) -> CheckResult | None:
    """Worst failure of beta(., t) to rise and of g(., t) to be >= 0 and fall."""
    res = run.result
    if not res.snapshots:
        return None
    worst = 0.0
    for snap in res.snapshots:
        tb = beta_along_flow(snap, run.fam.profile, res.ensemble.beta0)
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
    # over both supports; an unbounded one ends at the profile's last node
    end = prof.sup_x if np.isfinite(prof.sup_x) else prof.grid[-1]
    yy = np.linspace(0.0, max(float(y[-1]), float(end)), 8192)
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
    tol = opts["stability_tol"]
    dev = abs(rep.slope - target)
    return CheckResult(dev <= tol, dev, tol, f"slope {rep.slope:.4f} vs {target:.4f}")


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
    if est.oscillatory:
        return CheckResult(False, est.residual, math.nan, f"oscillatory, residual {est.residual:.3g}")
    target = opts.get("rv_target")
    if target is None:
        return None
    tol = BOUNDS["regular_variation"]
    dev = abs(est.exponent - target)
    return CheckResult(dev <= tol, dev, tol, f"exponent {est.exponent:.4f}")


CHECKS = {
    ("lsw", "conservation"): _after_a_step(_at_most(
        "conservation", lambda run: mass_drift(run.result.trace), "max relative mass drift {:.3g}")),
    ("lsw", "upper_bound"): _after_a_step(_upper_bound),
    ("lsw", "identity"): _identity,
    ("lsw", "picard"): _picard,
    ("lsw", "monotonicity"): _monotonicity,
    ("lsw", "stationarity"): _stationarity,
    ("lsw", "dyadic"): _dyadic,
    ("linear", "conservation"): _after_a_step(_at_most(
        "conservation", lambda run: run.result.mass_defect, "max relative RK4 mass defect {:.3g}")),
    ("linear", "identity"): _identity,
    ("linear", "affine"): _after_a_step(_at_most(
        "affine", lambda run: affine_exactness_check(run.result), "max reconstruction deviation {:.3g}")),
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


# ---------------------------------------------------------------------------
# the settings: for each model, every key its runner and its checks read.  A key
# with the default None stays unset when the section leaves it out: the library
# function that reads it applies its own default and checks its own domain.


class Setting(NamedTuple):
    parse: Callable | tuple  # int, float, _floats, or a tuple of the choices
    default: object = None
    sign: str | None = None  # a domain: finite and ">" or ">=" 0, "(0, 1)", or "" (see require_setting)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


# a family parameter parses as its builders' annotation says, and keeps their default
_FAMILY = {"family": Setting(tuple(sorted(FAMILY_BUILDERS)), "exponential"),
           **{p.name: {"int": Setting(int, sign=">"), "float": Setting(float)}[p.annotation]
              for builder in FAMILY_BUILDERS.values()
              for p in inspect.signature(builder).parameters.values()}}
SETTINGS = {
    "lsw": {**_FAMILY, "delta": Setting(float), "tol": Setting(float),
            "t_final": Setting(float, 20.0), "snapshots": Setting(_floats, ()),
            "tau_target": Setting(float, 2.0, ">=")},
    "linear": {**_FAMILY, "delta": Setting(float), "t_final": Setting(float, 200.0),
               "beta_limit": Setting(float, sign=""),
               "stability_tol": Setting(float, BOUNDS["stability"], ">")},
    "map_iteration": {**_FAMILY, "map": Setting(("cube-root", "linear"), "cube-root"),
                      "lam": Setting(float, 0.5), "n_steps": Setting(int, 20, ">"),
                      "n_grid": Setting(int, sign=">")},
    "self_similar": {"alpha": Setting(float, 0.05)},
    # alpha is the Jensen exponent here, not a family parameter
    "analysis": {**_FAMILY, "alpha": Setting(float, 0.5, "(0, 1)"),
                 "rv_target": Setting(float, sign="")},
}


def _setting(opts: dict, model: str, key: str):
    """``key`` of a ``model`` section, parsed, or its default; errors name the key."""
    parse, default, sign = SETTINGS[model][key]
    text = opts.get(key, default)
    if not isinstance(text, str):
        return text
    if isinstance(parse, tuple):
        if text not in parse:
            raise ConfigError(f"unknown {key} {text!r}; choose {', '.join(parse)}")
        return text
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key} = {text!r}: {exc}") from None
    if sign is not None:
        require_setting(key, value, sign)
    return value


def _parse_section(model: str, opts: dict) -> dict:
    """The settings of a section, its defaults applied, and its checks as a list."""
    if model not in MODEL_RUNNERS:
        raise ConfigError(f"unknown model {model!r}")
    unknown = [key for key in opts if key not in ("model", "checks", *SETTINGS[model])]
    if unknown:
        raise ConfigError(f"unknown key(s) for model {model!r}: {', '.join(unknown)}")
    parsed = {key: value for key in SETTINGS[model]
              if (value := _setting(opts, model, key)) is not None}
    return {**parsed, "checks": [c.strip() for c in opts.get("checks", "").split(",") if c.strip()]}


def _run_section(section: str, model: str, opts: dict, outdir: Path) -> dict:
    """Run one section, evaluate its requested checks and write its summary.json."""
    opts = _parse_section(model, opts)
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
        for name in opts["checks"]:
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
    write_json(outdir / "summary.json", dict(
        model=model, scenario=section, **summary,
        violations=[name for name, r in results.items() if not r.passed],
        checks={name: {"passed": bool(r.passed), "value": float(r.value), "bound": float(r.bound),
                       "detail": r.detail} for name, r in results.items()}))
    return results


def run_config(config_path: str, output_root: str | None = None) -> int:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(config_path):
            raise configparser.Error("cannot read it")
        if not parser.sections():
            raise configparser.Error("it has no sections")
    except configparser.Error as exc:
        print(f"error: config {config_path}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 2
    root = Path(output_root or os.environ.get(OUTPUT_ROOT_ENV) or
                Path(config_path).resolve().parent / "out")
    rows = []
    for section in parser.sections():
        opts = dict(parser.items(section))
        model = opts.get("model", "lsw")
        outdir = root / section
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            results = _run_section(section, model, opts, outdir)
        except Exception as exc:
            # one crashing section is a failure, not the end of the batch;
            # its summary.json keeps the traceback
            error = f"{type(exc).__name__}: {exc}"
            rows.append((section, "FAIL", error, time.perf_counter() - t0))
            write_json(outdir / "summary.json", dict(model=model, scenario=section, error=error,
                                                     traceback=traceback.format_exc()))
            continue
        elapsed = time.perf_counter() - t0
        if not results:
            rows.append((section, "ok", "no checks requested", elapsed))
        for name, r in results.items():
            rows.append((section, "ok" if r.passed else "FAIL", f"{name}: {r.detail}", elapsed))
    failures = sum(status == "FAIL" for _, status, _, _ in rows)
    width = max((len(r[0]) for r in rows), default=8)
    for section, status, detail, elapsed in rows:
        print(f"{section:<{width}}  {status:<4}  {detail}  [{elapsed:.2f}s]")
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


def list_families() -> int:
    """Each registered family with its parameters and the first line of its builder's docstring."""
    for name, builder in sorted(FAMILY_BUILDERS.items()):
        params = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default}"
                           for p in inspect.signature(builder).parameters.values())
        print(f"{name:<24} {params:<16} {inspect.getdoc(builder).splitlines()[0]}")
    return 0


def compare_traces(path_a: str, path_b: str, tol: float | None = None) -> int:
    if tol is not None and not tol >= 0:
        print(f"error: --tol {tol:g} must be >= 0", file=sys.stderr)
        return 2
    traces = []
    for path in (path_a, path_b):
        try:
            with warnings.catch_warnings():
                # an empty file is only a warning, before an IndexError on its header
                warnings.simplefilter("error")
                # ndmin=1: a one-row trace reads as one row, not as a 0-d record
                traces.append(np.genfromtxt(path, delimiter=",", names=True, ndmin=1))
        except (OSError, ValueError, UserWarning) as exc:
            print(f"error: trace {path}: {' '.join(str(exc).split())}", file=sys.stderr)
            return 2
    a, b = traces
    if a.dtype.names != b.dtype.names:
        print(f"column mismatch: {a.dtype.names} vs {b.dtype.names}")
        return 1
    n = min(len(a), len(b))
    failed = []
    for col in a.dtype.names:
        va, vb = a[col][:n], b[col][:n]
        denom = np.maximum(np.abs(va), 1e-300)
        # equal entries, NaN against NaN included, do not differ; any other
        # non-finite difference is NaN or inf, which no tolerance meets
        same = (va == vb) | (np.isnan(va) & np.isnan(vb))
        with np.errstate(invalid="ignore"):
            # with no common rows no column differs; the row counts do
            rel = float(np.max(np.where(same, 0.0, np.abs(va - vb) / denom), initial=0.0))
        if tol is not None and not rel <= tol:
            failed.append(f"{col} ({rel:.6g})")
        print(f"{col:<10} max rel diff {rel:.6g}")
    if len(a) != len(b):
        print(f"row count differs: {len(a)} vs {len(b)} (compared first {n})")
        if tol is not None:
            print(f"FAIL: row counts differ ({len(a)} vs {len(b)})")
            return 1
    if failed:
        print(f"FAIL: max relative difference exceeds {tol:g} in {', '.join(failed)}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lswkit", description="coarsening dynamics scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute scenarios from an INI config")
    p_run.add_argument("config")
    p_run.add_argument("--output", help=f"output root (default: ${OUTPUT_ROOT_ENV} or ./out)")
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
