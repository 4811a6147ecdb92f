"""Scenario runner: INI configs in, traces / certificates / summaries out.

Commands:

    lswkit run <config.ini> [--output DIR]   execute each section as a scenario
    lswkit families                          list built-in initial data
    lswkit compare <a.csv> <b.csv> [--tol T] diff two trace files column-wise

Each config section chooses a model (lsw, linear, map_iteration,
self_similar, analysis), an initial-data family with parameters, numeric
settings, and a comma-separated list of checks.  The exit status is nonzero
exactly when a requested check fails or is not evaluated (an unknown name,
or a check that needs snapshots the run did not take), or a solver run stops
before t_final; scenario crashes are reported and counted as failures
without aborting the batch.
"""
from __future__ import annotations

import argparse
import configparser
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, LswkitError
from .families import FAMILY_BUILDERS, make_family
from . import jensen
from .lsw_solver import (
    SolverConfig, advance_global, coarsening_identity_check, beta_along_flow,
    g_profile, normalized_view, dyadic_report, save_summary,
)
from .linear_model import (
    LinearModelConfig, run_linear_model, stability_check, identity_check,
    mass_drift, affine_exactness_check,
)
from .map_iteration import MapF, linear_map, cube_root_map, iterate, beta_transform
from .profiles import beta_from_profile, regular_variation_exponent
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


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _build_family(opts: dict):
    name = opts.get("family", "exponential")
    if name == "self-similar":
        accepted = ("alpha", "n_bulk", "n_cluster")
    else:
        sig = inspect.signature(FAMILY_BUILDERS[name])
        accepted = tuple(sig.parameters)
    params = {}
    for key in FAMILY_PARAM_KEYS:
        if key in opts and key in accepted:
            params[key] = int(opts[key]) if key == "n" else float(opts[key])
    return make_family(name, **params)


def _parse_times(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _requested(opts: dict) -> list:
    return [c.strip() for c in opts.get("checks", "").split(",") if c.strip()]


def _termination_check(checks: dict, terminated: str, t_end: float) -> None:
    # a run that stopped short of t_final must not read as passed
    if terminated != "t_final":
        checks["termination"] = (False, f"run ended by {terminated} at t={t_end:g}")


def _make_map(opts: dict) -> MapF:
    kind = opts.get("map", "cube-root")
    if kind == "linear":
        return linear_map(float(opts.get("lam", 0.5)))
    if kind == "cube-root":
        return cube_root_map()
    raise ConfigError(f"unknown map {kind!r}; choose linear or cube-root")


# ---------------------------------------------------------------------------
# per-model scenario drivers; each returns {check_name: (passed, detail)}


def _run_lsw(opts: dict, outdir: Path) -> dict:
    fam = _build_family(opts)
    cfg = SolverConfig(
        delta=float(opts.get("delta", 0.05)),
        tol=float(opts.get("tol", 1e-8)),
    )
    t_final = float(opts.get("t_final", 20.0))
    snaps = _parse_times(opts.get("snapshots", ""))
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
    checks = {}
    trace = result.trace.as_arrays()
    if "conservation" in requested:
        drift = np.max(np.abs(trace["mass"] - trace["mass"][0])) / trace["mass"][0]
        checks["conservation"] = (bool(drift <= 1e-4), f"max relative mass drift {drift:.3g}")
    if "upper_bound" in requested:
        b = beta_from_profile(fam.profile)
        bound = trace["Lambda"][0] + b.sup * trace["t"]
        slack = float(np.max(trace["Lambda"] - bound))
        e_slack = float(np.max(trace["E"] - trace["Lambda"] ** (-1.0 / 3.0)))
        ok = slack <= 1e-9 * trace["Lambda"][0] and e_slack <= 1e-9
        checks["upper_bound"] = (bool(ok), f"Lambda slack {slack:.3g}, E slack {e_slack:.3g}")
    if "identity" in requested:
        rep = coarsening_identity_check(result.trace)
        ok = rep["frac_within_2pct"] >= 0.95
        checks["identity"] = (bool(ok), f"{rep['frac_within_2pct']:.3f} of samples within 2%")
    if "picard" in requested:
        iters = max(p.iterations for p in result.picard)
        ratios = [r for p in result.picard for r in p.ratios]
        ok = iters <= 10 and all(r < 1.0 for r in ratios)
        checks["picard"] = (bool(ok), f"max iterations {iters}, max ratio "
                            f"{max(ratios) if ratios else 0.0:.3g}")
    if "monotonicity" in requested:
        worst = 0.0
        for snap in result.snapshots:
            tb, _ = beta_along_flow(snap, fam.profile, result.ensemble.beta0)
            ok_nodes = ~tb.low_confidence
            bv = tb.values[ok_nodes]
            worst = max(worst, float(np.max(np.maximum(-np.diff(bv), 0.0), initial=0.0)))
            gx, gv = g_profile(snap)
            worst = max(worst, float(np.max(-gv, initial=0.0)))
            worst = max(worst, float(np.max(np.diff(gv[gx < 0.9 * gx[-1]]), initial=0.0)))
        checks["monotonicity"] = (bool(worst <= 1e-6), f"worst violation {worst:.3g}")
    if "stationarity" in requested and result.snapshots:
        snap = result.snapshots[-1]
        y, ws = normalized_view(snap)
        yy = np.linspace(0.0, max(float(y[-1]), float(fam.profile.sup_x)), 8192)
        sup = float(np.max(np.abs(np.interp(yy, y, ws, right=0.0) - fam.profile.w_at(yy))))
        rate = float(fam.beta_exact(0.0))
        berr = abs(trace["beta0"][-1] - rate)
        ok = sup <= 1e-2 and berr <= 1e-2
        checks["stationarity"] = (bool(ok), f"sup |w*-w*(0)| {sup:.3g}, "
                                  f"|beta(0,tau)-beta*(0)| {berr:.3g}")
    if "dyadic" in requested and result.snapshots:
        rep = dyadic_report(result.snapshots)
        last = rep["snapshots"][-1]["ratios"]
        finite = last[np.isfinite(last)]
        detail = f"final ratios {np.array2string(finite[:10], precision=3)}"
        ok = len(finite) >= 10 and abs(finite[9] - 2.0) <= 0.1
        checks["dyadic"] = (bool(ok), detail)
        (outdir / "dyadic.json").write_text(json.dumps(
            [{"tau": r["tau"], "lengths": r["lengths"].tolist(),
              "ratios": r["ratios"].tolist()} for r in rep["snapshots"]],
            indent=2) + "\n")
    if result.snapshots:
        y, ws = normalized_view(result.snapshots[-1])
        with (outdir / "normalized.csv").open("w") as f:
            f.write("y,w_star\n")
            for a, b in zip(y, ws):
                f.write(f"{_fmt(a)},{_fmt(b)}\n")
    _termination_check(checks, result.terminated, result.trace.t[-1])
    save_summary(result, outdir / "summary.json", scenario=opts.get("_name", ""),
                 violations=[k for k, (ok, _) in checks.items() if not ok])
    return checks


def _run_linear(opts: dict, outdir: Path) -> dict:
    fam = _build_family(opts)
    cfg = LinearModelConfig(delta=float(opts.get("delta", 0.05)))
    t_final = float(opts.get("t_final", 200.0))
    result = run_linear_model(fam.profile, t_final, cfg, beta0=fam.beta_exact)
    result.trace.save(outdir / "trace.csv")
    checks = {}
    requested = _requested(opts)
    if "conservation" in requested:
        drift = mass_drift(result)
        checks["conservation"] = (bool(drift <= 1e-4), f"max relative mass drift {drift:.3g}")
    if "identity" in requested:
        rep = identity_check(result)
        ok = rep["frac_within_2pct"] >= 0.95
        checks["identity"] = (bool(ok), f"{rep['frac_within_2pct']:.3f} of samples within 2%")
    if "affine" in requested:
        dev = affine_exactness_check(result)
        tol = float(opts.get("affine_tol", 1e-6))
        checks["affine"] = (bool(dev <= tol), f"max reconstruction deviation {dev:.3g}")
    if "stability" in requested:
        rep = stability_check(fam.profile, result)
        target = opts.get("beta_limit")
        if not rep.applicable:
            checks["stability"] = (True, f"inapplicable: {rep.note}")
        elif target is None:
            checks["stability"] = (True, f"slope {rep.slope:.4f} (no target configured)")
        else:
            tol = float(opts.get("stability_tol", 0.05))
            ok = abs(rep.slope - float(target)) <= tol
            checks["stability"] = (bool(ok), f"slope {rep.slope:.4f} vs {float(target):.4f}")
    _termination_check(checks, result.terminated, result.trace.t[-1])
    (outdir / "summary.json").write_text(json.dumps({
        "model": "linear",
        "scenario": opts.get("_name", ""),
        "T_final": result.trace.t[-1] if result.trace.t else 0.0,
        "tau_final": result.tau,
        "terminated": result.terminated,
        "violations": [k for k, (ok, _) in checks.items() if not ok],
    }, indent=2) + "\n")
    return checks


def _run_map_iteration(opts: dict, outdir: Path) -> dict:
    fam = _build_family(opts)
    F = _make_map(opts)
    n_steps = int(opts.get("n_steps", 20))
    rho = float(opts.get("rho", 0.5))
    K = float(opts.get("k_norm", 1.0))
    hist = iterate(fam.profile, F, rho, K, n_steps,
                   n_grid=int(opts.get("n_grid", 2048)))
    hist.save(outdir / "history.csv")
    checks = {}
    requested = _requested(opts)
    if "pointwise" in requested:
        tb = beta_transform(fam.profile, F)
        base = beta_from_profile(fam.profile)
        ok_nodes = ~tb.low_confidence
        excess = tb.values[ok_nodes] - base.at(F(tb.grid[ok_nodes]))
        worst = float(np.max(excess, initial=-np.inf))
        checks["pointwise"] = (bool(worst <= 1e-8), f"max excess {worst:.3g}")
    if "sup_beta" in requested:
        sb = np.array(hist.sup_beta)
        worst = float(np.max(np.diff(sb), initial=0.0))
        checks["sup_beta"] = (bool(worst <= 1e-8), f"max increase {worst:.3g}")
    return checks


def _run_self_similar(opts: dict, outdir: Path) -> dict:
    alpha = float(opts.get("alpha", 0.05))
    prof = build_profile(alpha)
    g = g_alpha_profile(prof)
    prof.save(outdir / "self_similar.csv", g=g.values)
    checks = {}
    requested = _requested(opts)
    if "z4" in requested:
        checks["z4"] = (bool(prof.z4_residual <= 1e-5), f"residual {prof.z4_residual:.3g}")
    if "g_end" in requested:
        err0 = abs(g.g0 - alpha * prof.gamma)
        err1 = abs(g.g_end - g.g_end_exact)
        ok = err0 <= 1e-4 and err1 <= 1e-4
        checks["g_end"] = (bool(ok), f"|g(0)-alpha*gamma|={err0:.3g}, end error {err1:.3g}")
    if "monotone" in requested:
        worst = float(np.max(np.maximum(-np.diff(g.values), 0.0)))
        checks["monotone"] = (bool(worst <= 1e-8), f"worst decrease {worst:.3g}")
    return checks


def _run_analysis(opts: dict, outdir: Path) -> dict:
    fam = _build_family(opts)
    alpha = float(opts.get("alpha", 0.5))
    checks = {}
    requested = _requested(opts)
    if "reverse_jensen" in requested:
        cert = jensen.reverse_jensen(fam.profile, alpha)
        cert.to_json(outdir / "reverse_jensen.json")
        checks["reverse_jensen"] = (bool(cert.passed or not cert.applicable),
                                    f"C={cert.C_used:.4g}" if cert.applicable else cert.note)
    if "sharp_jensen" in requested:
        cert = jensen.sharp_jensen(fam.profile, alpha)
        cert.to_json(outdir / "sharp_jensen.json")
        checks["sharp_jensen"] = (bool(cert.passed or not cert.applicable),
                                  f"eta={cert.eta_used:.4g}" if cert.applicable else cert.note)
    if "tail_bounds" in requested:
        rep = jensen.tail_and_conditional_bounds(fam.profile)
        checks["tail_bounds"] = (rep.passed, f"max violation {rep.max_violation:.3g}")
    if "gap" in requested:
        rep = jensen.quantitative_jensen_gap(fam.profile, alpha)
        checks["gap"] = (rep.passed, f"max violation {rep.max_violation:.3g}")
    if "regular_variation" in requested:
        est = regular_variation_exponent(fam.profile)
        target = opts.get("rv_target")
        if est.oscillatory:
            ok = opts.get("rv_expect", "") == "oscillatory"
            checks["regular_variation"] = (bool(ok), f"oscillatory, residual {est.residual:.3g}")
        elif target is not None:
            ok = abs(est.exponent - float(target)) <= float(opts.get("rv_tol", 0.05))
            checks["regular_variation"] = (bool(ok), f"exponent {est.exponent:.4f}")
        else:
            checks["regular_variation"] = (True, f"exponent {est.exponent:.4f}")
    return checks


MODEL_RUNNERS = {
    "lsw": _run_lsw,
    "linear": _run_linear,
    "map_iteration": _run_map_iteration,
    "self_similar": _run_self_similar,
    "analysis": _run_analysis,
}


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
        opts["_name"] = section
        model = opts.get("model", "lsw")
        outdir = root / opts.get("output", section)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            runner = MODEL_RUNNERS[model]
        except KeyError:
            rows.append((section, "FAIL", f"unknown model {model!r}", 0.0))
            failures += 1
            continue
        try:
            checks = runner(opts, outdir)
        except (LswkitError, ValueError, KeyError, TypeError) as exc:
            rows.append((section, "FAIL", f"{type(exc).__name__}: {exc}",
                         time.perf_counter() - t0))
            failures += 1
            continue
        elapsed = time.perf_counter() - t0
        # a requested check that left no result is a misspelling or was
        # skipped for want of data; either way it has not passed
        for name in _requested(opts):
            checks.setdefault(name, (False, "unknown or not evaluated"))
        if not checks:
            rows.append((section, "ok", "no checks requested", elapsed))
        for name, (ok, detail) in checks.items():
            rows.append((section, "ok" if ok else "FAIL", f"{name}: {detail}", elapsed))
            if not ok:
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
