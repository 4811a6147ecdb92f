import configparser
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import lswkit
from lswkit import cli, linear_model, lsw_solver
from lswkit.cli import main
from lswkit.families import FAMILY_BUILDERS, make_family
from lswkit.lsw_solver import CoarseningTrace


FAST_CONFIG = """\
[quick-linear]
model = linear
family = constant-beta
beta = 0.5
t_final = 50
beta_limit = 0.5
checks = conservation, identity, stability, affine

[quick-map]
model = map_iteration
family = constant-beta
beta = 0.5
map = cube-root
n_steps = 3
n_grid = 512
checks = pointwise, sup_beta

[quick-analysis]
model = analysis
family = exponential
alpha = 0.5
checks = reverse_jensen, sharp_jensen, tail_bounds, gap
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "quick.ini"
    path.write_text(FAST_CONFIG)
    return path


def test_run_exit_zero_on_pass(config_path, tmp_path, capsys):
    rc = main(["run", str(config_path), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    assert (tmp_path / "out" / "quick-linear" / "trace.csv").exists()
    assert (tmp_path / "out" / "quick-map" / "history.csv").exists()
    assert (tmp_path / "out" / "quick-analysis" / "sharp_jensen.json").exists()


def test_run_exit_one_on_failing_check(tmp_path, capsys):
    cfg = tmp_path / "fail.ini"
    cfg.write_text(
        "[wrong-limit]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\n"
        "t_final = 50\nbeta_limit = 0.9\nstability_tol = 0.01\nchecks = stability\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_unknown_model_is_isolated(tmp_path, capsys):
    cfg = tmp_path / "mixed.ini"
    cfg.write_text(
        "[broken]\nmodel = nope\n\n"
        "[fine]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\n"
        "t_final = 10\nchecks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unknown model" in out
    # the bad section does not abort the rest of the batch
    assert "conservation" in out


def test_bad_family_parameter_is_isolated(tmp_path, capsys):
    cfg = tmp_path / "badparam.ini"
    cfg.write_text(
        "[negative-beta]\nmodel = linear\nfamily = constant-beta\nbeta = -1\n"
        "t_final = 5\nchecks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_family_parameter_the_family_does_not_take_fails(tmp_path, capsys):
    cfg = tmp_path / "eps.ini"
    cfg.write_text("[w]\nmodel = lsw\nfamily = exponential\neps = 0.3\nt_final = 0.2\n"
                   "checks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "w  FAIL  ConfigError: family 'exponential' takes no parameter(s) eps" in out
    assert not (tmp_path / "out" / "w" / "trace.csv").exists()


def test_family_parameter_left_unset_fails_naming_it(tmp_path, capsys):
    # power-tail's eps has no default; the builder must not fail as a TypeError
    cfg = tmp_path / "pt.ini"
    cfg.write_text("[pt]\nmodel = lsw\nfamily = power-tail\nt_final = 0.2\nchecks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "pt  FAIL  ConfigError: family 'power-tail' needs parameter(s) eps" in out
    assert "TypeError" not in out


def test_energy_bound_carries_the_mass():
    # E <= mass Lambda^(-1/3): a trace of mass 0.5 whose E lies between
    # 0.5 Lambda^(-1/3) and Lambda^(-1/3) violates it
    lam = [1.0, 1.2, 1.4]
    trace = CoarseningTrace(t=[0.0, 1.0, 2.0], Lambda=lam, mass=[0.5] * 3,
                            E=[0.75 * v ** (-1.0 / 3.0) for v in lam])
    run = SimpleNamespace(fam=lswkit.exponential(), result=SimpleNamespace(trace=trace))
    r = cli.CHECKS[("lsw", "upper_bound")](run, {})
    assert not r.passed
    assert r.value == pytest.approx(0.25, rel=1e-12)
    assert "Lambda slack 0," in r.detail
    trace.mass = [1.0] * 3
    assert cli.CHECKS[("lsw", "upper_bound")](run, {}).passed


def test_run_is_deterministic(config_path, tmp_path):
    main(["run", str(config_path), "--output", str(tmp_path / "a")])
    main(["run", str(config_path), "--output", str(tmp_path / "b")])
    ta = (tmp_path / "a" / "quick-linear" / "trace.csv").read_bytes()
    tb = (tmp_path / "b" / "quick-linear" / "trace.csv").read_bytes()
    assert ta == tb


def test_compare_identical_traces(config_path, tmp_path, capsys):
    main(["run", str(config_path), "--output", str(tmp_path / "out")])
    trace = str(tmp_path / "out" / "quick-linear" / "trace.csv")
    rc = main(["compare", trace, trace, "--tol", "1e-12"])
    capsys.readouterr()
    assert rc == 0


def test_compare_detects_difference(config_path, tmp_path, capsys):
    main(["run", str(config_path), "--output", str(tmp_path / "out")])
    trace = tmp_path / "out" / "quick-linear" / "trace.csv"
    lines = trace.read_text().splitlines()
    cols = lines[1].split(",")
    cols[3] = str(float(cols[3]) * 1.5)
    other = tmp_path / "perturbed.csv"
    other.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    rc = main(["compare", str(trace), str(other), "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


@pytest.mark.parametrize("keep, rc", [(None, 0), (-1, 1)])
def test_compare_with_tol_fails_a_truncated_trace(config_path, tmp_path, capsys, keep, rc):
    # rows that agree as far as both go do not make traces of different
    # lengths the same
    main(["run", str(config_path), "--output", str(tmp_path / "out")])
    trace = tmp_path / "out" / "quick-linear" / "trace.csv"
    lines = trace.read_text().splitlines()
    other = tmp_path / "other.csv"
    other.write_text("\n".join(lines[:keep]) + "\n")
    assert main(["compare", str(trace), str(other), "--tol", "1e-12"]) == rc
    out = capsys.readouterr().out
    assert ("FAIL: row counts differ" in out) == bool(rc)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_compare_with_tol_fails_a_non_finite_difference(tmp_path, capsys, value):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,L\n0,1\n1,2\n")
    b.write_text(f"t,L\n0,1\n1,{value}\n")
    assert main(["compare", str(a), str(b), "--tol", "1e-12"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "in L (" in out
    # the same non-finite entry in both traces is no difference
    assert main(["compare", str(b), str(b), "--tol", "1e-12"]) == 0


def test_families_listing(capsys):
    rc = main(["families"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("constant-beta", "exponential", "self-similar", "power-tail"):
        assert name in out
    # the listing reads the registry: every builder, with its parameters
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert set(lines) == set(FAMILY_BUILDERS)
    for name, builder in FAMILY_BUILDERS.items():
        params = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default}"
                           for p in inspect.signature(builder).parameters.values())
        assert f" {params} " in lines[name], (name, params)
    # a section's family keys are the family and the parameters its builders take
    solver_keys = {"delta", "tol", "t_final", "snapshots", "tau_target"}
    assert set(cli.SETTINGS["lsw"]) - solver_keys == {"family", "beta", "eps", "p", "alpha", "n"}


def test_linear_summary_contents(config_path, tmp_path):
    main(["run", str(config_path), "--output", str(tmp_path / "out")])
    data = json.loads((tmp_path / "out" / "quick-linear" / "summary.json").read_text())
    assert data["model"] == "linear"
    assert data["scenario"] == "quick-linear"
    assert data["violations"] == []


def test_misspelled_check_fails(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(
        "[typo]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\n"
        "t_final = 10\nchecks = conservaton\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "conservaton: unknown or not evaluated" in out


def test_check_without_its_data_fails(tmp_path, capsys):
    # dyadic needs snapshots; without them it is not evaluated
    cfg = tmp_path / "nosnap.ini"
    cfg.write_text(
        "[nosnap]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\n"
        "checks = conservation, dyadic\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "dyadic: unknown or not evaluated" in out


def test_monotonicity_without_snapshots_fails(tmp_path, capsys):
    # with no snapshots there is nothing to be monotone; that is no pass
    cfg = tmp_path / "mono.ini"
    cfg.write_text(
        "[mono]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\n"
        "checks = monotonicity\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "monotonicity: unknown or not evaluated" in out


@pytest.mark.parametrize("section", [
    # the exponential's support is unbounded, so stability does not apply
    "[stab]\nmodel = linear\nfamily = exponential\nt_final = 5\nchecks = stability\n",
    # applicable, but with no beta_limit there is nothing to compare with
    "[stab]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\nt_final = 5\n"
    "checks = stability\n",
], ids=["inapplicable", "no-target"])
def test_stability_without_a_verdict_fails(tmp_path, capsys, section):
    cfg = tmp_path / "stab.ini"
    cfg.write_text(section)
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "stability: unknown or not evaluated" in out


def test_regular_variation_without_target_fails(tmp_path, capsys):
    cfg = tmp_path / "rv.ini"
    cfg.write_text(
        "[rv]\nmodel = analysis\nfamily = constant-beta\nbeta = 0.5\nalpha = 0.5\n"
        "checks = regular_variation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "regular_variation: unknown or not evaluated" in out


def test_unknown_key_fails_the_section(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(
        "[typo]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\ntol = 1e-6\n"
        "tolx = 3\nchecks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "typo  FAIL  ConfigError: unknown key(s) for model 'lsw': tolx" in out
    # the section fails before its model runs
    assert not (tmp_path / "out" / "typo" / "trace.csv").exists()


def test_inapplicable_certificate_is_not_evaluated(tmp_path, capsys):
    # inf beta of the indicator is 0, so the sharp certificate does not apply
    cfg = tmp_path / "j.ini"
    cfg.write_text("[j]\nmodel = analysis\nfamily = indicator\nalpha = 0.5\nchecks = sharp_jensen\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "sharp_jensen: unknown or not evaluated" in out


def test_certificates_are_strict_json(tmp_path, capsys):
    # fields a certificate does not use are null, not the NaN strict parsers reject
    cfg = tmp_path / "j.ini"
    cfg.write_text("[j]\nmodel = analysis\nfamily = exponential\nalpha = 0.3\n"
                   "checks = reverse_jensen, sharp_jensen\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for name in ("reverse_jensen", "sharp_jensen"):
        data = json.loads((tmp_path / "out" / "j" / f"{name}.json").read_text(),
                          parse_constant=reject)
        assert data["alpha"] == 0.3
    assert data["C_used"] is None and data["rhs_reverse"] is None


def test_self_similar_analysis_is_a_config_error(tmp_path, capsys):
    # alpha cannot be both the profile parameter and the Jensen exponent
    cfg = tmp_path / "ssj.ini"
    cfg.write_text("[ssj]\nmodel = analysis\nfamily = self-similar\nalpha = 0.05\n"
                   "checks = reverse_jensen, sharp_jensen\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "ssj  FAIL  ConfigError: family = self-similar in an analysis section: alpha" in out
    assert not (tmp_path / "out" / "ssj" / "sharp_jensen.json").exists()


NO_SCIPY_CONFIG = """\
[lsw]
model = lsw
family = indicator
n = 32
t_final = 0.2
checks = conservation

[linear]
model = linear
family = constant-beta
beta = 0.5
t_final = 5
checks = conservation, affine

[map]
model = map_iteration
family = exponential
map = cube-root
n_steps = 2
n_grid = 256
checks = pointwise

[self-similar]
model = self_similar
alpha = 0.05
checks = z4, g_end, monotone

[analysis]
model = analysis
family = exponential
alpha = 0.5
checks = reverse_jensen, sharp_jensen, gap
"""

# any import of scipy, at module level or inside a function, raises
NO_SCIPY_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from lswkit import cli
sys.exit(cli.run_config(sys.argv[2], sys.argv[3]))
"""


def test_every_model_runs_without_scipy(tmp_path):
    cfg = tmp_path / "no_scipy.ini"
    cfg.write_text(NO_SCIPY_CONFIG)
    src = Path(lswkit.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, str(src), str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all checks passed" in done.stdout
    assert (tmp_path / "out" / "map" / "history.csv").exists()


def test_public_names_resolve():
    for name in lswkit.__all__:
        assert hasattr(lswkit, name), name


def test_truncated_run_fails(tmp_path, capsys):
    # the 32-node indicator dies out at t = 1.55, long before t_final
    cfg = tmp_path / "short.ini"
    cfg.write_text(
        "[short]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 50\n"
        "checks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "termination: run ended by extinction" in out
    data = json.loads((tmp_path / "out" / "short" / "summary.json").read_text())
    assert data["terminated"] == "extinction"
    assert data["violations"] == ["termination"]


def test_iteration_cap_fails_the_section(tmp_path, capsys, monkeypatch):
    # a map whose value flips by a relative 1e-8 between calls keeps every
    # frozen-L descent from converging, as in the solver's own cap test
    clean = lsw_solver._phi_of_u
    flips = [1.0]

    def noisy(u):
        flips[0] = -flips[0]
        return clean(u) * (1.0 + 1e-8 * flips[0])

    monkeypatch.setattr(lsw_solver, "_phi_of_u", noisy)
    cfg = tmp_path / "cap.ini"
    cfg.write_text(
        "[cap]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\n"
        "checks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "convergence: " in out and "did not converge in 60 Halley iterations" in out
    data = json.loads((tmp_path / "out" / "cap" / "summary.json").read_text())
    assert data["terminated"] == "t_final"
    assert data["violations"] == ["convergence"]
    assert data["checks"]["convergence"]["value"] > 0


def test_resolution_cap_fails_the_section(tmp_path, capsys, monkeypatch):
    # a flux whose value flips by a relative 1e-8 between calls keeps every
    # L-resolution from converging, as in the solver's own cap test; the
    # Picard tolerance sits above the flips, so the run itself reaches t_final
    clean = lsw_solver._flux_L
    flips = [1.0]

    def noisy(*args):
        flips[0] = -flips[0]
        return clean(*args) * (1.0 + 1e-8 * flips[0])

    monkeypatch.setattr(lsw_solver, "_flux_L", noisy)
    cfg = tmp_path / "cap.ini"
    cfg.write_text(
        "[cap]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\ntol = 1e-6\n"
        "checks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "convergence: " in out and "did not converge in 40 iterations" in out
    data = json.loads((tmp_path / "out" / "cap" / "summary.json").read_text())
    assert data["terminated"] == "t_final"
    assert data["violations"] == ["convergence"]


def test_cap_warning_is_recorded_and_other_warnings_still_show(tmp_path, capsys, monkeypatch):
    def warning_runner(opts, outdir):
        warnings.warn("unrelated", UserWarning)
        warnings.warn("capped", lswkit.ConvergenceWarning)
        return SimpleNamespace()

    monkeypatch.setitem(cli.MODEL_RUNNERS, "self_similar", warning_runner)
    cfg = tmp_path / "warn.ini"
    cfg.write_text("[warn]\nmodel = self_similar\n")
    with pytest.warns(UserWarning, match="unrelated") as shown:
        rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 1
    assert [str(w.message) for w in shown] == ["unrelated"]
    data = json.loads((tmp_path / "out" / "warn" / "summary.json").read_text())
    assert data["violations"] == ["convergence"]
    assert data["checks"]["convergence"]["detail"].endswith("first: capped")


def test_warning_before_a_crash_still_shows(tmp_path, capsys, monkeypatch):
    # a warning that leads up to a crash helps diagnose it, so it shows as
    # it happens rather than after the runner returns
    def warn_then_crash(opts, outdir):
        warnings.warn("overflow before the crash", RuntimeWarning)
        raise RuntimeError("runner blew up")

    monkeypatch.setitem(cli.MODEL_RUNNERS, "self_similar", warn_then_crash)
    cfg = tmp_path / "crash.ini"
    cfg.write_text("[crashing]\nmodel = self_similar\n")
    with pytest.warns(RuntimeWarning, match="overflow before the crash"):
        rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 1
    assert "crashing  FAIL  RuntimeError: runner blew up" in capsys.readouterr().out


def test_check_without_its_data_is_a_violation(tmp_path, capsys):
    cfg = tmp_path / "nosnap.ini"
    cfg.write_text(
        "[nosnap]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\n"
        "checks = conservation, dyadic\n")
    main(["run", str(cfg), "--output", str(tmp_path / "out")])
    capsys.readouterr()
    data = json.loads((tmp_path / "out" / "nosnap" / "summary.json").read_text())
    assert data["violations"] == ["dyadic"]
    assert data["checks"]["conservation"]["passed"] is True


def test_lsw_summary_counts_steps_stopped_on_the_bound(tmp_path, capsys, monkeypatch):
    results = []

    def recorded(*args, **kwargs):
        results.append(lsw_solver.advance_global(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "advance_global", recorded)
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[exp]\nmodel = lsw\nfamily = exponential\nt_final = 1\ntol = 1e-6\n"
                   "checks = conservation\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "out" / "exp" / "summary.json").read_text())
    picard = results[0].picard
    assert data["steps"] == len(picard)
    assert data["picard_iters_total"] == sum(p.iterations for p in picard)
    assert data["picard_on_bound"] == sum(p.stopped_on_bound for p in picard)
    assert 0 < data["picard_on_bound"] < data["steps"]


def test_lsw_summary_counts_the_flux_evaluations_of_the_sweeps(tmp_path, capsys, monkeypatch):
    # each step's flux_evals is the _flux_L calls it made, one per sweep and
    # those of its end node's _state_L; the summary sums them over the
    # accepted steps, leaving out halved attempts and the resolution of the
    # initial state
    flux, picard = lsw_solver._flux_L, lsw_solver.picard_solve_interval
    batches, steps = [0], []

    def counted_flux(*args):
        batches[0] += 1
        return flux(*args)

    def counted_picard(*args):
        before = batches[0]
        out = picard(*args)
        steps.append((out[2], batches[0] - before))
        return out

    monkeypatch.setattr(lsw_solver, "_flux_L", counted_flux)
    monkeypatch.setattr(lsw_solver, "picard_solve_interval", counted_picard)
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[exp]\nmodel = lsw\nfamily = exponential\nt_final = 1\ntol = 1e-6\n"
                   "checks = conservation\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "out" / "exp" / "summary.json").read_text())
    assert all(stats.flux_evals == n for stats, n in steps)
    assert data["flux_evals"] == sum(n for stats, n in steps if stats.converged)
    assert data["steps"] < data["picard_iters_total"] < data["flux_evals"] < batches[0]


def test_crash_is_isolated(tmp_path, capsys, monkeypatch):
    def crash(opts, outdir):
        raise RuntimeError("runner blew up")

    monkeypatch.setitem(cli.MODEL_RUNNERS, "self_similar", crash)
    cfg = tmp_path / "crash.ini"
    cfg.write_text(
        "[crashing]\nmodel = self_similar\nchecks = z4\n\n"
        "[after]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\n"
        "t_final = 10\nchecks = conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "crashing  FAIL  RuntimeError: runner blew up" in out
    assert "after     ok    conservation:" in out
    data = json.loads((tmp_path / "out" / "crashing" / "summary.json").read_text())
    assert data["error"] == "RuntimeError: runner blew up"
    assert "in crash" in data["traceback"]


def test_every_model_writes_summary(config_path, tmp_path, capsys):
    text = config_path.read_text() + "\n[quick-self-similar]\nmodel = self_similar\nchecks = z4\n"
    config_path.write_text(text)
    assert main(["run", str(config_path), "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    for section, model in (("quick-linear", "linear"), ("quick-map", "map_iteration"),
                           ("quick-analysis", "analysis"), ("quick-self-similar", "self_similar")):
        data = json.loads((tmp_path / "out" / section / "summary.json").read_text())
        assert data["model"] == model and data["scenario"] == section
        assert data["violations"] == []
        assert all(c["passed"] for c in data["checks"].values())
    data = json.loads((tmp_path / "out" / "quick-self-similar" / "summary.json").read_text())
    assert list(data["checks"]) == ["z4"]
    assert data["checks"]["z4"]["bound"] == 1e-5


def test_standard_scenarios_request_registered_checks():
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "scenarios" / "standard.ini")
    assert parser.sections()
    for section in parser.sections():
        opts = dict(parser.items(section))
        model = opts.get("model", "lsw")
        assert model in cli.MODEL_RUNNERS, section
        for name in (c.strip() for c in opts["checks"].split(",") if c.strip()):
            assert (model, name) in cli.CHECKS, (section, name)


def test_grid_scenario_runs_clean_to_t4(tmp_path, capsys):
    # the section of scenarios/grids.ini, cut at t_final = 4: on a grid with a
    # cell 8.9e-16 wide it hit the L-resolution cap and warned in cellquad
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "scenarios" / "grids.ini")
    assert parser.sections() == ["exponential-n4096-delta0.1"]
    parser["exponential-n4096-delta0.1"]["t_final"] = "4"
    cfg = tmp_path / "grid.ini"
    with cfg.open("w") as f:
        parser.write(f)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert [str(w.message) for w in shown] == []
    data = json.loads((tmp_path / "out" / "exponential-n4096-delta0.1" / "summary.json").read_text())
    assert data["violations"] == [] and data["terminated"] == "t_final"


def test_standard_scenarios_pass_the_key_and_family_checks(tmp_path, monkeypatch):
    # each section gets through the key check and builds its family through
    # make_family; the runners stop there, before any solver
    class Built(Exception):
        pass

    built = []

    def build(name, **params):
        built.append(make_family(name, **params).name)
        raise Built

    def stop(opts, outdir):
        raise Built

    monkeypatch.setattr(cli, "make_family", build)
    monkeypatch.setitem(cli.MODEL_RUNNERS, "self_similar", stop)
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "scenarios" / "standard.ini")
    for section in parser.sections():
        opts = dict(parser.items(section))
        with pytest.raises(Built):
            cli._run_section(section, opts.get("model", "lsw"), opts, tmp_path)
    assert len(built) == sum(parser.get(s, "model", fallback="lsw") != "self_similar"
                             for s in parser.sections())


def test_default_bounds_are_pinned():
    # loosening any of these needs this test changed as well
    assert cli.BOUNDS == {
        "conservation": 1e-4,
        "identity": (0.02, 0.95),
        "upper_bound": 1e-9,
        "picard": (10, 1.0),
        "monotonicity": 1e-6,
        "stationarity": 1e-2,
        "dyadic": (2.0, 0.1, 10),
        "pointwise": 1e-8,
        "sup_beta": 1e-8,
        "z4": 1e-5,
        "g_end": 1e-4,
        "monotone": 1e-8,
        "affine": 1e-6,
        "stability": 0.05,
        "regular_variation": 0.05,
    }
    assert set(cli.BOUNDS) <= {name for _, name in cli.CHECKS}
    assert len(cli.CHECKS) == 21


_LINEAR = "model = linear\nfamily = constant-beta\nbeta = 0.5\nt_final = 5\n"
_MAP = "model = map_iteration\nfamily = exponential\nn_steps = 1\nn_grid = 256\n"
_ANALYSIS = "model = analysis\nfamily = constant-beta\nbeta = 0.5\nalpha = 0.5\nrv_target = 1\n"


_DELETED_KEYS = [
    ("output", "elsewhere", "linear", _LINEAR + "checks = conservation\n"),
    ("rho", "0.5", "map_iteration", _MAP + "checks = pointwise\n"),
    ("k_norm", "1", "map_iteration", _MAP + "checks = pointwise\n"),
    ("affine_tol", "1e-6", "linear", _LINEAR + "checks = affine\n"),
    ("rv_tol", "0.05", "analysis", _ANALYSIS + "checks = regular_variation\n"),
    ("rv_expect", "oscillatory", "analysis", _ANALYSIS + "checks = regular_variation\n"),
]


@pytest.mark.parametrize("key, value, model, section", _DELETED_KEYS,
                         ids=[row[0] for row in _DELETED_KEYS])
def test_deleted_keys_are_unknown(tmp_path, capsys, key, value, model, section):
    # no section sets these keys any more; one that does fails before it runs
    cfg = tmp_path / "gone.ini"
    cfg.write_text(f"[gone]\n{section}{key} = {value}\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"gone  FAIL  ConfigError: unknown key(s) for model '{model}': {key}  [" in out
    assert [p.name for p in (tmp_path / "out").rglob("*") if p.is_file()] == ["summary.json"]


class _Reached(Exception):
    pass


def test_sections_leave_unset_settings_to_the_library(tmp_path, monkeypatch):
    seen = {}

    def capture(name):
        def stop(*args, **kwargs):
            seen[name] = (args, kwargs)
            raise _Reached
        return stop

    monkeypatch.setattr(cli, "advance_global", capture("lsw"))
    monkeypatch.setattr(cli, "run_linear_model", capture("linear"))
    monkeypatch.setattr(cli, "iterate", capture("map_iteration"))
    sections = {
        "lsw": {"model": "lsw", "family": "indicator", "n": "32", "t_final": "0.2"},
        "linear": {"model": "linear", "family": "constant-beta", "beta": "0.5", "t_final": "5"},
        "map_iteration": {"model": "map_iteration", "family": "exponential", "n_steps": "1"},
    }
    for model, opts in sections.items():
        with pytest.raises(_Reached):
            cli._run_section(model, model, opts, tmp_path)
    assert seen["lsw"][0][2] == lsw_solver.SolverConfig()
    assert "delta" not in seen["linear"][1]
    assert "n_grid" not in seen["map_iteration"][1]
    # a setting the section does make is passed on, as a number
    with pytest.raises(_Reached):
        cli._run_section("lsw", "lsw", dict(sections["lsw"], delta="0.1", tol="1e-6"), tmp_path)
    assert seen["lsw"][0][2] == lsw_solver.SolverConfig(delta=0.1, tol=1e-6)
    with pytest.raises(_Reached):
        cli._run_section("linear", "linear", dict(sections["linear"], delta="0.1"), tmp_path)
    assert seen["linear"][1]["delta"] == 0.1
    with pytest.raises(_Reached):
        cli._run_section("map", "map_iteration", dict(sections["map_iteration"], n_grid="256"),
                         tmp_path)
    assert seen["map_iteration"][1]["n_grid"] == 256


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_dyadic_report_is_strict_json(tmp_path, capsys):
    # lengths the 64-node indicator cannot resolve at t = 0.5 are null, not NaN
    cfg = tmp_path / "d.ini"
    cfg.write_text("[d]\nmodel = lsw\nfamily = indicator\nn = 64\nt_final = 0.5\n"
                   "snapshots = 0.5\nchecks = dyadic\n")
    main(["run", str(cfg), "--output", str(tmp_path / "out")])
    capsys.readouterr()
    written = sorted((tmp_path / "out" / "d").glob("*.json"))
    assert "dyadic.json" in [p.name for p in written]
    for path in written:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    report = json.loads((tmp_path / "out" / "d" / "dyadic.json").read_text())
    lengths = [v for snap in report for v in snap["lengths"]]
    assert None in lengths
    assert all(v is None or isinstance(v, float) for v in lengths)


def test_run_without_a_step_keeps_its_rows(tmp_path, capsys):
    # with t_final = 0 there is no Picard step and one trace row: picard and
    # identity are not evaluated, and neither is conservation, whose drift
    # over one row reads 0 whatever the solver does
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[zero]\nmodel = lsw\nfamily = exponential\nt_final = 0\n"
                   "checks = picard, identity, conservation\n")
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 1
    data = json.loads((tmp_path / "out" / "zero" / "summary.json").read_text(),
                      parse_constant=_reject_constant)
    assert "error" not in data
    assert data["steps"] == 0
    assert data["violations"] == ["picard", "identity", "conservation"]
    for name in ("picard", "identity", "conservation"):
        assert data["checks"][name] == {"passed": False, "value": None, "bound": None,
                                        "detail": "unknown or not evaluated"}


@pytest.mark.parametrize("check", ["conservation", "upper_bound"])
def test_lsw_run_without_a_step_does_not_evaluate(tmp_path, capsys, check):
    # one trace row: no drift to measure and no Lambda(t) to bound
    cfg = tmp_path / "zero.ini"
    cfg.write_text(f"[zero]\nmodel = lsw\nfamily = exponential\nt_final = 0\nchecks = {check}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert f"zero  FAIL  {check}: unknown or not evaluated" in out
    assert "all checks passed" not in out


def test_every_benchmark_probe_resolves():
    # perfbench wraps these attributes by name; a probe that no longer
    # resolves turns its metrics into None (or, inside a traced round, into
    # output the harness cannot read)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    probes = [(owner, attr) for _, owner, attr in tracer.SPAN_PROBES]
    probes += [(owner, attr) for _, _, owner, attr in tracer.COUNT_PROBES]
    needed = {attr for attrs in tracer.NEEDS.values() for attr in attrs}
    for attr in needed:
        owners = [owner for owner, name in probes if name == attr]
        assert owners, attr
        for owner in owners:
            # the tracer wraps only an attribute the owner itself defines
            assert vars(owner).get(attr) is not None, attr
    missing = {attr for owner, attr in probes if vars(owner).get(attr) is None}
    # the two long-standing dead probes; no other may join them
    assert missing <= {"identity_check", "save_summary"}


def test_compare_one_row_traces(tmp_path, capsys):
    # a t_final = 0 lsw section writes a one-row trace
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[zero]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    trace = tmp_path / "out" / "zero" / "trace.csv"
    header, row = trace.read_text().splitlines()
    assert main(["compare", str(trace), str(trace), "--tol", "1e-12"]) == 0
    cols = row.split(",")
    cols[3] = str(float(cols[3]) * 1.5)
    other = tmp_path / "other.csv"
    other.write_text(f"{header}\n{','.join(cols)}\n")
    assert main(["compare", str(trace), str(other), "--tol", "1e-6"]) == 1
    assert "FAIL: max relative difference exceeds 1e-06 in Lambda" in capsys.readouterr().out


@pytest.mark.parametrize("section, outside", [
    ("family = indicator\nn = 32\nt_final = 0.2\nsnapshots = 0.1, 30\n"
     "checks = monotonicity\n", "30 outside [0, t_final=0.2]"),
    ("family = indicator\nn = 32\nt_final = 0.2\nsnapshots = -0.1, 0.1\n"
     "checks = monotonicity\n", "-0.1 outside [0, t_final=0.2]"),
    # the stationarity path runs to the t_final of its tau_target, not of its key
    ("family = self-similar\nalpha = 0.05\ntau_target = 0.01\nt_final = 1\n"
     "snapshots = 0.5\nchecks = stationarity\n", "0.5 outside [0, t_final=0.0100026]"),
], ids=["late", "negative", "stationarity"])
def test_snapshot_outside_the_run_fails_the_section(tmp_path, capsys, section, outside):
    cfg = tmp_path / "snap.ini"
    cfg.write_text("[snap]\nmodel = lsw\n" + section)
    rc = main(["run", str(cfg), "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"snap  FAIL  ConfigError: snapshot time(s) {outside}" in out
    # the section fails before its model runs
    assert not (tmp_path / "out" / "snap" / "trace.csv").exists()


def test_snapshot_at_t_final_is_taken(tmp_path, capsys):
    cfg = tmp_path / "end.ini"
    cfg.write_text("[end]\nmodel = lsw\nfamily = indicator\nn = 32\nt_final = 0.2\n"
                   "snapshots = 0.1, 0.2\nchecks = conservation\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out" / "end").glob("snapshot_*.csv")) == \
        ["snapshot_0.csv", "snapshot_1.csv"]


def test_stationarity_at_rate_zero_runs_to_tau(tmp_path, capsys):
    # indicator has beta*(0) = 0, where t(tau) = (exp(tau r) - 1)/r tends to tau
    cfg = tmp_path / "ind.ini"
    cfg.write_text("[ind]\nmodel = lsw\nfamily = indicator\nn = 256\ntau_target = 0.5\n"
                   "checks = stationarity\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert "ind  ok    stationarity: sup |w*-w*(0)| 0," in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "ind" / "summary.json").read_text())
    assert summary["T_final"] == pytest.approx(0.5, rel=1e-12)


def test_stationarity_of_an_unbounded_profile_fails_with_a_finite_value():
    # exponential is not stationary; its support has no end, so the profiles
    # are compared up to the last node instead of over [0, inf)
    fam = lswkit.exponential()
    t_final = math.expm1(0.1)
    res = lsw_solver.advance_global(fam.profile, t_final, lsw_solver.SolverConfig(tol=1e-6),
                                    beta0=fam.beta_exact, snapshot_times=(t_final,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = cli.CHECKS[("lsw", "stationarity")](SimpleNamespace(fam=fam, result=res), {})
    sup = float(re.search(r"sup \|w\*-w\*\(0\)\| (\S+),", r.detail).group(1))
    assert not r.passed and math.isfinite(sup) and r.value > r.bound


def _run_unusable(tmp_path, capsys, monkeypatch, model, key, value) -> str:
    """The output of a section that sets ``key = value``, with every stepper
    patched to raise: each value tried hangs, crashes or passes without a step
    when it reaches one."""
    def never(*args, **kwargs):
        raise AssertionError("the stepper was reached")

    monkeypatch.setattr(lsw_solver, "picard_solve_interval", never)
    monkeypatch.setattr(linear_model, "_rk4", never)
    monkeypatch.setattr(cli, "iterate", never)
    cfg = tmp_path / "bad.ini"
    settings = {"t_final": "0.5"} if "t_final" in cli.SETTINGS[model] else {}
    settings[key] = value
    # only the stationarity check reads tau_target
    check = "stationarity" if key == "tau_target" else "conservation"
    cfg.write_text(f"[bad]\nmodel = {model}\nfamily = exponential\nchecks = {check}\n" +
                   "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
    return capsys.readouterr().out


@pytest.mark.parametrize("model, key, value", [
    ("lsw", "delta", "-0.05"), ("lsw", "delta", "0"), ("lsw", "tol", "0"),
    ("lsw", "t_final", "nan"), ("lsw", "t_final", "-1"),
    ("linear", "delta", "0"), ("linear", "delta", "-0.05"),
    ("linear", "t_final", "nan"), ("linear", "t_final", "-1"),
    ("lsw", "tau_target", "-1"), ("lsw", "tau_target", "nan"),
    ("map_iteration", "n_steps", "0"), ("map_iteration", "n_steps", "-1"),
    ("lsw", "n", "0"), ("map_iteration", "n_grid", "0"), ("linear", "stability_tol", "-1"),
])
def test_unusable_setting_fails_the_section(tmp_path, capsys, monkeypatch, model, key, value):
    out = _run_unusable(tmp_path, capsys, monkeypatch, model, key, value)
    assert f"bad  FAIL  ConfigError: {key} = {float(value):g} must be finite and" in out


@pytest.mark.parametrize("model, key, value", [
    ("lsw", "n", "100.5"), ("lsw", "snapshots", "0.05, x"), ("map_iteration", "lam", "abc"),
])
def test_unparsable_setting_fails_the_section(tmp_path, capsys, monkeypatch, model, key, value):
    out = _run_unusable(tmp_path, capsys, monkeypatch, model, key, value)
    assert f"bad  FAIL  ConfigError: {key} = {value!r}: " in out


_DOMAINS = [(model, key) for model, table in cli.SETTINGS.items()
            for key, setting in table.items() if setting.sign is not None]


@pytest.mark.parametrize("model, key", _DOMAINS, ids=[f"{m}-{k}" for m, k in _DOMAINS])
def test_every_domain_in_the_table_can_fail(tmp_path, capsys, monkeypatch, model, key):
    # NaN lies outside every float domain, 0 outside every integer one
    value = "0" if cli.SETTINGS[model][key].parse is int else "nan"
    out = _run_unusable(tmp_path, capsys, monkeypatch, model, key, value)
    assert f"bad  FAIL  ConfigError: {key} = {float(value):g} must be finite" in out


def test_stability_on_a_run_too_short_to_fit_is_not_evaluated(tmp_path, capfd):
    # with t_final = 0 the trace holds one row: no slope to fit, and no
    # polyfit to warn or to call LAPACK on it
    cfg = tmp_path / "short.ini"
    cfg.write_text("[short]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\nt_final = 0\n"
                   "beta_limit = 0.5\nchecks = stability\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
    out, err = capfd.readouterr()
    assert "short  FAIL  stability: unknown or not evaluated" in out
    assert "DLASCL" not in out + err and "Traceback" not in err


def test_linear_run_without_a_step_does_not_evaluate_conservation_or_affine(tmp_path, capsys):
    # with t_final = 0 no RK4 step runs: no mass defect to measure and no
    # characteristic to reconstruct
    cfg = tmp_path / "short.ini"
    cfg.write_text("[short]\nmodel = linear\nfamily = constant-beta\nbeta = 0.5\nt_final = 0\n"
                   "checks = conservation, affine\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    for name in ("conservation", "affine"):
        assert f"short  FAIL  {name}: unknown or not evaluated" in out


@pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
def test_analysis_alpha_outside_the_unit_interval_fails_before_the_model_runs(
        tmp_path, capsys, monkeypatch, alpha):
    def never(*args, **kwargs):
        raise AssertionError("the model ran")

    monkeypatch.setitem(cli.MODEL_RUNNERS, "analysis", never)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[bad]\nmodel = analysis\nfamily = exponential\nalpha = {alpha}\n"
                   "checks = gap, tail_bounds\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert f"bad  FAIL  ConfigError: alpha = {float(alpha):g} must be finite and in (0, 1)" in out


def test_readme_lists_the_keys_of_the_settings_table():
    # the model -> keys table of README.md against cli.SETTINGS, so the docs
    # cannot drift from the runner
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {}
    for line in readme.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 2 and cells[0].strip().strip("`") in cli.SETTINGS:
            listed[cells[0].strip().strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    assert {model: sorted(keys) for model, keys in listed.items()} == \
        {model: sorted(table) for model, table in cli.SETTINGS.items()}
    # as many settable keys per model as before the table
    assert {model: len(table) for model, table in cli.SETTINGS.items()} == \
        {"lsw": 11, "linear": 10, "map_iteration": 10, "self_similar": 1, "analysis": 7}


@pytest.mark.parametrize("text, message", [
    ("[a]\nmodel = self_similar\n\n[a]\nmodel = self_similar\n", "section 'a' already exists"),
    ("model = self_similar\n", "File contains no section headers."),
    ("# a comment\n; and another\n", "has no sections"),
], ids=["duplicate-section", "no-section-header", "comments-only"])
def test_unusable_config_exits_2_with_one_error_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_compare_a_trace_without_rows(tmp_path, capsys):
    # no common rows: no column differs, and the row counts tell the traces apart
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,L\n0,1\n")
    b.write_text("t,L\n")
    assert main(["compare", str(a), str(b)]) == 0
    assert main(["compare", str(a), str(b), "--tol", "1e-12"]) == 1
    out = capsys.readouterr().out
    assert "L          max rel diff 0\n" in out and "FAIL: row counts differ (1 vs 0)" in out
    assert main(["compare", str(b), str(b), "--tol", "1e-12"]) == 0


@pytest.mark.parametrize("text, message", [
    (None, "not found"),
    ("", "Empty input file"),
    ("t;L\n0;1\n", "could not convert string to float"),
], ids=["missing", "empty", "semicolons"])
def test_compare_an_unreadable_trace_exits_2_with_one_error_line(tmp_path, capsys, text, message):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,L\n0,1\n")
    if text is not None:
        b.write_text(text)
    for pair in ((a, b), (b, a)):
        assert main(["compare", *map(str, pair), "--tol", "1e-12"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: trace {b}: ") and message in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_compare_rejects_an_unusable_tol(tmp_path, capsys, tol):
    a = tmp_path / "a.csv"
    a.write_text("t,L\n0,1\n")
    assert main(["compare", str(a), str(a), "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --tol {float(tol):g} must be >= 0\n"


def test_import_leaves_numpy_polynomial_out():
    src = Path(lswkit.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lswkit.cli; "
            "print('numpy.polynomial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stdout == "False\n", done.stdout + done.stderr


def test_module_runs_as_the_command():
    # python -m lswkit from a checkout, with only src on the path
    src = Path(lswkit.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "lswkit", "families"], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stdout + done.stderr
    assert "exponential" in done.stdout
