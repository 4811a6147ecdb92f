import configparser
import json
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import lswkit
from lswkit import cli, lsw_solver
from lswkit.cli import main
from lswkit.families import make_family
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


def test_families_listing(capsys):
    rc = main(["families"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("constant-beta", "exponential", "self-similar", "power-tail"):
        assert name in out


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
    # each step's flux_evals is the _flux_L batches its sweeps took; the
    # summary sums them over the accepted steps, leaving out halved attempts
    # and the resolutions of the recorded states
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
