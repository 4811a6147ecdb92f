import configparser
import json
from pathlib import Path

import pytest

import lswkit
from lswkit import cli
from lswkit.cli import main


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
