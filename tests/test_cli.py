import json

import pytest

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
