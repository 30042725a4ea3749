"""Command-line pipeline: exit codes, artifacts, provenance, determinism."""

import configparser
import json
from pathlib import Path

import pytest

import latticewaves as lw
from latticewaves.cli import _build_from_config, _grid_from_config, _load_config, main

NNN_CONFIG = """\
[model]
family = nnn
g = {g}
beta1 = 1.0
beta2 = 0.0
trunc_tol = 1e-8

[grid]
L = 40
N = 2048

[solver]
eps = 0.1
tol = 1e-12
max_iter = 50
method = {method}
eps_list = 0.4,0.28,0.2,0.14,0.1

[simulate]
J = 2048
T = 10
checkpoints = 20

[output]
dir = {out}
seed = 0
"""


def _write(tmp_path, **kw):
    cfg = tmp_path / "run.ini"
    kw.setdefault("g", "1.0")
    kw.setdefault("method", "contraction")
    kw.setdefault("out", str(tmp_path / "out"))
    cfg.write_text(NNN_CONFIG.format(**kw))
    return cfg


def test_classify_type1(tmp_path, capsys):
    cfg = _write(tmp_path)
    assert main(["classify", "--config", str(cfg)]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["type1"] is True
    assert cert["sigma"] == pytest.approx(2.0, abs=0.05)
    assert "config_sha256" in cert
    assert (tmp_path / "out" / "lambda.csv").exists()
    assert (tmp_path / "out" / "lambda.svg").read_text().startswith("<svg")


def test_classify_type2_rejected(tmp_path):
    cfg = _write(tmp_path, g="-0.2")
    assert main(["classify", "--config", str(cfg)]) == 1
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["type1"] is False
    # lambda''(0) = -1/6 - 8g/3 with g = -0.2 is positive: wrong type
    assert cert["lambda_dd0"] == pytest.approx(-1.0 / 6.0 + 1.6 / 3.0, abs=1e-12)


def test_solve_writes_solution(tmp_path, capsys):
    cfg = _write(tmp_path, method="both")
    assert main(["solve", "--config", str(cfg)]) == 0
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["residual_H1"] <= 1e-8
    assert sol["method_agreement_H1"] <= 1e-6
    lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "x,W,V,W0"
    assert len(lines) == 2048 + 2


def test_solve_eps_override(tmp_path):
    cfg = _write(tmp_path)
    assert main(["solve", "--config", str(cfg), "--eps", "0.05", "--quiet"]) == 0
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["eps"] == 0.05


def test_sweep(tmp_path):
    cfg = _write(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert abs(rep["slope"] - rep["sigma_expected"]) <= 0.25 * rep["sigma_expected"]
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "eps,diff_H1,residual,iterations"
    assert len(lines) == 5 + 2


def test_simulate(tmp_path):
    cfg = _write(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["speed_rel_error"] < 0.01
    assert rep["shape_error_max"] < 0.05
    assert rep["energy_drift"] < 1e-6
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert traj[1] == "t,peak_position,peak_value,energy"


def test_plot(tmp_path):
    cfg = _write(tmp_path)
    assert main(["plot", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "out" / "lambda.svg").exists()


def test_deterministic_csv_output(tmp_path):
    cfg = _write(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
    assert (out1 / "lambda.csv").read_bytes() == (out2 / "lambda.csv").read_bytes()


def test_missing_config_errors(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cm_config(tmp_path):
    cfg = tmp_path / "cm.ini"
    cfg.write_text(
        "[model]\nfamily = calogero_moser\na = 4.0\ntrunc_tol = 1e-8\n"
        f"[output]\ndir = {tmp_path / 'cm_out'}\n")
    assert main(["classify", "--config", str(cfg), "--quiet"]) == 0
    cert = json.loads((tmp_path / "cm_out" / "certificate.json").read_text())
    assert cert["type1"] is True
    assert cert["sigma"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("a", [3.5, 4.0])
def test_cm_default_radius_matches_library(a):
    cp = configparser.ConfigParser()
    cp.read_string(f"[model]\nfamily = calogero_moser\na = {a}\n")
    model = _build_from_config(cp)
    assert model.delta_star == lw.PotentialSpec.calogero_moser(a).delta_star


def test_readme_config_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.ini"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    cp, _ = _load_config(str(cfg))
    # inline "; ..." comments are stripped from the values
    assert cp["model"].getfloat("a") == 4.0
    assert _grid_from_config(cp).N == 2048
    assert cp["simulate"].getint("J") == 4096
    assert main(["plot", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


@pytest.mark.parametrize("extra, name", [("[simulate]\nm_forc = 8\n", "m_forc"),
                                         ("[modle]\na = 4.0\n", "modle")])
def test_unknown_config_key_rejected(tmp_path, capsys, extra, name):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[model]\nfamily = nnn\ng = 1.0\n" + extra)
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert name in capsys.readouterr().err
