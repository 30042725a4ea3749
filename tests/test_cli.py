"""Command-line pipeline: exit codes, artifacts, provenance, determinism."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import latticewaves as lw
from latticewaves.cli import _TABLE, RunConfig, _build_model, _load_config, main

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
    # every command that needs a type I lattice stops at the certificate
    for command in ("classify", "solve", "sweep", "simulate"):
        assert main([command, "--config", str(cfg), "--quiet"]) == 1
    assert not (tmp_path / "out" / "solution.json").exists()
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["type1"] is False
    # lambda''(0) = -1/6 - 8g/3 with g = -0.2 is positive: wrong type
    assert cert["lambda_dd0"] == pytest.approx(-1.0 / 6.0 + 1.6 / 3.0, abs=1e-12)


@pytest.mark.parametrize("body, family", [
    ("alpha1 = 1.0\nbeta1 = 1.0\n", "classical_fput"),
    ("alphas = 1.0,0.0,0.3\nbetas = 1.0,0.0,0.0\n", "finite_range"),
])
def test_table_family_config(tmp_path, body, family):
    cfg = tmp_path / "table.ini"
    cfg.write_text(f"[model]\nfamily = {family}\n{body}"
                   f"[output]\ndir = {tmp_path / 'out'}\n")
    for command in ("classify", "solve"):
        assert main([command, "--config", str(cfg), "--quiet"]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["family"] == family
    assert cert["type1"] is True
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["residual_H1"] <= 1e-8


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
    assert rep["integrator"] == "strang"
    assert 0.0 < rep["omega_max_dt"] <= 0.5 * np.pi
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


def test_cm_lambda_csv_matches_series(tmp_path):
    # the k column is linspace(0, 4 pi, 1024) byte for byte, and lambda
    # (one progression, M = 3037 rows) matches the kernel sums of t1_t2
    cfg = tmp_path / "cm.ini"
    cfg.write_text(
        "[model]\nfamily = calogero_moser\na = 4.0\ntrunc_tol = 1e-8\n"
        f"[output]\ndir = {tmp_path / 'cm_out'}\n")
    assert main(["classify", "--config", str(cfg), "--quiet"]) == 0
    cert = json.loads((tmp_path / "cm_out" / "certificate.json").read_text())
    assert cert["sup_outside"] <= cert["sup_outside_bound"] < cert["c0_sq"]
    lines = (tmp_path / "cm_out" / "lambda.csv").read_text().splitlines()[2:]
    k = np.linspace(0.0, 4.0 * np.pi, 1024)
    assert [line.split(",")[0] for line in lines] == [f"{v:.17g}" for v in k]
    lam = np.array([float(line.split(",")[1]) for line in lines])
    model = _build_model(_load_config(cfg))
    ref = lw.phase_speed_sq(model, k)
    assert np.max(np.abs(lam - ref)) <= 5e-14 * model.sum_alpha_m2


@pytest.mark.parametrize("a", [3.5, 4.0])
def test_cm_default_radius_matches_library(a):
    model = _build_model(RunConfig(family="calogero_moser", a=a))
    assert model.delta_star == lw.PotentialSpec.calogero_moser(a).delta_star


def test_readme_config_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.ini"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    run = _load_config(str(cfg))
    # inline "; ..." comments are stripped from the values
    assert (run.a, run.N, run.J) == (4.0, 2048, 4096)
    # the block lists every key, set or commented out, and no other
    listed, section = {}, None
    for line in cfg.read_text().splitlines():
        if line.startswith("["):
            section = line[1:line.index("]")]
            listed[section] = []
        elif match := re.match(r";?\s*(\w+)\s*=", line):
            listed[section].append(match.group(1))
    assert listed == {name: list(keys) for name, keys in _TABLE.items()}
    assert main(["plot", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


def test_readme_constructors_match_signatures():
    # each constructor the catalog bullet quotes names exactly its
    # parameters; delta_star, which every one takes, has its own sentence
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme.split("1. **Catalog**", 1)[1].split("2. **", 1)[0]
    for name in ("calogero_moser", "nnn", "classical_fput", "finite_range", "custom"):
        quoted = re.search(rf"`{name}\(([^)]*)\)`", bullet)
        assert quoted, name
        params = list(inspect.signature(getattr(lw.PotentialSpec, name)).parameters)
        assert [p.strip() for p in quoted.group(1).split(",")] == \
            [p for p in params if p != "delta_star"]
    assert "`delta_star`" in bullet


@pytest.mark.parametrize("extra, name", [("[simulate]\nm_forc = 8\n", "m_forc"),
                                         ("[modle]\na = 4.0\n", "modle")])
def test_unknown_config_key_rejected(tmp_path, capsys, extra, name):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[model]\nfamily = nnn\ng = 1.0\n" + extra)
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("body, family, key", [
    ("family = calogero_moser\n", "calogero_moser", "a"),
    ("family = nnn\n", "nnn", "g"),
    ("family = finite_range\nbetas = 1.0\n", "finite_range", "alphas"),
    ("family = finite_range\nalphas = 1.0\n", "finite_range", "betas"),
])
def test_missing_model_key_rejected(tmp_path, capsys, body, family, key):
    cfg = tmp_path / "short.ini"
    cfg.write_text("[model]\n" + body)
    assert main(["plot", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert family in err and f"'{key}'" in err


@pytest.mark.parametrize("extra, words", [
    ("[solver]\nmethod = newton\n",
     ("[solver]", "method", "newton", "contraction | petviashvili | both")),
    ("[grid]\nN = abc\n", ("[grid]", "N", "abc")),
    ("[model]\nfamily = toda\n", ("[model]", "family", "toda", "finite_range")),
    ("[model]\na = 4\n[model]\n", ("cannot parse", "'model' already exists")),
])
def test_bad_config_value_rejected(tmp_path, capsys, extra, words):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(extra)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in words), err


@pytest.mark.parametrize("command, old, new, words", [
    ("solve", "max_iter = 50", "max_iter = 0", ("max_iter=0",)),
    ("simulate", "T = 10", "T = -1", ("T=-1",)),
    ("simulate", "checkpoints = 20", "checkpoints = 20\nm_force = 0", ("m_force=0",)),
    ("simulate", "checkpoints = 20", "checkpoints = 20\nm_force = -3", ("m_force=-3",)),
    ("simulate", "checkpoints = 20", "checkpoints = 20\ndt = 0.7",
     ("dt=0.7", "omega_max=2.5")),
    ("simulate", "checkpoints = 20", "checkpoints = 20\ndt = 0", ("dt=0.0",)),
    ("solve", "eps = 0.1", "eps = 0", ("eps=0.0", "(0, 0.5]")),
    ("simulate", "eps = 0.1", "eps = 0", ("eps=0.0", "(0, 0.5]")),
    ("simulate", "checkpoints = 20", "checkpoints = 0", ("checkpoints=0",)),
    ("classify", "trunc_tol = 1e-8", "trunc_tol = 1e-8\ndelta_star = -1",
     ("delta_star=-1.0", "> 0")),
    ("classify", "trunc_tol = 1e-8", "trunc_tol = 1e-8\ndelta_star = nan",
     ("delta_star=nan",)),
    ("classify", "family = nnn", "family = calogero_moser\na = 4.0\ndelta_star = 2.0",
     ("delta_star=2.0", "(0, 1)")),
])
def test_out_of_range_value_rejected(tmp_path, capsys, command, old, new, words):
    cfg = _write(tmp_path)
    cfg.write_text(cfg.read_text().replace(old, new))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in words), err


def test_config_defaults_match_library():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    run, spec = RunConfig(), lw.PotentialSpec
    pairs = [
        ("tol", default(lw.solve_contraction, "tol")),
        ("tol", default(lw.scaling_sweep, "tol")),
        ("max_iter", default(lw.solve_contraction, "max_iter")),
        ("max_iter", default(lw.scaling_sweep, "max_iter")),
        ("trunc_tol", default(lw.build_model, "trunc_tol")),
        ("L", lw.Grid.__dataclass_fields__["L"].default),
        ("N", lw.Grid.__dataclass_fields__["N"].default),
        ("checkpoints", default(lw.run_and_verify, "checkpoints")),
        ("dt", default(lw.run_and_verify, "dt")),
        ("m_force", default(lw.run_and_verify, "m_force")),
        ("beta1", default(spec.nnn, "beta1")),
        ("beta1", default(spec.classical_fput, "beta1")),
        ("beta2", default(spec.nnn, "beta2")),
        ("alpha1", default(spec.classical_fput, "alpha1")),
    ]
    assert [(key, getattr(run, key)) for key, _ in pairs] == pairs
