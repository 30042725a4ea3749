"""Command-line pipeline: classify | solve | sweep | simulate | plot.

One INI config file drives every subcommand (sections [model], [grid],
[solver], [simulate], [output]); outputs are deterministic for a fixed
config and seed, and every file embeds the config hash for provenance.
Exit code 0 means every check the subcommand ran passed its threshold.

Config keys
-----------
[model]    family = calogero_moser | nnn | classical_fput | finite_range
           a (calogero_moser), g, beta1, beta2 (nnn), alpha1 (classical),
           alphas, betas (finite_range, comma lists),
           trunc_tol, delta_star
[grid]     L, N
[solver]   eps or eps_list (comma list), sigma_override, tol, max_iter,
           method = contraction | petviashvili | both, m_apply,
           residual_target, eps_max, workers
[simulate] J, T, dt, m_force, checkpoints
[output]   dir, seed
An unknown section or key is an error; ``;`` starts an inline comment.
"""

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import PotentialSpec, build_model
from .dispersion import certify_type1, phase_speed_sq
from .errors import LatticeWaveError
from .operators import LongWaveOperators
from .simulator import run_and_verify
from .solver import scaling_sweep, solve_contraction, solve_petviashvili
from .spectral import Grid
from .svgfig import line_plot


_KEYS = {  # known keys per section, lower case as configparser stores them
    "model": {"family", "a", "g", "beta1", "beta2", "alpha1", "alphas", "betas",
              "trunc_tol", "delta_star"},
    "grid": {"l", "n"},
    "solver": {"eps", "eps_list", "sigma_override", "tol", "max_iter", "method",
               "m_apply", "residual_target", "eps_max", "workers"},
    "simulate": {"j", "t", "dt", "m_force", "checkpoints"},
    "output": {"dir", "seed"},
}


def _load_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.read_dict({name: {} for name in _KEYS})
    read = cp.read(path)
    if not read:
        raise LatticeWaveError(f"config file not found: {path}")
    for name in cp.sections():
        if name not in _KEYS:
            raise LatticeWaveError(f"unknown config section [{name}] in {path}")
        unknown = sorted(set(cp[name]) - _KEYS[name])
        if unknown:
            raise LatticeWaveError(
                f"unknown config key '{unknown[0]}' in section [{name}] of {path}")
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    return cp, digest


def _build_from_config(cp):
    sec = cp["model"]
    family = sec.get("family", "calogero_moser").strip()
    trunc_tol = sec.getfloat("trunc_tol", fallback=1e-8)
    # without the key each family keeps its PotentialSpec default radius
    radius = {"delta_star": sec.getfloat("delta_star")} if "delta_star" in sec else {}
    if family == "calogero_moser":
        spec = PotentialSpec.calogero_moser(sec.getfloat("a"), **radius)
    elif family == "nnn":
        spec = PotentialSpec.nnn(
            sec.getfloat("g"), beta1=sec.getfloat("beta1", fallback=1.0),
            beta2=sec.getfloat("beta2", fallback=0.0), **radius)
    elif family == "classical_fput":
        spec = PotentialSpec.classical_fput(
            alpha1=sec.getfloat("alpha1", fallback=1.0),
            beta1=sec.getfloat("beta1", fallback=1.0), **radius)
    elif family == "finite_range":
        alphas = [float(v) for v in sec.get("alphas").split(",")]
        betas = [float(v) for v in sec.get("betas").split(",")]
        spec = PotentialSpec.finite_range(alphas, betas, **radius)
    else:
        raise LatticeWaveError(f"unknown family '{family}'")
    return build_model(spec, trunc_tol=trunc_tol)


def _grid_from_config(cp):
    return Grid(L=cp["grid"].getfloat("L", fallback=40.0),
                N=cp["grid"].getint("N", fallback=2048))


def _out_dir(cp, args):
    path = Path(args.out or cp["output"].get("dir", fallback="out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(cp):
    return cp["output"].getint("seed", fallback=0)


def _write_json(path, payload, digest):
    payload = dict(payload)
    payload["config_sha256"] = digest
    payload["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    payload["version"] = __version__
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, digest, header, rows):
    # ".17g" round-trips every float and prints small ints as str() does
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={digest}\n{header}\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _write_lambda(model, digest, out):
    """lambda.csv and lambda.svg: the phase speed on [0, 4 pi]."""
    k = np.linspace(0.0, 4.0 * math.pi, 1024)
    lam = phase_speed_sq(model, k)
    _write_csv(out / "lambda.csv", digest, "k,lambda", zip(k, lam))
    line_plot(out / "lambda.svg", [(k, lam, "lambda(k)")],
              title="phase speed squared vs wavenumber",
              xlabel="k", ylabel="lambda(k)",
              hlines=[(model.sum_alpha_m2, "c0^2")],
              comment=f"config_sha256={digest}")


def _certify(cp, args, digest, out):
    model = _build_from_config(cp)
    profile = certify_type1(model)
    _write_lambda(model, digest, out)
    payload = profile.to_dict()
    payload["seed"] = _seed(cp)
    _write_json(out / "certificate.json", payload, digest)
    _say(args, f"type1={profile.type1_certified} sigma={profile.sigma} "
               f"k_star={profile.k_star} (certificate.json, lambda.csv/svg)")
    return model, profile


def cmd_classify(cp, args, digest):
    out = _out_dir(cp, args)
    _, profile = _certify(cp, args, digest, out)
    return 0 if profile.type1_certified else 1


def _solver_params(cp, args):
    sec = cp["solver"]
    eps = args.eps if args.eps is not None else sec.getfloat("eps", fallback=0.1)
    sigma = (args.sigma if args.sigma is not None
             else sec.getfloat("sigma_override", fallback=None))
    tol = sec.getfloat("tol", fallback=1e-12)
    max_iter = sec.getint("max_iter", fallback=50)
    method = sec.get("method", fallback="contraction")
    m_apply = sec.getint("m_apply", fallback=None)
    target = sec.getfloat("residual_target", fallback=1e-8)
    eps_max = sec.getfloat("eps_max", fallback=0.5)
    return eps, sigma, tol, max_iter, method, m_apply, target, eps_max


def cmd_solve(cp, args, digest):
    out = _out_dir(cp, args)
    model, profile = _certify(cp, args, digest, out)
    if not profile.type1_certified:
        _say(args, "model is not type I; no wave to solve for")
        return 1
    grid = _grid_from_config(cp)
    eps, sigma, tol, max_iter, method, m_apply, target, eps_max = _solver_params(cp, args)
    ctx = LongWaveOperators(profile, grid, eps, sigma=sigma, m_apply=m_apply,
                            eps_max=eps_max)
    solutions = []
    if method in ("contraction", "both"):
        solutions.append(solve_contraction(ctx, tol=tol, max_iter=max_iter))
    if method in ("petviashvili", "both"):
        solutions.append(solve_petviashvili(ctx, tol=tol, max_iter=500))
    sol = solutions[0]
    w0 = ctx.background
    _write_csv(out / "profile.csv", digest, "x,W,V,W0",
               zip(grid.x, sol.W.values, sol.V.values, w0.values))
    payload = sol.to_dict()
    payload["profile_csv"] = "profile.csv"
    payload["seed"] = _seed(cp)
    if len(solutions) == 2:
        agree = (solutions[0].W - solutions[1].W).norm(1.0)
        payload["method_agreement_H1"] = agree
        payload["petviashvili_residual_H1"] = solutions[1].residual_H1
    _write_json(out / "solution.json", payload, digest)
    line_plot(out / "profile.svg",
              [(grid.x, sol.W.values, "W"), (grid.x, w0.values, "W0")],
              title=f"wave profile, eps={eps}", xlabel="x", ylabel="W(x)",
              comment=f"config_sha256={digest}")
    ok = all(s.residual_H1 <= target for s in solutions)
    for s in solutions:
        _say(args, f"{s.method}: iterations={s.iterations} "
                   f"residual_H1={s.residual_H1:.3e}")
    return 0 if ok else 1


def cmd_sweep(cp, args, digest):
    out = _out_dir(cp, args)
    model, profile = _certify(cp, args, digest, out)
    if not profile.type1_certified:
        return 1
    grid = _grid_from_config(cp)
    _, sigma, tol, max_iter, _, m_apply, _, eps_max = _solver_params(cp, args)
    sec = cp["solver"]
    eps_list = [float(v) for v in sec.get("eps_list", "0.4,0.28,0.2,0.14,0.1").split(",")]
    workers = sec.getint("workers", fallback=1)
    report = scaling_sweep(profile, grid, eps_list, sigma=sigma, tol=tol,
                           max_iter=max_iter, m_apply=m_apply,
                           eps_max=eps_max, workers=workers)
    _write_csv(out / "sweep.csv", digest, "eps,diff_H1,residual,iterations",
               report.rows())
    payload = {
        "slope": report.slope,
        "sigma_expected": report.sigma_expected,
        "eps": list(report.eps),
        "failures": [f for f in report.failures if f],
        "seed": _seed(cp),
    }
    _write_json(out / "sweep.json", payload, digest)
    ok = (math.isfinite(report.slope)
          and abs(report.slope - report.sigma_expected) <= 0.25 * report.sigma_expected
          and not any(report.failures))
    _say(args, f"fitted slope {report.slope:.4f} vs sigma {report.sigma_expected}")
    return 0 if ok else 1


def cmd_simulate(cp, args, digest):
    out = _out_dir(cp, args)
    model, profile = _certify(cp, args, digest, out)
    if not profile.type1_certified:
        return 1
    grid = _grid_from_config(cp)
    eps, sigma, tol, max_iter, _, m_apply, _, eps_max = _solver_params(cp, args)
    sec = cp["simulate"]
    J = sec.getint("J", fallback=4096)
    T = sec.getfloat("T", fallback=200.0)
    dt = sec.getfloat("dt", fallback=None)
    m_force = sec.getint("m_force", fallback=None)
    chk = sec.getint("checkpoints", fallback=100)
    if eps > 0.0 and eps * J < 4.0 * grid.L:
        raise LatticeWaveError(
            f"[simulate] J={J} too short for eps={eps}: need eps*J >= 4L")
    ctx = LongWaveOperators(profile, grid, eps, sigma=sigma, m_apply=m_apply,
                            eps_max=eps_max)
    sol = solve_contraction(ctx, tol=tol, max_iter=max_iter)
    report = run_and_verify(sol, J, T, dt=dt, m_force=m_force, checkpoints=chk)
    _write_csv(out / "trajectory.csv", digest, "t,peak_position,peak_value,energy",
               report.trajectory)
    payload = report.to_dict()
    payload["solver_residual_H1"] = sol.residual_H1
    payload["seed"] = _seed(cp)
    _write_json(out / "report.json", payload, digest)
    _say(args, f"speed error {report.speed_rel_error:.3e}, shape error "
               f"{report.shape_error_max:.3e}, drift {report.energy_drift:.3e}")
    return 0 if report.passed() and not report.early_stopped else 1


def cmd_plot(cp, args, digest):
    out = _out_dir(cp, args)
    _write_lambda(_build_from_config(cp), digest, out)
    _say(args, f"wrote {out / 'lambda.csv'} and {out / 'lambda.svg'}")
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "plot": cmd_plot,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="latticewaves",
        description="Solitary waves in long-range FPUT lattices: classify, "
                    "solve, sweep, simulate, plot.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--eps", type=float, default=None,
                        help="override [solver] eps")
    parser.add_argument("--sigma", type=float, default=None,
                        help="override the certified scaling exponent")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cp, digest = _load_config(args.config)
        return _COMMANDS[args.command](cp, args, digest)
    except LatticeWaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
