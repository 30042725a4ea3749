"""Command-line pipeline: classify | solve | sweep | simulate | plot.

One INI config file drives every subcommand; it is parsed once, by
``_load_config``, into a frozen ``RunConfig`` whose fields are the keys of
``_TABLE`` (the README lists them with their meaning).  Outputs are
deterministic for a fixed config, and every file embeds the config hash
for provenance.  Exit code 0 means every check the subcommand ran passed
its threshold; a bad config exits 2 naming what failed.
"""

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .catalog import PotentialSpec, build_model
from .dispersion import _phase_speed_grid, certify_type1
from .errors import ConfigError, LatticeWaveError
from .operators import LongWaveOperators
from .simulator import run_and_verify
from .solver import scaling_sweep, solve_contraction, solve_petviashvili
from .spectral import Grid
from .svgfig import line_plot

_RESIDUAL_TARGET = 1e-8  # H^1 residual every solve must reach for exit 0


def _choice(*allowed):
    def parse(raw):
        if raw not in allowed:
            raise ValueError(f"expected one of {' | '.join(allowed)}")
        return raw
    return parse


def _floats(raw):
    return tuple(float(v) for v in raw.split(","))


_TABLE = {  # section -> key -> (parser, default); None means unset
    "model": {
        "family": (_choice("calogero_moser", "nnn", "classical_fput",
                           "finite_range"), "calogero_moser"),
        "a": (float, None),
        "g": (float, None),
        "beta1": (float, 1.0),
        "beta2": (float, 0.0),
        "alpha1": (float, 1.0),
        "alphas": (_floats, None),
        "betas": (_floats, None),
        "trunc_tol": (float, 1e-8),
        "delta_star": (float, None),  # unset: the family's own radius
    },
    "grid": {"L": (float, 40.0), "N": (int, 2048)},
    "solver": {
        "eps": (float, 0.1),
        "eps_list": (_floats, (0.4, 0.28, 0.2, 0.14, 0.1)),
        "tol": (float, 1e-12),
        "max_iter": (int, 50),
        "method": (_choice("contraction", "petviashvili", "both"), "contraction"),
    },
    "simulate": {
        "J": (int, 4096),
        "T": (float, 200.0),
        "dt": (float, None),
        "m_force": (int, None),
        "checkpoints": (int, 100),
    },
    "output": {"dir": (str, "out")},
}
_REQUIRED = {  # [model] keys a family cannot do without
    "calogero_moser": ("a",),
    "nnn": ("g",),
    "finite_range": ("alphas", "betas"),
}

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(key, object, default)
     for section in _TABLE.values() for key, (_, default) in section.items()]
    + [("sha256", str, "")],
    frozen=True)
RunConfig.__doc__ = """One run's settings: a field per ``_TABLE`` key, plus
``sha256``, the first 16 hex digits of the config file's hash."""


def _load_config(path):
    """Parse and check the INI file at ``path`` into a RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for name in cp.sections():
        if name not in _TABLE:
            raise ConfigError(f"unknown config section [{name}] in {path}")
        keys = {key.lower(): key for key in _TABLE[name]}
        for raw_key, raw in cp[name].items():
            if raw_key not in keys:
                raise ConfigError(
                    f"unknown config key '{raw_key}' in section [{name}] of {path}")
            key = keys[raw_key]
            try:
                values[key] = _TABLE[name][key][0](raw)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key} = {raw}: {exc}") from None
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    return RunConfig(**values, sha256=digest)


def _build_model(cfg):
    missing = [key for key in _REQUIRED.get(cfg.family, ()) if getattr(cfg, key) is None]
    if missing:
        raise ConfigError(f"[model] family = {cfg.family} needs key '{missing[0]}'")
    radius = {} if cfg.delta_star is None else {"delta_star": cfg.delta_star}
    if cfg.family == "calogero_moser":
        spec = PotentialSpec.calogero_moser(cfg.a, **radius)
    elif cfg.family == "nnn":
        spec = PotentialSpec.nnn(cfg.g, beta1=cfg.beta1, beta2=cfg.beta2, **radius)
    elif cfg.family == "classical_fput":
        spec = PotentialSpec.classical_fput(alpha1=cfg.alpha1, beta1=cfg.beta1, **radius)
    else:
        spec = PotentialSpec.finite_range(cfg.alphas, cfg.betas, **radius)
    return build_model(spec, trunc_tol=cfg.trunc_tol)


def _out_dir(cfg):
    path = Path(cfg.dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    k, lam = _phase_speed_grid(model, 4.0 * math.pi, 1023)
    _write_csv(out / "lambda.csv", digest, "k,lambda", zip(k, lam))
    line_plot(out / "lambda.svg", [(k, lam, "lambda(k)")],
              title="phase speed squared vs wavenumber",
              xlabel="k", ylabel="lambda(k)",
              hlines=[(model.sum_alpha_m2, "c0^2")],
              comment=f"config_sha256={digest}")


def _certify(cfg, args, out):
    model = _build_model(cfg)
    profile = certify_type1(model)
    _write_lambda(model, cfg.sha256, out)
    _write_json(out / "certificate.json", profile.to_dict(), cfg.sha256)
    _say(args, f"type1={profile.type1_certified} sigma={profile.sigma} "
               f"k_star={profile.k_star} (certificate.json, lambda.csv/svg)")
    return model, profile


def cmd_classify(cfg, args):
    _, profile = _certify(cfg, args, _out_dir(cfg))
    return 0 if profile.type1_certified else 1


def cmd_solve(cfg, args):
    out = _out_dir(cfg)
    _, profile = _certify(cfg, args, out)
    if not profile.type1_certified:
        _say(args, "model is not type I; no wave to solve for")
        return 1
    grid = Grid(L=cfg.L, N=cfg.N)
    ctx = LongWaveOperators(profile, grid, cfg.eps)
    solutions = []
    if cfg.method in ("contraction", "both"):
        solutions.append(solve_contraction(ctx, tol=cfg.tol, max_iter=cfg.max_iter))
    if cfg.method in ("petviashvili", "both"):
        solutions.append(solve_petviashvili(ctx, tol=cfg.tol))
    sol = solutions[0]
    w0 = ctx.background
    _write_csv(out / "profile.csv", cfg.sha256, "x,W,V,W0",
               zip(grid.x, sol.W.values, sol.V.values, w0.values))
    payload = sol.to_dict()
    payload["profile_csv"] = "profile.csv"
    if len(solutions) == 2:
        agree = (solutions[0].W - solutions[1].W).norm(1.0)
        payload["method_agreement_H1"] = agree
        payload["petviashvili_residual_H1"] = solutions[1].residual_H1
    _write_json(out / "solution.json", payload, cfg.sha256)
    line_plot(out / "profile.svg",
              [(grid.x, sol.W.values, "W"), (grid.x, w0.values, "W0")],
              title=f"wave profile, eps={cfg.eps}", xlabel="x", ylabel="W(x)",
              comment=f"config_sha256={cfg.sha256}")
    ok = all(s.residual_H1 <= _RESIDUAL_TARGET for s in solutions)
    for s in solutions:
        _say(args, f"{s.method}: iterations={s.iterations} "
                   f"residual_H1={s.residual_H1:.3e}")
    return 0 if ok else 1


def cmd_sweep(cfg, args):
    out = _out_dir(cfg)
    _, profile = _certify(cfg, args, out)
    if not profile.type1_certified:
        return 1
    report = scaling_sweep(profile, Grid(L=cfg.L, N=cfg.N), cfg.eps_list,
                           tol=cfg.tol, max_iter=cfg.max_iter)
    _write_csv(out / "sweep.csv", cfg.sha256, "eps,diff_H1,residual,iterations",
               report.rows())
    payload = {
        "slope": report.slope,
        "sigma_expected": report.sigma_expected,
        "eps": list(report.eps),
        "failures": [f for f in report.failures if f],
    }
    _write_json(out / "sweep.json", payload, cfg.sha256)
    ok = (math.isfinite(report.slope)
          and abs(report.slope - report.sigma_expected) <= 0.25 * report.sigma_expected
          and not any(report.failures))
    _say(args, f"fitted slope {report.slope:.4f} vs sigma {report.sigma_expected}")
    return 0 if ok else 1


def cmd_simulate(cfg, args):
    out = _out_dir(cfg)
    _, profile = _certify(cfg, args, out)
    if not profile.type1_certified:
        return 1
    grid = Grid(L=cfg.L, N=cfg.N)
    ctx = LongWaveOperators(profile, grid, cfg.eps)
    if cfg.eps * cfg.J < 4.0 * grid.L:
        raise ConfigError(
            f"[simulate] J={cfg.J} too short for eps={cfg.eps}: need eps*J >= 4L")
    sol = solve_contraction(ctx, tol=cfg.tol, max_iter=cfg.max_iter)
    report = run_and_verify(sol, cfg.J, cfg.T, dt=cfg.dt, m_force=cfg.m_force,
                            checkpoints=cfg.checkpoints)
    _write_csv(out / "trajectory.csv", cfg.sha256, "t,peak_position,peak_value,energy",
               report.trajectory)
    payload = report.to_dict()
    payload["solver_residual_H1"] = sol.residual_H1
    _write_json(out / "report.json", payload, cfg.sha256)
    _say(args, f"speed error {report.speed_rel_error:.3e}, shape error "
               f"{report.shape_error_max:.3e}, drift {report.energy_drift:.3e}")
    return 0 if report.passed() and not report.early_stopped else 1


def cmd_plot(cfg, args):
    out = _out_dir(cfg)
    _write_lambda(_build_model(cfg), cfg.sha256, out)
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
    parser.add_argument("--out", default=None, help="override [output] dir")
    parser.add_argument("--eps", type=float, default=None,
                        help="override [solver] eps")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    overrides = {"dir": args.out, "eps": args.eps}
    try:
        cfg = dataclasses.replace(
            _load_config(args.config),
            **{key: value for key, value in overrides.items() if value is not None})
        return _COMMANDS[args.command](cfg, args)
    except LatticeWaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
