"""Workload table, seeded inputs and the metric catalogue of the benchmark.

Each workload drives the public latticewaves API in the order of the CLI
command it mirrors.  Seed 0 is the unjittered configuration of the paper
and the acceptance suite; any other seed scales each eps by a factor drawn
from [1 - EPS_JITTER, 1 + EPS_JITTER] and moves the planting site ``j_c``
of the lattice run, without changing grid, ladder length or lattice size.

A run repeats a workload's ``cycle`` of fresh-process repetitions: "full"
runs every stage and "setup" stops after set-up.  Set-up-only repetitions
add samples of the short set-up stage where one full repetition takes most
of a run; they are spread over the cycle because the speed of a shared
machine drifts over tens of seconds.
"""

import random

EPS_JITTER = 0.02

WORKLOADS = {
    # classify -> sweep.  Power law a=3.5 (M=13,838, sigma=1/2): the
    # slowest-converging family, dominated by the operators' 512-row per-m
    # FFT sums, the GMRES matvecs and the context builds' Taylor remainders.
    # No lattice run, so the simulator layer is flat here.
    "sweep_cm35": {
        "model": {"family": "calogero_moser", "a": 3.5},
        "sigma_theory": 0.5,
        "grid": {"L": 40.0, "N": 2048},
        "sweep": [0.4, 0.28, 0.2, 0.14, 0.1],
        "solve_eps": None,
        "lattice": None,
        "cycle": ["setup", "full", "setup"],
    },
    # classify -> solve -> simulate.  Power law a=4, one eps=0.1 solve, then
    # the acceptance lattice run (J=4096, m_force=64) at a shorter T, where
    # the direct force sum takes most of the time.
    "lattice_cm4": {
        "model": {"family": "calogero_moser", "a": 4.0},
        "sigma_theory": 1.0,
        "grid": {"L": 40.0, "N": 2048},
        "sweep": None,
        "solve_eps": 0.1,
        "lattice": {"J": 4096, "T": 8.0, "m_force": 64},
        "cycle": ["setup", "full", "setup", "full", "setup"],
    },
    # classify -> sweep -> solve -> simulate.  Next-nearest-neighbour chain
    # (M=2): the same layers with two terms instead of hundreds, so time goes
    # to per-call overhead rather than to long sums.  One solve takes ~25 ms,
    # so the ladder has 16 geometric steps over the same 0.4..0.1 range to
    # give the solve stage enough work to time steadily.
    "nnn_short": {
        "model": {"family": "nnn", "g": 1.0},
        "sigma_theory": 2.0,
        "grid": {"L": 40.0, "N": 2048},
        "sweep": [0.4 * 0.25 ** (i / 15) for i in range(16)],
        "solve_eps": 0.1,
        "lattice": {"J": 4096, "T": 400.0, "m_force": 2},
        "cycle": ["full"],
    },
}

# Outer contraction iterations / linearized matvecs of the first solve at
# seed 0, as measured when the benchmark was written (ROADMAP re-anchor).
REANCHOR_FIRST_SOLVE = {
    "sweep_cm35": (21, 200),
    "lattice_cm4": (7, 66),
}

# Acceptance thresholds (tests/test_acceptance.py and the CLI exit codes).
RESIDUAL_MAX = 1e-8
SLOPE_REL_TOL = 0.25
SIGMA_ABS_TOL = 0.05
STAGE_COVERAGE_MIN = 0.9

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _timed(prefix, with_tail):
    units = {f"{prefix}.calls": "count", f"{prefix}.p50_ms": "ms"}
    if with_tail:
        units.update({f"{prefix}.tail_ms": "ms", f"{prefix}.tail_pct": "%"})
    units[f"{prefix}.self_s"] = "s"
    return units


PER_LAYER = {
    "stage.setup.s": "s",
    "stage.solve.s": "s",
    "stage.simulate.s": "s",
    "catalog.build_model.s": "s",
    "catalog.M": "count",
    "catalog.psi_prime.calls": "count",
    "catalog.psi_prime.self_s": "s",
    "catalog.force_term.calls": "count",
    "catalog.force_term.self_s": "s",
    "catalog.pair_energy.self_s": "s",
    "dispersion.certify_type1.s": "s",
    "dispersion.phase_speed_sq.calls": "count",
    "dispersion.phase_speed_sq.self_s": "s",
    "dispersion.taylor_t1.calls": "count",
    "dispersion.taylor_t1.self_s": "s",
    "dispersion.taylor_t2.calls": "count",
    "dispersion.taylor_t2.self_s": "s",
    "spectral.apply_multiplier.calls": "count",
    "spectral.apply_multiplier.self_s": "s",
    "spectral.project_even.calls": "count",
    "spectral.project_even.self_s": "s",
    "spectral.sobolev_norm.calls": "count",
    "operators.context_build.calls": "count",
    "operators.context_build.self_s": "s",
    **_timed("operators.quadratic", True),
    **_timed("operators.cubic", True),
    **_timed("operators.linearized", False),
    "operators.linearized_solve.calls": "count",
    "operators.linearized_solve.self_s": "s",
    "operators.dense_fallbacks": "count",
    "operators.m_apply": "count",
    "solver.solve_contraction.calls": "count",
    "solver.solve_contraction.self_s": "s",
    "solver.outer_iterations": "count",
    "solver.matvecs_per_outer": "ratio",
    "solver.first.outer_iterations": "count",
    "solver.first.matvecs": "count",
    "solver.residual_H1_max": "norm",
    "solver.sweep_slope_rel_err": "ratio",
    "simulator.run_and_verify.s": "s",
    "simulator.init_from_wave.s": "s",
    "simulator.steps": "count",
    **_timed("simulator.force", True),
    "simulator.total_energy.calls": "count",
    "simulator.total_energy.p50_ms": "ms",
    "simulator.m_force": "count",
    "simulator.speed_rel_error": "ratio",
    "simulator.shape_error_max": "ratio",
    "simulator.energy_drift": "ratio",
    "trace.overhead_s": "s",
    "trace.stage_coverage": "ratio",
    "trace.spans": "count",
}


def make_inputs(name, seed):
    """The generated inputs of one run of workload ``name``."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)

    def jitter(eps):
        return eps if seed == 0 else eps * rng.uniform(1.0 - EPS_JITTER, 1.0 + EPS_JITTER)

    inputs = {
        "workload": name,
        "seed": seed,
        "model": dict(spec["model"]),
        "sigma_theory": spec["sigma_theory"],
        "grid": dict(spec["grid"]),
        "sweep": None if spec["sweep"] is None else [jitter(e) for e in spec["sweep"]],
        "solve_eps": None if spec["solve_eps"] is None else jitter(spec["solve_eps"]),
        "lattice": None,
    }
    if spec["lattice"] is not None:
        lattice = dict(spec["lattice"])
        J = lattice["J"]
        lattice["j_c"] = J // 4 if seed == 0 else J // 4 + rng.randint(-J // 32, J // 32)
        inputs["lattice"] = lattice
    return inputs
