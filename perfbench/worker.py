"""One repetition of a benchmark workload in a fresh interpreter.

run.py starts it as ``python3 perfbench/worker.py '<job json>'`` from the
root of a checkout, with ``src`` on PYTHONPATH.  The job carries the
generated inputs, the mode ("full" runs every stage, "setup" stops after
set-up), whether to trace, and the parent's
``time.perf_counter()`` reading just before the spawn (a system-wide
monotonic clock on Linux), so ``wall_s`` runs from process start to the
verified result.

Stage times are taken here with ``perf_counter`` around the library calls.
Untraced repetitions never import the tracer; a traced repetition installs
it right after ``import latticewaves`` and removes it before it reports.
The worker prints one JSON line with stages, checks, solves and, when
traced, the per-layer metrics.
"""

import contextlib
import glob
import json
import math
import os
import resource
import sys
import time

from workloads import (PER_LAYER, RESIDUAL_MAX, SIGMA_ABS_TOL, SLOPE_REL_TOL,
                       STAGE_COVERAGE_MIN)


def _context_attrs(args, result):
    ctx = args[0]
    return {"eps": ctx.eps, "m_apply": ctx.m_apply}


def _solve_attrs(args, result):
    return {"eps": args[0].eps, "iterations": result.iterations,
            "residual_H1": result.residual_H1}


HOOKS = {
    "operators.context_build": _context_attrs,
    "solver.solve_contraction": _solve_attrs,
}


class Repetition:
    def __init__(self, job, tracer):
        self.job = job
        self.inputs = job["inputs"]
        self.tracer = tracer
        self.stages = {}
        self.checks = []  # [name, passed, detail]
        self.gauges = {}
        self.solves = []
        self.wall_s = math.nan
        self.grid_N = self.inputs["grid"]["N"]

    @contextlib.contextmanager
    def stage(self, name):
        block = (self.tracer.span(f"stage.{name}") if self.tracer is not None
                 else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with block:
                yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0

    def check(self, name, passed, detail):
        self.checks.append([name, bool(passed), detail])

    def run(self):
        try:
            self._pipeline()
        except Exception as exc:
            errors = sys.modules.get("latticewaves.errors")
            if errors is None or not isinstance(exc, errors.LatticeWaveError):
                raise
            self.check("no LatticeWaveError", False, f"{type(exc).__name__}: {exc}")
        self.wall_s = time.perf_counter() - self.job["spawned"]
        if self.tracer is not None:
            self.tracer.uninstall()

    def _pipeline(self):
        inputs = self.inputs
        with self.stage("setup"):
            import latticewaves as lw
            if self.tracer is not None:
                self.tracer.install()
            model = lw.build_model(_spec(lw, inputs["model"]), trunc_tol=1e-8)
            profile = lw.certify_type1(model)
        sigma_theory = inputs["sigma_theory"]
        self.check("type I certified", profile.type1_certified
                   and abs(profile.sigma - sigma_theory) <= SIGMA_ABS_TOL,
                   f"type1={profile.type1_certified} sigma={profile.sigma} "
                   f"(theory {sigma_theory} +- {SIGMA_ABS_TOL})")
        self.gauges["catalog.M"] = model.M
        if self.job["mode"] == "setup":
            return

        grid = lw.Grid(**inputs["grid"])
        sweep = sol = None
        with self.stage("solve"):
            if inputs["sweep"] is not None:
                sweep = lw.scaling_sweep(profile, grid, inputs["sweep"])
            if inputs["solve_eps"] is not None:
                ctx = lw.LongWaveOperators(profile, grid, inputs["solve_eps"])
                sol = lw.solve_contraction(ctx)
        residuals = []
        if sweep is not None:
            for eps, res, its, fail in zip(sweep.eps, sweep.residuals,
                                           sweep.iterations, sweep.failures):
                self.solves.append({"eps": eps, "iterations": its, "residual_H1": res})
                residuals.append(res)
                self.check(f"sweep residual eps={eps:.4g}", res <= RESIDUAL_MAX,
                           f"residual_H1 {res:.3e} <= {RESIDUAL_MAX:g} {fail}".strip())
            rel = abs(sweep.slope - sweep.sigma_expected) / sweep.sigma_expected
            self.gauges["solver.sweep_slope_rel_err"] = rel
            self.check("sweep slope", rel <= SLOPE_REL_TOL,
                       f"slope {sweep.slope:.4f} vs sigma {sweep.sigma_expected} "
                       f"(rel err {rel:.3f} <= {SLOPE_REL_TOL})")
        if sol is not None:
            self.solves.append({"eps": sol.eps, "iterations": sol.iterations,
                                "residual_H1": sol.residual_H1})
            residuals.append(sol.residual_H1)
            self.check(f"solve residual eps={sol.eps:.4g}", sol.residual_H1 <= RESIDUAL_MAX,
                       f"residual_H1 {sol.residual_H1:.3e} <= {RESIDUAL_MAX:g}")
        self.gauges["solver.residual_H1_max"] = max(residuals)

        lattice = inputs["lattice"]
        if lattice is None:
            return
        with self.stage("simulate"):
            report = lw.run_and_verify(sol, lattice["J"], lattice["T"],
                                       j_c=lattice["j_c"], m_force=lattice["m_force"])
        self.gauges.update({
            "simulator.m_force": report.m_force,
            "simulator.speed_rel_error": report.speed_rel_error,
            "simulator.shape_error_max": report.shape_error_max,
            "simulator.energy_drift": report.energy_drift,
        })
        self.check("lattice run", report.passed() and not report.early_stopped,
                   f"speed err {report.speed_rel_error:.2e} <= 1e-2, shape "
                   f"{report.shape_error_max:.2e} <= 5e-2, drift "
                   f"{report.energy_drift:.2e} <= 1e-6, early stop "
                   f"{report.early_stopped}")

    def result(self):
        out = {
            "mode": self.job["mode"],
            "trace": bool(self.tracer),
            "stages": self.stages,
            "wall_s": self.wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks": self.checks,
            "solves": self.solves,
            "provenance": _provenance(),
        }
        if self.tracer is None:
            # No wrapper can have been installed if the tracer never loaded.
            self.check("untraced timing ran without the tracer",
                       "spans" not in sys.modules, "tracer module not imported")
        else:
            out["layers"], out["solves"] = self._layers()
            coverage = out["layers"]["trace.stage_coverage"]
            self.check("stage spans cover traced wall time", coverage >= STAGE_COVERAGE_MIN,
                       f"coverage {coverage:.3f} >= {STAGE_COVERAGE_MIN}")
            if self.job.get("spans_path"):
                self.tracer.dump(self.job["spans_path"], self.job["run_id"])
        return out

    def _layers(self):
        import spans
        trace = self.tracer.spans
        summary = spans.summarize(trace)
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

        def nearest(i, name):
            p = trace[i][3]
            while p >= 0 and trace[p][0] != name:
                p = trace[p][3]
            return p

        # attrs are missing on a solve that raised
        solve_of = {i: {"eps": math.nan, "iterations": None, "residual_H1": None,
                        **(s[4] or {}), "outer": 0, "matvecs": 0}
                    for i, s in enumerate(trace) if s[0] == "solver.solve_contraction"}
        matvecs_of = {i: 0 for i, s in enumerate(trace)
                      if s[0] == "operators.linearized_solve"}
        for i, s in enumerate(trace):
            if s[0] == "operators.linearized_solve":
                owner = nearest(i, "solver.solve_contraction")
                if owner in solve_of:
                    solve_of[owner]["outer"] += 1
            elif s[0] == "operators.linearized":
                owner = nearest(i, "solver.solve_contraction")
                if owner in solve_of:
                    solve_of[owner]["matvecs"] += 1
                gmres = nearest(i, "operators.linearized_solve")
                if gmres in matvecs_of:
                    matvecs_of[gmres] += 1
        solves = [solve_of[i] for i in sorted(solve_of)]
        outer = sum(s["outer"] for s in solves)
        matvecs = sum(s["matvecs"] for s in solves)
        m_apply = [s[4]["m_apply"] for s in trace
                   if s[0] == "operators.context_build" and s[4]]
        top = sum(s[2] - s[1] for s in trace if s[3] < 0 and s[0].startswith("stage."))
        special = {
            "catalog.M": self.gauges.get("catalog.M", 0),
            "operators.dense_fallbacks": sum(1 for n in matvecs_of.values() if n > self.grid_N),
            "operators.m_apply": max(m_apply, default=0),
            "solver.outer_iterations": outer,
            "solver.matvecs_per_outer": matvecs / outer if outer else 0.0,
            "solver.first.outer_iterations": solves[0]["outer"] if solves else 0,
            "solver.first.matvecs": solves[0]["matvecs"] if solves else 0,
            "simulator.steps": summary.get("simulator.step_verlet", empty)["calls"],
            "trace.overhead_s": 0.0,  # filled in by run.py from paired repetitions
            "trace.stage_coverage": top / self.wall_s,
            "trace.spans": len(trace),
        }
        metrics = {}
        for name in PER_LAYER:
            if name in special:
                metrics[name] = special[name]
                continue
            if name in self.gauges or name.count(".") < 2:
                metrics[name] = self.gauges.get(name, 0.0)
                continue
            span_name, _, kind = name.rpartition(".")
            row = summary.get(span_name, empty)
            tail = spans.tail_percentile(row["calls"])
            metrics[name] = {
                "calls": row["calls"],
                "self_s": row["self_s"],
                "s": row["total_s"],
                "p50_ms": 1e3 * spans.percentile(row["durations"], 50.0),
                "tail_ms": 1e3 * spans.percentile(row["durations"], tail),
                "tail_pct": tail,
            }[kind]
        return metrics, solves


def _spec(lw, model):
    if model["family"] == "calogero_moser":
        return lw.PotentialSpec.calogero_moser(model["a"])
    if model["family"] == "nnn":
        return lw.PotentialSpec.nnn(model["g"])
    raise ValueError(f"unknown family {model['family']!r}")


def _blas_threads():
    """OpenBLAS thread count of the numpy build, or None if not found."""
    import ctypes
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _provenance():
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def main():
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer(hooks=HOOKS)
    rep = Repetition(job, tracer)
    rep.run()
    print(json.dumps(rep.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
