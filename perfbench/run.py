"""Pipeline benchmark for latticewaves.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep_cm35,lattice_cm4,nnn_short}
                             --seed N --seconds S --trace {0,1}

All three workloads, seed 0 (the unjittered configuration), in one command:

    for w in sweep_cm35 lattice_cm4 nnn_short; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 25 --trace 0; done

``python3 perfbench/smoke.py`` checks the benchmark itself.

Each repetition of a workload runs in a fresh interpreter (perfbench/worker.py)
against the sources under ``src/``, so set-up includes ``import latticewaves``
as every CLI command pays it.  With ``--trace 0`` the run repeats the
workload's cycle of untraced repetitions (workloads.py: "full" runs every
stage, "setup" stops after set-up) while the next cycle is expected to end
within ``--seconds``, at least once, and reports the median of each
end-to-end metric over the repetitions that ran its stage.  With
``--trace 1`` it runs pairs of one untraced and one traced full repetition
the same way and reports the per-layer metrics of the traced ones; the pair
gives the tracing overhead.

Every output is checked against the acceptance thresholds; ``failed`` counts
the checks that did not hold (a raised LatticeWaveError is one), and
``correct`` is true only when none failed.  The last line of stdout is the
JSON result; the lines before it print every metric with its unit, the
solves, the fail ratio and the provenance.  The full record of the run and
the raw spans of traced repetitions are written under .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (END_TO_END, PER_LAYER, REANCHOR_FIRST_SOLVE,  # noqa: E402
                       WORKLOADS, make_inputs)

REP_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"


def _spawn(root, inputs, mode, trace, run_id, rep):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    job = {"inputs": inputs, "mode": mode, "trace": trace, "run_id": run_id}
    if trace:
        job["spans_path"] = str(root / OUT_DIR / f"{run_id}-rep{rep}.spans.json")
    job["spawned"] = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(seconds, cycle):
    """Call ``cycle`` while the next call is expected to end within ``seconds``
    of the first one's start; always at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycle()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _untraced_run(root, inputs, cycle, seconds, run_id):
    reps = []

    def one_cycle():
        for mode in cycle:
            reps.append(_spawn(root, inputs, mode, False, run_id, len(reps)))

    _repeat(seconds, one_cycle)
    full = [r for r in reps if r["mode"] == "full"]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in full),
        "setup_s": statistics.median(r["stages"]["setup"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }
    return metrics, reps


def _traced_run(root, inputs, seconds, run_id):
    plain, traced = [], []

    def one_pair():
        plain.append(_spawn(root, inputs, "full", False, run_id, 2 * len(plain)))
        traced.append(_spawn(root, inputs, "full", True, run_id, 2 * len(traced) + 1))

    _repeat(seconds, one_pair)
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in PER_LAYER}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics, plain + traced


def _provenance(root, worker_info, seed):
    src = root / "src" / "latticewaves"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), **worker_info, "git_commit": commit,
            "seed": seed, "src_lines": lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "latticewaves" / "__init__.py").is_file():
        print(f"error: {root} has no src/latticewaves to benchmark; run from the "
              "root of a latticewaves checkout", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = make_inputs(args.workload, args.seed)

    # Untimed warm-up: compiles the bytecode caches a fresh checkout lacks.
    subprocess.run([sys.executable, "-c", "import latticewaves"], cwd=root, check=True,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})

    if args.trace:
        metrics, reps = _traced_run(root, inputs, args.seconds, run_id)
        units = PER_LAYER
    else:
        metrics, reps = _untraced_run(root, inputs, WORKLOADS[args.workload]["cycle"],
                                      args.seconds, run_id)
        units = END_TO_END

    checks = [c for r in reps for c in r["checks"]]
    failed = sum(1 for c in checks if not c[1])
    provenance = _provenance(root, reps[0]["provenance"], args.seed)
    solves = next(r["solves"] for r in reversed(reps) if r["mode"] == "full")

    for c in checks:
        if not c[1]:
            print(f"FAILED {c[0]}: {c[2]}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{sum(r['mode'] == 'full' for r in reps)} full and "
          f"{sum(r['mode'] == 'setup' for r in reps)} set-up-only repetitions")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for stage in ("setup", "solve", "simulate"):
        times = [r["stages"][stage] for r in reps if stage in r["stages"] and not r["trace"]]
        if times:
            print(f"  untraced {stage} stage: median {statistics.median(times):.6g} s "
                  f"over {len(times)} repetitions")
    for s in solves:
        print("  solve " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in s.items()))
    expected = REANCHOR_FIRST_SOLVE.get(args.workload)
    if args.trace and args.seed == 0 and expected:
        print(f"  re-anchor first solve: outer/matvecs "
              f"{metrics['solver.first.outer_iterations']}/{metrics['solver.first.matvecs']}"
              f" (ROADMAP {expected[0]}/{expected[1]})")
    print(f"  fail_ratio = {failed}/{len(checks)} = {failed / len(checks):.6g}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    record = {"args": vars(args), "inputs": inputs, "provenance": provenance,
              "metrics": metrics, "repetitions": reps}
    with open(root / OUT_DIR / f"{run_id}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
