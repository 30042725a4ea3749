"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--workload NAME ...] [--seed N]

Run from the root of a checkout (default workload: nnn_short, the fastest).
It checks that

1. every metric BENCHMARK.json names is emitted with its unit: the
   end-to-end metrics by an untraced run, the per-layer ones by a traced run;
2. exact counts (per-layer metrics in unit ``count``) repeat across two
   traced runs at the same seed, and at seed 0 the first solve matches the
   ROADMAP re-anchor counts where workloads.py records them;
3. uninstalling the tracer removes every wrapper it installed, restoring
   the original objects, and untraced repetitions never load the tracer.

Exits 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REANCHOR_FIRST_SOLVE  # noqa: E402


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _wrappers_removed(root):
    sys.path.insert(0, str(root / "src"))
    import inspect

    import latticewaves  # noqa: F401
    import spans

    def snapshot():
        state = {}
        for name, mod in sys.modules.items():
            if name == "latticewaves" or name.startswith("latticewaves."):
                for owner in [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]:
                    for attr, obj in vars(owner).items():
                        state[(id(owner), attr)] = obj
        return state

    before = snapshot()
    tracer = spans.Tracer()
    installed = tracer.install()
    wrapped = spans.find_wrappers()
    tracer.uninstall()
    after = snapshot()
    changed = [key for key, obj in before.items() if after.get(key) is not obj]
    return [
        (installed > 0 and len(wrapped) == installed,
         f"install wrapped {installed} lookup sites, {len(wrapped)} wrappers bound"),
        (not spans.find_wrappers() and not changed,
         f"after uninstall: {len(spans.find_wrappers())} wrappers left, "
         f"{len(changed)} attributes differ from before install"),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=["nnn_short"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())

    results = _wrappers_removed(root)
    for workload in args.workload:
        plain = _run(workload, args.seed, 0)
        traced = [_run(workload, args.seed, 1) for _ in range(2)]
        for result, section in ((plain, "end_to_end"), (traced[0], "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            results.append((got == want and result["correct"],
                            f"{workload} {section}: {len(got)} metrics emitted, "
                            f"{len(want)} named, correct={result['correct']}"))
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        results.append((not differ, f"{workload}: {len(counts[0])} counts repeat "
                                    f"across two traced runs; differing: {differ}"))
        expected = REANCHOR_FIRST_SOLVE.get(workload)
        if args.seed == 0 and expected:
            first = (counts[0]["solver.first.outer_iterations"],
                     counts[0]["solver.first.matvecs"])
            results.append((first == expected, f"{workload}: first solve outer/matvecs "
                                                f"{first[0]}/{first[1]}, re-anchor "
                                                f"{expected[0]}/{expected[1]}"))
    for ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {detail}")
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
