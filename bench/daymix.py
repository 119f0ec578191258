"""How the benchmark's two slots stand for a whole day.

Runs one workload's config over all 144 slots of a generated corpus and
prints, per slot, the SBSs asleep in the optimum for the true loads and the
wall time of the slot, for every iteration. The timed benchmark call
simulates slots 0 and 1 only; this shows where those slots sit in the day.

Usage (from the repository root; a few minutes per workload):
    python3 bench/daymix.py --workload paper-distance --seed 1 --iterations 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import yaml

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import BASE, WORKLOADS  # noqa: E402

SLOTS = 144


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    from vhetsim import experiment
    from vhetsim.config import load_config

    spec = {k: v for k, v in WORKLOADS[args.workload].items() if k != "input"}
    work = Path.cwd() / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        cache = Path(tmp) / "cache.csv"
        subprocess.run([sys.executable, str(BENCH_DIR / "gen_inputs.py"), "cache", "--seed", str(args.seed),
                        "--grid-side", str(spec["grid_side"]), "--out", str(cache)],
                       check=True, capture_output=True, timeout=150)
        config_path = Path(tmp) / "config.yaml"
        config_path.write_text(yaml.safe_dump({
            **BASE, **spec, "dataset": str(cache), "seed": args.seed,
            "estimator": {**spec["estimator"], "seed": args.seed},
            "iteration_count": args.iterations, "slot_count": SLOTS}), encoding="utf-8")
        config = load_config(config_path)

        # run_experiment solves each slot twice, first for the true loads
        solves: list[tuple[float, int]] = []
        greedy = experiment.optimize_greedy

        def recorded(net, loads, **kwargs):
            start = perf_counter()
            result = greedy(net, loads, **kwargs)
            solves.append((start, result[0].delta.count(0)))
            return result

        experiment.optimize_greedy = recorded
        try:
            experiment.run_experiment(config)
        finally:
            experiment.optimize_greedy = greedy
        end = perf_counter()

    firsts = solves[0::2]
    starts = [t for t, _ in firsts] + [end]
    slots = [{"iteration": i // SLOTS, "slot": i % SLOTS, "asleep": asleep, "wall_s": starts[i + 1] - t}
             for i, (t, asleep) in enumerate(firsts)]
    s = config.sbs_count
    day = [r["wall_s"] for r in slots]
    midnight = [r["wall_s"] for r in slots if r["slot"] < 2]
    print(f"{args.workload} seed {args.seed}: {len(slots)} slots")
    print(f"  asleep: day mean {statistics.fmean(r['asleep'] for r in slots):.2f} of {s}, "
          f"slots 0-1 mean {statistics.fmean(r['asleep'] for r in slots if r['slot'] < 2):.2f}; "
          f"share of the day's slots with all {s} asleep "
          f"{sum(r['asleep'] == s for r in slots) / len(slots):.3f}")
    print(f"  wall per slot: day mean {statistics.fmean(day):.3f} s (median {statistics.median(day):.3f} s), "
          f"slots 0-1 mean {statistics.fmean(midnight):.3f} s")
    for hour in range(24):
        rows = [r for r in slots if r["slot"] // 6 == hour]
        print(f"  {hour:02d}h asleep {statistics.fmean(r['asleep'] for r in rows):5.2f} "
              f"wall {statistics.fmean(r['wall_s'] for r in rows):.3f} s")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "slots": slots}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
