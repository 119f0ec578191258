"""vhetsim benchmark: one workload, one run, one JSON line of results.

Usage (from the repository root):
    python3 bench/run.py --workload paper-distance --seed 1 --seconds 45 --trace 0

The program under test is imported from `src/` of the current directory and
driven through its public API only: `vhetsim.cli.main` for the ingest and
simulate steps, `config.load_config` and `experiment.load_corpus` for set-up.
Inputs come from `bench/gen_inputs.py`, run as a child process so its memory
does not count towards the workload's peak RSS.

With `--trace 0` the run reports the end-to-end metrics: slots_per_s over all
its identical simulate calls but the first, setup_s as the median of the
identical set-ups made one before each call but the first, and
peak_rss_mib. With `--trace 1` it reports per-layer self times and counts
from a traced simulate call, the size ladders, and the reference checks.
Every run checks the program's outputs; a failed check makes the run exit
with status 1. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import yaml  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import Checks, identical_outputs, ingest_check, output_bytes, reference_checks, run_level  # noqa: E402
import ladders  # noqa: E402
from reference import self_test  # noqa: E402
from tracer import Tracer  # noqa: E402

POWER = {
    "sbs": {"operational_w": 56.0, "amplifier_eff": 2.6, "transmit_w": 6.3, "sleep_w": 6.0},
    "mbs": {"operational_w": 130.0, "amplifier_eff": 4.7, "transmit_w": 20.0, "sleep_w": 75.0},
    "haps": {"operational_w": 180.0, "amplifier_eff": 4.0, "transmit_w": 120.0, "sleep_w": 100.0},
}
BASE = {"power": POWER, "capacity": {"sbs": 10.0, "mbs": 50.0, "haps": 50.0},
        "base_load": {"mbs": 0.2, "haps": 0.1}, "lambda_th": 0.1, "exhaustive_limit": 14}

# Why each workload: see bench/README.md. iteration_count x slot_count is the
# size of one simulate call; a run repeats that identical call until --seconds
# have passed. How slots 0 and 1 stand for the whole day: bench/daymix.py.
WORKLOADS = {
    "paper-distance": {
        "input": "cache", "grid_side": 100, "sbs_count": 20, "iteration_count": 2, "slot_count": 2,
        "estimator": {"method": "distance_weighted", "neighbor_count": 20, "distance_exponent": 3},
        "optimizer": "greedy", "offload_sinks": "MBS_and_HAPS",
    },
    "paper-mlc": {
        "input": "cache", "grid_side": 100, "sbs_count": 20, "iteration_count": 2, "slot_count": 2,
        "estimator": {"method": "mlc", "cluster_count": "elbow", "layer_count": 2},
        "optimizer": "greedy", "offload_sinks": "HAPS_only",
    },
}
# The CDR pipeline: `vhetsim ingest` of 3 daily CDR files, then the exact solver.
# Its end-to-end timings spread too far on a shared host for a workload of its
# own (see bench/README.md), so every traced run measures its layers instead.
CDR_PIPELINE = {
    "input": "cdr", "grid_side": 24, "sbs_count": 10, "iteration_count": 2, "slot_count": 2,
    "estimator": {"method": "random_weighted", "neighbor_count": 20, "distance_exponent": 3},
    "optimizer": "exhaustive", "offload_sinks": "MBS_and_HAPS",
}
# per-layer metrics that only the CDR pipeline exercises
CDR_METRICS = ("ingest.ingest_dataset.self_s", "ingest.ingest_dataset.records_per_s",
               "ingest.save_profile_cache.self_s", "switching.optimize_exhaustive.self_s",
               "switching.optimize_exhaustive.calls")
MIN_CALLS = 3
# the reported self times must add up to the wall time of the traced calls within this share
SELF_SUM_TOLERANCE = 0.01


def machine() -> dict:
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    import numpy
    import scipy
    return {"nproc": NPROC, "cpu_model": model or platform.processor(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class Workload:
    """Generated inputs, the YAML config and the program entry points of one run."""

    def __init__(self, name: str, spec: dict, seed: int, work: Path):
        from vhetsim import cli

        work.mkdir(parents=True, exist_ok=True)
        self.name, self.seed, self.work = name, seed, work
        self.spec = dict(spec)
        self.cli = cli
        self.cdr = self.spec.pop("input") == "cdr"
        gen = [sys.executable, str(BENCH_DIR / "gen_inputs.py"), "cdr" if self.cdr else "cache",
               "--seed", str(seed), "--grid-side", str(self.spec["grid_side"])]
        self.cache = work / "cache.csv"
        if self.cdr:
            self.cdr_dir = work / "cdr"
            gen += ["--out", str(self.cdr_dir)]
        else:
            gen += ["--out", str(self.cache)]
        done = subprocess.run(gen, check=True, capture_output=True, text=True, timeout=150)
        self.make_up = json.loads(done.stdout.strip().splitlines()[-1])
        self.config = {**BASE, **self.spec, "dataset": str(self.cache), "seed": seed,
                       "estimator": {**self.spec["estimator"], "seed": seed}}
        self.config_path = work / "config.yaml"
        self.config_path.write_text(yaml.safe_dump(self.config, sort_keys=True), encoding="utf-8")
        self.slots = self.config["iteration_count"] * self.config["slot_count"]
        self.samples: dict[str, list] = {}

    def ingest(self, main=None) -> float:
        argv = ["ingest", "--dataset", str(self.cdr_dir), "--cache", str(self.cache),
                "--grid-side", str(self.config["grid_side"])]
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = (main or self.cli.main)(argv)
        elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"ingest exited with {code}")
        return elapsed

    def setup(self) -> float:
        """Config resolution plus corpus load."""
        from vhetsim.config import load_config
        from vhetsim.experiment import load_corpus

        start = perf_counter()
        corpus = load_corpus(load_config(self.config_path))
        elapsed = perf_counter() - start
        del corpus
        return elapsed

    def simulate(self, outdir: Path, main=None, estimator=None) -> tuple[float, bool]:
        """One simulate call; returns its wall time and whether it succeeded."""
        argv = ["simulate", "--config", str(self.config_path), "--out", str(outdir)]
        if estimator:
            argv += ["--estimator", estimator]
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = (main or self.cli.main)(argv)
        except Exception as exc:  # a raising call counts its slots as failed
            print(f"simulate raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        return perf_counter() - start, code == 0


def guarded(checks: Checks, name: str, fn, *args):
    """Run one check group; an exception in it is a failed check."""
    try:
        return fn(*args)
    except Exception as exc:
        checks.expect(name, False, f"{type(exc).__name__}: {exc}")
        return None


def run_timed(wl: Workload, seconds: float, checks: Checks) -> tuple[dict, int, int]:
    out = wl.work / "out"
    setups, times, calls, failed, outputs = [], [], 0, 0, []
    start = perf_counter()
    while calls < MIN_CALLS or perf_counter() - start < seconds:
        # one set-up before each call, so that set-ups and calls meet the same
        # phases of host load; the first set-up and call warm the process
        # (lazy imports, first use of each code path) and are not timed
        setups.append(wl.setup())
        elapsed, ok = wl.simulate(out)
        calls += 1
        if not ok:
            failed += wl.slots
            continue
        if calls > 1:
            times.append(elapsed)
        outputs.append(guarded(checks, "outputs readable", output_bytes, out))
    identical_outputs(checks, "rerun", [o for o in outputs if o])
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.simulate(wl.work / "perfect", estimator="perfect")
    guarded(checks, "run-level checks", run_level, checks, "timed", out, wl.work / "perfect", wl.config)
    metrics = {
        # the host's speed swings by up to 2x in phases of seconds to minutes,
        # so no single call stands for the program: the rate is taken over
        # all timed calls of the run
        "slots_per_s": {"value": wl.slots * len(times) / sum(times) if times else 0.0, "unit": "slots/s"},
        "setup_s": {"value": median(setups[1:]), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
    }
    wl.samples = {"setup_s": setups, "call_s": times}
    return metrics, calls * wl.slots, failed


# per-layer metric -> spans it is computed from
SELF_METRICS = {
    "cli.main.self_s": ["cli.main"],
    "config.load_config.self_s": ["config.load_config"],
    "experiment.load_corpus.self_s": ["experiment.load_corpus"],
    "experiment.run_experiment.self_s": ["experiment.run_experiment"],
    "ingest.load_profile_cache.self_s": ["ingest.load_profile_cache"],
    "ingest.ingest_dataset.self_s": ["ingest.ingest_dataset"],
    "ingest.save_profile_cache.self_s": ["ingest.save_profile_cache"],
    "switching.optimize_greedy.self_s": ["switching.optimize_greedy"],
    "switching.optimize_exhaustive.self_s": ["switching.optimize_exhaustive"],
    "power.total_power.self_s": ["power.total_power"],
    "estimate.rank_neighbors.self_s": ["estimate.rank_neighbors"],
    "estimate.select_random.self_s": ["estimate.select_random"],
    "estimate.estimate_weighted.self_s": ["estimate.estimate_weighted"],
    "estimate.estimate_mean.self_s": ["estimate.estimate_mean"],
    "estimate.mlc_estimate.self_s": ["estimate.mlc_estimate"],
    "estimate.elbow_g.self_s": ["estimate.elbow_g"],
    "estimate.kmeans_cluster.self_s": ["estimate.kmeans_cluster"],
    "metrics.self_s": ["metrics.mean_estimation_error", "metrics.empirical_p_err",
                       "metrics.decision_change_rate"],
    "reporting.emit_report.self_s": ["reporting.emit_report"],
}
CALL_METRICS = ("switching.optimize_greedy", "switching.optimize_exhaustive", "power.total_power",
                "estimate.rank_neighbors", "estimate.select_random", "estimate.kmeans_cluster")


def layer_metrics(tracer: Tracer, wl: Workload, walls: float, checks: Checks) -> tuple[dict, list]:
    metrics, unmeasured = {}, []
    self_times, calls = tracer.self_times(), tracer.calls()

    def put(name, unit, spans, value):
        if any(s in tracer.unmeasured for s in spans):
            unmeasured.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}

    for name, spans in SELF_METRICS.items():
        put(name, "s", spans, sum(self_times.get(s, 0.0) for s in spans))
    for span in CALL_METRICS:
        put(f"{span}.calls", "count", [span], calls.get(span, 0))
    ingest_s = sum(tracer.durations("ingest.ingest_dataset"))
    put("ingest.ingest_dataset.records_per_s", "1/s", ["ingest.ingest_dataset"],
        wl.make_up["lines"] / ingest_s if wl.cdr and ingest_s > 0 else 0.0)
    try:
        from vhetsim import estimate
        max_iter = estimate._KMEANS_MAX_ITER
        history = [len(result.sse_history) for _, _, result in tracer.captured["estimate.kmeans_cluster"]]
        put("estimate.kmeans_cluster.iterations", "count", ["estimate.kmeans_cluster"], sum(history))
        put("estimate.kmeans_cluster.max_iter_hits", "count", ["estimate.kmeans_cluster"],
            sum(n >= max_iter for n in history))
    except AttributeError:
        unmeasured += ["estimate.kmeans_cluster.iterations", "estimate.kmeans_cluster.max_iter_hits"]
    # a traced span that no reported metric covers makes this check fail
    total_self = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    checks.expect(f"{wl.name}: reported self times sum to the traced wall time within {SELF_SUM_TOLERANCE:.0%}",
                  abs(total_self - walls) <= SELF_SUM_TOLERANCE * walls,
                  f"self times {total_self:.6f} s, wall {walls:.6f} s")
    return metrics, unmeasured


def trace_section(wl: Workload, checks: Checks, spans_path: Path) -> tuple[Tracer, dict, list, int, float]:
    """A traced ingest on CDR input, then one untraced and one traced simulate
    call, checked; returns the tracer, its layer metrics, the unmeasured
    names, the slots failed and the traced over untraced wall time."""
    # both calls write to one directory, since summary.json echoes the output path
    out = wl.work / "out"
    tracer = Tracer()
    walls = 0.0
    # the traced entry point is the wrapper that the tracer installs in vhetsim.cli
    if wl.cdr:
        with tracer:
            walls += wl.ingest(sys.modules["vhetsim.cli"].main)
    untraced_s, ok_u = wl.simulate(out)
    untraced_bytes = guarded(checks, "outputs readable", output_bytes, out)
    with tracer:
        traced_s, ok_t = wl.simulate(out, main=sys.modules["vhetsim.cli"].main)
    walls += traced_s
    tracer.write(spans_path)

    metrics, unmeasured = layer_metrics(tracer, wl, walls, checks)
    guarded(checks, "reference checks", reference_checks, checks, tracer.captured, tracer.originals)
    if wl.cdr:
        guarded(checks, "ingest check", ingest_check, checks, wl.cache, wl.cdr_dir / "totals.npy",
                wl.make_up["days"])
    wl.simulate(wl.work / "perfect", estimator="perfect")
    guarded(checks, "run-level checks", run_level, checks, f"{wl.name} traced", out, wl.work / "perfect",
            wl.config)
    traced_bytes = guarded(checks, "outputs readable", output_bytes, out)
    identical_outputs(checks, f"{wl.name} traced vs untraced", [o for o in (untraced_bytes, traced_bytes) if o])
    return tracer, metrics, unmeasured, wl.slots * ((not ok_u) + (not ok_t)), traced_s / untraced_s


def run_traced(wl: Workload, checks: Checks) -> tuple[dict, int, int, list]:
    failures = self_test()
    checks.expect("reference self-tests", not failures, ", ".join(failures))
    records = wl.work.parent
    tracer, metrics, unmeasured, failed, overhead = trace_section(
        wl, checks, records / f"{wl.work.name}-spans.json")
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    cdr = Workload("cdr-pipeline", CDR_PIPELINE, wl.seed, wl.work / "cdr-pipeline")
    _, cdr_metrics, cdr_unmeasured, cdr_failed, _ = trace_section(
        cdr, checks, records / f"{wl.work.name}-cdr-pipeline-spans.json")
    for name in CDR_METRICS:
        metrics.pop(name, None)
        if name in cdr_metrics:
            metrics[name] = cdr_metrics[name]
    unmeasured = sorted((set(unmeasured) | set(cdr_unmeasured)) - set(metrics))
    wl.make_up = {**wl.make_up, "cdr_pipeline": cdr.make_up}
    attempted = 2 * (wl.slots + cdr.slots)
    failed += cdr_failed

    reports = [result for _, _, result in tracer.captured.get("experiment.run_experiment", [])]
    del tracer
    ladder_runs = [("solvers", ladders.solvers, (wl.seed, checks)),
                   ("estimators", ladders.estimators, (wl.seed,)),
                   ("corpus_io", ladders.corpus_io, (wl.seed, checks, wl.work))]
    if reports:
        ladder_runs.append(("emit", ladders.emit, (reports[0], wl.work)))
    else:
        unmeasured.append("reporting.emit_report_ms (no run_experiment report captured)")
    for name, fn, args in ladder_runs:
        try:
            metrics.update(fn(*args))
        except (AttributeError, ImportError, TypeError) as exc:
            unmeasured.append(f"ladder {name} ({type(exc).__name__}: {exc})")
    return metrics, attempted, failed, unmeasured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vhetsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vhetsim" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'vhetsim'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import vhetsim
    if Path(vhetsim.__file__).resolve().parent != (root / "src" / "vhetsim").resolve():
        print(f"error: imported vhetsim from {vhetsim.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    records = root / ".bench_work"
    work = records / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    unmeasured: list[str] = []
    try:
        wl = Workload(args.workload, WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            metrics, attempted, failed, unmeasured = run_traced(wl, checks)
        else:
            metrics, attempted, failed = run_timed(wl, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": failed, "machine": machine(), "inputs": wl.make_up,
              "config": wl.config, "metrics": metrics, "samples": wl.samples, "unmeasured": unmeasured,
              "checks": {"failed": checks.failed, "unchecked": checks.unchecked, "passed": checks.passed}}
    (records / f"{work.name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                               encoding="utf-8")
    for line in checks.failed:
        print(f"CHECK FAILED {line}")
    for line in checks.unchecked + unmeasured:
        print(f"unmeasured: {line}")
    print(f"{len(checks.passed)} checks passed; record in {records / (work.name + '.json')}")
    correct = checks.ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
