"""Command line entry points: simulate, sweep, ingest."""

from __future__ import annotations

import argparse
import itertools
import sys

import yaml

from .config import ExperimentConfig, apply_overrides, load_config
from .errors import SimulationError
from .experiment import load_corpus, run_experiment
from .ingest import DEFAULT_CELL_SIZE_M, check_cache_dir, ingest_dataset, save_profile_cache
from .reporting import emit_report, emit_sweep, make_output_dir, run_label


def _parse_vary(arg: str) -> tuple[str, list]:
    key, _, values = arg.partition("=")
    if not values:
        raise argparse.ArgumentTypeError(f"--vary expects key=v1,v2,..., got {arg!r}")
    try:
        return key, [yaml.safe_load(v) for v in values.split(",")]
    except yaml.YAMLError:
        raise argparse.ArgumentTypeError(f"--vary expects YAML values, got {arg!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vhetsim",
                                     description="Cell-switching simulator with sleeping-cell load estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment and emit reports")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default="out")
    sim.add_argument("--estimator", default=None, help="override estimator method")
    sim.add_argument("--sbs-count", type=int, default=None)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit plot-data series")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--vary", action="append", required=True, type=_parse_vary,
                       metavar="KEY=V1,V2,...",
                       help="first --vary is the x-axis; further ones split series")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default="sweep_out")

    ing = sub.add_parser("ingest", help="pre-aggregate a CDR dataset into a profile cache")
    ing.add_argument("--dataset", required=True)
    ing.add_argument("--cache", required=True)
    ing.add_argument("--grid-side", type=int, default=ExperimentConfig.grid_side)
    ing.add_argument("--cell-size", type=float, default=DEFAULT_CELL_SIZE_M)
    ing.add_argument("--days", type=int, default=None)
    return parser


def _simulate(args) -> int:
    config = load_config(args.config)
    flags = {"seed": args.seed, "estimator.method": args.estimator, "sbs_count": args.sbs_count}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if overrides:
        config = apply_overrides(config, overrides)
    # a bad corpus leaves no directory behind; a bad directory stops the run before it starts
    corpus = load_corpus(config)
    outdir = make_output_dir(args.out)
    report = run_experiment(config, corpus)
    paths = emit_report(report, outdir)
    agg = report.summary()["aggregates"]
    print(f"wrote {paths['rows']} ({len(report.rows)} rows); "
          f"mean eps {agg['mean_eps']['mean']:.4f}, "
          f"mean power true/est {agg['power_true_w']['mean']:.2f}/"
          f"{agg['power_est_w']['mean']:.2f} W")
    return 0


def _sweep(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = apply_overrides(config, {"seed": args.seed})
    keys = [key for key, _ in args.vary]
    for k, key in enumerate(keys):
        if key in keys[:k]:
            raise SimulationError(f"--vary gives '{key}' twice")
    # every point resolves and every corpus loads before the first run, so a bad
    # point leaves no runs behind; points that resolve to the same corpus share one load
    points, corpora = {}, {}
    for combo in itertools.product(*(values for _, values in args.vary)):
        overrides = dict(zip(keys, combo))
        label = run_label(overrides.items())
        run_config = apply_overrides(config, overrides)
        # one label is one run directory, and one resolved config one run
        twin = next((other for other, (_, seen, _) in points.items() if other == label or seen == run_config), None)
        if twin is not None:
            raise SimulationError(f"sweep points '{twin}' and '{label}' are the same run")
        source = (run_config.dataset, run_config.synth, run_config.grid_side, run_config.cell_size_m)
        if source not in corpora:
            corpora[source] = load_corpus(run_config)
        points[label] = (overrides, run_config, corpora[source])
    out = make_output_dir(args.out)
    results = []
    for label, (overrides, run_config, corpus) in points.items():
        report = run_experiment(run_config, corpus)
        emit_report(report, out / f"run_{label}")
        results.append((overrides, report))
    paths = emit_sweep(results, keys[0], out)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _ingest(args) -> int:
    check_cache_dir(args.cache)
    profiles = ingest_dataset(args.dataset, args.grid_side, args.cell_size,
                              day_count=args.days)
    save_profile_cache(profiles, args.cache)
    print(f"wrote {args.cache} ({len(profiles)} cell profiles)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate(args)
        if args.command == "sweep":
            return _sweep(args)
        return _ingest(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
