"""Machine-readable result emission: per-slot CSV, summary, sweep series."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import SimulationError
from .experiment import ExperimentReport

CSV_HEADER = ["iteration", "slot", "mean_eps", "power_true_w", "power_est_w",
              "decision_change", "p_off_on", "p_on_off"]


def _fmt(value: float) -> str:
    return repr(float(value))


def make_output_dir(outdir) -> Path:
    """Create `outdir` and its parents as needed; SimulationError if it cannot be."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SimulationError(f"cannot create output directory {outdir}: {exc.strerror}") from None
    return outdir


def emit_report(report: ExperimentReport, outdir) -> dict[str, Path]:
    """Write rows.csv, summary.json and the resolved config echo.

    UTF-8, LF line endings, '.' decimal separator; byte-identical for
    identical (config, seed) runs.
    """
    outdir = make_output_dir(outdir)
    rows_path = outdir / "rows.csv"
    with open(rows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            m = row.metrics
            writer.writerow([
                row.iteration, row.slot, _fmt(m.estimation_error),
                _fmt(m.power_true), _fmt(m.power_est),
                _fmt(m.decision_change_rate), _fmt(m.p_err_off_on),
                _fmt(m.p_err_on_off),
            ])
    summary_path = outdir / "summary.json"
    summary = report.summary()
    summary["config"] = report.config_echo
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    config_path = outdir / "config.yaml"
    with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.config_echo)
    return {"rows": rows_path, "summary": summary_path, "config": config_path}


def emit_sweep(results, x_key: str, outdir) -> list[Path]:
    """Write one plot-data series file per non-x override combination.

    `results` is a list of (overrides, ExperimentReport). Rows within a series
    are ordered by the x value; columns are the aggregate means of the run.
    """
    outdir = make_output_dir(outdir)
    series: dict[tuple, list] = {}
    for overrides, report in results:
        x_value = overrides[x_key]
        rest = tuple(sorted((k, v) for k, v in overrides.items() if k != x_key))
        series.setdefault(rest, []).append((x_value, report))
    paths = []
    for rest, points in series.items():
        label = "_".join(f"{k.replace('.', '-')}={v}" for k, v in rest) or "all"
        path = outdir / f"series_{label}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([x_key, "mean_eps", "mean_power_true_w",
                             "mean_power_est_w", "mean_decision_change"])
            for x_value, report in sorted(points, key=lambda p: _sort_key(p[0])):
                agg = report.summary()["aggregates"]
                writer.writerow([x_value] + [
                    _fmt(agg[col]["mean"])
                    for col in ("mean_eps", "power_true_w", "power_est_w", "decision_change")
                ])
        paths.append(path)
    return sorted(paths)


def _sort_key(value):
    if isinstance(value, (int, float)) and not (isinstance(value, float) and math.isnan(value)):
        return (0, value)
    return (1, str(value))
