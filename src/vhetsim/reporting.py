"""Machine-readable result emission: per-slot CSV, summary, sweep series."""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path

from .errors import SimulationError
from .experiment import ExperimentReport, SlotRow

# '%' is escaped too, so a label decodes back to its values
_ESCAPES = str.maketrans({c: f"%{ord(c):02X}" for c in "%/" + os.sep})


def _fmt(value: float) -> str:
    return repr(float(value))


def run_label(overrides) -> str:
    """The file-name label of (key, value) override pairs. '%', '/' and the path
    separator in a value are percent-escaped, so a label names a direct child of
    the output directory and two distinct values never share one."""
    return "_".join(f"{k.replace('.', '-')}={str(v).translate(_ESCAPES)}" for k, v in overrides)


def make_output_dir(outdir) -> Path:
    """Create `outdir` and its parents as needed; SimulationError if it cannot be."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SimulationError(f"cannot create output directory {outdir}: {exc.strerror}") from None
    return outdir


def _write(path: Path, text: str) -> Path:
    """Write `text` to `path` as UTF-8, line endings as given; SimulationError if it cannot be."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc.strerror}") from None
    return path


def _write_csv(path: Path, header, rows) -> Path:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _write(path, buf.getvalue())


def emit_report(report: ExperimentReport, outdir) -> dict[str, Path]:
    """Write rows.csv, summary.json and the resolved config echo.

    UTF-8, LF line endings, '.' decimal separator; byte-identical for
    identical (config, seed) runs. The columns of rows.csv are the fields of `SlotRow`.
    """
    outdir = make_output_dir(outdir)
    summary = {**report.summary(), "config": report.config_echo}
    return {
        "rows": _write_csv(outdir / "rows.csv", SlotRow._fields,
                           ([row.iteration, row.slot, *map(_fmt, row[2:])] for row in report.rows)),
        "summary": _write(outdir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"),
        "config": _write(outdir / "config.yaml", report.config_echo),
    }


def emit_sweep(results, x_key: str, outdir) -> list[Path]:
    """Write one plot-data series file per non-x override combination.

    `results` is a list of (overrides, ExperimentReport). Rows within a series
    are ordered by the x value. A row is the x value, then the run's mean of
    every `SlotRow` field after `slot`, in field order, headed `mean_<field>`.
    """
    outdir = make_output_dir(outdir)
    series: dict[tuple, list] = {}
    for overrides, report in results:
        rest = tuple(sorted((k, v) for k, v in overrides.items() if k != x_key))
        series.setdefault(rest, []).append((overrides[x_key], report))
    fields = SlotRow._fields[2:]
    header = [x_key, *(f"mean_{name}" for name in fields)]
    paths = []
    for rest, points in series.items():
        rows = []
        for x_value, report in sorted(points, key=lambda p: _sort_key(p[0])):
            agg = report.summary()["aggregates"]
            rows.append([x_value, *(_fmt(agg[name]["mean"]) for name in fields)])
        paths.append(_write_csv(outdir / f"series_{run_label(rest) or 'all'}.csv", header, rows))
    return sorted(paths)


def _sort_key(value):
    if isinstance(value, (int, float)) and not (isinstance(value, float) and math.isnan(value)):
        return (0, value)
    return (1, str(value))
