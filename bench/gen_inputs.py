"""Seeded input generator for the benchmark workloads.

Writes the two kinds of input the program reads:

* a profile cache (the `save_profile_cache` CSV format) for a square grid of
  cells, and
* a directory of daily Milan-format CDR files plus the exact per-(square,
  slot) activity totals the files encode, for the ingest reference check.

Traffic is a diurnal curve plus two centred, unit-variance Gaussian-smoothed
spatial fields: a static neighbourhood offset and a per-slot jitter field.
The generator does not call into `vhetsim`, so a change to the program's own
synthetic generator never changes a workload's inputs.

Usage:
    python3 bench/gen_inputs.py cache --seed 1 --grid-side 100 --out corpus.csv
    python3 bench/gen_inputs.py cdr --seed 1 --grid-side 24 --out cdr_dir/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

SLOTS = 144
# the CDR input covers this many days, one file per day
DAYS = 3
SLOT_MS = 600_000
DAY_MS = 86_400_000
# 2013-11-04 00:00 UTC, a midnight in the interval clock the program uses
FIRST_DAY_MS = 1_383_523_200_000
CELL_SIZE_M = 235.0
CORRELATION_M = 940.0
STATIC_STD = 0.10
SLOT_STD = 0.04
# A corpus with more than this share of its values clipped to 0 or to 1 is
# degenerate and is refused.
MAX_CLIPPED_SHARE = 0.05
COUNTRY_CODES = (39, 33, 49, 86, 1)
CODE_COUNT_P = (0.8, 0.15, 0.05)
ABSENT_SHARE = 0.04
# per line: 0 = all eight fields, 1 = trailing fields empty, 2 = trailing fields absent
TRUNCATION_P = (0.8, 0.1, 0.1)
# share of one country code's activity per column: sms_in, sms_out, call_in, call_out, internet
COLUMN_SHARE = np.array([0.08, 0.07, 0.06, 0.06, 0.73])
ACTIVITY_SCALE = 120.0


def diurnal_curve() -> np.ndarray:
    """Quiet around 04:00, busiest around 16:00 (0.23 .. 0.67)."""
    x = np.arange(SLOTS) / SLOTS
    return 0.45 - 0.22 * np.cos(2.0 * np.pi * (x - 1.0 / 6.0))


def _centred_field(rng: np.random.Generator, side: int) -> np.ndarray:
    field = gaussian_filter(rng.normal(size=(side, side)), sigma=CORRELATION_M / CELL_SIZE_M,
                            mode="wrap").ravel()
    field -= field.mean()
    return field / field.std()


def raw_loads(rng: np.random.Generator, side: int, days: int = 1) -> np.ndarray:
    """Unclipped loads of shape (days, cells, slots); days share the static field."""
    static = STATIC_STD * _centred_field(rng, side)
    curve = diurnal_curve()
    out = np.empty((days, side * side, SLOTS))
    for d in range(days):
        for t in range(SLOTS):
            out[d, :, t] = curve[t] + static + SLOT_STD * _centred_field(rng, side)
    return out


def clip_report(raw: np.ndarray) -> dict:
    """Shares of values clipped to 0 and to 1; refuses a degenerate corpus."""
    zero = float((raw <= 0.0).mean())
    one = float((raw >= 1.0).mean())
    if zero > MAX_CLIPPED_SHARE or one > MAX_CLIPPED_SHARE:
        raise ValueError(f"degenerate corpus: {zero:.4f} clipped to 0, {one:.4f} clipped to 1 "
                         f"(bound {MAX_CLIPPED_SHARE})")
    return {"zero_clipped_share": zero, "one_clipped_share": one}


def centroid(cell_ids: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major grid centroids; cell id 1 is the (0, 0) corner cell."""
    row, col = np.divmod(cell_ids - 1, side)
    return (col + 0.5) * CELL_SIZE_M, (row + 0.5) * CELL_SIZE_M


def write_cache(seed: int, side: int, path) -> dict:
    """Write a profile cache of side x side cells; return its make-up."""
    raw = raw_loads(np.random.default_rng(seed), side)[0]
    report = clip_report(raw)
    loads = np.clip(raw, 0.0, 1.0)
    ids = np.arange(1, side * side + 1)
    xs, ys = (v.tolist() for v in centroid(ids, side))
    header = ",".join(["cell_id", "x_m", "y_m"] + [f"s{t:03d}" for t in range(SLOTS)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(len(xs)):
            fh.write(f"{i + 1},{xs[i]!r},{ys[i]!r},")
            fh.write(",".join(map(repr, loads[i].tolist())))
            fh.write("\n")
    return {"kind": "cache", "seed": seed, "grid_side": side, "cells": side * side,
            "correlation_m": CORRELATION_M, "static_std": STATIC_STD, "slot_std": SLOT_STD,
            "mean_load": float(loads.mean()), **report}


def write_cdr(seed: int, side: int, outdir) -> dict:
    """Write one Milan-format CDR file for each of DAYS days plus `totals.npy`
    and `make_up.json`.

    `totals.npy` holds, per (square, slot), the sum over days and country
    codes of the activity values exactly as written (parsed back from text).
    """
    rng = np.random.default_rng(seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    raw = raw_loads(rng, side, DAYS)
    report = clip_report(raw)
    activity = ACTIVITY_SCALE * np.clip(raw, 0.0, 1.0)
    cells = side * side
    totals = np.zeros(cells * SLOTS)
    lines_total = absent_total = 0
    for d in range(DAYS):
        present = np.flatnonzero(rng.random(cells * SLOTS) >= ABSENT_SHARE)
        absent_total += cells * SLOTS - len(present)
        k = rng.choice(len(CODE_COUNT_P), size=len(present), p=CODE_COUNT_P) + 1
        pair = np.repeat(present, k)                     # (cell, slot) index per line
        code = np.arange(len(pair)) - np.repeat(np.cumsum(k) - k, k)
        share = rng.exponential(size=len(pair))
        share /= np.bincount(np.repeat(np.arange(len(k)), k), weights=share)[np.repeat(np.arange(len(k)), k)]
        cols = (activity[d].ravel()[pair, None] * share[:, None] * COLUMN_SHARE[None, :]
                * rng.uniform(0.8, 1.2, size=(len(pair), 5)))
        # values are written with four decimals: q ten-thousandths, read back as q / 1e4
        q = np.rint(cols * 1e4).astype(np.int64)
        cut = rng.choice(3, size=len(pair), p=TRUNCATION_P)
        keep = rng.integers(1, 5, size=len(pair))
        q[(cut[:, None] > 0) & (np.arange(5)[None, :] >= keep[:, None])] = 0
        np.add.at(totals, pair, (q / 1e4).sum(axis=1))
        lines = []
        for i in range(len(pair)):
            c, t = divmod(int(pair[i]), SLOTS)
            head = f"{c + 1}\t{FIRST_DAY_MS + d * DAY_MS + t * SLOT_MS}\t{COUNTRY_CODES[code[i]]}"
            texts = [f"{v // 10000}.{v % 10000:04d}" for v in q[i].tolist()]
            if cut[i]:
                texts = texts[:keep[i]] + ([""] * (5 - keep[i]) if cut[i] == 1 else [])
            lines.append("\t".join([head] + texts))
        lines_total += len(lines)
        day_name = f"sms-call-internet-mi-2013-11-{4 + d:02d}.txt"
        (outdir / day_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    totals = totals.reshape(cells, SLOTS)
    np.save(outdir / "totals.npy", totals)
    make_up = {"kind": "cdr", "seed": seed, "grid_side": side, "cells": cells, "days": DAYS,
               "lines": lines_total, "absent_intervals": absent_total,
               "correlation_m": CORRELATION_M, "static_std": STATIC_STD, "slot_std": SLOT_STD,
               **report}
    (outdir / "make_up.json").write_text(json.dumps(make_up, indent=1) + "\n", encoding="utf-8")
    return make_up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("cache", "cdr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--grid-side", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.kind == "cache":
        make_up = write_cache(args.seed, args.grid_side, args.out)
    else:
        make_up = write_cdr(args.seed, args.grid_side, args.out)
    print(json.dumps(make_up, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
