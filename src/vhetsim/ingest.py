"""CDR ingestion: parsing, aggregation, normalization and synthetic traffic.

The raw input is the Telecom Italia Milan grid activity dump: tab separated
lines of (square_id, interval_ms, country_code, sms_in, sms_out, call_in,
call_out, internet), one record per line, inactive intervals simply absent.
Everything downstream works on per-cell daily load profiles of 144 ten-minute
slots, normalized to [0, 1] by the corpus-wide maximum, held as one `Corpus`
of arrays.
"""

from __future__ import annotations

import array
import collections
import contextlib
import gzip
import io
import math
import os
import struct
import tempfile
import warnings
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CdrParseError, NormalizationError, SimulationError

SLOTS_PER_DAY = 144
SLOT_MS = 600_000
DAY_MS = 86_400_000
MILAN_GRID_CELLS = 10_000
DEFAULT_CELL_SIZE_M = 235.0

_ACTIVITY_FIELDS = ("sms_in", "sms_out", "call_in", "call_out", "internet")
_STATIC_NOISE_SHARE = 0.75
# the widest smoothing, spatial_correlation_length / cell_size_m, in grid sides
_MAX_SMOOTHING_SIDES = 10
CACHE_HEADER = ["cell_id", "x_m", "y_m"] + [f"s{t:03d}" for t in range(SLOTS_PER_DAY)]


class TrafficProfile(NamedTuple):
    """One cell's normalized daily load series (144 load factors in [0, 1]), a row of a `Corpus`."""

    cell_id: int
    position: tuple[float, float]
    slots: tuple[float, ...]


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Corpus:
    """The normalized daily load profiles of a cell grid, as arrays.

    `ids` holds one integer cell id per cell, `xy` the (cells, 2) centroid
    positions in metres and `loads` the (cells, 144) load factors in [0, 1].
    All three are read-only. The values are checked once, here: a bad corpus
    raises `NormalizationError`, and so do two cells at one position.
    Iteration gives one `TrafficProfile` per cell, in row order.
    """

    ids: np.ndarray
    xy: np.ndarray
    loads: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids)
        xy = np.ascontiguousarray(self.xy, dtype=np.float64)
        loads = np.ascontiguousarray(self.loads, dtype=np.float64)
        cells = len(ids)
        if ids.ndim != 1 or cells == 0:
            raise NormalizationError("empty profile corpus")
        if ids.dtype.kind not in "iu":
            raise NormalizationError(f"cell ids must be integers, got {ids.dtype}")
        if xy.shape != (cells, 2) or loads.shape != (cells, SLOTS_PER_DAY):
            raise NormalizationError(
                f"{cells} cells need {cells} x 2 positions and {cells} x {SLOTS_PER_DAY} "
                f"load factors, got {xy.shape} and {loads.shape}")
        # a NaN fails both comparisons, so one pass over each array clears a good corpus
        if not (np.isfinite(xy).all() and 0.0 <= loads.min() and loads.max() <= 1.0):
            bad = ~(np.isfinite(xy).all(axis=1) & np.isfinite(loads).all(axis=1))
            if bad.any():
                raise NormalizationError(f"cell {ids[bad][0]}: non-finite position or load factor")
            bad = ((loads < 0.0) | (loads > 1.0)).any(axis=1)
            raise NormalizationError(f"cell {ids[bad][0]}: load factor outside [0, 1]")
        unique, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise NormalizationError(f"duplicate cell id {unique[counts > 1][0]}")
        # a stable sort keeps equal positions in row order
        order = np.lexsort((xy[:, 1], xy[:, 0]))
        shared = np.flatnonzero((xy[order[1:]] == xy[order[:-1]]).all(axis=1))
        if len(shared):
            first, second = order[shared[0]], order[shared[0] + 1]
            x, y = xy[first].tolist()
            raise NormalizationError(f"cells {ids[first]} and {ids[second]} share the position ({x!r}, {y!r})")
        object.__setattr__(self, "ids", _read_only(ids.astype(np.int64, copy=False)))
        object.__setattr__(self, "xy", _read_only(xy))
        object.__setattr__(self, "loads", _read_only(loads))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        for cell_id, (x, y), slots in zip(self.ids.tolist(), self.xy.tolist(), self.loads):
            yield TrafficProfile(cell_id, (x, y), tuple(slots.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (np.array_equal(self.ids, other.ids) and np.array_equal(self.xy, other.xy)
                and np.array_equal(self.loads, other.loads))


@dataclass(frozen=True)
class SynthParams:
    """Parameters for the synthetic spatially-correlated traffic generator."""

    grid_side: int
    spatial_correlation_length: float = 3 * DEFAULT_CELL_SIZE_M
    noise_std: float = 0.2
    seed: int = 0
    temporal_profile: tuple[float, ...] | None = None
    cell_size_m: float = DEFAULT_CELL_SIZE_M

    def __post_init__(self):
        if self.grid_side < 2:
            raise ValueError("grid_side must be >= 2")
        if not (math.isfinite(self.cell_size_m) and self.cell_size_m > 0):
            raise ValueError("cell_size_m must be finite and > 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        sigma, widest = self.spatial_correlation_length / self.cell_size_m, _MAX_SMOOTHING_SIDES * self.grid_side
        if not 0 < sigma <= widest:     # wider smooths the wrapped grid flat; far wider fails in scipy
            raise ValueError(f"spatial_correlation_length / cell_size_m must be in (0, {widest}] "
                             f"(at most {_MAX_SMOOTHING_SIDES} grid sides), got {sigma!r}")
        if self.temporal_profile is None:
            object.__setattr__(self, "temporal_profile", default_diurnal_profile())
        if len(self.temporal_profile) != SLOTS_PER_DAY:
            raise ValueError("temporal_profile needs 144 entries")


def default_diurnal_profile() -> tuple[float, ...]:
    """A smooth day curve: quiet at night, peaking in the evening."""
    t = np.arange(SLOTS_PER_DAY) / SLOTS_PER_DAY
    base = 0.45 - 0.35 * np.cos(2.0 * math.pi * (t - 0.33))
    return tuple(float(v) for v in np.clip(base, 0.05, 0.95))


def parse_cdr_line(line: str, line_number: int = 0) -> tuple[int, int, float]:
    """Parse one tab-separated CDR line into (square_id, interval_ms, activity).

    The activity is the unweighted sum of the five activity columns, taken
    left to right from 0.0 over the fields present; absent or empty ones
    count 0. The country code is checked and dropped.
    """
    fields = line.rstrip("\n").split("\t")
    if not 3 <= len(fields) <= 3 + len(_ACTIVITY_FIELDS):
        raise CdrParseError(f"expected 3..8 fields, got {len(fields)}", line_number)
    try:
        square_id = int(fields[0])
        interval = int(fields[1])
        int(fields[2])
    except ValueError as exc:
        raise CdrParseError(str(exc), line_number) from None
    if not 1 <= square_id <= MILAN_GRID_CELLS:
        raise CdrParseError(f"square_id {square_id} outside [1, {MILAN_GRID_CELLS}]", line_number)
    if interval % SLOT_MS != 0:
        raise CdrParseError(f"interval {interval} not a 10-minute boundary", line_number)
    activity = 0.0
    for name, raw in zip(_ACTIVITY_FIELDS, fields[3:]):
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise CdrParseError(f"bad {name} value {raw!r}", line_number) from None
            if not math.isfinite(value):
                raise CdrParseError(f"non-finite {name} value {raw!r}", line_number)
            if value < 0:
                raise CdrParseError(f"negative {name} value {raw!r}", line_number)
            activity += value
    return square_id, interval, activity


def grid_centroids(square_ids, grid_side: int, cell_size_m: float = DEFAULT_CELL_SIZE_M) -> np.ndarray:
    """Row-major square grid, one (x, y) row per id: id 1 is the (0, 0) corner cell."""
    if cell_size_m <= 0:
        raise ValueError("cell_size_m must be > 0")
    ids = np.asarray(square_ids)
    outside = (ids < 1) | (ids > grid_side * grid_side)
    if outside.any():
        raise ValueError(f"square_id {ids[outside][0]} outside [1, {grid_side * grid_side}]")
    row, col = np.divmod(ids - 1, grid_side)
    return np.column_stack([(col + 0.5) * cell_size_m, (row + 0.5) * cell_size_m])


def synth_traffic(params: SynthParams) -> Corpus:
    """Generate spatially-correlated synthetic profiles on a square grid.

    Each cell's series is the shared diurnal profile plus a persistent
    Gaussian-smoothed per-cell offset (busy and quiet neighborhoods) and a
    smaller per-slot smoothed noise field, so nearby cells move together
    while distant cells are nearly independent. Deterministic for a fixed
    seed. A corpus without any positive load raises `NormalizationError`.
    """
    # imported here: SciPy more than doubles the import time of every other command
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(params.seed)
    side = params.grid_side
    profile = np.asarray(params.temporal_profile)
    loads = np.tile(profile, (side * side, 1))
    if params.noise_std > 0:
        sigma = params.spatial_correlation_length / params.cell_size_m

        def smooth_field():
            field = gaussian_filter(rng.normal(size=(side, side)), sigma=sigma, mode="wrap")
            std = field.std()
            return field / std if std > 0 else field

        # 3:1 split between the static neighborhood offset and slot-level jitter
        static = _STATIC_NOISE_SHARE * params.noise_std * smooth_field().ravel()
        slot_std = (1.0 - _STATIC_NOISE_SHARE) * params.noise_std
        for t in range(SLOTS_PER_DAY):
            loads[:, t] += static + slot_std * smooth_field().ravel()
        np.clip(loads, 0.0, 1.0, out=loads)
    if loads.max() <= 0.0:
        raise NormalizationError("all-zero corpus: the temporal profile and noise give no positive load")
    ids = np.arange(1, side * side + 1, dtype=np.int64)
    return Corpus(ids, grid_centroids(ids, side, params.cell_size_m), loads)


def ingest_dataset(
    dataset_dir,
    grid_side: int,
    cell_size_m: float = DEFAULT_CELL_SIZE_M,
    day_count: int | None = None,
) -> Corpus:
    """Parse every CDR file under a directory into normalized profiles.

    Each `.txt`, `.tsv` or gzip-compressed `.gz` file is read in name order.
    Activity is summed over country codes and days into (square, slot of
    day) totals: a file's lines in line order into the file's shard, and the
    shards in file order into the corpus totals. The totals are divided by
    the day count, then by their peak, and every square with at least one
    line gets a profile. With day_count=None the number of days is inferred
    from the distinct calendar days present in the data.

    A directory that cannot be listed or holds no CDR file raises
    NormalizationError; a file that cannot be read or decompressed, or a bad
    line, raises CdrParseError naming the file. A byte that is not UTF-8
    fails its field's parse, so it is reported with its line number.
    """
    if grid_side < 1:
        raise NormalizationError(f"grid side must be >= 1, got {grid_side}")
    if not (math.isfinite(cell_size_m) and cell_size_m > 0):
        raise NormalizationError(f"cell size must be finite and > 0, got {cell_size_m}")
    if day_count is not None and day_count < 1:
        raise NormalizationError(f"day count must be >= 1, got {day_count}")
    try:
        paths = sorted(p for p in Path(dataset_dir).iterdir() if p.suffix in {".txt", ".tsv", ".gz"})
    except OSError as exc:
        raise NormalizationError(f"cannot read CDR directory {dataset_dir}: {exc.strerror}") from None
    if not paths:
        raise NormalizationError(f"no CDR files found under {dataset_dir}")
    # flat (square - 1) * 144 + slot keys, grown in whole squares to the largest key seen
    totals, seen = np.zeros(0), np.zeros(0, dtype=bool)
    days: set[int] = set()
    for path in paths:
        # 16 bytes a line, where lists of Python numbers take about 70
        keys, activities = array.array("q"), array.array("d")
        opener = gzip.open if path.suffix == ".gz" else open
        try:
            with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
                for number, line in enumerate(fh, start=1):
                    if line.strip():
                        square, interval, activity = parse_cdr_line(line, number)
                        day, ms = divmod(interval, DAY_MS)
                        days.add(day)
                        keys.append((square - 1) * SLOTS_PER_DAY + ms // SLOT_MS)
                        activities.append(activity)
        except CdrParseError as exc:
            exc.args = (f"{exc} in {path}",)
            raise
        except (OSError, EOFError, zlib.error) as exc:
            raise CdrParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
        keys = np.asarray(keys)
        # bincount adds each key's values in line order, starting from 0.0; the
        # keys past the shard's end would add 0.0, which changes no total
        shard = np.bincount(keys, weights=np.asarray(activities))
        if shard.size > totals.size:
            squares = -(-shard.size // SLOTS_PER_DAY)
            totals = np.pad(totals, (0, squares * SLOTS_PER_DAY - totals.size))
            seen = np.pad(seen, (0, squares - seen.size))
        totals[:shard.size] += shard
        seen[keys // SLOTS_PER_DAY] = True
    ids = np.flatnonzero(seen) + 1
    if not len(ids):
        raise NormalizationError("empty profile corpus")
    raw = totals.reshape(-1, SLOTS_PER_DAY)[seen]
    raw /= day_count or len(days)
    peak = raw.max()
    if peak <= 0.0:
        raise NormalizationError("all-zero corpus: nothing to normalize")
    if ids[-1] > grid_side * grid_side:
        raise NormalizationError(f"square_id {ids[-1]} outside a {grid_side} x {grid_side} grid")
    raw /= peak
    return Corpus(ids, grid_centroids(ids, grid_side, cell_size_m), raw)


def check_cache_dir(path) -> None:
    """SimulationError unless a file can be made beside the cache; the cache is left alone."""
    try:
        with tempfile.TemporaryFile(dir=Path(path).parent):
            pass
    except OSError as exc:
        raise SimulationError(f"cannot write profile cache {path}: {exc.strerror}") from None


def save_profile_cache(corpus: Corpus, path) -> None:
    """Write a corpus as a CSV cache: cell_id, x_m, y_m, s000..s143. A file
    that cannot be written raises SimulationError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(CACHE_HEADER) + "\n")
            for cell_id, (x, y), slots in zip(corpus.ids.tolist(), corpus.xy.tolist(), corpus.loads):
                fh.write(f"{cell_id},{x!r},{y!r},{','.join(map(repr, slots.tolist()))}\n")
    except OSError as exc:
        raise SimulationError(f"cannot write profile cache {path}: {exc.strerror}") from None


# The sidecar `<cache>.npz` holds the parsed arrays and, as its uncompressed
# member `csv`, a copy of the CSV bytes they were parsed from. A load compares
# the CSV with that copy in chunks of `_CHUNK` bytes, which two threads take
# from one shared iterator of chunk offsets.
_CHUNK = 1 << 18
_COPY = "csv"


class _TeeReader(io.RawIOBase):
    """A binary file that writes every byte read through it to `copy` as well,
    until a write fails; `copy` is then None and the reads go on."""

    def __init__(self, raw, copy):
        self.raw, self.copy = raw, copy

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(buffer)
        if self.copy is not None:
            try:
                self.copy.write(memoryview(buffer)[:count])
            except OSError:
                self.copy = None
        return count


def _same_bytes(csv: int, copy: int, start: int, size: int, chunks) -> bool:
    """Whether the chunks of the `size`-byte file `csv` at the offsets `chunks` hands out equal
    those of the file `copy` from `start` on. Reads by offset, so threads can share the files
    and the iterator; the first chunk that differs takes every chunk left."""
    ours, theirs = bytearray(min(_CHUNK, size)), bytearray(min(_CHUNK, size))
    for at in chunks:
        del ours[size - at:], theirs[size - at:]     # only the last chunk is short
        # bytearrays compare with memcmp, memoryviews byte by byte
        if os.preadv(csv, [ours], at) != len(ours) or os.preadv(copy, [theirs], start + at) != len(theirs) \
                or ours != theirs:
            collections.deque(chunks, maxlen=0)
            return False
    return True


def _member_start(fd: int, member: zipfile.ZipInfo) -> int:
    """Where the bytes of a sidecar member start; ValueError unless it is stored uncompressed."""
    # the 30-byte local header: signature, 22 bytes of fields, then the name and extra lengths
    header = os.pread(fd, 30, member.header_offset)
    if member.compress_type != zipfile.ZIP_STORED or member.file_size != member.compress_size \
            or len(header) < 30 or header[:4] != b"PK\x03\x04":
        raise ValueError(f"sidecar member {member.filename} is not stored")
    name, extra = struct.unpack("<26xHH", header)
    return member.header_offset + 30 + name + extra


def _read_npy(sidecar, member: zipfile.ZipInfo) -> np.ndarray:
    """The array of a stored `.npy` member of the open sidecar, read into an array of its own.
    KeyError for a `.npy` version other than 1.0 and 2.0; ValueError unless the header fits the
    member's size and names C order and no object dtype, checked before the allocation, and the CRC holds."""
    start = _member_start(sidecar.fileno(), member)
    sidecar.seek(start)
    read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}[np.lib.format.read_magic(sidecar)]
    shape, fortran, dtype = read_header(sidecar)
    header = sidecar.tell() - start
    if fortran or dtype.hasobject or header + dtype.itemsize * math.prod(shape) != member.file_size:
        raise ValueError(f"sidecar member {member.filename} does not hold its header's array")
    array = np.empty(shape, dtype)
    if sidecar.readinto(array) != array.nbytes \
            or zlib.crc32(array, zlib.crc32(os.pread(sidecar.fileno(), header, start))) != member.CRC:
        raise ValueError(f"sidecar member {member.filename} fails its CRC")
    return array


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _parse_profile_cache(path, copy=None) -> tuple[Corpus, bool]:
    """Parse a cache CSV, writing every byte read to `copy`, a binary file, if
    given; returns the corpus and whether every write to `copy` succeeded."""
    try:
        with open(path, "rb") as raw:
            tee = _TeeReader(raw, copy)
            with io.TextIOWrapper(io.BufferedReader(tee), encoding="utf-8") as fh:
                if fh.readline().rstrip("\n").split(",") != CACHE_HEADER:
                    raise NormalizationError(f"not a profile cache: {path}: the header must be "
                                             f"cell_id,x_m,y_m,s000..s{SLOTS_PER_DAY - 1:03d}")
                with warnings.catch_warnings():
                    # a header without rows is reported below, not as a warning
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except OSError as exc:
        raise NormalizationError(f"cannot read profile cache {path}: {exc.strerror}") from None
    except ValueError as exc:
        # numpy's advice after the semicolon (`usecols`) does not apply to a cache
        raise NormalizationError(f"{path}: {str(exc).split(';')[0]}") from None
    if table.size == 0:
        raise NormalizationError(f"{path}: no cell profiles")
    ids = table[:, 0]
    if not (np.isfinite(ids) & (ids == np.rint(ids))).all():
        raise NormalizationError(f"{path}: cell ids must be integers")
    ids, xy, loads = ids.astype(np.int64), table[:, 1:3].copy(), table[:, 3:]
    if table.shape[1] == 3 + SLOTS_PER_DAY:
        # each row's loads move to the front of the table's own buffer, 128 rows
        # at a time: a block's target ends before the next block's source
        # starts, and numpy buffers the overlap inside a block
        loads = table.reshape(-1)[:table.shape[0] * SLOTS_PER_DAY].reshape(-1, SLOTS_PER_DAY)
        for start in range(0, len(loads), 128):
            loads[start:start + 128] = table[start:start + 128, 3:]
    try:
        return Corpus(ids, xy, loads), tee.copy is not None
    except NormalizationError as exc:
        raise NormalizationError(f"{path}: {exc}") from None


def _read_sidecar(path) -> Corpus | None:
    """The corpus stored beside the cache, or None when the sidecar is missing,
    unreadable or damaged, fails the corpus checks, or holds a copy that is not
    byte for byte the CSV's current content. The arrays and the copy come from
    one open sidecar. A helper thread starts to compare the CSV with the copy
    while this thread reads the arrays, which the zip CRCs check, and checks
    the corpus; then this thread joins the compare."""
    try:
        with contextlib.ExitStack() as stack:
            sidecar = stack.enter_context(open(_sidecar_path(path), "rb"))
            archive = zipfile.ZipFile(sidecar)
            copy = archive.getinfo(_COPY)     # a KeyError for an older sidecar: stale
            csv = stack.enter_context(open(path, "rb"))
            size = os.fstat(csv.fileno()).st_size
            if copy.file_size != size:
                return None
            start = _member_start(sidecar.fileno(), copy)
            compare = (csv.fileno(), sidecar.fileno(), start, size, iter(range(0, size, _CHUNK)))
            # the helper is joined before the files close, and on every way out
            # the chunks left are taken first, which ends its share
            helper = stack.enter_context(ThreadPoolExecutor(1)).submit(_same_bytes, *compare)
            stack.callback(collections.deque, compare[-1], 0)
            corpus = Corpus(*(_read_npy(sidecar, archive.getinfo(f"{name}.npy")) for name in ("ids", "xy", "loads")))
            equal = _same_bytes(*compare)
            return corpus if helper.result() and equal else None
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, NormalizationError):
        return None


def _close_quietly(file) -> None:
    with contextlib.suppress(OSError):
        file.close()


def _remove_quietly(path) -> None:
    with contextlib.suppress(OSError):
        os.remove(path)


def _parse_and_store(path) -> Corpus:
    """Parse the cache CSV and store the corpus in a new sidecar. The parse
    streams the bytes it reads into the sidecar's copy, the arrays follow once
    it succeeds, and a rename puts the sidecar in place. A bad CSV raises; a
    sidecar that cannot be written is skipped. Neither leaves a file behind."""
    sidecar = _sidecar_path(path)
    partial = f"{sidecar}.{os.getpid()}.tmp"
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(_remove_quietly, partial)      # nothing left to remove once renamed
        try:
            archive = zipfile.ZipFile(partial, "w")
            cleanup.callback(_close_quietly, archive)
            copy = archive.open(_COPY, "w", force_zip64=True)
            cleanup.callback(_close_quietly, copy)
        except OSError:
            copy = None
        corpus, copied = _parse_profile_cache(path, copy)
        if copied:
            with contextlib.suppress(OSError):
                copy.close()
                for name in ("ids", "xy", "loads"):
                    array = getattr(corpus, name)
                    # np.save's bytes, written from the array's own buffer, not a copy
                    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                        member.write(memoryview(array))
                archive.close()
                os.replace(partial, sidecar)
    return corpus


def load_profile_cache(path) -> Corpus:
    """Read a profile cache written by save_profile_cache.

    An unreadable file, a wrong header, a ragged or non-numeric row, a
    non-integer or repeated cell id, and a non-finite or out-of-range value
    raise NormalizationError.

    The CSV is parsed once per content: the parse streams the bytes it reads
    into a sidecar, `<path>.npz`, and stores the parsed arrays beside them.
    A later call reads the arrays while two threads compare the CSV with that
    copy byte for byte, and returns them only when the two are equal. A
    missing, stale or damaged sidecar only costs a parse, so deleting it is
    always safe; a bad CSV never gets one. A sidecar without the copy, written
    by an older version, is stale: the CSV is parsed once more and the sidecar
    rewritten. The sidecar takes about 1.4 times the CSV's size on disk. Every
    load holds the cells x 144 load matrix once; a hit adds 1 MiB of buffers.
    """
    corpus = _read_sidecar(path)
    return corpus if corpus is not None else _parse_and_store(path)
