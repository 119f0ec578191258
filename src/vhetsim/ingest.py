"""CDR ingestion: parsing, aggregation, normalization and synthetic traffic.

The raw input is the Telecom Italia Milan grid activity dump: tab separated
lines of (square_id, interval_ms, country_code, sms_in, sms_out, call_in,
call_out, internet), one record per line, inactive intervals simply absent.
Everything downstream works on per-cell daily load profiles of 144 ten-minute
slots, normalized to [0, 1] by the corpus-wide maximum, held as one `Corpus`
of arrays.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import math
import os
import threading
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import CdrParseError, NormalizationError

SLOTS_PER_DAY = 144
SLOT_MS = 600_000
DAY_MS = 86_400_000
MILAN_GRID_CELLS = 10_000
DEFAULT_CELL_SIZE_M = 235.0

_ACTIVITY_FIELDS = ("sms_in", "sms_out", "call_in", "call_out", "internet")
_STATIC_NOISE_SHARE = 0.75
CACHE_HEADER = ["cell_id", "x_m", "y_m"] + [f"s{t:03d}" for t in range(SLOTS_PER_DAY)]


@dataclass(frozen=True)
class CdrRecord:
    square_id: int
    time_interval: int
    country_code: int
    sms_in: float = 0.0
    sms_out: float = 0.0
    call_in: float = 0.0
    call_out: float = 0.0
    internet: float = 0.0

    @property
    def activity(self) -> float:
        """Consolidated traffic measure: unweighted sum of the five columns."""
        return self.sms_in + self.sms_out + self.call_in + self.call_out + self.internet

    @property
    def slot_of_day(self) -> int:
        return (self.time_interval % DAY_MS) // SLOT_MS


@dataclass(frozen=True)
class TrafficProfile:
    """One cell's normalized daily load series (144 load factors in [0, 1])."""

    cell_id: int
    position: tuple[float, float]
    slots: tuple[float, ...]

    def __post_init__(self):
        if len(self.slots) != SLOTS_PER_DAY:
            raise ValueError(f"profile needs {SLOTS_PER_DAY} slots, got {len(self.slots)}")
        if any(not (0.0 <= v <= 1.0) for v in self.slots):
            raise ValueError("load factors must lie in [0, 1]")


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
        if self.spatial_correlation_length <= 0:
            raise ValueError("spatial_correlation_length must be > 0")
        if self.temporal_profile is None:
            object.__setattr__(self, "temporal_profile", default_diurnal_profile())
        if len(self.temporal_profile) != SLOTS_PER_DAY:
            raise ValueError("temporal_profile needs 144 entries")


def default_diurnal_profile() -> tuple[float, ...]:
    """A smooth day curve: quiet at night, peaking in the evening."""
    t = np.arange(SLOTS_PER_DAY) / SLOTS_PER_DAY
    base = 0.45 - 0.35 * np.cos(2.0 * math.pi * (t - 0.33))
    return tuple(float(v) for v in np.clip(base, 0.05, 0.95))


def _parse_float(raw: str, name: str, line_number: int) -> float:
    if raw == "":
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        raise CdrParseError(f"bad {name} value {raw!r}", line_number) from None
    if not math.isfinite(value):
        raise CdrParseError(f"non-finite {name} value {raw!r}", line_number)
    if value < 0:
        raise CdrParseError(f"negative {name} value {raw!r}", line_number)
    return value


def parse_cdr_line(line: str, line_number: int = 0) -> CdrRecord:
    """Parse one tab-separated CDR line; absent trailing activities become 0."""
    fields = line.rstrip("\n").split("\t")
    if not 3 <= len(fields) <= 3 + len(_ACTIVITY_FIELDS):
        raise CdrParseError(f"expected 3..8 fields, got {len(fields)}", line_number)
    try:
        square_id = int(fields[0])
        interval = int(fields[1])
        country = int(fields[2])
    except ValueError as exc:
        raise CdrParseError(str(exc), line_number) from None
    if not 1 <= square_id <= MILAN_GRID_CELLS:
        raise CdrParseError(f"square_id {square_id} outside [1, {MILAN_GRID_CELLS}]", line_number)
    if interval % SLOT_MS != 0:
        raise CdrParseError(f"interval {interval} not a 10-minute boundary", line_number)
    activities = {
        name: _parse_float(fields[3 + i] if 3 + i < len(fields) else "", name, line_number)
        for i, name in enumerate(_ACTIVITY_FIELDS)
    }
    return CdrRecord(square_id, interval, country, **activities)


def cdr_line(record: CdrRecord) -> str:
    """Serialize a record back to the tab-separated wire format."""
    return "\t".join(
        [str(record.square_id), str(record.time_interval), str(record.country_code)]
        + [repr(getattr(record, name)) for name in _ACTIVITY_FIELDS]
    )


def build_daily_profile(aggregates: dict[tuple[int, int], float], day_count: int) -> dict[int, np.ndarray]:
    """Average slot totals over the observation days; missing slots are 0.

    Only cells present in the aggregates appear.
    """
    if day_count < 1:
        raise ValueError("day_count must be >= 1")
    profiles: dict[int, np.ndarray] = {}
    for (square, slot), total in aggregates.items():
        vec = profiles.setdefault(square, np.zeros(SLOTS_PER_DAY))
        vec[slot] = total / day_count
    return profiles


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


def normalize_profiles(
    profiles: dict[int, np.ndarray],
    grid_side: int,
    cell_size_m: float = DEFAULT_CELL_SIZE_M,
) -> Corpus:
    """Divide every raw value by the corpus-wide maximum so the peak maps to 1."""
    if not profiles:
        raise NormalizationError("empty profile corpus")
    ids = np.array(sorted(profiles), dtype=np.int64)
    raw = np.array([profiles[square] for square in ids.tolist()], dtype=np.float64)
    peak = float(raw.max())
    if peak <= 0.0:
        raise NormalizationError("all-zero corpus: nothing to normalize")
    if ids[-1] > grid_side * grid_side:
        raise NormalizationError(f"square_id {ids[-1]} outside a {grid_side} x {grid_side} grid")
    return Corpus(ids, grid_centroids(ids, grid_side, cell_size_m), raw / peak)


def synth_traffic(params: SynthParams) -> Corpus:
    """Generate spatially-correlated synthetic profiles on a square grid.

    Each cell's series is the shared diurnal profile plus a persistent
    Gaussian-smoothed per-cell offset (busy and quiet neighborhoods) and a
    smaller per-slot smoothed noise field, so nearby cells move together
    while distant cells are nearly independent. Deterministic for a fixed
    seed. A corpus without any positive load raises `NormalizationError`.
    """
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


def iter_cdr_file(path):
    """Yield records from a plain or gzip-compressed CDR text file."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if line.strip():
                yield parse_cdr_line(line, line_number=i)


def ingest_dataset(
    dataset_dir,
    grid_side: int,
    cell_size_m: float = DEFAULT_CELL_SIZE_M,
    day_count: int | None = None,
) -> Corpus:
    """Parse every CDR file under a directory into normalized profiles.

    With day_count=None the number of days is inferred from the distinct
    calendar days present in the data.
    """
    if grid_side < 1:
        raise NormalizationError(f"grid side must be >= 1, got {grid_side}")
    if not (math.isfinite(cell_size_m) and cell_size_m > 0):
        raise NormalizationError(f"cell size must be finite and > 0, got {cell_size_m}")
    if day_count is not None and day_count < 1:
        raise NormalizationError(f"day count must be >= 1, got {day_count}")
    paths = sorted(
        p for p in Path(dataset_dir).iterdir()
        if p.suffix in {".txt", ".tsv", ".gz"} or p.name.endswith(".txt.gz")
    )
    if not paths:
        raise NormalizationError(f"no CDR files found under {dataset_dir}")
    # activity summed over country codes and days into (square_id, slot_of_day)
    # totals, one file's shard at a time
    totals: dict[tuple[int, int], float] = {}
    days: set[int] = set()
    for path in paths:
        shard = {}
        for rec in iter_cdr_file(path):
            days.add(rec.time_interval // DAY_MS)
            key = (rec.square_id, rec.slot_of_day)
            shard[key] = shard.get(key, 0.0) + rec.activity
        for key, value in shard.items():
            totals[key] = totals.get(key, 0.0) + value
    raw = build_daily_profile(totals, day_count if day_count is not None else max(len(days), 1))
    return normalize_profiles(raw, grid_side, cell_size_m)


def save_profile_cache(corpus: Corpus, path) -> None:
    """Write a corpus as a CSV cache: cell_id, x_m, y_m, s000..s143."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CACHE_HEADER) + "\n")
        for cell_id, (x, y), slots in zip(corpus.ids.tolist(), corpus.xy.tolist(), corpus.loads):
            fh.write(f"{cell_id},{x!r},{y!r},{','.join(map(repr, slots.tolist()))}\n")


# The sidecar key is a two-level hash tree: the sha256 of the concatenated
# sha256 digests of the CSV's consecutive 1 MiB leaves (the last one shorter).
# The leaf size is fixed, so the key does not depend on how many threads hash.
_LEAF = 1 << 20
_DIGEST_PREFIX = "sha256-tree-1MiB:"
_HASH_WORKERS = 1      # helper threads; the calling thread hashes beside them


def _tree_digest(leaf_digests: bytes) -> str:
    return _DIGEST_PREFIX + hashlib.sha256(leaf_digests).hexdigest()


class _HashingReader(io.RawIOBase):
    """A binary file that hashes every byte read through it as the leaves of the sidecar key."""

    def __init__(self, raw):
        self.raw = raw
        self.leaves: list[bytes] = []
        self._leaf, self._filled = hashlib.sha256(), 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(buffer)
        view = memoryview(buffer)[:count]
        while view:
            take = min(len(view), _LEAF - self._filled)
            self._leaf.update(view[:take])
            self._filled += take
            view = view[take:]
            if self._filled == _LEAF:
                self.leaves.append(self._leaf.digest())
                self._leaf, self._filled = hashlib.sha256(), 0
        return count

    def digest(self) -> str:
        """The key of the bytes read so far."""
        leaves = self.leaves + [self._leaf.digest()] if self._filled else self.leaves
        return _tree_digest(b"".join(leaves))


def _leaf_counter(leaves: int):
    """A thread-safe callable that gives each leaf index 0..leaves-1 once, then None."""
    order, lock = iter(range(leaves)), threading.Lock()

    def take() -> int | None:
        with lock:
            return next(order, None)

    return take


def _hash_leaves(fd: int, size: int, take, digests: list[bytes]) -> None:
    """Hash the leaves that `take` gives of the open file of `size` bytes, until it
    gives None, writing each leaf's sha256 digest into `digests` at its index."""
    buffer = memoryview(bytearray(min(_LEAF, size)))
    while (leaf := take()) is not None:
        filled = 0
        while filled < len(buffer):
            count = os.preadv(fd, [buffer[filled:]], leaf * _LEAF + filled)
            if count == 0:
                break
            filled += count
        digests[leaf] = hashlib.sha256(buffer[:filled]).digest()


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _parse_profile_cache(path) -> tuple[Corpus, str]:
    """Parse a cache CSV; returns the corpus and the sidecar key of the bytes parsed."""
    try:
        with open(path, "rb") as raw:
            hashed = _HashingReader(raw)
            with io.TextIOWrapper(io.BufferedReader(hashed), encoding="utf-8") as fh:
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
    try:
        return Corpus(ids.astype(np.int64), table[:, 1:3], table[:, 3:]), hashed.digest()
    except NormalizationError as exc:
        raise NormalizationError(f"{path}: {exc}") from None


def _read_sidecar(path) -> Corpus | None:
    """The corpus stored beside the cache under the cache's current key, or
    None when the sidecar is missing, stale or unreadable, or fails the
    corpus checks. A helper thread hashes the CSV's leaves while this thread
    reads the arrays and checks the corpus; then this thread takes leaves
    from the same counter until none is left."""
    try:
        with contextlib.ExitStack() as stack:
            # opened here, not by np.load, which leaves a file it fails to read open
            data = np.load(stack.enter_context(open(_sidecar_path(path), "rb")), allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                return None
            stack.enter_context(data)
            digest = str(data["digest"])
            if not digest.startswith(_DIGEST_PREFIX):
                return None                     # an older version's key: stale
            fd = os.open(path, os.O_RDONLY)
            stack.callback(os.close, fd)        # after the helpers are joined
            size = os.fstat(fd).st_size
            digests = [b""] * -(-size // _LEAF)
            take = _leaf_counter(len(digests))
            pool = stack.enter_context(ThreadPoolExecutor(_HASH_WORKERS))
            helpers = [pool.submit(_hash_leaves, fd, size, take, digests) for _ in range(_HASH_WORKERS)]
            corpus = Corpus(data["ids"], data["xy"], data["loads"])
            _hash_leaves(fd, size, take, digests)
            for helper in helpers:
                helper.result()
            return corpus if _tree_digest(b"".join(digests)) == digest else None
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, NormalizationError):
        return None


def _write_sidecar(path, corpus: Corpus, digest: str) -> None:
    """Store the corpus beside the cache; a failed write leaves no sidecar."""
    sidecar = _sidecar_path(path)
    partial = f"{sidecar}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh:
            np.savez(fh, digest=np.array(digest), ids=corpus.ids, xy=corpus.xy, loads=corpus.loads)
        os.replace(partial, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(partial)


def load_profile_cache(path) -> Corpus:
    """Read a profile cache written by save_profile_cache.

    An unreadable file, a wrong header, a ragged or non-numeric row, a
    non-integer or repeated cell id, and a non-finite or out-of-range value
    raise NormalizationError.

    The CSV is parsed once per content: the parsed arrays are stored beside
    it in `<path>.npz`, keyed by a hash tree of the CSV bytes the parse read
    (`sha256-tree-1MiB:` and the sha256 of the concatenated sha256 digests
    of its 1 MiB leaves), and a later call whose CSV has that key reads the
    arrays instead. A missing, stale or damaged sidecar only costs a parse,
    so deleting it is always safe; a bad CSV never gets one. A sidecar
    written by an older version, keyed by the plain sha256 of the CSV, is
    stale: the CSV is parsed once more and the sidecar rewritten.
    """
    corpus = _read_sidecar(path)
    if corpus is None:
        corpus, digest = _parse_profile_cache(path)
        _write_sidecar(path, corpus, digest)
    return corpus
