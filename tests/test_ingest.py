import csv
import errno
import gzip
import hashlib
import os
import re
import shutil
import subprocess
import sys
import threading
import zipfile

import numpy as np
import pytest

import vhetsim.ingest
from vhetsim.errors import CdrParseError, NormalizationError
from vhetsim.ingest import (
    _parse_profile_cache,
    _read_sidecar,
    Corpus,
    SynthParams,
    TrafficProfile,
    grid_centroids,
    ingest_dataset,
    load_profile_cache,
    parse_cdr_line,
    save_profile_cache,
    synth_traffic,
)


class TestParseCdrLine:
    def test_full_line(self):
        assert parse_cdr_line("42\t1383260400000\t39\t0.1\t0.2\t\t0.3\t1.5") == (
            42, 1383260400000, 0.1 + 0.2 + 0.0 + 0.3 + 1.5)

    def test_absent_activities_are_zero(self):
        assert parse_cdr_line("1\t1383260400000\t39") == (1, 1383260400000, 0.0)

    def test_bad_square_id(self):
        with pytest.raises(CdrParseError):
            parse_cdr_line("x\t1383260400000\t39\t1")

    def test_line_number_in_error(self):
        with pytest.raises(CdrParseError) as err:
            parse_cdr_line("1\tnope\t39", line_number=17)
        assert err.value.line_number == 17

    def test_too_few_fields(self):
        with pytest.raises(CdrParseError):
            parse_cdr_line("1\t1383260400000")

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_activity_rejected(self, raw):
        with pytest.raises(CdrParseError, match="non-finite") as err:
            parse_cdr_line(f"1\t1383260400000\t39\t0.5\t{raw}", line_number=9)
        assert err.value.line_number == 9

    def test_roundtrip_preserves_activity_mass(self):
        square, interval, activity = parse_cdr_line("42\t1383260400000\t39\t0.1\t0.2\t\t0.3\t1.5")
        assert parse_cdr_line(cdr_line((square, interval, 39, activity))) == (square, interval, activity)


def cdr_line(record) -> str:
    """A (square_id, interval_ms, country_code, *activities) record as a tab-separated CDR line."""
    return "\t".join(map(repr, record))


def write_cdr_dir(path, *files):
    """A CDR directory with one file per list of records, named in read order."""
    path.mkdir()
    for i, records in enumerate(files):
        (path / f"part{i}.txt").write_text("".join(cdr_line(r) + "\n" for r in records),
                                           encoding="utf-8")
    return path


def write_raw_profiles(path, profiles):
    """A one-day CDR directory whose (square, slot) totals are `profiles`, a
    square -> 144 values dict."""
    return write_cdr_dir(path, [(square, slot * 600_000, 39, float(value))
                                for square, values in profiles.items()
                                for slot, value in enumerate(values) if value])


class TestAggregate:
    """ingest_dataset sums activity into (square, slot of day) totals."""

    def test_same_key_sums(self, tmp_path):
        # square 6 holds the peak: square 5's two country codes sum to half of it
        recs = [(5, 0, 39, 1.0), (5, 0, 40, 2.0), (6, 0, 39, 0.0, 0.0, 0.0, 0.0, 6.0)]
        corpus = ingest_dataset(write_cdr_dir(tmp_path / "cdr", recs), grid_side=3)
        assert corpus.ids.tolist() == [5, 6]
        assert corpus.loads[0, 0] == 0.5 and not corpus.loads[0, 1:].any()

    def test_zero_activity_entry(self, tmp_path):
        recs = [(5, 0, 39), (6, 0, 39, 0.0, 0.0, 1.0)]
        corpus = ingest_dataset(write_cdr_dir(tmp_path / "cdr", recs), grid_side=3)
        assert corpus.ids.tolist() == [5, 6]
        assert not corpus.loads[0].any()

    def test_two_days_same_clock_slot(self, tmp_path):
        # same slot of day, one day apart: 6.0 over two days against a peak of 12.0 / 2
        recs = [(5, 0, 39, 2.0), (5, 86_400_000, 39, 4.0), (6, 600_000, 39, 12.0)]
        corpus = ingest_dataset(write_cdr_dir(tmp_path / "cdr", recs), grid_side=3)
        assert corpus.loads[0, 0] == 0.5 and not corpus.loads[0, 1:].any()
        assert corpus.loads[1, 1] == 1.0

    def test_empty_stream(self, tmp_path):
        with pytest.raises(NormalizationError, match="empty"):
            ingest_dataset(write_cdr_dir(tmp_path / "cdr", []), grid_side=3)

    def test_merge_matches_single_pass(self, tmp_path):
        recs = [(sq, slot * 600000, 39, 0.1 * (sq + slot) + 1.5)
                for sq in (1, 2) for slot in (0, 1, 2) for _ in range(3)]
        whole = ingest_dataset(write_cdr_dir(tmp_path / "one", recs), grid_side=3)
        shards = ingest_dataset(write_cdr_dir(tmp_path / "two", recs[:7], recs[7:]), grid_side=3)
        assert shards == whole


class TestDailyProfile:
    """ingest_dataset divides the (square, slot) totals by the day count before the peak."""

    def test_division(self, tmp_path):
        # 6.0 and 9.0 over 60 days: the daily means are rounded before the peak
        # divides them, and 0.1 / 0.15 is one ulp off 6.0 / 9.0
        recs = [(5, 0, 39, 6.0), (6, 0, 39, 9.0)]
        corpus = ingest_dataset(write_cdr_dir(tmp_path / "cdr", recs), grid_side=3, day_count=60)
        assert corpus.loads[0, 0] == (6.0 / 60) / (9.0 / 60) != 6.0 / 9.0

    def test_hand_division(self, tmp_path):
        # 3.0 and 6.0 over the 3 days the data covers are daily means of 1.0 and 2.0
        recs = [(5, 0, 39, 3.0), (5, 86_400_000, 39, 0.0), (5, 2 * 86_400_000 + 600_000, 39, 6.0)]
        corpus = ingest_dataset(write_cdr_dir(tmp_path / "cdr", recs), grid_side=3)
        assert corpus.loads[0, :2].tolist() == [0.5, 1.0]
        assert not corpus.loads[0, 2:].any()

    def test_zero_days_rejected(self, tmp_path):
        with pytest.raises(NormalizationError, match="day count must be >= 1, got 0"):
            ingest_dataset(write_cdr_dir(tmp_path / "cdr", [(5, 0, 39, 1.0)]), grid_side=3, day_count=0)

    def test_linear_in_activity(self, tmp_path):
        agg = {(1, 0): 2.0, (1, 5): 7.0, (2, 3): 1.0}

        def ingest(name, scale):
            recs = [(sq, slot * 600_000, 39, scale * v) for (sq, slot), v in agg.items()]
            return ingest_dataset(write_cdr_dir(tmp_path / name, recs), grid_side=3, day_count=4)

        assert np.allclose(ingest("a", 1.0).loads, ingest("b", 2.0).loads)


class TestNormalize:
    """ingest_dataset divides every daily mean by the corpus-wide maximum so the peak maps to 1."""

    def test_ratio(self, tmp_path):
        raw = {1: np.full(144, 25.0), 2: np.full(144, 50.0)}
        profiles = ingest_dataset(write_raw_profiles(tmp_path / "cdr", raw), grid_side=2)
        assert profiles.loads[0, 0] == pytest.approx(0.5)

    def test_peak_is_one(self, tmp_path):
        raw = {1: np.zeros(144)}
        raw[1][7] = 50.0
        profiles = ingest_dataset(write_raw_profiles(tmp_path / "cdr", raw), grid_side=2)
        assert profiles.loads[0, 7] == 1.0

    def test_hand_normalization(self, tmp_path):
        raw = {1: np.zeros(144), 2: np.zeros(144)}
        raw[1][:2] = [2, 4]
        raw[2][:2] = [8, 0]
        profiles = {p.cell_id: p for p in ingest_dataset(write_raw_profiles(tmp_path / "cdr", raw), grid_side=2)}
        assert profiles[1].slots[:2] == (0.25, 0.5)
        assert profiles[2].slots[:2] == (1.0, 0.0)

    def test_all_zero_rejected(self, tmp_path):
        with pytest.raises(NormalizationError, match="^all-zero corpus: nothing to normalize$"):
            ingest_dataset(write_cdr_dir(tmp_path / "cdr", [(1, 0, 39, 0.0)]), grid_side=2)

    def test_outside_grid_rejected(self, tmp_path):
        with pytest.raises(NormalizationError, match="^square_id 5 outside a 2 x 2 grid$"):
            ingest_dataset(write_cdr_dir(tmp_path / "cdr", [(1, 0, 39, 1.0), (5, 0, 39, 1.0)]), grid_side=2)

    def test_argmax_scale_invariant(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = {sq: rng.random(144) for sq in range(1, 5)}
        scaled = {sq: 7.3 * v for sq, v in raw.items()}
        a = ingest_dataset(write_raw_profiles(tmp_path / "a", raw), grid_side=2)
        b = ingest_dataset(write_raw_profiles(tmp_path / "b", scaled), grid_side=2)
        assert a.loads.argmax() == b.loads.argmax()


class TestCompressedInput:
    """A gzip-compressed `.txt.gz` or a `.tsv` copy of a CDR file ingests as the plain file does."""

    @staticmethod
    def plain_dir(tmp_path):
        rng = np.random.default_rng(3)
        return write_cdr_dir(tmp_path / "plain", *[
            [(int(rng.integers(1, 10)), int(rng.integers(0, 400)) * 600_000, 39, float(rng.random()))
             for _ in range(300)] for _ in range(2)])

    @pytest.mark.parametrize("suffix", [".txt.gz", ".tsv"])
    def test_copy_equals_plain(self, tmp_path, suffix):
        plain = self.plain_dir(tmp_path)
        copy = tmp_path / "copy"
        copy.mkdir()
        for path in plain.iterdir():
            target = copy / (path.name.removesuffix(".txt") + suffix)
            if suffix == ".txt.gz":
                with gzip.open(target, "wb") as fh:
                    fh.write(path.read_bytes())
            else:
                target.write_bytes(path.read_bytes())
        assert ingest_dataset(copy, grid_side=3) == ingest_dataset(plain, grid_side=3)


class TestBadCdrDirectory:
    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        data = write_cdr_dir(tmp_path / "cdr", [(1, 0, 39, 1.0), (2, 0, 39, 2.0)])
        (data / "part0.txt").write_bytes(b"1\t0\t39\t1.0\n2\t0\t39\t2.\xff\n")
        with pytest.raises(CdrParseError, match=r"^line 2: bad sms_in value '2\.\\udcff' in .*part0\.txt$") as err:
            ingest_dataset(data, grid_side=2)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("damage, message", [
        (lambda data: b"not gzip at all", "Not a gzipped file"),
        (lambda data: data[:len(data) // 2], "Compressed file ended"),
        (lambda data: data[:15] + bytes([data[15] ^ 0xff]) + data[16:], "Error -3 while decompressing"),
        (lambda data: data[:-8] + bytes(4) + data[-4:], "CRC check failed"),
    ])
    def test_corrupt_gzip(self, tmp_path, damage, message):
        data = tmp_path / "cdr"
        data.mkdir()
        lines = "".join(f"{sq}\t0\t39\t{sq}.5\n" for sq in range(1, 5)) * 50
        (data / "day.txt.gz").write_bytes(damage(gzip.compress(lines.encode())))
        with pytest.raises(CdrParseError, match=f"^cannot read {re.escape(str(data / 'day.txt.gz'))}: {message}"):
            ingest_dataset(data, grid_side=2)


class TestGridCentroid:
    def test_corner_cell(self):
        assert grid_centroids([1], 100, 235).tolist() == [[117.5, 117.5]]

    def test_second_row(self):
        assert grid_centroids([101], 100, 235).tolist() == [[117.5, 352.5]]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            grid_centroids([0], 100)
        with pytest.raises(ValueError):
            grid_centroids([5, 10001], 100)


class TestSynthTraffic:
    def test_zero_noise_equals_profile(self):
        params = SynthParams(grid_side=4, spatial_correlation_length=235.0,
                             noise_std=0.0, seed=1)
        for profile in synth_traffic(params):
            assert profile.slots == params.temporal_profile

    def test_deterministic(self):
        params = SynthParams(grid_side=5, spatial_correlation_length=470.0,
                             noise_std=0.2, seed=99)
        assert synth_traffic(params) == synth_traffic(params)

    def test_adjacent_more_correlated_than_far(self):
        params = SynthParams(grid_side=20, spatial_correlation_length=2 * 235.0,
                             noise_std=0.25, seed=7)
        profiles = synth_traffic(params)
        series = {p.cell_id: np.array(p.slots) for p in profiles}
        side = params.grid_side

        def corr(a, b):
            return float(np.corrcoef(series[a], series[b])[0, 1])

        rng = np.random.default_rng(0)
        adjacent, far = [], []
        while len(adjacent) < 120:
            cid = int(rng.integers(1, side * side))
            if cid % side != 0:
                adjacent.append(corr(cid, cid + 1))
        while len(far) < 120:
            a = int(rng.integers(1, side * side + 1))
            b = int(rng.integers(1, side * side + 1))
            (ar, ac), (br, bc) = divmod(a - 1, side), divmod(b - 1, side)
            if np.hypot(ar - br, ac - bc) >= 10:  # >= 5 correlation lengths
                far.append(corr(a, b))
        diff = np.mean(adjacent) - np.mean(far)
        stderr = np.sqrt(np.var(adjacent) / len(adjacent) + np.var(far) / len(far))
        # one-sided test at far better than the 0.01 level
        assert diff > 3 * stderr

    def test_defaults_on_the_fields(self):
        params = SynthParams(grid_side=4)
        assert (params.spatial_correlation_length, params.noise_std, params.seed) == (705.0, 0.2, 0)
        assert params.cell_size_m == 235.0 and len(params.temporal_profile) == 144

    @pytest.mark.parametrize("level", [0.0, -1.0])
    def test_all_zero_corpus_refused(self, level):
        params = SynthParams(grid_side=6, noise_std=0.0, temporal_profile=(level,) * 144)
        with pytest.raises(NormalizationError, match="^all-zero corpus: "):
            synth_traffic(params)

    @pytest.mark.parametrize("cell_size_m", [0, -5, 0.0, float("nan"), float("inf")])
    def test_bad_cell_size_refused(self, cell_size_m):
        with pytest.raises(ValueError, match="cell_size_m must be finite and > 0"):
            SynthParams(grid_side=4, cell_size_m=cell_size_m)


def small_corpus():
    return synth_traffic(SynthParams(grid_side=3, spatial_correlation_length=235.0,
                                     noise_std=0.2, seed=5))


def moved(xy, positions):
    """A copy of `xy` with the rows in `positions` moved to the given positions."""
    xy = xy.copy()
    for row, position in positions.items():
        xy[row] = position
    return xy


class TestCorpus:
    def test_items_are_traffic_profiles(self):
        corpus = small_corpus()
        items = list(corpus)
        assert len(corpus) == len(items) == 9
        assert all(isinstance(p, TrafficProfile) for p in items)
        assert items[4] == TrafficProfile(5, tuple(corpus.xy[4].tolist()), tuple(corpus.loads[4].tolist()))
        assert list(items[0].position) == grid_centroids([1], 3)[0].tolist()
        assert isinstance(items[0].position, tuple) and isinstance(items[0].slots, tuple)
        assert items[0].slots == tuple(corpus.loads[0].tolist())
        assert items[-1].cell_id == 9

    def test_arrays_are_read_only(self):
        corpus = small_corpus()
        with pytest.raises(ValueError):
            corpus.loads[0, 0] = 0.5

    def test_equality_compares_values(self):
        assert small_corpus() == small_corpus()
        other = small_corpus().loads.copy()
        other[2, 7] = 0.0 if other[2, 7] else 0.5
        assert Corpus(np.arange(1, 10), small_corpus().xy, other) != small_corpus()

    @pytest.mark.parametrize("change, message", [
        (lambda ids, xy, loads: (ids, xy, loads[:, :143]), "load factors"),
        (lambda ids, xy, loads: (ids.astype(float), xy, loads), "integers"),
        (lambda ids, xy, loads: (ids, xy, np.where(loads == loads[1, 3], np.nan, loads)), "non-finite"),
        (lambda ids, xy, loads: (ids, xy, loads + 1.0), "outside"),
        (lambda ids, xy, loads: (np.r_[ids[:-1], 1], xy, loads), "duplicate cell id 1"),
        (lambda ids, xy, loads: (ids[:0], xy[:0], loads[:0]), "empty"),
        (lambda ids, xy, loads: (ids, moved(xy, {6: xy[2]}), loads),
         r"cells 3 and 7 share the position \(587\.5, 117\.5\)"),
        (lambda ids, xy, loads: (ids, moved(xy, {8: (0.0, 0.0), 0: (-0.0, -0.0)}), loads),
         r"cells 1 and 9 share the position \(-0\.0, -0\.0\)"),
    ])
    def test_bad_values_rejected(self, change, message):
        c = small_corpus()
        with pytest.raises(NormalizationError, match=message):
            Corpus(*change(c.ids, c.xy, c.loads))


def csv_writer_cache(corpus, path):
    """The earlier cache writer, kept as the reference for the file's bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell_id", "x_m", "y_m"] + [f"s{t:03d}" for t in range(144)])
        for p in corpus:
            writer.writerow([p.cell_id, repr(float(p.position[0])), repr(float(p.position[1]))]
                            + [repr(float(v)) for v in p.slots])


def set_field(lines, row, column, value):
    fields = lines[row].split(",")
    fields[column] = value
    return lines[:row] + [",".join(fields)] + lines[row + 1:]


BAD_CACHE_EDITS = [
    (lambda ls: [ls[0].replace("cell_id", "id")] + ls[1:], "not a profile cache"),
    (lambda ls: [ls[0].replace(",s143", "")] + ls[1:], "not a profile cache"),
    (lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]] + ls[3:], "columns"),
    (lambda ls: set_field(ls, 3, 40, "abc"), "abc"),
    (lambda ls: set_field(ls, 3, 40, ""), "convert"),
    (lambda ls: set_field(ls, 2, 5, "nan"), "non-finite"),
    (lambda ls: set_field(ls, 2, 5, "inf"), "non-finite"),
    (lambda ls: set_field(ls, 2, 1, "-inf"), "non-finite"),
    (lambda ls: set_field(ls, 4, 9, "1.5"), "outside"),
    (lambda ls: set_field(ls, 4, 9, "-0.25"), "outside"),
    (lambda ls: set_field(ls, 5, 0, "2"), "duplicate cell id 2"),
    (lambda ls: set_field(ls, 5, 0, "2.5"), "integers"),
    (lambda ls: ls[:1], "no cell profiles"),
]


class TestProfileCache:
    def test_bytes_unchanged(self, tmp_path):
        corpus = small_corpus()
        save_profile_cache(corpus, tmp_path / "new.csv")
        csv_writer_cache(corpus, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def write_edited(self, tmp_path, edit):
        path = tmp_path / "cache.csv"
        save_profile_cache(small_corpus(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("edit, message", BAD_CACHE_EDITS)
    def test_bad_cache_rejected(self, tmp_path, edit, message):
        with pytest.raises(NormalizationError, match=message):
            load_profile_cache(self.write_edited(tmp_path, edit))

    @pytest.mark.parametrize("edit, message", BAD_CACHE_EDITS)
    def test_bad_cache_leaves_no_sidecar(self, tmp_path, edit, message):
        path = self.write_edited(tmp_path, edit)
        with pytest.raises(NormalizationError, match=message):
            load_profile_cache(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.csv"]


def write_sidecar(sidecar, csv=None, **arrays):
    """A sidecar with these arrays and, if given, `csv` as its stored copy of the CSV."""
    with open(sidecar, "wb") as fh:
        np.savez(fh, **arrays)
    if csv is not None:
        with zipfile.ZipFile(sidecar, "a") as archive:
            archive.writestr("csv", csv)


def rewrite_sidecar(sidecar, change):
    # np.load gives the stored copy, which is no .npy member, as bytes
    with np.load(sidecar) as data:
        members = {name: data[name] for name in data.files}
    change(members)
    write_sidecar(sidecar, **members)


def write_npy(sidecar):
    with open(sidecar, "wb") as fh:
        np.save(fh, np.zeros(3))


def flip_copied_byte(sidecar):
    # in place, so the member's zip CRC no longer matches either
    data = bytearray(sidecar.read_bytes())
    data[data.index(sidecar.with_suffix("").read_bytes()) + 1000] ^= 1
    sidecar.write_bytes(data)


def grow_csv(sidecar):
    with open(sidecar.with_suffix(""), "ab") as fh:
        fh.write(b"\n")


SIDECAR_DAMAGE = [
    pytest.param(lambda sidecar: sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2]),
                 id="truncated"),
    pytest.param(lambda sidecar: sidecar.write_bytes(b"\x00 not a sidecar" * 64), id="garbage"),
    pytest.param(lambda sidecar: sidecar.write_bytes(b""), id="empty"),
    pytest.param(write_npy, id="npy"),
    pytest.param(lambda sidecar: rewrite_sidecar(sidecar, lambda members: members.pop("xy")), id="missing-key"),
    pytest.param(lambda sidecar: rewrite_sidecar(sidecar, lambda members: members["loads"].__setitem__((1, 2), 1.5)),
                 id="out-of-range"),
    pytest.param(flip_copied_byte, id="copy-byte-flipped"),
    pytest.param(lambda sidecar: rewrite_sidecar(sidecar, lambda members: members.__setitem__(
        "csv", members["csv"][:-1])), id="copy-one-byte-short"),
    pytest.param(grow_csv, id="csv-one-byte-longer"),
]


def stored_copy(sidecar) -> bytes:
    with zipfile.ZipFile(sidecar) as archive:
        return archive.read("csv")


class TestProfileCacheSidecar:
    """load_profile_cache keeps the parsed arrays in `<cache>.npz`, beside a
    copy of the CSV bytes they were parsed from, and parses the CSV only when
    its current bytes are not that copy byte for byte."""

    @staticmethod
    def write_cache(tmp_path):
        path = tmp_path / "cache.csv"
        save_profile_cache(small_corpus(), path)
        return path

    @staticmethod
    def forbid_parse(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the CSV was parsed")
        monkeypatch.setattr(np, "loadtxt", refuse)

    @staticmethod
    def count_parses(monkeypatch) -> list:
        parses, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parses.append(args) or loadtxt(*args, **kwargs))
        return parses

    def test_hit_equals_miss(self, tmp_path):
        path = self.write_cache(tmp_path)
        miss = load_profile_cache(path)
        assert (tmp_path / "cache.csv.npz").is_file()
        hit = load_profile_cache(path)
        for name in ("ids", "xy", "loads"):
            assert np.array_equal(getattr(hit, name), getattr(miss, name))
            assert getattr(hit, name).dtype == getattr(miss, name).dtype
        assert hit == small_corpus()

    def test_hit_does_not_parse(self, tmp_path, monkeypatch):
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        self.forbid_parse(monkeypatch)
        assert load_profile_cache(path) == small_corpus()

    def test_same_length_edit_is_parsed(self, tmp_path):
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        stat = path.stat()
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        column = next(c for c in range(3, len(fields))
                      if fields[c].startswith("0.") and len(fields[c]) > 4)
        old = fields[column]
        new = old[:2] + str((int(old[2]) + 1) % 10) + old[3:]
        path.write_text("\n".join(set_field(lines, 3, column, new)) + "\n", encoding="utf-8")
        # same size and modification time: only the content tells the edit
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        corpus = load_profile_cache(path)
        assert corpus.loads[2, column - 3] == float(new) != float(old)

    @pytest.mark.parametrize("damage", SIDECAR_DAMAGE)
    def test_bad_sidecar_falls_back_and_is_rewritten(self, tmp_path, monkeypatch, damage):
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        damage(tmp_path / "cache.csv.npz")
        parses = self.count_parses(monkeypatch)
        assert load_profile_cache(path) == small_corpus()
        assert len(parses) == 1
        self.forbid_parse(monkeypatch)
        assert load_profile_cache(path) == small_corpus()

    def test_unwritable_sidecar_path(self, tmp_path):
        path = self.write_cache(tmp_path)
        (tmp_path / "cache.csv.npz").mkdir()
        assert load_profile_cache(path) == small_corpus()
        assert load_profile_cache(path) == small_corpus()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.csv", "cache.csv.npz"]
        assert (tmp_path / "cache.csv.npz").is_dir()

    @pytest.mark.parametrize("fails", ["csv", "loads.npy", "rename"])
    def test_failed_sidecar_write_leaves_no_file(self, tmp_path, monkeypatch, fails):
        # a full disk while the parse streams the copy, while the arrays follow, or at the rename
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        class FullDisk(zipfile.ZipFile):
            def open(self, name, mode="r", **kwargs):
                member = super().open(name, mode, **kwargs)
                if mode == "w" and name == fails:
                    member.write = full
                return member

        path = self.write_cache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(zipfile, "ZipFile", FullDisk)
            if fails == "rename":
                patch.setattr(os, "replace", full)
            assert load_profile_cache(path) == small_corpus()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.csv"]
        load_profile_cache(path)
        assert stored_copy(tmp_path / "cache.csv.npz") == path.read_bytes()

    # the names below are those of the tests of the earlier sha256-tree key; each
    # now checks the byte comparison for what it checked of that key
    CHUNK = 64

    # the CSV is compared in chunks of CHUNK // split bytes: 64, 32 and 21, so each
    # size below falls on, before or after a chunk's end for more than one width
    @pytest.mark.parametrize("split", [1, 2, 3])
    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_tree_digest_matches_serial(self, tmp_path, monkeypatch, size, split):
        chunk = self.CHUNK // split
        monkeypatch.setattr(vhetsim.ingest, "_CHUNK", chunk)
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "cache.csv"
        path.write_bytes(data)
        corpus = small_corpus()

        def stored(copy):
            write_sidecar(tmp_path / "cache.csv.npz", csv=copy, ids=corpus.ids, xy=corpus.xy, loads=corpus.loads)
            return _read_sidecar(path)

        # only the CSV's bytes are compared, so they need not parse
        assert stored(data) == corpus
        assert stored(data + b"\n") is None
        assert stored(b"\n" + data) is None
        if size:
            assert stored(data[:-1]) is None
        # a flipped byte at each end of every chunk
        for at in sorted({0, size - 1} | {end + step for end in range(0, size, chunk) for step in (-1, 0)}):
            if 0 <= at < size:
                flipped = bytearray(data)
                flipped[at] ^= 0x80
                assert stored(bytes(flipped)) is None, at

    def test_sidecar_replaced_during_the_read_is_not_used(self, tmp_path, monkeypatch):
        # the arrays and the compared copy must come from one file, so a sidecar
        # put in place between their two opens is not used, even an identical one
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        sidecar = tmp_path / "cache.csv.npz"
        opened = []

        def replacing_open(file, *args, **kwargs):
            if os.fspath(file) == os.fspath(sidecar) and opened:
                shutil.copy(sidecar, tmp_path / "new.npz")
                os.replace(tmp_path / "new.npz", sidecar)
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(vhetsim.ingest, "open", replacing_open, raising=False)
        assert _read_sidecar(path) is None
        assert len(opened) == 3     # the sidecar, the CSV, the sidecar again
        monkeypatch.undo()
        assert _read_sidecar(path) == small_corpus()

    def test_sidecar_of_the_earlier_tree_key_is_parsed_once_and_rewritten(self, tmp_path, monkeypatch):
        # the sidecar that the sha256-tree key wrote for this CSV of 1 735 785
        # bytes: its key, and no copy of the CSV
        earlier_key = "sha256-tree-1MiB:fa794ddca90da27f85134a4f1e7b5c5429ea573a9fd0a95bbba66e3acc6bf882"
        ids = np.arange(1, 2401)
        corpus = Corpus(ids, grid_centroids(ids, 49), (ids[:, None] * 7 + np.arange(144) * 13) % 101 / 100.0)
        path = tmp_path / "cache.csv"
        save_profile_cache(corpus, path)
        sidecar = tmp_path / "cache.csv.npz"
        write_sidecar(sidecar, digest=np.array(earlier_key), ids=corpus.ids, xy=corpus.xy, loads=corpus.loads)
        parses = self.count_parses(monkeypatch)
        for _ in range(3):
            assert load_profile_cache(path) == corpus
        assert len(parses) == 1
        assert stored_copy(sidecar) == path.read_bytes()
        with np.load(sidecar) as data:
            assert sorted(data.files) == ["csv", "ids", "loads", "xy"]

    @pytest.mark.parametrize("leaf", [64, 1000, 8192, 1 << 20])
    def test_parse_key_is_load_key(self, tmp_path, monkeypatch, leaf):
        # the copy is what the parse read through its 8 KiB buffer, so most
        # chunks of `leaf` bytes that the load compares end inside a read
        monkeypatch.setattr(vhetsim.ingest, "_CHUNK", leaf)
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        assert stored_copy(tmp_path / "cache.csv.npz") == path.read_bytes()
        self.forbid_parse(monkeypatch)
        assert load_profile_cache(path) == small_corpus()

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_same_length_edit_in_each_leaf_is_parsed(self, tmp_path, monkeypatch, where):
        chunk = 1000
        monkeypatch.setattr(vhetsim.ingest, "_CHUNK", chunk)
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        data = bytearray(path.read_bytes())
        chunks = -(-len(data) // chunk)
        first = {"first": 0, "middle": chunks // 2, "last": chunks - 1}[where] * chunk
        # the first decimal digit of a load factor that starts inside the chunk
        at = next(i + 3 for i in range(first, min(first + chunk, len(data)) - 3)
                  if data[i:i + 3] == b",0." and data[i + 3:i + 4].isdigit())
        data[at] = ord(str((int(chr(data[at])) + 1) % 10))
        stat = path.stat()
        path.write_bytes(data)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        corpus = load_profile_cache(path)
        assert corpus != small_corpus()
        assert corpus == _parse_profile_cache(path)[0]

    def test_older_sidecar_is_parsed_once_and_rewritten(self, tmp_path, monkeypatch):
        path = self.write_cache(tmp_path)
        load_profile_cache(path)
        sidecar = tmp_path / "cache.csv.npz"
        # an older version kept no copy and keyed the sidecar by the plain sha256 hex digest of the CSV
        plain = hashlib.sha256(path.read_bytes()).hexdigest()
        rewrite_sidecar(sidecar, lambda members: members.update(csv=None, digest=np.array(plain)))
        parses = self.count_parses(monkeypatch)
        for _ in range(3):
            assert load_profile_cache(path) == small_corpus()
        assert len(parses) == 1
        assert stored_copy(sidecar) == path.read_bytes()

    def test_no_thread_or_fd_leaks(self, tmp_path, monkeypatch):
        def open_fds():
            return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

        path = self.write_cache(tmp_path)
        sidecar = tmp_path / "cache.csv.npz"
        threads, fds = threading.active_count(), open_fds()
        load_profile_cache(path)                        # miss
        load_profile_cache(path)                        # hit
        for damage in SIDECAR_DAMAGE:
            damage.values[0](sidecar)
            load_profile_cache(path)
        save_profile_cache(synth_traffic(SynthParams(grid_side=3, spatial_correlation_length=235.0,
                                                     noise_std=0.2, seed=6)), path)
        load_profile_cache(path)                        # stale sidecar
        path.write_text("cell_id\n", encoding="utf-8")
        with pytest.raises(NormalizationError):
            load_profile_cache(path)                    # stale sidecar, bad CSV
        self.write_cache(tmp_path)
        load_profile_cache(path)

        def unreadable(*args):
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(vhetsim.ingest, "_same_bytes", unreadable)
            assert load_profile_cache(path) == small_corpus()   # the comparing thread fails
        path.rename(tmp_path / "moved.csv")
        with pytest.raises(NormalizationError, match="cannot read"):
            load_profile_cache(path)                    # no CSV beside the sidecar
        path.mkdir()
        with pytest.raises(NormalizationError, match="cannot read"):
            load_profile_cache(path)                    # a directory in its place
        assert threading.active_count() == threads
        if fds is not None:
            assert open_fds() == fds


def test_cli_import_leaves_scipy_out():
    # only synth_traffic uses SciPy, and importing it more than doubles the CLI's start-up
    src = os.path.dirname(os.path.dirname(vhetsim.ingest.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, vhetsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
