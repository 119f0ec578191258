import csv
import dataclasses
import gzip
import json
import math

import pytest

from vhetsim.cli import main
from vhetsim.config import ExperimentConfig, apply_overrides, load_config, resolve_config
from vhetsim.estimate import METHODS, EstimatorSpec
from vhetsim.errors import ConfigError
from vhetsim.experiment import load_corpus, run_experiment
from vhetsim.ingest import (
    SynthParams,
    load_profile_cache,
    save_profile_cache,
    synth_traffic,
)
from vhetsim.reporting import emit_report, run_label
from vhetsim.experiment import ExperimentReport, SlotRow


def base_raw(**overrides):
    raw = {
        "sbs_count": 3,
        "synth": {"grid_side": 6, "noise_std": 0.2, "seed": 3},
        "estimator": {"method": "distance_unweighted", "neighbor_count": 5},
        "iteration_count": 1,
        "slot_count": 4,
        "seed": 0,
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_defaults_filled(self):
        cfg = resolve_config({"sbs_count": 2, "synth": {"grid_side": 4},
                              "estimator": {"method": "mlc"}})
        assert cfg.iteration_count == 300
        assert cfg.slot_count == 144
        assert cfg.lambda_th == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            resolve_config(base_raw(bogus=1))

    def test_removed_mlc_knob_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'mlc_mean_includes_estimates'"):
            resolve_config(base_raw(mlc_mean_includes_estimates=False))

    def test_unknown_nested_key_rejected(self):
        raw = base_raw()
        raw["estimator"]["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            resolve_config(raw)

    def test_missing_method(self):
        raw = base_raw()
        del raw["estimator"]["method"]
        with pytest.raises(ConfigError, match="method"):
            resolve_config(raw)

    def test_requires_corpus_source(self):
        raw = base_raw()
        del raw["synth"]
        with pytest.raises(ConfigError):
            resolve_config(raw)

    def test_slot_count_bounds(self):
        with pytest.raises(ConfigError):
            resolve_config(base_raw(slot_count=0))
        with pytest.raises(ConfigError):
            resolve_config(base_raw(slot_count=145))

    def test_yaml_round_trip_is_stable(self):
        import yaml
        cfg = resolve_config(base_raw())
        echoed = resolve_config(yaml.safe_load(cfg.to_yaml()))
        assert echoed.to_yaml() == cfg.to_yaml()

    def test_load_config_file(self, tmp_path):
        import yaml
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_raw()), encoding="utf-8")
        assert load_config(path).sbs_count == 3

    def test_apply_overrides_dotted(self):
        cfg = resolve_config(base_raw())
        out = apply_overrides(cfg, {"estimator.neighbor_count": 9, "seed": 5})
        assert out.estimator.neighbor_count == 9 and out.seed == 5

    def test_apply_overrides_keeps_default_profile(self):
        # the echoed default diurnal profile re-resolves to the same parameters
        cfg = resolve_config(base_raw())
        out = apply_overrides(cfg, {})
        assert out == cfg and out.to_yaml() == cfg.to_yaml()

    @pytest.mark.parametrize("section, value, dotted", [
        ("power", {"sbs": {"transmit_w": math.nan}}, "power.sbs.transmit_w"),
        ("synth", {"grid_side": 6, "noise_std": math.nan}, "synth.noise_std"),
        ("estimator", {"method": "distance_weighted", "distance_exponent": math.inf},
         "estimator.distance_exponent"),
    ])
    def test_non_finite_section_value_rejected(self, section, value, dotted):
        with pytest.raises(ConfigError, match=f"{dotted} must be finite"):
            resolve_config(base_raw(**{section: value}))

    def test_integral_float_counts_resolve_to_int(self):
        raw = base_raw(iteration_count=2.0)
        raw["estimator"].update(method="mlc", cluster_count=3.0, layer_count=2.0)
        cfg = resolve_config(raw)
        assert (cfg.iteration_count, cfg.estimator.cluster_count, cfg.estimator.layer_count) == (2, 3, 2)
        assert all(type(v) is int for v in (cfg.iteration_count, cfg.estimator.cluster_count,
                                              cfg.estimator.layer_count, cfg.synth.seed))

    def test_minimal_config_takes_the_dataclass_defaults(self):
        cfg = resolve_config({"sbs_count": 2, "synth": {"grid_side": 4}, "estimator": {"method": "mlc"}})
        assert cfg.estimator == EstimatorSpec(method="mlc")
        assert cfg.synth == SynthParams(grid_side=4)
        assert cfg == ExperimentConfig(sbs_count=2, estimator=cfg.estimator, synth=cfg.synth)

    def test_apply_overrides_unknown_path(self):
        cfg = resolve_config(base_raw())
        with pytest.raises(ConfigError):
            apply_overrides(cfg, {"estimator.nope": 1})


class TestRunExperiment:
    def test_row_shape(self):
        report = run_experiment(resolve_config(base_raw(iteration_count=2, slot_count=3)))
        assert len(report.rows) == 6
        assert [(r.iteration, r.slot) for r in report.rows[:4]] == [
            (0, 0), (0, 1), (0, 2), (1, 0)]

    def test_deterministic(self):
        cfg = resolve_config(base_raw())
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.rows == b.rows

    def test_perfect_estimator_anchor(self):
        # low noise keeps every true load strictly positive, so eps is defined
        raw = base_raw(slot_count=6)
        raw["synth"]["noise_std"] = 0.04
        raw["estimator"] = {"method": "perfect"}
        report = run_experiment(resolve_config(raw))
        assert report.skipped_zero_load == 0
        for row in report.rows:
            assert row.mean_eps == 0.0
            assert row.decision_change == 0.0
            assert row.power_est_w == row.power_true_w

    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_method_runs(self, method):
        raw = base_raw(slot_count=2)
        raw["estimator"] = {"method": method, "neighbor_count": 5}
        report = run_experiment(resolve_config(raw))
        assert len(report.rows) == 2

    def test_slot_without_sleepers_has_no_error(self):
        # full sinks: no SBS ever sleeps, so no slot has an estimation error to report
        report = run_experiment(resolve_config(base_raw(slot_count=3, base_load={"haps": 1.0, "mbs": 1.0})))
        assert all(math.isnan(row.mean_eps) for row in report.rows)
        assert report.summary()["aggregates"]["mean_eps"]["defined_rows"] == 0

    def test_too_small_corpus(self):
        from vhetsim.errors import SimulationError
        raw = base_raw()
        raw["synth"]["grid_side"] = 2
        raw["sbs_count"] = 4
        with pytest.raises(SimulationError):
            run_experiment(resolve_config(raw))

    def test_exhaustive_above_limit_refused(self):
        # the config refuses the run instead of the run switching to greedy
        message = "sbs_count 3 is above exhaustive_limit 2"
        with pytest.raises(ConfigError, match=message):
            resolve_config(base_raw(optimizer="exhaustive", exhaustive_limit=2))
        with pytest.raises(ConfigError, match=message):
            apply_overrides(resolve_config(base_raw(optimizer="exhaustive")), {"exhaustive_limit": 2})
        at_limit = resolve_config(base_raw(optimizer="exhaustive", exhaustive_limit=3))
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(at_limit, exhaustive_limit=2)
        assert len(run_experiment(at_limit).rows) == 4
        assert resolve_config(base_raw(optimizer="greedy", exhaustive_limit=2)).exhaustive_limit == 2

    def test_summary_recomputable_from_rows(self):
        report = run_experiment(resolve_config(base_raw()))
        agg = report.summary()["aggregates"]
        eps = [r.mean_eps for r in report.rows if not math.isnan(r.mean_eps)]
        assert agg["mean_eps"]["mean"] == pytest.approx(sum(eps) / len(eps))
        assert agg["mean_eps"]["defined_rows"] == len(eps)


def read_rows(path) -> list[dict]:
    """Re-parse a rows.csv into typed dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{"iteration": int(row["iteration"]), "slot": int(row["slot"]),
                 **{k: float(row[k]) for k in SlotRow._fields[2:]}}
                for row in csv.DictReader(fh)]


class TestReporting:
    def test_emit_and_reparse(self, tmp_path):
        report = run_experiment(resolve_config(base_raw()))
        paths = emit_report(report, tmp_path / "out")
        rows = read_rows(paths["rows"])
        assert len(rows) == len(report.rows)
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        eps = [r["mean_eps"] for r in rows if not math.isnan(r["mean_eps"])]
        assert abs(summary["aggregates"]["mean_eps"]["mean"] - sum(eps) / len(eps)) < 1e-9

    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(rows=[], config_echo="{}\n", seed=0)
        paths = emit_report(report, tmp_path / "empty")
        text = paths["rows"].read_text(encoding="utf-8")
        assert text == ("iteration,slot,mean_eps,power_true_w,power_est_w,"
                        "decision_change,p_off_on,p_on_off\n")

    @pytest.mark.parametrize("ran", [True, False])
    def test_outputs_follow_slot_row(self, tmp_path, ran):
        # the rows.csv header and the summary's aggregates are SlotRow's fields
        report = (run_experiment(resolve_config(base_raw())) if ran else
                  ExperimentReport(rows=[], config_echo="{}\n", seed=0))
        paths = emit_report(report, tmp_path / "out")
        with open(paths["rows"], newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
        assert tuple(lines[0]) == SlotRow._fields and len(lines) == 1 + len(report.rows)
        assert tuple(report.summary()["aggregates"]) == SlotRow._fields[2:]
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert sorted(summary["aggregates"]) == sorted(SlotRow._fields[2:])
        assert summary["aggregates"]["power_true_w"]["defined_rows"] == len(report.rows)

    def test_config_echo_byte_identical(self, tmp_path):
        cfg = resolve_config(base_raw())
        report = run_experiment(cfg)
        paths = emit_report(report, tmp_path / "echo")
        assert paths["config"].read_text(encoding="utf-8") == cfg.to_yaml()

    def test_lf_line_endings(self, tmp_path):
        report = run_experiment(resolve_config(base_raw()))
        paths = emit_report(report, tmp_path / "lf")
        for path in paths.values():
            assert b"\r" not in path.read_bytes()


class TestProfileCache:
    def test_round_trip(self, tmp_path):
        profiles = synth_traffic(SynthParams(grid_side=3, spatial_correlation_length=235.0,
                                             noise_std=0.1, seed=5))
        path = tmp_path / "cache.csv"
        save_profile_cache(profiles, path)
        assert load_profile_cache(path) == profiles


class TestCli:
    def write_config(self, tmp_path, raw=None):
        import yaml
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw or base_raw()), encoding="utf-8")
        return path

    def test_simulate(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "rows.csv").exists()
        assert "mean eps" in capsys.readouterr().out

    def test_simulate_files_do_not_depend_on_out(self, tmp_path):
        cfg = self.write_config(tmp_path)
        for out in ("a", "b/c"):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        for name in ("rows.csv", "summary.json", "config.yaml"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b/c" / name).read_bytes()

    def test_simulate_flag_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--estimator", "perfect", "--seed", "9", "--sbs-count", "2"]) == 0
        echo = (out / "config.yaml").read_text(encoding="utf-8")
        assert "method: perfect" in echo and "seed: 9" in echo and "sbs_count: 2" in echo

    def test_sweep_series_files(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--vary", "estimator.neighbor_count=3,5",
                     "--vary", "estimator.distance_exponent=1,3"]) == 0
        series = sorted(p.name for p in out.glob("series_*.csv"))
        assert len(series) == 2  # one per distance_exponent value
        body = (out / series[0]).read_text(encoding="utf-8").splitlines()
        # the x key, then the run's mean of every aggregated SlotRow field, in field order
        header = ["estimator.neighbor_count", *(f"mean_{name}" for name in SlotRow._fields[2:])]
        assert body[0] == ",".join(header)
        assert len(body) == 3 and all(len(line.split(",")) == len(header) for line in body)

    def test_sweep_over_dataset_paths(self, tmp_path, monkeypatch):
        # a '/' in a swept value must nest no run directory or series file below --out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        for seed in (1, 2):
            save_profile_cache(synth_traffic(SynthParams(grid_side=6, noise_std=0.2, seed=seed)),
                               f"data/c{seed}.csv")
        raw = base_raw(grid_side=6, dataset="data/c1.csv")
        del raw["synth"]
        assert main(["sweep", "--config", str(self.write_config(tmp_path, raw)), "--out", "out",
                     "--vary", "estimator.neighbor_count=3,5", "--vary", "dataset=data/c1.csv,data/c2.csv"]) == 0
        runs = [f"run_estimator-neighbor_count={n}_dataset=data%2Fc{c}.csv" for n in (3, 5) for c in (1, 2)]
        series = [f"series_dataset=data%2Fc{c}.csv.csv" for c in (1, 2)]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(runs + series)
        assert all((tmp_path / "out" / run / "rows.csv").is_file() for run in runs)
        assert len((tmp_path / "out" / series[1]).read_text(encoding="utf-8").splitlines()) == 3

    def test_run_label(self):
        assert run_label([("estimator.neighbor_count", 3), ("synth.seed", 4)]) == \
            "estimator-neighbor_count=3_synth-seed=4"
        assert run_label([("dataset", "a/b%2F.csv")]) == "dataset=a%2Fb%252F.csv"
        assert run_label([("dataset", "a%2Fb")]) != run_label([("dataset", "a/b")])
        assert run_label([]) == ""

    @pytest.mark.parametrize("name", ["rows.csv", "summary.json", "config.yaml"])
    def test_simulate_unwritable_output_clean_exit(self, tmp_path, capsys, name):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        assert main(["simulate", "--config", str(self.write_config(tmp_path)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out / name}: Is a directory\n"

    def test_sweep_unwritable_series_clean_exit(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        (out / "series_all.csv").mkdir(parents=True)
        assert main(["sweep", "--config", str(self.write_config(tmp_path)), "--out", str(out),
                     "--vary", "estimator.neighbor_count=3,5"]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out / 'series_all.csv'}: Is a directory\n"

    def test_ingest(self, tmp_path, capsys):
        data = tmp_path / "cdr"
        data.mkdir()
        lines = []
        for sq in range(1, 5):
            for slot in range(3):
                lines.append(f"{sq}\t{slot * 600000}\t39\t{sq * (slot + 1)}.0")
        (data / "day1.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cache = tmp_path / "cache.csv"
        assert main(["ingest", "--dataset", str(data), "--cache", str(cache),
                     "--grid-side", "2"]) == 0
        assert "4 cell profiles" in capsys.readouterr().out
        assert len(load_profile_cache(cache)) == 4

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-side", "-3", "grid side must be >= 1, got -3"),
        ("--grid-side", "0", "grid side must be >= 1, got 0"),
        ("--cell-size", "0", "cell size must be finite and > 0, got 0.0"),
        ("--cell-size", "nan", "cell size must be finite and > 0, got nan"),
        ("--cell-size", "inf", "cell size must be finite and > 0, got inf"),
        ("--days", "0", "day count must be >= 1, got 0"),
    ])
    def test_ingest_bad_argument_clean_exit(self, tmp_path, capsys, flag, value, message):
        data = tmp_path / "cdr"
        data.mkdir()
        (data / "day1.txt").write_text("1\t0\t39\t1.0\n2\t0\t39\t2.0\n", encoding="utf-8")
        cache = tmp_path / "c.csv"
        argv = ["ingest", "--dataset", str(data), "--cache", str(cache), "--grid-side", "2"]
        assert main(argv + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cache.exists()

    def test_bad_cache_clean_exit(self, tmp_path, capsys):
        cache = tmp_path / "cache.csv"
        save_profile_cache(synth_traffic(SynthParams(grid_side=3, spatial_correlation_length=235.0,
                                                     noise_std=0.1, seed=5)), cache)
        lines = cache.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[10] = "nan"
        lines[2] = ",".join(fields)
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = base_raw(dataset=str(cache), grid_side=3)
        del raw["synth"]
        assert main(["simulate", "--config", str(self.write_config(tmp_path, raw))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and "Traceback" not in err

    def test_coincident_cells_clean_exit(self, tmp_path, capsys):
        cache = tmp_path / "cache.csv"
        save_profile_cache(synth_traffic(SynthParams(grid_side=3, spatial_correlation_length=235.0,
                                                     noise_std=0.1, seed=5)), cache)
        lines = cache.read_text(encoding="utf-8").splitlines()
        # cell 8 moved onto cell 2's centroid
        lines[8] = ",".join(lines[8].split(",")[:1] + lines[2].split(",")[1:3] + lines[8].split(",")[3:])
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = base_raw(dataset=str(cache), grid_side=3)
        del raw["synth"]
        assert main(["simulate", "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == f"error: {cache}: cells 2 and 8 share the position (352.5, 117.5)\n"
        assert not (tmp_path / "cache.csv.npz").exists()

    def test_ingest_non_finite_clean_exit(self, tmp_path, capsys):
        data = tmp_path / "cdr"
        data.mkdir()
        (data / "day1.txt").write_text("1\t0\t39\t1.0\n2\t0\t39\tnan\n", encoding="utf-8")
        assert main(["ingest", "--dataset", str(data), "--cache", str(tmp_path / "c.csv"),
                     "--grid-side", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: non-finite") and "Traceback" not in err

    @staticmethod
    def write_bad_dataset(tmp_path, kind):
        """A --dataset path of each kind that ingest cannot read."""
        data = tmp_path / "cdr"
        if kind == "missing":
            return data
        if kind == "file":
            data.write_text("1\t0\t39\t1.0\n", encoding="utf-8")
            return data
        data.mkdir()
        if kind == "invalid-utf8":
            (data / "day1.txt").write_bytes(b"1\t0\t39\t1.0\n2\t0\t39\t\xe9\n")
        else:
            (data / "day1.txt.gz").write_bytes(gzip.compress(b"1\t0\t39\t1.0\n")[:-12] + b"junk")
        return data

    @pytest.mark.parametrize("kind", ["invalid-utf8", "corrupt-gzip", "missing", "file"])
    def test_ingest_bad_dataset_clean_exit(self, tmp_path, capsys, kind):
        data = self.write_bad_dataset(tmp_path, kind)
        cache = tmp_path / "c.csv"
        assert main(["ingest", "--dataset", str(data), "--cache", str(cache), "--grid-side", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + {
            "invalid-utf8": f"line 2: bad sms_in value '\\udce9' in {data}/day1.txt\n",
            "corrupt-gzip": f"cannot read {data}/day1.txt.gz: ",
            "missing": f"cannot read CDR directory {data}: No such file or directory\n",
            "file": f"cannot read CDR directory {data}: Not a directory\n",
        }[kind]) and "Traceback" not in err
        assert not cache.exists()

    def test_ingest_unwritable_cache_clean_exit(self, tmp_path, capsys):
        data = tmp_path / "cdr"
        data.mkdir()
        (data / "day1.txt").write_text("1\t0\t39\t1.0\n", encoding="utf-8")
        cache = tmp_path / "absent" / "c.csv"
        assert main(["ingest", "--dataset", str(data), "--cache", str(cache), "--grid-side", "2"]) == 1
        assert capsys.readouterr().err == f"error: cannot write profile cache {cache}: No such file or directory\n"

    def test_ingest_leaves_an_existing_cache_alone(self, tmp_path, capsys):
        # the cache directory is checked before the parse; a failed parse keeps the old cache
        cache = tmp_path / "c.csv"
        cache.write_text("kept\n", encoding="utf-8")
        assert main(["ingest", "--dataset", str(tmp_path / "absent"), "--cache", str(cache)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert cache.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]

    @pytest.mark.parametrize("command", ["simulate", "sweep", "ingest"])
    def test_out_below_a_file_clean_exit(self, tmp_path, capsys, monkeypatch, command):
        # the path is checked before any run or CDR parse starts
        import vhetsim.cli

        def not_called(*args, **kwargs):
            raise AssertionError("called before the output path was checked")

        monkeypatch.setattr(vhetsim.cli, "run_experiment", not_called)
        monkeypatch.setattr(vhetsim.cli, "ingest_dataset", not_called)
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out = tmp_path / "taken" / "out"
        if command == "ingest":
            argv = ["ingest", "--dataset", str(tmp_path), "--cache", str(out / "c.csv"), "--grid-side", "2"]
            message = f"cannot write profile cache {out / 'c.csv'}: Not a directory"
        else:
            argv = [command, "--config", str(self.write_config(tmp_path)), "--out", str(out)]
            message = f"cannot create output directory {out}: Not a directory"
        if command == "sweep":
            argv += ["--vary", "estimator.neighbor_count=3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_loads_corpus_once(self, tmp_path, monkeypatch):
        import vhetsim.cli

        calls = []

        def counting_load(config):
            calls.append(config.synth)
            return load_corpus(config)

        monkeypatch.setattr(vhetsim.cli, "load_corpus", counting_load)
        assert main(["sweep", "--config", str(self.write_config(tmp_path)), "--out", str(tmp_path / "s"),
                     "--vary", "estimator.method=distance_weighted,random_unweighted,mlc"]) == 0
        assert len(calls) == 1
        assert main(["sweep", "--config", str(self.write_config(tmp_path)), "--out", str(tmp_path / "t"),
                     "--vary", "synth.seed=3,4", "--vary", "estimator.neighbor_count=3,5"]) == 0
        assert len(calls) == 3

    def test_sweep_outputs_unchanged(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        methods = ("distance_weighted", "random_unweighted", "mlc")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                     "--vary", f"estimator.method={','.join(methods)}"]) == 0
        for method in methods:
            # each point on its own, with its own corpus load
            config = apply_overrides(load_config(cfg_path), {"estimator.method": method})
            alone = emit_report(run_experiment(config), tmp_path / f"alone-{method}")
            swept = tmp_path / "s" / f"run_estimator-method={method}"
            for name in ("rows", "summary"):
                assert (swept / alone[name].name).read_bytes() == alone[name].read_bytes()

    @pytest.mark.parametrize("optimizer, vary, message", [
        ("greedy", ["sbs_count=3,20,abc"], "error: sbs_count must be an integer, got 'abc'\n"),
        ("exhaustive", ["sbs_count=3,20"], "error: optimizer 'exhaustive' enumerates 3^sbs_count decisions: "
                                           "sbs_count 20 is above exhaustive_limit 14\n"),
        ("greedy", ["seed=1,2", "seed=5"], "error: --vary gives 'seed' twice\n"),
        ("greedy", ["seed=1,1"], "error: sweep points 'seed=1' and 'seed=1' are the same run\n"),
        ("greedy", ["seed=1,1.0"], "error: sweep points 'seed=1' and 'seed=1.0' are the same run\n"),
    ], ids=["bad-third-value", "exhaustive-above-limit", "key-given-twice", "same-point-twice",
            "same-config-twice"])
    def test_sweep_bad_point_runs_nothing(self, tmp_path, capsys, optimizer, vary, message):
        # every point resolves before the first run, so a bad later point writes nothing
        out = tmp_path / "sweep"
        cfg = self.write_config(tmp_path, base_raw(optimizer=optimizer))
        flags = [arg for value in vary for arg in ("--vary", value)]
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(sbs_count="abc"), "sbs_count must be an integer, got 'abc'"),
        (lambda raw: raw.update(capacity={"mbs": math.nan}), "capacity.mbs must be finite, got nan"),
        (lambda raw: raw.update(cell_size_m=math.inf), "cell_size_m must be finite"),
        (lambda raw: raw.update(seed=-1), "seed must be >= 0, got -1"),
        (lambda raw: raw["estimator"].update(seed=-2), "estimator.seed must be >= 0, got -2"),
        (lambda raw: raw["synth"].update(seed=-3), "synth.seed must be >= 0, got -3"),
        (lambda raw: raw.update(iteration_count=2.5), "iteration_count must be an integer, got 2.5"),
        (lambda raw: raw.update(iteration_count=True), "iteration_count must be an integer, got True"),
        (lambda raw: raw["estimator"].update(method="mlc", cluster_count=2.5),
         "estimator.cluster_count must be 'elbow' or an integer >= 1, got 2.5"),
        (lambda raw: raw["estimator"].update(method="mlc", cluster_count=True),
         "estimator.cluster_count must be 'elbow' or an integer >= 1, got True"),
        (lambda raw: raw["estimator"].update(method="mlc", cluster_count="elbo"),
         "estimator.cluster_count must be 'elbow' or an integer >= 1, got 'elbo'"),
        (lambda raw: raw["estimator"].update(neighbor_count=True), "estimator.neighbor_count must be an integer"),
        (lambda raw: raw["synth"].update(grid_side=6.5), "synth.grid_side must be an integer, got 6.5"),
        (lambda raw: raw.update(cell_size_m=True), "cell_size_m must be a number, got True"),
        (lambda raw: raw.update(capacity={"sbs": True}), "capacity.sbs must be a number, got True"),
        (lambda raw: raw.update(base_load={"haps": False}), "base_load.haps must be a number, got False"),
        (lambda raw: raw.update(power={"sbs": {"transmit_w": True}}), "power.sbs.transmit_w must be a number, got True"),
        (lambda raw: raw["estimator"].update(distance_exponent=True),
         "estimator.distance_exponent must be a number, got True"),
        (lambda raw: raw["synth"].update(noise_std=True), "synth.noise_std must be a number, got True"),
        (lambda raw: raw["synth"].update(spatial_correlation_length=False),
         "synth.spatial_correlation_length must be a number, got False"),
        (lambda raw: raw.update(dataset=5), "dataset must be a path, got 5"),
        (lambda raw: raw.update(output="out"), "unknown key 'output'"),
        (lambda raw: raw["synth"].update(temporal_profile=5),
         "synth.temporal_profile must be a list of numbers, got 5"),
        (lambda raw: raw["synth"].update(temporal_profile=["a"] * 144),
         "synth.temporal_profile[0] must be a number, got 'a'"),
        (lambda raw: raw["synth"].update(temporal_profile=[math.nan] * 144),
         "synth.temporal_profile[0] must be finite, got nan"),
        (lambda raw: raw["synth"].update(cell_size_m=0), "synth.cell_size_m must be > 0, got 0"),
        (lambda raw: raw["synth"].update(cell_size_m=-5), "synth.cell_size_m must be > 0, got -5"),
        (lambda raw: raw["synth"].update(cell_size_m="x"), "synth.cell_size_m must be a number, got 'x'"),
        (lambda raw: raw.update(power={"sbs": {"sleep_w": "x"}}), "power.sbs.sleep_w must be a number, got 'x'"),
        (lambda raw: raw["synth"].update(spatial_correlation_length="x"),
         "synth.spatial_correlation_length must be a number, got 'x'"),
        (lambda raw: raw.update(lambda_th="0.1"), "lambda_th must be a number, got '0.1'"),
    ])
    def test_bad_config_value_clean_exit(self, tmp_path, capsys, edit, message):
        raw = base_raw()
        edit(raw)
        assert main(["simulate", "--config", str(self.write_config(tmp_path, raw))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("level", [0.0, -1.0])
    def test_all_zero_synthetic_corpus_clean_exit(self, tmp_path, capsys, level):
        raw = base_raw()
        raw["synth"].update(noise_std=0.0, temporal_profile=[level] * 144)
        assert main(["simulate", "--config", str(self.write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: all-zero corpus: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("vary", ["estimator.neighbor_count=[1", "estimator.seed"])
    def test_sweep_bad_vary_clean_exit(self, tmp_path, capsys, vary):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(self.write_config(tmp_path)), "--vary", vary])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --vary: --vary expects" in err and repr(vary) in err and "Traceback" not in err

    def test_missing_config_clean_exit(self, tmp_path, capsys):
        missing = tmp_path / "absent.yaml"
        assert main(["simulate", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read config {missing}: No such file or directory\n"

    def test_error_exit_code(self, tmp_path, capsys):
        raw = base_raw()
        raw["synth"]["grid_side"] = 2
        raw["sbs_count"] = 4
        cfg = self.write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err
