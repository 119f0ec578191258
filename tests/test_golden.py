"""Golden outputs: sha256 of rows.csv, summary.json and sweep series for small fixed configs.

The rows.csv digests were recorded before the corpus became an array type and
the neighbour and k-means kernels were vectorised; those changes must leave
every output byte as it was. A digest changes only with an intended output
change, and that change is named in CHANGES.md. Every config names its
optimizer, so a change of the default cannot silently change what a digest
guards.
"""

import hashlib

import numpy as np
import pytest
import yaml

from vhetsim.cli import main
from vhetsim.config import resolve_config
from vhetsim.experiment import run_experiment
from vhetsim.ingest import SynthParams, save_profile_cache, synth_traffic
from vhetsim.reporting import emit_report

SYNTH = {"grid_side": 10, "noise_std": 0.2, "seed": 4}


def _raw(estimator, **extra):
    raw = {
        "sbs_count": 5,
        "synth": dict(SYNTH),
        "estimator": {"seed": 3, **estimator},
        "iteration_count": 2,
        "slot_count": 12,
        "optimizer": "greedy",
        "seed": 11,
    }
    raw.update(extra)
    return raw


CONFIGS = {
    "distance_weighted": _raw({"method": "distance_weighted", "neighbor_count": 8,
                               "distance_exponent": 3}),
    "distance_unweighted": _raw({"method": "distance_unweighted", "neighbor_count": 8}),
    "random_weighted": _raw({"method": "random_weighted", "neighbor_count": 8,
                             "distance_exponent": 2}),
    "random_unweighted": _raw({"method": "random_unweighted", "neighbor_count": 8}),
    "mlc_elbow_l2": _raw({"method": "mlc", "cluster_count": "elbow", "layer_count": 2},
                         offload_sinks="HAPS_only"),
    "mlc_profile": _raw({"method": "mlc", "cluster_count": 3, "layer_count": 2},
                        cluster_features="profile"),
    "exhaustive_s5": _raw({"method": "distance_weighted", "neighbor_count": 8,
                           "distance_exponent": 3},
                          optimizer="exhaustive", sbs_count=5, offload_sinks="MBS_and_HAPS"),
}

GOLDEN = {
    "distance_weighted": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                          "4ad9393f7c94f341d0512dfd5b6350ec3e3dad653ee70ab61b368df643c1a18c"),
    "distance_unweighted": ("048b89882ff1585a266c647014ab0a692b67428aced67fb22504334ad469596c",
                            "27c69eb6b3f183ff1f59df043a414a5b0250326c19e4d3682f5bbee4e42309d1"),
    "random_weighted": ("af94169e770521a2833a0399dc440de1b6c2c0953ebbe0943b84277a1474b5dc",
                        "d6a41aeb8e4ddef7a6b864661604c7e8601080c64360a020a4975736c4559968"),
    "random_unweighted": ("6be58065d71bf25868f5f53bf378e694cb65a8bddda6bacbdd4120d94faeea5f",
                          "825408f97dc1d0a68665ab51a3c657318438006922fface0f4d2408b271a4716"),
    "mlc_elbow_l2": ("2af24f84edb4e7ca49a27acf4803420b235e021dd496047d738dbaa4c6eaa1ca",
                     "fdf16600f046ef23fb329acff57ef0a21ab5679601068587cf739b00ccb8ec55"),
    "mlc_profile": ("42f3ef3736dcbae5a0eac9002a8142830a57a8fa64a5e0e8190e19958093645e",
                    "985e5e2551d89d53ae620b7d49fe07cc4d1b19242e24c61fe35cb47138a08b2d"),
    # the exhaustive solver finds the greedy decisions on every slot here
    "exhaustive_s5": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                      "e9e740e2d51bb86df57448af3ec945d5505d0a93cf64086d42ac636be7420f81"),
    # same rows as distance_weighted: the cache holds the same corpus
    "cache_distance_weighted": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                                "dead7e0b5d515cd81b867e909908fc6229500a0ed058144045189c71bec9e914"),
}


def digests(raw, outdir):
    paths = emit_report(run_experiment(resolve_config(raw)), outdir)
    return tuple(hashlib.sha256(paths[name].read_bytes()).hexdigest()
                 for name in ("rows", "summary"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synthetic_outputs_unchanged(name, tmp_path):
    assert digests(CONFIGS[name], tmp_path / name) == GOLDEN[name]


def cache_config(tmp_path, monkeypatch):
    # the same corpus read back from a profile cache; a relative dataset path
    # keeps the summary's config echo independent of the temporary directory
    monkeypatch.chdir(tmp_path)
    save_profile_cache(synth_traffic(SynthParams(**SYNTH, spatial_correlation_length=705.0)),
                       "cache.csv")
    raw = _raw({"method": "distance_weighted", "neighbor_count": 8, "distance_exponent": 3},
               grid_side=10, dataset="cache.csv")
    del raw["synth"]
    return raw


def test_cache_outputs_unchanged(tmp_path, monkeypatch):
    raw = cache_config(tmp_path, monkeypatch)
    assert digests(raw, tmp_path / "out") == GOLDEN["cache_distance_weighted"]


def test_cache_sidecar_outputs_unchanged(tmp_path, monkeypatch):
    # the first run parses the CSV and stores its arrays in cache.csv.npz;
    # the second reads them from there without parsing
    raw = cache_config(tmp_path, monkeypatch)
    assert digests(raw, tmp_path / "first") == GOLDEN["cache_distance_weighted"]
    assert (tmp_path / "cache.csv.npz").is_file()
    monkeypatch.setattr(np, "loadtxt", None)
    assert digests(raw, tmp_path / "second") == GOLDEN["cache_distance_weighted"]


# the series files of a 2 x 2 sweep over distance_weighted, one per distance exponent
SERIES_GOLDEN = {
    "series_estimator-distance_exponent=1.csv": "5917ac1a1a71cdfbb6f1ed3769b9ac0046c754938a31b48c35b6cea0a41a5906",
    "series_estimator-distance_exponent=3.csv": "bfafcb8fe074eab69c8ff860e9392a74680d91a1c246f6317a05dee13da84b8e",
}


def test_sweep_series_unchanged(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(CONFIGS["distance_weighted"]), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--vary", "estimator.neighbor_count=3,5",
                 "--vary", "estimator.distance_exponent=1,3"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("series_*.csv")}
    assert got == SERIES_GOLDEN
