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
                          "e905fab6c865d073bb70fb866bacfa03ae6ade5f03e6a70d222ab34c0349116d"),
    "distance_unweighted": ("048b89882ff1585a266c647014ab0a692b67428aced67fb22504334ad469596c",
                            "ec838a90daa13a637bd7be78e68c580b5d8c11cfa579573acc7d0c65c278c3f0"),
    "random_weighted": ("af94169e770521a2833a0399dc440de1b6c2c0953ebbe0943b84277a1474b5dc",
                        "98b35799d94e82e4062ef3ba2ad1676e6c2a105e5704378aedcd6b829e3f331b"),
    "random_unweighted": ("6be58065d71bf25868f5f53bf378e694cb65a8bddda6bacbdd4120d94faeea5f",
                          "1f1987f127c74d3932d827a281dd53faac46848f78332f2300d6325558ba1eec"),
    "mlc_elbow_l2": ("2af24f84edb4e7ca49a27acf4803420b235e021dd496047d738dbaa4c6eaa1ca",
                     "6d3b41c2c8fbbbab5a68220e1982760d812993f4d45c19b4573a4d021cb1ae2a"),
    "mlc_profile": ("42f3ef3736dcbae5a0eac9002a8142830a57a8fa64a5e0e8190e19958093645e",
                    "e58185ba1b97642bee4179561a902384204399d54ef51bfe052f4c51423c51ad"),
    # the exhaustive solver finds the greedy decisions on every slot here
    "exhaustive_s5": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                      "3e52e45d48534056ce44aa7ce39122e87ee726b4646eeeddfca1400c83c1de42"),
    # same rows as distance_weighted: the cache holds the same corpus
    "cache_distance_weighted": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                                "ffb709fa7f157575ec0aba2ee471cbc6e2a5a3e24cddda23576b3adb46454979"),
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
    "series_estimator-distance_exponent=1.csv": "7996b1507766bbe11e89f7924224abe04f0671cdc6ef999ae557e4e7d11f6028",
    "series_estimator-distance_exponent=3.csv": "665f370e2a8595e0664efbe68905a66714d348612791e788c861f5d56a419d9b",
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
