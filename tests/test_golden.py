"""Golden outputs: sha256 of rows.csv and summary.json for small fixed configs.

The digests were recorded before the corpus became an array type and the
neighbour and k-means kernels were vectorised; those changes must leave every
output byte as it was. A digest changes only with an intended output change,
and that change is named in CHANGES.md.
"""

import hashlib

import pytest

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
}

GOLDEN = {
    "distance_weighted": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                          "2aa66081fc7073398ec4fac0e65a7ea5090c9b5dbf0bcfa09dfc7f6782e63f20"),
    "distance_unweighted": ("048b89882ff1585a266c647014ab0a692b67428aced67fb22504334ad469596c",
                            "66980336e90fb42eea348c40368ae8567660c077396ab15fbff163780ed724df"),
    "random_weighted": ("af94169e770521a2833a0399dc440de1b6c2c0953ebbe0943b84277a1474b5dc",
                        "b7794b6e17d5e19d8b3c435c76519dd2faa28e5df0476d93ddf10b5a10479aeb"),
    "random_unweighted": ("6be58065d71bf25868f5f53bf378e694cb65a8bddda6bacbdd4120d94faeea5f",
                          "3f63c389557844ce07061290fdd317cc47cb664120d3df97f7704588c637640b"),
    "mlc_elbow_l2": ("2af24f84edb4e7ca49a27acf4803420b235e021dd496047d738dbaa4c6eaa1ca",
                     "17e904712f243915c4aba2d6e87582cd2a68115880cbc466dc5574630f941ae5"),
    "mlc_profile": ("42f3ef3736dcbae5a0eac9002a8142830a57a8fa64a5e0e8190e19958093645e",
                    "9dcf19329815e27b8f7cc09f978c494aa885775e5a0e1be4bce33b16f9acea5c"),
    # same rows as distance_weighted: the cache holds the same corpus
    "cache_distance_weighted": ("3225bd4696aa4e450d58db8a75c6b131e4eaee69a554b9bc41c74dadb2b14ce0",
                                "fbe9cc93e8dd96e307e30acd417b64cd9bb836e7c7c370d80ffc08b9d6481bd4"),
}


def digests(raw, outdir):
    paths = emit_report(run_experiment(resolve_config(raw)), outdir)
    return tuple(hashlib.sha256(paths[name].read_bytes()).hexdigest()
                 for name in ("rows", "summary"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synthetic_outputs_unchanged(name, tmp_path):
    assert digests(CONFIGS[name], tmp_path / name) == GOLDEN[name]


def test_cache_outputs_unchanged(tmp_path, monkeypatch):
    # the same corpus read back from a profile cache; a relative dataset path
    # keeps the summary's config echo independent of the temporary directory
    monkeypatch.chdir(tmp_path)
    save_profile_cache(synth_traffic(SynthParams(**SYNTH, spatial_correlation_length=705.0)),
                       "cache.csv")
    raw = _raw({"method": "distance_weighted", "neighbor_count": 8, "distance_exponent": 3},
               grid_side=10, dataset="cache.csv")
    del raw["synth"]
    assert digests(raw, tmp_path / "out") == GOLDEN["cache_distance_weighted"]
