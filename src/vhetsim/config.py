"""Experiment configuration: YAML schema, validation and defaults.

Shipped power defaults are EARTH-style placeholders chosen to satisfy the
model invariants (operational above sleep power, macro/HAPS transmit power
above SBS transmit power); they are not measured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

import yaml

from .errors import ConfigError
from .estimate import EstimatorSpec
from .ingest import SLOTS_PER_DAY, SynthParams, DEFAULT_CELL_SIZE_M
from .power import PowerParams
from .switching import DEFAULT_EXHAUSTIVE_LIMIT

# libyaml where PyYAML was built with it: the same documents, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

OPTIMIZERS = ("greedy", "exhaustive")
SINK_MODES = ("HAPS_only", "MBS_and_HAPS")

DEFAULT_POWER = {
    "sbs": {"operational_w": 56.0, "amplifier_eff": 2.6, "transmit_w": 6.3, "sleep_w": 6.0},
    "mbs": {"operational_w": 130.0, "amplifier_eff": 4.7, "transmit_w": 20.0, "sleep_w": 75.0},
    "haps": {"operational_w": 180.0, "amplifier_eff": 4.0, "transmit_w": 120.0, "sleep_w": 100.0},
}
# Capacity ratios put the offload marginal cost above the sleep saving at high
# SBS load, so the on/off decision flips over the diurnal cycle instead of
# collapsing to all-off.
DEFAULT_CAPACITY = {"sbs": 10.0, "mbs": 50.0, "haps": 50.0}
DEFAULT_BASE_LOAD = {"mbs": 0.2, "haps": 0.1}
DEFAULT_ESTIMATOR = {
    "method": None,
    "neighbor_count": 20,
    "distance_exponent": 1.0,
    "cluster_count": "elbow",
    "layer_count": 1,
    "seed": 0,
}
DEFAULT_SYNTH = {
    "grid_side": None,
    "spatial_correlation_length": 3 * DEFAULT_CELL_SIZE_M,
    "noise_std": 0.2,
    "seed": 0,
    "cell_size_m": DEFAULT_CELL_SIZE_M,
}


@dataclass(frozen=True)
class ExperimentConfig:
    sbs_count: int
    estimator: EstimatorSpec
    dataset: str | None = None
    synth: SynthParams | None = None
    iteration_count: int = 300
    slot_count: int = SLOTS_PER_DAY
    power: dict = field(default_factory=lambda: dict(DEFAULT_POWER))
    capacity: dict = field(default_factory=lambda: dict(DEFAULT_CAPACITY))
    base_load: dict = field(default_factory=lambda: dict(DEFAULT_BASE_LOAD))
    lambda_th: float = 0.1
    optimizer: str = "greedy"
    offload_sinks: str = "MBS_and_HAPS"
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    grid_side: int = 100
    cell_size_m: float = DEFAULT_CELL_SIZE_M
    cluster_features: str = "scalar"
    seed: int = 0
    output: str | None = None

    def power_params(self, tier: str) -> PowerParams:
        return PowerParams(**self.power[tier])

    def to_dict(self) -> dict:
        data = asdict(self)
        data["estimator"] = asdict(self.estimator)
        data["synth"] = asdict(self.synth) if self.synth else None
        if data["synth"] is not None:
            data["synth"]["temporal_profile"] = [float(v) for v in data["synth"]["temporal_profile"]]
        return data

    def to_yaml(self) -> str:
        """Canonical serialization; byte-stable for a fixed resolved config."""
        return yaml.dump(self.to_dict(), Dumper=_DUMPER, sort_keys=True, default_flow_style=False)


def _merge_section(name: str, defaults: dict, given, required=()) -> dict:
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key '{name}.{sorted(unknown)[0]}'")
    merged = {**defaults, **given}
    for key, value in merged.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name}.{key} must be finite, got {value!r}")
        if isinstance(value, bool) and isinstance(defaults[key], float):
            raise ConfigError(f"{name}.{key} must be a number, got {value!r}")
    for key in required:
        if merged.get(key) is None:
            raise ConfigError(f"missing required key '{name}.{key}'")
    return merged


def _integer(value, key: str, minimum: int | None = None, expected: str = "an integer") -> int:
    """`value` as an int; booleans, strings and non-integral numbers are refused."""
    if isinstance(value, bool) or not (isinstance(value, Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value!r}")
    return int(value)


def _number(raw: dict, key: str, kind: type, default):
    """`raw[key]`, or the default, as an int or a finite float; booleans are refused."""
    value = raw.get(key, default)
    if kind is int:
        return _integer(value, key)
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and fill defaults; unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = {
        "dataset", "synth", "sbs_count", "iteration_count", "slot_count",
        "estimator", "power", "capacity", "base_load", "lambda_th",
        "optimizer", "offload_sinks", "exhaustive_limit", "grid_side",
        "cell_size_m", "cluster_features", "seed", "output",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}'")

    if raw.get("sbs_count") is None:
        raise ConfigError("missing required key 'sbs_count'")
    if raw.get("dataset") is None and raw.get("synth") is None:
        raise ConfigError("either 'dataset' or 'synth' is required")

    est = _merge_section("estimator", DEFAULT_ESTIMATOR, raw.get("estimator"), required=("method",))
    for key in ("neighbor_count", "layer_count", "seed"):
        est[key] = _integer(est[key], f"estimator.{key}", minimum=0 if key == "seed" else None)
    if est["cluster_count"] != "elbow":
        est["cluster_count"] = _integer(est["cluster_count"], "estimator.cluster_count", 1,
                                        expected="'elbow' or an integer >= 1")
    try:
        estimator = EstimatorSpec(**est)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"estimator: {exc}") from None

    synth = None
    if raw.get("synth") is not None:
        synth_defaults = {**DEFAULT_SYNTH, "temporal_profile": None}
        sy = _merge_section("synth", synth_defaults, raw["synth"], required=("grid_side",))
        for key in ("grid_side", "seed"):
            sy[key] = _integer(sy[key], f"synth.{key}", minimum=0 if key == "seed" else None)
        if sy["temporal_profile"] is not None:
            sy["temporal_profile"] = tuple(sy["temporal_profile"])
        else:
            del sy["temporal_profile"]
        try:
            synth = SynthParams(**sy)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"synth: {exc}") from None

    power = {
        tier: _merge_section(f"power.{tier}", DEFAULT_POWER[tier], section)
        for tier, section in _merge_section("power", {t: None for t in DEFAULT_POWER}, raw.get("power")).items()
    }
    for tier, params in power.items():
        try:
            PowerParams(**params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"power.{tier}: {exc}") from None
    capacity = _merge_section("capacity", DEFAULT_CAPACITY, raw.get("capacity"))
    for tier, c in capacity.items():
        if not (isinstance(c, Real) and c > 0):
            raise ConfigError(f"capacity.{tier} must be a number > 0, got {c!r}")
    base_load = _merge_section("base_load", DEFAULT_BASE_LOAD, raw.get("base_load"))
    for tier, v in base_load.items():
        if not (isinstance(v, Real) and 0.0 <= v <= 1.0):
            raise ConfigError(f"base_load.{tier} must lie in [0, 1], got {v!r}")

    cfg = dict(
        sbs_count=_number(raw, "sbs_count", int, None),
        estimator=estimator,
        dataset=raw.get("dataset"),
        synth=synth,
        iteration_count=_number(raw, "iteration_count", int, 300),
        slot_count=_number(raw, "slot_count", int, SLOTS_PER_DAY),
        power=power,
        capacity=capacity,
        base_load=base_load,
        lambda_th=_number(raw, "lambda_th", float, 0.1),
        optimizer=raw.get("optimizer", "greedy"),
        offload_sinks=raw.get("offload_sinks", "MBS_and_HAPS"),
        exhaustive_limit=_number(raw, "exhaustive_limit", int, DEFAULT_EXHAUSTIVE_LIMIT),
        grid_side=_number(raw, "grid_side", int, 100),
        cell_size_m=_number(raw, "cell_size_m", float, DEFAULT_CELL_SIZE_M),
        cluster_features=raw.get("cluster_features", "scalar"),
        seed=_integer(raw.get("seed", 0), "seed", minimum=0),
        output=raw.get("output"),
    )
    if cfg["sbs_count"] < 1:
        raise ConfigError("sbs_count must be >= 1")
    if cfg["iteration_count"] < 1:
        raise ConfigError("iteration_count must be >= 1")
    if not 1 <= cfg["slot_count"] <= SLOTS_PER_DAY:
        raise ConfigError(f"slot_count must lie in [1, {SLOTS_PER_DAY}]")
    if cfg["cell_size_m"] <= 0:
        raise ConfigError("cell_size_m must be > 0")
    if not 0.0 < cfg["lambda_th"] < 1.0:
        raise ConfigError("lambda_th must lie strictly inside (0, 1)")
    if cfg["optimizer"] not in OPTIMIZERS:
        raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
    if cfg["offload_sinks"] not in SINK_MODES:
        raise ConfigError(f"offload_sinks must be one of {SINK_MODES}")
    if cfg["cluster_features"] not in ("scalar", "profile"):
        raise ConfigError("cluster_features must be 'scalar' or 'profile'")
    return ExperimentConfig(**cfg)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return resolve_config(raw or {})


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Re-resolve the config with dotted-path overrides (e.g. estimator.n...)."""
    data = config.to_dict()
    for dotted, value in overrides.items():
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"unknown override path '{dotted}'")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown override path '{dotted}'")
        node[parts[-1]] = value
    return resolve_config(data)
