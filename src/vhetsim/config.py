"""Experiment configuration: YAML schema, validation and defaults.

Shipped power defaults are EARTH-style placeholders chosen to satisfy the
model invariants (operational above sleep power, macro/HAPS transmit power
above SBS transmit power); they are not measured values.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, asdict, fields
from numbers import Integral, Real
from typing import NamedTuple

import yaml

from .errors import ConfigError
from .estimate import METHODS, EstimatorSpec
from .ingest import SLOTS_PER_DAY, SynthParams, DEFAULT_CELL_SIZE_M
from .power import PowerParams
from .switching import DEFAULT_EXHAUSTIVE_LIMIT

# libyaml where PyYAML was built with it: the same documents, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

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


@dataclass(frozen=True)
class ExperimentConfig:
    sbs_count: int
    estimator: EstimatorSpec
    dataset: str | None = None
    synth: SynthParams | None = None
    iteration_count: int = 300
    slot_count: int = SLOTS_PER_DAY
    power: dict = field(default_factory=lambda: {t: PowerParams(**p) for t, p in DEFAULT_POWER.items()})
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

    def __post_init__(self):
        if self.dataset is None and self.synth is None:
            raise ConfigError("either 'dataset' or 'synth' is required")
        if self.optimizer == "exhaustive" and self.sbs_count > self.exhaustive_limit:
            raise ConfigError(f"optimizer 'exhaustive' enumerates 3^sbs_count decisions: sbs_count "
                              f"{self.sbs_count} is above exhaustive_limit {self.exhaustive_limit}")

    def to_yaml(self) -> str:
        """Canonical serialization; byte-stable for a fixed resolved config."""
        return yaml.dump(asdict(self), Dumper=_DUMPER, sort_keys=True, default_flow_style=False)


# Each check takes a value and its dotted key, and returns the value to store or raises
# ConfigError("<key> must be <what>, got <value>"). A real's bound is keyed by its <what>.
_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
           "in [0, 1]": lambda v: 0 <= v <= 1, "in (0, 1)": lambda v: 0 < v < 1}


def _fail(key: str, what: str, value):
    raise ConfigError(f"{key} must be {what}, got {value!r}")


def _integer(low: int | None = None, high: int | None = None, words=(), what: str = "an integer"):
    """An int in [low, high], or one of `words`; refuses booleans, strings and fractions."""
    def check(value, key):
        if value in words:
            return value
        if isinstance(value, bool) or not (isinstance(value, Integral)
                                           or isinstance(value, float) and value.is_integer()):
            _fail(key, what, value)
        if low is not None and value < low or high is not None and value > high:
            _fail(key, f">= {low}" if high is None else f"in [{low}, {high}]", value)
        return int(value)
    return check


def _real(bound: str | None = None, cast=None):
    """A finite real within `bound`, stored as given unless `cast`; booleans and strings are refused."""
    def check(value, key):
        if isinstance(value, bool) or not isinstance(value, Real):
            _fail(key, "a number", value)
        if not abs(value) <= sys.float_info.max:
            _fail(key, "finite", value)
        if bound and not _BOUNDS[bound](value):
            _fail(key, bound, value)
        return value if cast is None else cast(value)
    return check


def _choice(*options: str):
    def check(value, key):
        if value not in options:
            _fail(key, f"one of {options}", value)
        return value
    return check


def _path(value, key):
    if not isinstance(value, str):
        _fail(key, "a path", value)
    return value


def _profile(value, key):
    if not isinstance(value, (list, tuple)):
        _fail(key, "a list of numbers", value)
    finite = _real(cast=float)
    return tuple(finite(v, f"{key}[{i}]") for i, v in enumerate(value))


class _Section(NamedTuple):
    """Keys checked by `table`, filled from `defaults`, built by `owner` with its cross-field rules."""
    table: dict
    defaults: dict
    owner: type = dict


def _owned(owner: type, table: dict) -> _Section:
    return _Section(table, {f.name: f.default for f in fields(owner) if f.default is not MISSING}, owner)


_ROOT = _owned(ExperimentConfig, {
    "sbs_count": _integer(1),
    "estimator": _owned(EstimatorSpec, {
        "method": _choice(*METHODS),
        "neighbor_count": _integer(1),
        "distance_exponent": _real("> 0"),
        "cluster_count": _integer(1, words=("elbow",), what="'elbow' or an integer >= 1"),
        "layer_count": _integer(1),
        "seed": _integer(0),
    }),
    "dataset": _path,
    "synth": _owned(SynthParams, {
        "grid_side": _integer(2),
        "spatial_correlation_length": _real("> 0"),
        "noise_std": _real(">= 0"),
        "seed": _integer(0),
        "temporal_profile": _profile,
        "cell_size_m": _real("> 0"),
    }),
    "iteration_count": _integer(1),
    "slot_count": _integer(1, SLOTS_PER_DAY),
    "power": _Section({tier: _Section({"operational_w": _real(), "amplifier_eff": _real("> 0"),
                                       "transmit_w": _real("> 0"), "sleep_w": _real(">= 0")},
                                      defaults, PowerParams)
                       for tier, defaults in DEFAULT_POWER.items()}, {}),
    "capacity": _Section({tier: _real("> 0") for tier in DEFAULT_CAPACITY}, DEFAULT_CAPACITY),
    "base_load": _Section({tier: _real("in [0, 1]") for tier in DEFAULT_BASE_LOAD}, DEFAULT_BASE_LOAD),
    "lambda_th": _real("in (0, 1)", float),
    "optimizer": _choice("greedy", "exhaustive"),
    "offload_sinks": _choice("HAPS_only", "MBS_and_HAPS"),
    "exhaustive_limit": _integer(),
    "grid_side": _integer(),
    "cell_size_m": _real("> 0", float),
    "cluster_features": _choice("scalar", "profile"),
    "seed": _integer(0),
})


def resolve_config(raw, section: _Section = _ROOT, name: str = ""):
    """Check `raw` key by key against `section`, the whole config by default. An absent key takes
    the default of the field that owns it; a key without one is required, and one whose default is
    None (`dataset`, `synth`, `synth.temporal_profile`) may be null, as may a section, which then
    takes its defaults. A bad, unknown or missing key raises ConfigError naming it."""
    given = {} if raw is None else raw
    if not isinstance(given, dict):
        raise ConfigError(f"section '{name}' must be a mapping" if name else "config root must be a mapping")
    prefix = f"{name}." if name else ""
    unknown = given.keys() - section.table.keys()
    if unknown:
        raise ConfigError(f"unknown key '{prefix}{min(unknown, key=str)}'")
    resolved = {}
    for key, check in section.table.items():
        default = section.defaults.get(key)
        value = given.get(key, default)
        if value is None and default is None and key in section.defaults:
            resolved[key] = None
        elif isinstance(check, _Section):
            resolved[key] = resolve_config(value, check, prefix + key)
        elif value is None and default is None:
            raise ConfigError(f"missing required key '{prefix}{key}'")
        else:
            resolved[key] = check(value, prefix + key)
    try:
        return section.owner(**resolved)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return resolve_config(raw)


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Re-resolve the config with dotted-path overrides (e.g. estimator.n...)."""
    data = asdict(config)
    for dotted, value in overrides.items():
        node = data
        *parents, last = dotted.split(".")
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or last not in node:
            raise ConfigError(f"unknown override path '{dotted}'")
        node[last] = value
    return resolve_config(data)
