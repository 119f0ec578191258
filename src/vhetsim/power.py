"""EARTH-style power model for single stations and the whole network.

An active station draws P_o + eta * load * P_t watts; a sleeping one draws
P_s. The macro and the high-altitude platform are always active, so the
network total is their active-branch power plus a per-SBS term switched by
the on/off bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InconsistentStateError

# Load factors are snapped to multiples of 2^-50 (~8.9e-16). On that grid the
# offload add/subtract arithmetic in `switching` is exact in double precision,
# which makes switch-off/switch-on true inverses bit for bit.
_LOAD_SCALE = 2.0 ** 50


def snap_load(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"load factor {value} outside [0, 1]")
    return round(value * _LOAD_SCALE) / _LOAD_SCALE


class Tier(str, Enum):
    SBS = "SBS"
    MBS = "MBS"
    HAPS = "HAPS"


@dataclass(frozen=True)
class PowerParams:
    """EARTH model coefficients for one station."""

    operational_w: float
    amplifier_eff: float
    transmit_w: float
    sleep_w: float

    def __post_init__(self):
        if self.sleep_w < 0:
            raise ValueError("sleep power must be >= 0")
        if self.operational_w <= self.sleep_w:
            raise ValueError("operational power must exceed sleep power")
        if self.transmit_w <= 0 or self.amplifier_eff <= 0:
            raise ValueError("transmit power and amplifier efficiency must be > 0")


@dataclass(frozen=True)
class BaseStation:
    id: str
    tier: Tier
    position: tuple[float, float]
    capacity: float
    power: PowerParams

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be > 0")


@dataclass(frozen=True)
class Network:
    """One macro cell: a HAPS super-macro, one MBS and the sleep-eligible SBSs."""

    haps: BaseStation
    mbs: BaseStation
    sbs: tuple[BaseStation, ...]

    def __post_init__(self):
        if self.haps.tier is not Tier.HAPS or self.mbs.tier is not Tier.MBS:
            raise ValueError("network requires exactly one HAPS and one MBS")
        if any(b.tier is not Tier.SBS for b in self.sbs):
            raise ValueError("sbs entries must be SBS tier")


@dataclass(frozen=True)
class NetworkLoadState:
    """Per-station load factors; all entries in [0, 1] (snapped to the grid)."""

    lambda_haps: float
    lambda_mbs: float
    lambda_sbs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda_haps", snap_load(self.lambda_haps))
        object.__setattr__(self, "lambda_mbs", snap_load(self.lambda_mbs))
        object.__setattr__(self, "lambda_sbs", tuple(snap_load(v) for v in self.lambda_sbs))


def bs_power(params: PowerParams, load: float, active) -> float:
    """Instantaneous draw of one station: active branch or sleep power."""
    if not 0.0 <= load <= 1.0:
        raise ValueError(f"load factor {load} outside [0, 1]")
    if active:
        return params.operational_w + params.amplifier_eff * load * params.transmit_w
    if load != 0.0:
        raise InconsistentStateError("sleeping station must carry zero load")
    return params.sleep_w


def total_power(net: Network, switch, loads: NetworkLoadState) -> float:
    """Network total: always-active HAPS and MBS plus the switched SBS terms."""
    if len(switch.delta) != len(net.sbs) or len(loads.lambda_sbs) != len(net.sbs):
        raise InconsistentStateError("switch vector / load state length mismatch")
    p = bs_power(net.haps.power, loads.lambda_haps, True)
    p += bs_power(net.mbs.power, loads.lambda_mbs, True)
    for station, bit, lam in zip(net.sbs, switch.delta, loads.lambda_sbs):
        p += bs_power(station.power, lam, bit)
    return p

