"""EARTH-style power model for single stations and the whole network.

An active station draws P_o + eta * load * P_t watts; a sleeping one draws
P_s. The macro and the high-altitude platform are always active. A sleeping
SBS moves its load, scaled by phi = C_sbs / C_sink and snapped to the load
grid, onto one of them. `total_power` evaluates any switching decision on any
loads that way; it does not bound the sink loads, so a sink above 1 draws
the active-branch line. Keeping sinks at or below 1 is the solvers' job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InconsistentStateError

# Load factors are snapped to multiples of 2^-50 (~8.9e-16). On that grid the
# sink arithmetic (sums below 8 of moved loads) is exact in double precision:
# the order of the moves does not matter, and subtracting them restores the
# base load bit for bit.
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
    """Instantaneous draw of one station: the active-branch line at `load`,
    unbounded, or the sleep power, whose load has moved to a sink."""
    return params.operational_w + params.amplifier_eff * load * params.transmit_w if active else params.sleep_w


def moved_load(sbs: BaseStation, sink: BaseStation, lam: float) -> float:
    """snap(C_sbs / C_sink * lam): the load an SBS at load factor `lam` adds to
    `sink` when it sleeps. ValueError when that is more than one whole sink."""
    return snap_load(sbs.capacity / sink.capacity * lam)


def total_power(net: Network, asleep, to_haps, lambda_sbs, lambda_haps: float, lambda_mbs: float):
    """Network power of a switching decision on the given loads: (power_w,
    haps_load, mbs_load).

    SBS j sleeps where asleep[j] and moves its `moved_load` onto the HAPS
    where to_haps[j], else onto the MBS; to_haps is read for sleepers only.
    The sink loads are not bounded. Power adds up HAPS, MBS, then SBS 0..s-1.
    """
    if not len(asleep) == len(to_haps) == len(lambda_sbs) == len(net.sbs):
        raise InconsistentStateError("decision / load state length mismatch")
    haps, mbs = net.haps, net.mbs
    haps_load, mbs_load = lambda_haps, lambda_mbs
    for station, off, to_h, lam in zip(net.sbs, asleep, to_haps, lambda_sbs):
        if off and to_h:
            haps_load += moved_load(station, haps, lam)
        elif off:
            mbs_load += moved_load(station, mbs, lam)
    power = bs_power(haps.power, haps_load, True)
    power += bs_power(mbs.power, mbs_load, True)
    for station, off, lam in zip(net.sbs, asleep, lambda_sbs):
        power += bs_power(station.power, lam, not off)
    return power, haps_load, mbs_load
