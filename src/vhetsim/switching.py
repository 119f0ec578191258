"""Switch-state representation, offload dynamics and the P1 solvers.

Sleeping an SBS moves its load-factor, scaled by the relative capacity
phi = C_sbs / C_sink, onto the MBS or the HAPS; waking it moves the load
back. Two solvers minimize total network power over the on/off vector:
an exhaustive enumerator (oracle, small networks) and a greedy pass that
sleeps stations in ascending load order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InconsistentStateError, InfeasibleTransitionError
from .power import Network, NetworkLoadState, bs_power, snap_load, total_power

MBS = "MBS"
HAPS = "HAPS"
DEFAULT_EXHAUSTIVE_LIMIT = 14


@dataclass(frozen=True)
class SwitchVector:
    """On/off bits per SBS plus the offload sink chosen for each sleeper."""

    delta: tuple[int, ...]
    offload_target: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self):
        if any(bit not in (0, 1) for bit in self.delta):
            raise ValueError("delta bits must be 0 or 1")
        targets = dict(self.offload_target)
        sleepers = {j for j, bit in enumerate(self.delta) if bit == 0}
        if set(targets) != sleepers:
            raise ValueError("offload targets must be given exactly for sleeping SBSs")
        if any(t not in (MBS, HAPS) for t in targets.values()):
            raise ValueError(f"offload target must be {MBS} or {HAPS}")
        object.__setattr__(self, "offload_target", tuple(sorted(targets.items())))

    @classmethod
    def all_on(cls, s: int) -> "SwitchVector":
        return cls(delta=(1,) * s)


def relative_capacity(sbs, sink) -> float:
    """phi = C_sbs / C_sink: SBS load-factor units per sink load-factor unit."""
    if sbs.capacity <= 0 or sink.capacity <= 0:
        raise ValueError("capacities must be > 0")
    return sbs.capacity / sink.capacity


def _with_sink(loads: NetworkLoadState, target: str, new_value: float) -> NetworkLoadState:
    if target == HAPS:
        return NetworkLoadState(new_value, loads.lambda_mbs, loads.lambda_sbs)
    if target == MBS:
        return NetworkLoadState(loads.lambda_haps, new_value, loads.lambda_sbs)
    raise ValueError(f"unknown offload target {target!r}")


def _sink_load(loads: NetworkLoadState, target: str) -> float:
    return loads.lambda_haps if target == HAPS else loads.lambda_mbs


def apply_switch_off(loads: NetworkLoadState, j: int, target: str, phi: float) -> NetworkLoadState:
    """Move SBS j's load onto the sink: lambda_k += phi * lambda_j, lambda_j = 0."""
    raw_moved = phi * loads.lambda_sbs[j]
    if raw_moved > 1.0:
        raise InfeasibleTransitionError(
            f"offloading SBS {j} to {target} would add {raw_moved:.6f} > 1 of sink load"
        )
    moved = snap_load(raw_moved)
    sink = _sink_load(loads, target) + moved
    if sink > 1.0:
        raise InfeasibleTransitionError(
            f"offloading SBS {j} to {target} would raise its load to {sink:.6f} > 1"
        )
    sbs = list(loads.lambda_sbs)
    sbs[j] = 0.0
    return _with_sink(NetworkLoadState(loads.lambda_haps, loads.lambda_mbs, tuple(sbs)), target, sink)


def apply_switch_on(loads: NetworkLoadState, j: int, new_lambda_j: float, target: str, phi: float) -> NetworkLoadState:
    """Inverse of apply_switch_off: lambda_k -= phi * new_lambda_j, lambda_j = new_lambda_j."""
    new_lambda_j = snap_load(new_lambda_j)
    raw_moved = phi * new_lambda_j
    if raw_moved > 1.0:
        raise InconsistentStateError(
            f"waking SBS {j} would remove {raw_moved:.6f} > 1 of sink load"
        )
    moved = snap_load(raw_moved)
    sink = _sink_load(loads, target) - moved
    if sink < 0.0:
        raise InconsistentStateError(
            f"waking SBS {j} would drive the {target} load to {sink:.6f} < 0"
        )
    sbs = list(loads.lambda_sbs)
    sbs[j] = new_lambda_j
    return _with_sink(NetworkLoadState(loads.lambda_haps, loads.lambda_mbs, tuple(sbs)), target, sink)


def _offload_table(net: Network, loads: NetworkLoadState, sinks) -> list[tuple]:
    """The offload options of each SBS: one (sink, moved, change) per sink, in tag order.

    `moved` is the snapped load the sink takes on when SBS j sleeps, and
    `change` the power that saves or costs: eta_k * P_t,k * moved + P_sleep
    - P_active. A sink that SBS j alone would overload is left out.
    """
    sink_order = sorted(set(sinks))
    if any(target not in (MBS, HAPS) for target in sink_order):
        raise ValueError(f"offload target must be {MBS} or {HAPS}")
    table = []
    for station, lam in zip(net.sbs, loads.lambda_sbs):
        active = bs_power(station.power, lam, True)
        options = []
        for target in sink_order:
            sink = net.haps if target == HAPS else net.mbs
            raw = relative_capacity(station, sink) * lam
            if raw <= 1.0:
                moved = snap_load(raw)
                eta_pt = sink.power.amplifier_eff * sink.power.transmit_w
                options.append((target, moved, eta_pt * moved + station.power.sleep_w - active))
        table.append(tuple(options))
    return table


def _solution(net: Network, loads: NetworkLoadState, chosen: dict):
    """(SwitchVector, NetworkLoadState, power) of sleeping SBS j on chosen[j] = (sink, moved, change)."""
    sink_load = {HAPS: loads.lambda_haps, MBS: loads.lambda_mbs}
    sbs = list(loads.lambda_sbs)
    for j, (target, moved, _) in chosen.items():
        sink_load[target] += moved
        sbs[j] = 0.0
    sv = SwitchVector(tuple(int(j not in chosen) for j in range(len(sbs))),
                      tuple((j, target) for j, (target, _, _) in chosen.items()))
    state = NetworkLoadState(sink_load[HAPS], sink_load[MBS], tuple(sbs))
    return sv, state, total_power(net, sv, state)


def _candidate_key(power: float, delta: tuple[int, ...], targets):
    # Tie-break: lowest power, then most SBSs on, then the vector whose first
    # differing bit is ON, then alphabetical sink tags.
    return (power, len(delta) - sum(delta), tuple(1 - b for b in delta), tuple(targets))


def optimize_exhaustive(
    net: Network,
    loads: NetworkLoadState,
    sinks: tuple[str, ...] = (HAPS, MBS),
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
):
    """Enumerate every on/off vector and sink assignment; return the best.

    Returns (SwitchVector, final NetworkLoadState, power in watts). The all-on
    configuration is always feasible, so a result always exists.

    The enumeration adds up the offload table's plain floats (the load grid
    makes the sink arithmetic exact) and only materializes the winning
    configuration, keeping the 3^s scan cheap.
    """
    s = len(net.sbs)
    if s > limit:
        raise ValueError(f"exhaustive search refused for s={s} > limit {limit}")
    table = _offload_table(net, loads, sinks)
    all_on_power = total_power(net, SwitchVector.all_on(s), loads)
    best = None
    best_key = None
    for delta in itertools.product((1, 0), repeat=s):
        sleepers = [j for j, bit in enumerate(delta) if bit == 0]
        for options in itertools.product(*(table[j] for j in sleepers)):
            lam_h, lam_m = loads.lambda_haps, loads.lambda_mbs
            power = all_on_power
            for target, moved, change in options:
                if target == HAPS:
                    lam_h += moved
                    if lam_h > 1.0:
                        break
                else:
                    lam_m += moved
                    if lam_m > 1.0:
                        break
                power += change
            else:
                key = _candidate_key(power, delta, [target for target, _, _ in options])
                if best_key is None or key < best_key:
                    best, best_key = dict(zip(sleepers, options)), key
    return _solution(net, loads, best)


def optimize_greedy(net: Network, loads: NetworkLoadState, sinks: tuple[str, ...] = (HAPS, MBS)):
    """Sleep SBSs in ascending-load order whenever it strictly lowers power.

    Each SBS goes to the sink with the lowest power change that still has
    room, the first in tag order on a tie. Returns (SwitchVector, final
    NetworkLoadState, power in watts); never worse than the all-on
    configuration.
    """
    table = _offload_table(net, loads, sinks)
    sink_load = {HAPS: loads.lambda_haps, MBS: loads.lambda_mbs}
    chosen = {}
    for j in sorted(range(len(net.sbs)), key=lambda j: (loads.lambda_sbs[j], j)):
        best = None
        for option in table[j]:
            target, moved, change = option
            if sink_load[target] + moved <= 1.0 and (best is None or change < best[2]):
                best = option
        if best is not None and best[2] < 0.0:
            chosen[j] = best
            sink_load[best[0]] += best[1]
    return _solution(net, loads, chosen)
