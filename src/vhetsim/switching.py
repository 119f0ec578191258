"""The switching decision and the P1 solvers.

A decision sleeps some SBSs and sends each sleeper's load, scaled by the
relative capacity phi = C_sbs / C_sink, to the MBS or the HAPS. It is held in
`power.total_power`'s own terms, so `total_power(net, *decision, ...)` prices
it on any loads. Two solvers minimize that power over the decisions that keep
both sinks at or below 1: an exhaustive enumerator (oracle, small networks)
and a greedy pass that sleeps stations in ascending load order. Each returns
(decision, (haps_load, mbs_load), power_w), all three from one `total_power`
call on the loads it was given.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .power import Network, NetworkLoadState, bs_power, moved_load, total_power

MBS = "MBS"
HAPS = "HAPS"
DEFAULT_EXHAUSTIVE_LIMIT = 14


class Decision(NamedTuple):
    """Which SBSs sleep, and which of the sleepers move their load to the HAPS
    rather than the MBS. to_haps[j] is False for an SBS that is on, so equal
    decisions compare equal."""

    asleep: tuple[bool, ...]
    to_haps: tuple[bool, ...]

    @property
    def delta(self) -> tuple[int, ...]:
        """The on/off bits: 1 for an SBS that is on, 0 for a sleeper."""
        return tuple(int(not off) for off in self.asleep)


def _offload_table(net: Network, loads: NetworkLoadState, sinks) -> list[tuple]:
    """The offload options of each SBS: one (sink, moved, change) per sink, in tag order.

    `moved` is the snapped load the sink takes on when SBS j sleeps, and
    `change` the power that saves or costs: eta_k * P_t,k * moved + P_sleep
    - P_active. A sink that SBS j alone would overload is left out.
    """
    stations = {HAPS: net.haps, MBS: net.mbs}
    if not set(sinks) <= stations.keys():
        raise ValueError(f"offload target must be {MBS} or {HAPS}")
    sink_order = [(target, sink, sink.power.amplifier_eff * sink.power.transmit_w)
                  for target, sink in sorted(stations.items()) if target in sinks]
    table = []
    for station, lam in zip(net.sbs, loads.lambda_sbs):
        active = bs_power(station.power, lam, True)
        options = []
        for target, sink, eta_pt in sink_order:
            try:
                moved = moved_load(station, sink, lam)
            except ValueError:
                continue
            options.append((target, moved, eta_pt * moved + station.power.sleep_w - active))
        table.append(tuple(options))
    return table


def _solution(net: Network, loads: NetworkLoadState, chosen: dict):
    """(Decision, (haps_load, mbs_load), power) of sleeping SBS j on sink chosen[j]."""
    targets = [chosen.get(j) for j in range(len(net.sbs))]  # a sink tag marks a sleeper, None an SBS on
    decision = Decision(tuple(t is not None for t in targets), tuple(t == HAPS for t in targets))
    power, haps_load, mbs_load = total_power(net, *decision, loads.lambda_sbs, loads.lambda_haps, loads.lambda_mbs)
    return decision, (haps_load, mbs_load), power


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

    Returns (Decision, (haps_load, mbs_load), power in watts). The all-on
    configuration is always feasible, so a result always exists.

    The enumeration adds up the offload table's plain floats (the load grid
    makes the sink arithmetic exact) and only materializes the winning
    configuration, keeping the 3^s scan cheap.
    """
    s = len(net.sbs)
    if s > limit:
        raise ValueError(f"exhaustive search refused for s={s} > limit {limit}")
    table = _offload_table(net, loads, sinks)
    all_on_power = total_power(net, (False,) * s, (False,) * s, loads.lambda_sbs,
                               loads.lambda_haps, loads.lambda_mbs)[0]
    best = best_key = None
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
                    best, best_key = {j: target for j, (target, _, _) in zip(sleepers, options)}, key
    return _solution(net, loads, best)


def optimize_greedy(net: Network, loads: NetworkLoadState, sinks: tuple[str, ...] = (HAPS, MBS)):
    """Sleep SBSs in ascending-load order whenever it strictly lowers power.

    Each SBS goes to the sink with the lowest power change that still has
    room, the first in tag order on a tie. Returns (Decision, (haps_load,
    mbs_load), power in watts); never worse than the all-on configuration.
    """
    table = _offload_table(net, loads, sinks)
    sink_load = {HAPS: loads.lambda_haps, MBS: loads.lambda_mbs}
    chosen = {}
    # a stable sort: equal loads keep index order
    for j in sorted(range(len(net.sbs)), key=loads.lambda_sbs.__getitem__):
        best = None
        for option in table[j]:
            target, moved, change = option
            if sink_load[target] + moved <= 1.0 and (best is None or change < best[2]):
                best = option
        if best is not None and best[2] < 0.0:
            chosen[j] = best[0]
            sink_load[best[0]] += best[1]
    return _solution(net, loads, chosen)
