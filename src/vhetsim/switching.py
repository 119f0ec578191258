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


def _sleep_set_state(net: Network, loads: NetworkLoadState, sleepers, targets):
    """Apply a batch of switch-offs; None if any sink constraint is violated."""
    state = loads
    try:
        for j, target in zip(sleepers, targets):
            phi = relative_capacity(net.sbs[j], net.haps if target == HAPS else net.mbs)
            state = apply_switch_off(state, j, target, phi)
    except InfeasibleTransitionError:
        return None
    return state


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

    The enumeration tracks sink loads and power increments as plain floats
    (the load grid makes the sink arithmetic exact) and only materializes the
    winning configuration, keeping the 3^s scan cheap.
    """
    s = len(net.sbs)
    if s > limit:
        raise ValueError(f"exhaustive search refused for s={s} > limit {limit}")
    sink_order = tuple(sorted(sinks))
    # per (sbs, sink): snapped load moved on switch-off, None if alone infeasible
    moved = {}
    for j, station in enumerate(net.sbs):
        for target in sink_order:
            sink_bs = net.haps if target == HAPS else net.mbs
            raw = relative_capacity(station, sink_bs) * loads.lambda_sbs[j]
            moved[j, target] = snap_load(raw) if raw <= 1.0 else None
    active_power = [bs_power(b.power, lam, True)
                    for b, lam in zip(net.sbs, loads.lambda_sbs)]
    all_on_power = total_power(net, SwitchVector.all_on(s), loads)
    eta_pt = {HAPS: net.haps.power.amplifier_eff * net.haps.power.transmit_w,
              MBS: net.mbs.power.amplifier_eff * net.mbs.power.transmit_w}

    best = None
    best_key = None
    for delta in itertools.product((1, 0), repeat=s):
        sleepers = [j for j, bit in enumerate(delta) if bit == 0]
        for targets in itertools.product(sink_order, repeat=len(sleepers)):
            lam_h, lam_m = loads.lambda_haps, loads.lambda_mbs
            power = all_on_power
            feasible = True
            for j, target in zip(sleepers, targets):
                m = moved[j, target]
                if m is None:
                    feasible = False
                    break
                if target == HAPS:
                    lam_h += m
                    if lam_h > 1.0:
                        feasible = False
                        break
                else:
                    lam_m += m
                    if lam_m > 1.0:
                        feasible = False
                        break
                power += eta_pt[target] * m + net.sbs[j].power.sleep_w - active_power[j]
            if not feasible:
                continue
            key = _candidate_key(power, delta, targets)
            if best_key is None or key < best_key:
                best, best_key = (delta, tuple(zip(sleepers, targets))), key
    delta, assignment = best
    sv = SwitchVector(delta, assignment)
    state = _sleep_set_state(net, loads, [j for j, _ in assignment],
                             [t for _, t in assignment])
    return sv, state, total_power(net, sv, state)


def optimize_greedy(net: Network, loads: NetworkLoadState, sinks: tuple[str, ...] = (HAPS, MBS)):
    """Sleep SBSs in ascending-load order whenever it strictly lowers power.

    Returns (SwitchVector, final NetworkLoadState, power in watts); never worse
    than the all-on configuration.
    """
    s = len(net.sbs)
    delta = [1] * s
    targets: dict[int, str] = {}
    state = loads
    current = total_power(net, SwitchVector.all_on(s), state)
    order = sorted(range(s), key=lambda j: (loads.lambda_sbs[j], j))
    for j in order:
        best_choice = None
        for target in sorted(sinks):
            phi = relative_capacity(net.sbs[j], net.haps if target == HAPS else net.mbs)
            try:
                candidate = apply_switch_off(state, j, target, phi)
            except InfeasibleTransitionError:
                continue
            trial_delta = tuple(0 if k == j else delta[k] for k in range(s))
            trial_targets = tuple({**targets, j: target}.items())
            power = total_power(net, SwitchVector(trial_delta, trial_targets), candidate)
            if best_choice is None or power < best_choice[0]:
                best_choice = (power, target, candidate)
        if best_choice is not None and best_choice[0] < current:
            current, targets[j], state = best_choice[0], best_choice[1], best_choice[2]
            delta[j] = 0
    return SwitchVector(tuple(delta), tuple(targets.items())), state, current
