"""Test-side helpers for the switching tests.

The object-per-state load movers are kept here as references. The program
once moved load one switch-off at a time through a new `NetworkLoadState` and
summed the power of the final state; `power.total_power` evaluates a whole
decision instead. The solver oracles in `test_kernel_oracles.py` still walk
states this way, and `test_switching.py` unit-tests the movers they use.
`evaluate` prices a solver's `SwitchVector` with `total_power`.
"""

from vhetsim.errors import InconsistentStateError
from vhetsim.power import NetworkLoadState, snap_load, total_power
from vhetsim.switching import HAPS, MBS


def evaluate(net, sv, loads: NetworkLoadState):
    """total_power of a SwitchVector's decision on `loads`: (power_w, haps_load, mbs_load)."""
    targets = dict(sv.offload_target)
    return total_power(net, [bit == 0 for bit in sv.delta], [targets.get(j) == HAPS for j in range(len(sv.delta))],
                       loads.lambda_sbs, loads.lambda_haps, loads.lambda_mbs)


class InfeasibleTransition(Exception):
    """A switch-off would push a sink load factor above 1."""


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
        raise InfeasibleTransition(f"offloading SBS {j} to {target} would add {raw_moved:.6f} > 1 of sink load")
    sink = _sink_load(loads, target) + snap_load(raw_moved)
    if sink > 1.0:
        raise InfeasibleTransition(f"offloading SBS {j} to {target} would raise its load to {sink:.6f} > 1")
    sbs = list(loads.lambda_sbs)
    sbs[j] = 0.0
    return _with_sink(NetworkLoadState(loads.lambda_haps, loads.lambda_mbs, tuple(sbs)), target, sink)


def apply_switch_on(loads: NetworkLoadState, j: int, new_lambda_j: float, target: str, phi: float) -> NetworkLoadState:
    """Inverse of apply_switch_off: lambda_k -= phi * new_lambda_j, lambda_j = new_lambda_j."""
    new_lambda_j = snap_load(new_lambda_j)
    raw_moved = phi * new_lambda_j
    if raw_moved > 1.0:
        raise InconsistentStateError(f"waking SBS {j} would remove {raw_moved:.6f} > 1 of sink load")
    sink = _sink_load(loads, target) - snap_load(raw_moved)
    if sink < 0.0:
        raise InconsistentStateError(f"waking SBS {j} would drive the {target} load to {sink:.6f} < 0")
    sbs = list(loads.lambda_sbs)
    sbs[j] = new_lambda_j
    return _with_sink(NetworkLoadState(loads.lambda_haps, loads.lambda_mbs, tuple(sbs)), target, sink)


def state_power(net, switch, loads: NetworkLoadState) -> float:
    """Network power of a state whose sleepers carry no load: HAPS and MBS on the
    active-branch line, then each SBS's line or its sleep power, in that order."""
    def line(params, load):
        return params.operational_w + params.amplifier_eff * load * params.transmit_w

    power = line(net.haps.power, loads.lambda_haps)
    power += line(net.mbs.power, loads.lambda_mbs)
    for station, bit, lam in zip(net.sbs, switch.delta, loads.lambda_sbs):
        power += line(station.power, lam) if bit else station.power.sleep_w
    return power
