import math
import random

import pytest

from vhetsim.errors import InconsistentStateError
from vhetsim.power import BaseStation, Network, NetworkLoadState, PowerParams, Tier, moved_load, snap_load, total_power
from vhetsim.switching import HAPS, MBS, SwitchVector, optimize_exhaustive, optimize_greedy

from switch_helpers import InfeasibleTransition, apply_switch_off, apply_switch_on, evaluate

SBS_P = PowerParams(operational_w=56.0, amplifier_eff=2.6, transmit_w=6.3, sleep_w=6.0)
MBS_P = PowerParams(operational_w=130.0, amplifier_eff=4.7, transmit_w=20.0, sleep_w=75.0)
HAPS_P = PowerParams(operational_w=180.0, amplifier_eff=4.0, transmit_w=120.0, sleep_w=100.0)


def make_net(n_sbs, c_sbs=10.0, c_mbs=50.0, c_haps=50.0):
    haps = BaseStation("haps", Tier.HAPS, (0.0, 0.0), c_haps, HAPS_P)
    mbs = BaseStation("mbs", Tier.MBS, (0.0, 0.0), c_mbs, MBS_P)
    sbs = tuple(BaseStation(f"sbs-{i}", Tier.SBS, (float(i), 0.0), c_sbs, SBS_P)
                for i in range(n_sbs))
    return Network(haps, mbs, sbs)


def carried_traffic(loads, net) -> float:
    """Total carried traffic sum(C * lambda) over all stations."""
    return (loads.lambda_haps * net.haps.capacity + loads.lambda_mbs * net.mbs.capacity
            + math.fsum(l * b.capacity for l, b in zip(loads.lambda_sbs, net.sbs)))


class TestSwitchVector:
    def test_all_on(self):
        sv = SwitchVector.all_on(3)
        assert sv.delta == (1, 1, 1) and sv.offload_target == ()

    def test_targets_must_cover_sleepers(self):
        with pytest.raises(ValueError):
            SwitchVector((1, 0))
        with pytest.raises(ValueError):
            SwitchVector((1, 1), ((0, HAPS),))

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            SwitchVector((1, 2), ((1, HAPS),))

    def test_bad_target_tag(self):
        with pytest.raises(ValueError):
            SwitchVector((0,), ((0, "SAT"),))

    def test_target_for(self):
        sv = SwitchVector((0, 1, 0), ((2, MBS), (0, HAPS)))
        assert sv.offload_target == ((0, HAPS), (2, MBS))


class TestRelativeCapacity:
    """moved_load scales an SBS's load by phi = C_sbs / C_sink and snaps it."""

    def test_equal(self):
        net = make_net(1, c_sbs=50.0)
        assert moved_load(net.sbs[0], net.haps, 0.3) == snap_load(0.3)

    def test_hand_ratio(self):
        net = make_net(1, c_sbs=10.0, c_haps=200.0)
        assert moved_load(net.sbs[0], net.haps, 1.0) == snap_load(0.05)
        with pytest.raises(ValueError):
            moved_load(net.haps, net.sbs[0], 0.1)  # two whole sinks


class TestApplySwitchOff:
    """The test-side reference mover that the solver oracles walk states with."""

    def test_zero_load_noop(self):
        loads = NetworkLoadState(0.3, 0.2, (0.0,))
        out = apply_switch_off(loads, 0, HAPS, 0.05)
        assert out == loads

    def test_hand_transfer(self):
        loads = NetworkLoadState(0.3, 0.0, (0.4,))
        out = apply_switch_off(loads, 0, HAPS, 0.05)
        assert out.lambda_haps == pytest.approx(0.32)
        assert out.lambda_sbs[0] == 0.0

    def test_sink_overflow_rejected(self):
        loads = NetworkLoadState(0.99, 0.0, (0.4,))
        with pytest.raises(InfeasibleTransition):
            apply_switch_off(loads, 0, HAPS, 0.05)

    def test_mbs_sink(self):
        loads = NetworkLoadState(0.0, 0.5, (0.2,))
        out = apply_switch_off(loads, 0, MBS, 0.1)
        assert out.lambda_mbs == pytest.approx(0.52)
        assert out.lambda_haps == 0.0


class TestApplySwitchOn:
    def test_zero_load_noop(self):
        loads = NetworkLoadState(0.3, 0.2, (0.0,))
        assert apply_switch_on(loads, 0, 0.0, HAPS, 0.05) == loads

    def test_hand_inverse(self):
        loads = NetworkLoadState(0.32, 0.0, (0.0,))
        out = apply_switch_on(loads, 0, 0.4, HAPS, 0.05)
        assert out.lambda_haps == pytest.approx(0.30)
        assert out.lambda_sbs[0] == pytest.approx(0.4)

    def test_negative_sink_rejected(self):
        loads = NetworkLoadState(0.01, 0.0, (0.0,))
        with pytest.raises(InconsistentStateError):
            apply_switch_on(loads, 0, 0.9, HAPS, 0.5)

    def test_round_trip_exact(self):
        rng = random.Random(42)
        for _ in range(2000):
            lam_j = rng.random()
            lam_h = rng.random() * 0.5
            phi = rng.choice([0.05, 0.1, 0.2, 0.5])
            loads = NetworkLoadState(lam_h, 0.0, (lam_j,))
            try:
                off = apply_switch_off(loads, 0, HAPS, phi)
            except InfeasibleTransition:
                continue
            back = apply_switch_on(off, 0, loads.lambda_sbs[0], HAPS, phi)
            assert back == loads  # bitwise, not approx


class TestConservation:
    def test_carried_traffic_constant(self):
        # total_power's sink loads carry the sleepers' traffic, above 1 or not
        rng = random.Random(7)
        net = make_net(6)
        for _ in range(300):
            loads = NetworkLoadState(rng.random() * 0.3, rng.random() * 0.3,
                                     tuple(rng.random() for _ in range(6)))
            asleep, to_haps = [False] * 6, [False] * 6
            for j in rng.sample(range(6), 3):
                asleep[j], to_haps[j] = True, rng.choice([True, False])
            _, haps_load, mbs_load = total_power(net, asleep, to_haps, loads.lambda_sbs,
                                                 loads.lambda_haps, loads.lambda_mbs)
            sbs = tuple(0.0 if off else lam for off, lam in zip(asleep, loads.lambda_sbs))
            before = carried_traffic(loads, net)
            after = carried_traffic(NetworkLoadState(0.0, 0.0, sbs), net) \
                + haps_load * net.haps.capacity + mbs_load * net.mbs.capacity
            assert math.isclose(before, after, rel_tol=1e-9)


class TestOptimizeExhaustive:
    def test_all_on_when_sleeping_never_pays(self):
        # tiny sleep saving, huge offload cost: stay on
        cheap = PowerParams(operational_w=10.0, amplifier_eff=1.0, transmit_w=1.0, sleep_w=9.9)
        haps = BaseStation("haps", Tier.HAPS, (0.0, 0.0), 10.0, HAPS_P)
        mbs = BaseStation("mbs", Tier.MBS, (0.0, 0.0), 10.0, MBS_P)
        sbs = tuple(BaseStation(f"s{i}", Tier.SBS, (0.0, 0.0), 10.0, cheap) for i in range(3))
        net = Network(haps, mbs, sbs)
        loads = NetworkLoadState(0.0, 0.0, (0.9, 0.8, 0.7))
        sv, _, _ = optimize_exhaustive(net, loads)
        assert sv.delta == (1, 1, 1)

    def test_zero_load_sbs_slept(self):
        net = make_net(2)
        loads = NetworkLoadState(0.1, 0.1, (0.0, 0.9))
        sv, _, _ = optimize_exhaustive(net, loads)
        assert sv.delta[0] == 0

    def test_refuses_above_limit(self):
        net = make_net(4)
        loads = NetworkLoadState(0.0, 0.0, (0.1,) * 4)
        with pytest.raises(ValueError):
            optimize_exhaustive(net, loads, limit=3)

    def test_deterministic(self):
        net = make_net(5)
        loads = NetworkLoadState(0.2, 0.1, (0.05, 0.3, 0.0, 0.8, 0.12))
        a = optimize_exhaustive(net, loads)
        b = optimize_exhaustive(net, loads)
        assert a[0] == b[0] and a[2] == b[2]

    def test_infeasible_sinks_force_all_on(self):
        net = make_net(2)
        loads = NetworkLoadState(1.0, 1.0, (0.1, 0.2))
        sv, _, _ = optimize_exhaustive(net, loads)
        assert sv.delta == (1, 1)


class TestOptimizeGreedy:
    def test_zero_loads_all_slept(self):
        net = make_net(4)
        loads = NetworkLoadState(0.0, 0.0, (0.0,) * 4)
        sv, state, power = optimize_greedy(net, loads)
        assert sv.delta == (0, 0, 0, 0)
        assert (power, state.lambda_haps, state.lambda_mbs) == evaluate(net, sv, loads)

    def test_full_sinks_all_on(self):
        net = make_net(3)
        loads = NetworkLoadState(1.0, 1.0, (0.1, 0.2, 0.3))
        sv, _, _ = optimize_greedy(net, loads)
        assert sv.delta == (1, 1, 1)

    def test_never_worse_than_all_on(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 8)
            net = make_net(n)
            loads = NetworkLoadState(rng.random() * 0.3, rng.random() * 0.3,
                                     tuple(rng.random() for _ in range(n)))
            _, _, power = optimize_greedy(net, loads)
            assert power <= evaluate(net, SwitchVector.all_on(n), loads)[0] + 1e-9

    def test_exhaustive_never_worse_than_greedy(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 6)
            net = make_net(n)
            loads = NetworkLoadState(rng.random() * 0.3, rng.random() * 0.3,
                                     tuple(rng.random() for _ in range(n)))
            _, _, p_ex = optimize_exhaustive(net, loads)
            _, _, p_gr = optimize_greedy(net, loads)
            assert p_ex <= p_gr + 1e-9

    def test_haps_only_sink_restriction(self):
        net = make_net(3)
        loads = NetworkLoadState(0.0, 0.0, (0.05, 0.1, 0.15))
        sv, _, _ = optimize_greedy(net, loads, sinks=(HAPS,))
        assert all(t == HAPS for _, t in sv.offload_target)
