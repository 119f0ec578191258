import math

import pytest

from vhetsim.errors import InconsistentStateError
from vhetsim.power import (
    BaseStation,
    Network,
    NetworkLoadState,
    PowerParams,
    Tier,
    bs_power,
    snap_load,
    total_power,
)
from vhetsim.switching import SwitchVector

PARAMS = PowerParams(operational_w=100.0, amplifier_eff=5.0, transmit_w=20.0, sleep_w=10.0)
HAPS_PARAMS = PowerParams(operational_w=200.0, amplifier_eff=4.0, transmit_w=50.0, sleep_w=100.0)


def small_network(n_sbs=2):
    haps = BaseStation("haps", Tier.HAPS, (0.0, 0.0), 200.0, HAPS_PARAMS)
    mbs = BaseStation("mbs", Tier.MBS, (0.0, 0.0), 100.0, PARAMS)
    sbs = tuple(BaseStation(f"sbs-{i}", Tier.SBS, (float(i), 0.0), 10.0, PARAMS)
                for i in range(n_sbs))
    return Network(haps, mbs, sbs)


def carried_traffic(loads, net) -> float:
    """Total carried traffic sum(C * lambda) over all stations."""
    return (loads.lambda_haps * net.haps.capacity + loads.lambda_mbs * net.mbs.capacity
            + math.fsum(l * b.capacity for l, b in zip(loads.lambda_sbs, net.sbs)))


class TestSnapLoad:
    def test_identity_on_grid_values(self):
        assert snap_load(0.5) == 0.5
        assert snap_load(0.0) == 0.0
        assert snap_load(1.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            snap_load(-0.001)
        with pytest.raises(ValueError):
            snap_load(1.001)

    def test_idempotent(self):
        for v in (0.1, 0.3333333333333333, 0.7071067811865476):
            assert snap_load(snap_load(v)) == snap_load(v)


class TestPowerParams:
    def test_operational_must_exceed_sleep(self):
        with pytest.raises(ValueError):
            PowerParams(10.0, 1.0, 5.0, 10.0)

    def test_positive_transmit_and_eff(self):
        with pytest.raises(ValueError):
            PowerParams(100.0, 0.0, 5.0, 10.0)
        with pytest.raises(ValueError):
            PowerParams(100.0, 1.0, 0.0, 10.0)


class TestBsPower:
    def test_sleep_branch(self):
        assert bs_power(PARAMS, 0.0, active=False) == 10.0

    def test_active_half_load(self):
        assert bs_power(PARAMS, 0.5, active=True) == 150.0

    def test_active_full_load(self):
        assert bs_power(PARAMS, 1.0, active=True) == 200.0

    def test_sleeping_with_load_rejected(self):
        with pytest.raises(InconsistentStateError):
            bs_power(PARAMS, 0.2, active=False)

    def test_load_out_of_range(self):
        with pytest.raises(ValueError):
            bs_power(PARAMS, 1.5, active=True)

    def test_monotone_in_load(self):
        values = [bs_power(PARAMS, l / 10, active=True) for l in range(11)]
        assert values == sorted(values)


class TestTotalPower:
    def test_no_sbs(self):
        net = small_network(0)
        loads = NetworkLoadState(0.0, 0.0, ())
        assert total_power(net, SwitchVector.all_on(0), loads) == 200.0 + 100.0

    def test_all_asleep(self):
        net = small_network(2)
        loads = NetworkLoadState(0.0, 0.0, (0.0, 0.0))
        sv = SwitchVector((0, 0), ((0, "HAPS"), (1, "HAPS")))
        assert total_power(net, sv, loads) == 300.0 + 2 * PARAMS.sleep_w

    def test_hand_sum(self):
        # HAPS + MBS idle contribute 300; active SBS at 0.5 adds 150; sleeper adds P_s
        net = small_network(2)
        loads = NetworkLoadState(0.0, 0.0, (0.5, 0.0))
        sv = SwitchVector((1, 0), ((1, "HAPS"),))
        assert total_power(net, sv, loads) == 300.0 + 150.0 + PARAMS.sleep_w

    def test_length_mismatch(self):
        net = small_network(2)
        loads = NetworkLoadState(0.0, 0.0, (0.5,))
        with pytest.raises(InconsistentStateError):
            total_power(net, SwitchVector.all_on(2), loads)


class TestEstimatedPower:
    """total_power evaluated on estimated load factors."""

    def test_overestimate_shifts_by_eta_dlam_pt(self):
        net = small_network(1)
        sv = SwitchVector.all_on(1)
        base = total_power(net, sv, NetworkLoadState(0.0, 0.0, (0.4,)))
        bumped = total_power(net, sv, NetworkLoadState(0.0, 0.0, (0.5,)))
        assert bumped - base == pytest.approx(5.0 * 0.1 * 20.0)


class TestNetworkLoadState:
    def test_carried_traffic(self):
        net = small_network(2)
        loads = NetworkLoadState(0.1, 0.2, (0.5, 0.25))
        expected = 0.1 * 200 + 0.2 * 100 + 0.5 * 10 + 0.25 * 10
        assert carried_traffic(loads, net) == pytest.approx(expected)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NetworkLoadState(1.2, 0.0, ())

    def test_network_tier_validation(self):
        haps = BaseStation("h", Tier.HAPS, (0.0, 0.0), 200.0, HAPS_PARAMS)
        mbs = BaseStation("m", Tier.MBS, (0.0, 0.0), 100.0, PARAMS)
        with pytest.raises(ValueError):
            Network(mbs, haps, ())
