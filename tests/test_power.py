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

    def test_sleep_branch_ignores_load(self):
        # a sleeper's load has moved to a sink; its own draw is P_s
        assert bs_power(PARAMS, 0.2, active=False) == 10.0

    def test_load_above_one_stays_on_the_line(self):
        assert bs_power(PARAMS, 1.5, active=True) == 250.0

    def test_monotone_in_load(self):
        values = [bs_power(PARAMS, l / 10, active=True) for l in range(11)]
        assert values == sorted(values)


class TestTotalPower:
    def test_no_sbs(self):
        net = small_network(0)
        assert total_power(net, (), (), (), 0.0, 0.0) == (200.0 + 100.0, 0.0, 0.0)

    def test_all_asleep(self):
        net = small_network(2)
        assert total_power(net, (True, True), (True, True), (0.0, 0.0), 0.0, 0.0) \
            == (300.0 + 2 * PARAMS.sleep_w, 0.0, 0.0)

    def test_hand_sum(self):
        # HAPS + MBS idle contribute 300; active SBS at 0.5 adds 150; sleeper adds P_s
        net = small_network(2)
        power, _, _ = total_power(net, (False, True), (False, True), (0.5, 0.0), 0.0, 0.0)
        assert power == 300.0 + 150.0 + PARAMS.sleep_w

    def test_length_mismatch(self):
        net = small_network(2)
        with pytest.raises(InconsistentStateError):
            total_power(net, (False, False), (False, False), (0.5,), 0.0, 0.0)

    def test_sleepers_move_snapped_load_to_their_sink(self):
        # phi = 10/200 to the HAPS and 10/100 to the MBS
        net = small_network(3)
        power, haps_load, mbs_load = total_power(net, (True, False, True), (True, True, False),
                                                 (0.4, 0.5, 0.2), 0.3, 0.5)
        assert haps_load == 0.3 + snap_load(0.05 * 0.4)
        assert mbs_load == 0.5 + snap_load(0.1 * 0.2)
        assert power == (200.0 + 4.0 * haps_load * 50.0) + (100.0 + 5.0 * mbs_load * 20.0) \
            + PARAMS.sleep_w + 150.0 + PARAMS.sleep_w

    def test_haps_overload_is_not_bounded(self):
        # two sleepers at phi = 0.05 and load 1 push the HAPS from 0.95 to 1.05
        net = small_network(2)
        power, haps_load, mbs_load = total_power(net, (True, True), (True, True), (1.0, 1.0), 0.95, 0.0)
        assert haps_load == 0.95 + 2 * snap_load(0.05) and haps_load > 1.0
        assert mbs_load == 0.0
        assert power == HAPS_PARAMS.operational_w + HAPS_PARAMS.amplifier_eff * haps_load * HAPS_PARAMS.transmit_w \
            + 100.0 + 2 * PARAMS.sleep_w

    def test_move_above_a_whole_sink_rejected(self):
        # an SBS of 300 at load 0.9 would add 1.35 HAPS of 200
        base = small_network(0)
        net = Network(base.haps, base.mbs, (BaseStation("big", Tier.SBS, (0.0, 0.0), 300.0, PARAMS),))
        with pytest.raises(ValueError):
            total_power(net, (True,), (True,), (0.9,), 0.0, 0.0)


class TestEstimatedPower:
    """total_power evaluated on estimated load factors."""

    def test_overestimate_shifts_by_eta_dlam_pt(self):
        net = small_network(1)
        base, _, _ = total_power(net, (False,), (False,), (0.4,), 0.0, 0.0)
        bumped, _, _ = total_power(net, (False,), (False,), (0.5,), 0.0, 0.0)
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
