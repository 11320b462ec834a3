"""Tests for the tFAW rank activation window."""

import pytest

from repro.dram.bank import Bank, RankActWindow, RefreshTimeline
from repro.dram.bank import ChannelBus
from repro.dram.timing import DramGeometry, DramTiming
from repro.memctrl.controller import MemoryController
from tests.memctrl.test_controller import access


class TestRankActWindow:
    def test_disabled_by_default(self):
        window = RankActWindow(0.0)
        assert window.constrain(5.0) == 5.0
        window.record(5.0)
        assert window.constrain(5.0) == 5.0

    def test_fifth_act_waits_for_window(self):
        window = RankActWindow(30.0)
        for t in (0.0, 1.0, 2.0, 3.0):
            assert window.constrain(t) == t
            window.record(t)
        # Fifth ACT must wait until first + tFAW.
        assert window.constrain(4.0) == pytest.approx(30.0)

    def test_window_slides(self):
        window = RankActWindow(30.0)
        for t in (0.0, 10.0, 20.0, 29.0):
            window.record(t)
        assert window.constrain(50.0) == 50.0  # window long past

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RankActWindow(-1.0)
        with pytest.raises(ValueError):
            RankActWindow(0.0, t_rrd=-1.0)


class TestRankTrrd:
    def test_consecutive_acts_spaced_by_trrd(self):
        window = RankActWindow(0.0, t_rrd=6.0)
        assert window.constrain(0.0) == 0.0
        window.record(0.0)
        assert window.constrain(2.0) == 6.0
        window.record(6.0)
        assert window.constrain(20.0) == 20.0

    def test_trrd_and_tfaw_compose(self):
        window = RankActWindow(30.0, t_rrd=6.0)
        t = 0.0
        for _ in range(4):
            t = window.constrain(t)
            window.record(t)
        # ACT spacing of 6 ns: 4 ACTs at 0/6/12/18; 5th waits for tFAW.
        fifth = window.constrain(t)
        assert fifth == pytest.approx(30.0)

    def test_timing_validation(self):
        from repro.dram.timing import DramTiming

        with pytest.raises(ValueError):
            DramTiming(t_rrd=-0.5)
        scaled = DramTiming(t_rrd=6.0).scaled(1 / 4)
        assert scaled.t_rrd == 6.0


class TestBankIntegration:
    def test_burst_of_acts_across_banks_throttled(self):
        timing = DramTiming(t_faw=30.0)
        refresh = RefreshTimeline(timing)
        shared = RankActWindow(timing.t_faw)
        banks = [Bank(timing, refresh, act_window=shared) for _ in range(8)]
        bus = ChannelBus(timing)
        t0 = timing.t_rfc + 1.0
        act_times = []
        for bank in banks:
            result = bank.access(t0, row=1, n_lines=1, bus=bus)
            act_times.append(result.act_time)
        # ACTs 5..8 pushed beyond the first window.
        assert act_times[4] >= act_times[0] + 30.0
        assert act_times[7] >= act_times[3] + 30.0

    def test_no_throttle_when_disabled(self):
        timing = DramTiming()  # t_faw = 0
        refresh = RefreshTimeline(timing)
        shared = RankActWindow(timing.t_faw)
        banks = [Bank(timing, refresh, act_window=shared) for _ in range(8)]
        bus = ChannelBus(timing)
        t0 = timing.t_rfc + 1.0
        act_times = [
            bank.access(t0, row=1, n_lines=1, bus=bus).act_time
            for bank in banks
        ]
        assert max(act_times) == pytest.approx(min(act_times), abs=1e-9)


class TestControllerIntegration:
    GEOMETRY = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=8,
        rows_per_bank=1024,
        row_size_bytes=256,
    )

    def test_tfaw_slows_multi_bank_act_bursts(self):
        def run(t_faw):
            timing = DramTiming(t_faw=t_faw).scaled(1 / 64)
            mc = MemoryController(self.GEOMETRY, timing)
            t = timing.t_rfc + 1.0
            done = t
            for i in range(64):
                done = access(mc, t, row_id=i * 1024 % (8 * 1024) + i)
            return done

        assert run(t_faw=40.0) > run(t_faw=0.0)
