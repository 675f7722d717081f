"""Unit tests for the LTE step controller and breakpoint collection."""

import numpy as np
import pytest

from repro.circuits import Circuit, StepController, collect_breakpoints, pulse, pwl, sine
from repro.circuits.sources import source_breakpoints
from repro.errors import SimulationError


def make_controller(**overrides):
    kw = dict(
        t_stop=1e-3,
        dt_initial=1e-6,
        dt_min=1e-8,
        dt_max=8e-6,
        method="trap",
        reltol=1e-3,
        abstol=1e-6,
    )
    kw.update(overrides)
    return StepController(**kw)


class TestQuantization:
    def test_grid_is_power_of_two_ladder(self):
        c = make_controller()
        # 1e-6 is not on the 8e-6/2^k grid; it snaps down to 8e-6/8.
        assert c.dt == pytest.approx(1e-6)
        assert c.dt in [8e-6 / 2**k for k in range(0, 12)]

    def test_dt_min_snaps_onto_grid(self):
        c = make_controller(dt_min=1e-8)
        # Effective floor is the grid value at or below the requested
        # minimum, so halving always lands on a cached level.
        assert c.dt_min <= 1e-8
        ratio = 8e-6 / c.dt_min
        assert 2 ** round(np.log2(ratio)) == pytest.approx(ratio)

    def test_growth_is_clamped_and_quantized(self):
        c = make_controller()
        t, dt = c.propose()
        c.accept(t, dt, ratio=1e-9)  # essentially zero error
        assert c.dt == pytest.approx(2e-6)  # one grid level, max_growth=2

    def test_accept_near_tolerance_keeps_step(self):
        c = make_controller()
        before = c.dt
        t, dt = c.propose()
        c.accept(t, dt, ratio=0.95)
        assert c.dt == pytest.approx(before)

    def test_reject_shrinks_at_least_halving(self):
        c = make_controller()
        before = c.dt
        c.propose()
        c.reject(ratio=4.0)
        assert c.dt <= before / 2

    def test_underflow_raises(self):
        c = make_controller(dt_initial=1e-8, dt_min=1e-8)
        with pytest.raises(SimulationError):
            for _ in range(10):
                c.propose()
                c.reject(ratio=100.0)


class TestBreakpoints:
    def test_step_truncates_onto_breakpoint(self):
        c = make_controller(breakpoints=(2.5e-6,))
        # Walk until the proposal would cross the breakpoint.
        while True:
            t_target, dt = c.propose()
            if t_target == 2.5e-6:
                break
            c.accept(t_target, dt, ratio=0.5)
            assert t_target < 2.5e-6
        assert dt <= c.dt

    def test_working_step_carries_over_breakpoint(self):
        # Landing on a breakpoint keeps the working step, also when the
        # truncated landing step is a sliver of it.  Order control
        # still drops to first order: the multistep history restarts.
        for bp, landing, kw in (
            (2.5e-6, 5e-7, {}),
            (2e-6 + 1e-9, 1e-9, {}),
            (2.5e-6, 5e-7, dict(method="gear", order_control=True)),
        ):
            c = make_controller(breakpoints=(bp,), **kw)
            c.order = c.method.max_order
            while True:
                c.candidate_order(10)
                held = c.dt
                t_target, dt = c.propose()
                c.accept(t_target, dt, ratio=0.5)
                if t_target == bp:
                    break
            assert dt == pytest.approx(landing)
            assert c.breakpoints_hit == 1 and c.crossed_breakpoint
            assert c.dt == held == 1e-6
            assert c.order == (1 if c.order_control else 2)

    def test_t_stop_is_exact(self):
        c = make_controller(t_stop=1e-5, dt_initial=3e-6, dt_max=4e-6)
        while not c.finished:
            t_target, dt = c.propose()
            c.accept(t_target, dt, ratio=0.2)
        assert c.t == 1e-5  # exact float equality: landed, not drifted


class TestErrorRatio:
    def test_scales_with_difference(self):
        c = make_controller()
        x_half = np.array([1.0, 2.0, 0.0])
        x_full = x_half + np.array([3e-3, 0.0, 0.0])
        r1 = c.error_ratio(x_full, x_half, n_nodes=2)
        r2 = c.error_ratio(x_half + 2 * (x_full - x_half), x_half, n_nodes=2)
        assert r2 == pytest.approx(2 * r1)

    def test_ignores_branch_currents(self):
        c = make_controller()
        x_half = np.zeros(3)
        x_full = np.array([0.0, 0.0, 100.0])  # huge branch-current diff
        assert c.error_ratio(x_full, x_half, n_nodes=2) == 0.0

    def test_relative_scale_loosens_large_signals(self):
        c = make_controller()
        diff = np.array([1e-4, 0.0])
        small = c.error_ratio(diff, np.zeros(2), n_nodes=2)
        large = c.error_ratio(np.array([10.0, 0.0]) + diff, np.array([10.0, 0.0]), n_nodes=2)
        assert large < small


class TestOrderControl:
    def make_gear(self, **overrides):
        kw = dict(method="gear", order_control=True)
        kw.update(overrides)
        return make_controller(**kw)

    def test_one_step_methods_have_fixed_order(self):
        c = make_controller(method="trap", order_control=True)
        assert not c.order_control  # nothing to control
        assert c.order == 2
        assert c.candidate_order(1) == 2  # no startup ramp for trap
        c = make_controller(method="be")
        assert c.order == 1

    def test_candidate_order_clamped_by_history(self):
        c = self.make_gear()
        assert c.order == 1  # starts at the bottom
        c.order = 2  # force a raised target
        assert c.candidate_order(1) == 1
        assert c.candidate_order(2) == 2
        assert c.candidate_order(10) == 2

    def test_err_div_tracks_candidate_order(self):
        c = self.make_gear()
        c.order = 2
        c.candidate_order(1)
        assert c._err_div == 1.0  # order 1: 2^1 - 1
        c.candidate_order(5)
        assert c._err_div == 3.0  # order 2: 2^2 - 1

    def test_order_raises_after_streak_of_good_accepts(self):
        c = self.make_gear()
        for _ in range(3):
            assert c.order == 1
            c.candidate_order(10)
            t, dt = c.propose()
            c.accept(t, dt, ratio=0.01)
        assert c.order == 2
        assert c.order_raises == 1

    def test_marginal_accepts_do_not_raise(self):
        c = self.make_gear()
        for _ in range(6):
            c.candidate_order(10)
            t, dt = c.propose()
            c.accept(t, dt, ratio=0.8)  # passed, but not comfortably
        assert c.order == 1

    def test_reject_streak_lowers_order(self):
        c = self.make_gear()
        c.order = 2
        c.candidate_order(10)
        c.propose()
        c.reject(ratio=4.0)
        assert c.order == 2  # one rejection only shrinks dt
        c.propose()
        c.reject(ratio=4.0)
        assert c.order == 1
        assert c.order_lowers == 1

    def test_breakpoint_resets_order_and_flags_crossing(self):
        c = self.make_gear(breakpoints=(2.5e-6,))
        c.order = 2
        while True:
            c.candidate_order(10)
            t_target, dt = c.propose()
            c.accept(t_target, dt, ratio=0.5)
            if t_target == 2.5e-6:
                break
            assert not c.crossed_breakpoint
        assert c.crossed_breakpoint
        assert c.order == 1

    def test_stats_order_histogram_and_per_order_counts(self):
        c = self.make_gear()
        c.candidate_order(10)  # order 1
        t, dt = c.propose()
        c.accept(t, dt, ratio=0.5)
        c.order = 2
        c.candidate_order(10)
        c.propose()
        c.reject(ratio=4.0)
        c.candidate_order(10)
        t, dt = c.propose()
        c.accept(t, dt, ratio=0.5)
        stats = c.stats()
        assert stats["order_histogram"] == {1: 1, 2: 1}
        assert stats["accepted_by_order"] == {1: 1, 2: 1}
        assert stats["rejected_by_order"] == {2: 1}
        assert stats["final_order"] == 2
        assert stats["order_raises"] == 0
        assert stats["order_lowers"] == 0

    def test_trap_stats_keep_existing_shape(self):
        c = make_controller()
        t, dt = c.propose()
        c.accept(t, dt, ratio=0.5)
        stats = c.stats()
        assert stats["accepted_steps"] == 1
        assert stats["order_histogram"] == {2: 1}
        assert "order_raises" not in stats  # no order control active


class TestCollectBreakpoints:
    def test_sources_and_extras_merge_sorted(self):
        c = Circuit()
        c.voltage_source("V1", "a", "0", pulse(0.0, 1.0, delay=1e-5, rise=1e-8, fall=1e-8, width=2e-5))
        c.resistor("R1", "a", "0", 1e3)
        c.current_source("I1", "a", "0", pwl([(0.0, 0.0), (4e-5, 1e-3), (9e-5, 0.0)]))
        c.prepare()
        bps = collect_breakpoints(c, t_stop=1e-4, extra=(5e-5,))
        assert bps == tuple(sorted(bps))
        assert 1e-5 in bps  # pulse edge
        assert 4e-5 in bps  # pwl corner
        assert 5e-5 in bps  # extra
        assert all(0.0 < t < 1e-4 for t in bps)

    def test_delayed_sine_has_turn_on_breakpoint(self):
        assert source_breakpoints(sine(1.0, 1e6, delay=3e-6), 1e-5) == (3e-6,)
        assert source_breakpoints(sine(1.0, 1e6), 1e-5) == ()

    def test_plain_callable_has_no_breakpoints(self):
        assert source_breakpoints(lambda t: t, 1.0) == ()

    def test_periodic_pulse_repeats_edges(self):
        f = pulse(0.0, 1.0, delay=0.0, rise=1e-9, fall=1e-9, width=4e-7, period=1e-6)
        bps = source_breakpoints(f, 3.5e-6)
        assert any(abs(t - 1e-6) < 1e-12 for t in bps)
        assert any(abs(t - 2e-6) < 1e-12 for t in bps)


class TestPhaseSchedule:
    def _schedule(self):
        from repro.circuits import PhaseSchedule

        return PhaseSchedule.carrier_then_settle(
            2e-6,
            carrier_dt=1e-8,
            settle_dt=1e-7,
            settle_method="gear",
            max_order=3,
        )

    def test_carrier_then_settle_shape(self):
        schedule = self._schedule()
        assert len(schedule.phases) == 2
        carrier, settle = schedule.phases
        assert carrier.t_start == 0.0
        assert settle.t_start == pytest.approx(2e-6)
        assert carrier.resolved_method().name == "trap"
        assert settle.resolved_method().name == "gear"
        assert schedule.boundaries() == (pytest.approx(2e-6),)

    def test_phase_cursor(self):
        schedule = self._schedule()
        first = schedule.restart()
        assert first is schedule.phases[0]
        assert schedule.phase_at(1e-6) is schedule.phases[0]
        assert schedule.phase_at(3e-6) is schedule.phases[1]
        # advance_to only fires when a boundary is crossed, once.
        assert schedule.advance_to(1e-6) is None
        assert schedule.advance_to(2.5e-6) is schedule.phases[1]
        assert schedule.advance_to(3e-6) is None
        # restart rewinds the cursor.
        schedule.restart()
        assert schedule.advance_to(2.5e-6) is schedule.phases[1]
