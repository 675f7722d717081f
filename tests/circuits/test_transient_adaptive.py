"""Adaptive step control: shape-level golden tests against fine
fixed-step runs, plus engine bookkeeping on non-uniform grids.

Fixed-step mode stays pinned bit-for-bit to the seed engine by
test_transient_golden.py; adaptive mode trades bit equality for
wall-clock and is validated here at measurement level (amplitude,
frequency, point-wise error against the LTE tolerance).
"""

import numpy as np
import pytest

from repro.analysis import oscillation_frequency
from repro.circuits import (
    Circuit,
    TransientOptions,
    pulse,
    run_transient,
    sine,
)
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.errors import SimulationError

TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)


def _rc_pulse():
    c = Circuit()
    c.voltage_source("V1", "in", "0", pulse(0.0, 1.0, delay=2e-5, width=1e-3))
    c.resistor("R1", "in", "out", 1e3)
    c.capacitor("C1", "out", "0", 1e-7)
    return c


class TestOptionsValidation:
    def test_unknown_mode(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, step_control="magic")

    def test_bad_dt_bounds(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, dt_min=-1.0)
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, dt_min=1e-6, dt_max=1e-7)

    def test_bad_lte_tolerances(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, lte_reltol=0.0)
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, lte_abstol=-1e-9)


class TestLinearAdaptive:
    def _run(self):
        return run_transient(
            _rc_pulse(),
            TransientOptions(
                t_stop=5e-4,
                dt=1e-6,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_max=5e-5,
            ),
        )

    def test_grid_is_non_uniform_and_increasing(self):
        res = self._run()
        dt = np.diff(res.t)
        assert np.all(dt > 0)
        assert len({round(float(d), 15) for d in dt}) > 1

    def test_matches_fine_fixed_run(self):
        res = self._run()
        fine = run_transient(
            _rc_pulse(),
            TransientOptions(t_stop=5e-4, dt=2e-7, use_dc_operating_point=False),
        )
        wa = res.waveform("out")
        wf = fine.waveform("out")
        err = np.max(np.abs(wa.resample(wf.t).y - wf.y))
        # LTE reltol is 1e-3 of a ~1 V signal; allow interpolation slack.
        assert err < 1e-2
        # ... at a small fraction of the samples.
        assert len(wa) < len(wf) / 10

    def test_pulse_edges_are_step_boundaries(self):
        res = self._run()
        # The pulse delay edge must be an exact recorded time.
        assert 2e-5 in res.t.tolist()
        assert res.stats["breakpoints_hit"] >= 1

    def test_far_fewer_steps_than_fixed(self):
        res = self._run()
        assert res.stats["steps"] < 100  # fixed grid would take 500

    def test_stats_contents(self):
        res = self._run()
        stats = res.stats
        assert stats["strategy"] == "linear"
        assert stats["step_control"] == "adaptive"
        assert stats["accepted_steps"] == stats["steps"] == len(res.t) - 1
        assert stats["rejected_steps"] >= 0
        assert 0 < stats["min_dt"] <= stats["max_dt"] <= 5e-5
        assert stats["dt_cache_entries"] >= 1
        assert stats["lu_refactorizations"] >= 1


def fitted_amplitude(wave, t_stop):
    """Fundamental amplitude over the last two cycles: least squares on
    sin, cos and offset columns at the frequency of the run's second
    half."""
    frequency = oscillation_frequency(wave.window(0.5 * t_stop, t_stop))
    window = wave.window(t_stop - 2 / frequency, t_stop)
    phase = 2 * np.pi * frequency * window.t
    basis = np.column_stack([np.sin(phase), np.cos(phase), np.ones_like(phase)])
    coef, *_ = np.linalg.lstsq(basis, window.y, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


class TestFig16Adaptive:
    @pytest.fixture(scope="class")
    def runs(self):
        t_stop = 60 / TANK.frequency
        netlist = OscillatorNetlist(TANK, vref=2.5)
        adaptive = netlist.run_startup(
            code=0, t_stop=t_stop, limiter=LIMITER, step_control="adaptive"
        )
        fine = netlist.run_startup(
            code=0, t_stop=t_stop, points_per_cycle=160, limiter=LIMITER
        )
        return adaptive, fine, t_stop

    def test_envelope_amplitude_within_one_percent(self, runs):
        # A least-squares fundamental, not raw sample peaks: at about
        # ten points per cycle the adaptive grid's peaks read where its
        # samples land, up to 2% low on a more accurate run.
        adaptive, fine, t_stop = runs
        amp_a = fitted_amplitude(adaptive.differential, t_stop)
        amp_f = fitted_amplitude(fine.differential, t_stop)
        assert amp_a == pytest.approx(amp_f, rel=0.01)

    def test_frequency_within_one_percent(self, runs):
        adaptive, fine, t_stop = runs
        f_a = oscillation_frequency(adaptive.differential.window(0.5 * t_stop, t_stop))
        f_f = oscillation_frequency(fine.differential.window(0.5 * t_stop, t_stop))
        assert f_a == pytest.approx(f_f, rel=0.01)


class TestSupplyLossAdaptive:
    """Stiff-then-slow: forced carrier, supply loss, ring-down, quiet
    tail — the workload adaptive stepping exists for."""

    F0 = 4e6

    def _build(self, t_fault):
        from repro.core import supply_loss_tank_circuit

        return supply_loss_tank_circuit(self.F0, t_fault)

    def test_decay_matches_fine_fixed(self):
        T = 1.0 / self.F0
        t_fault = 20 * T
        t_stop = 120 * T
        adaptive = run_transient(
            self._build(t_fault),
            TransientOptions(
                t_stop=t_stop,
                dt=T / 40,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_min=T / 640,
                dt_max=8 * T,
            ),
        )
        fine = run_transient(
            self._build(t_fault),
            TransientOptions(t_stop=t_stop, dt=T / 160, use_dc_operating_point=False),
        )
        wa = adaptive.differential("lc1", "lc2")
        wf = fine.differential("lc1", "lc2")
        # Pre-fault driven amplitude and immediate post-fault decay.
        pre_a = wa.window(15 * T, t_fault).peak_to_peak()
        pre_f = wf.window(15 * T, t_fault).peak_to_peak()
        assert pre_a == pytest.approx(pre_f, rel=0.01)
        post_a = wa.window(t_fault + 4 * T, t_fault + 9 * T).peak_to_peak()
        post_f = wf.window(t_fault + 4 * T, t_fault + 9 * T).peak_to_peak()
        assert post_a == pytest.approx(post_f, rel=0.05)
        # The quiet tail must be quiet — and cheap.
        assert np.abs(wa.window(80 * T, 120 * T).y).max() < 1e-6
        assert adaptive.stats["steps"] < fine.stats["steps"] / 5
        assert adaptive.stats["breakpoints_hit"] >= 1

    def test_rounding_sliver_before_fault_lands_on_breakpoint(self):
        """At this Q the accumulated step times end a regular step
        ~5e-19 s short of the fault; the controller must land on the
        breakpoint instead of proposing an unresolvable sliver step."""
        from repro.circuits import PhaseSchedule
        from repro.core import supply_loss_tank_circuit

        T = 1.0 / self.F0
        t_fault = 40 * T
        result = run_transient(
            supply_loss_tank_circuit(
                self.F0, t_fault, q=17.319822299459005, inductance=1e-6
            ),
            TransientOptions(
                t_stop=400 * T,
                dt=T / 40,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_min=T / 81920,
                dt_max=8 * T,
                lte_reltol=1e-6,
                lte_abstol=1e-9,
                phases=PhaseSchedule.carrier_then_settle(
                    t_fault,
                    carrier_dt=T / 40,
                    settle_dt=T / 4,
                    settle_method="gear",
                    max_order=3,
                ),
            ),
        )
        assert result.t[-1] == 400 * T
        assert t_fault in result.t
        assert result.stats["phase_switches"] == 1


class TestAdaptiveNonlinearStrategies:
    def _rectifier(self):
        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(2.0, 1e5))
        c.diode("D1", "in", "out")
        c.resistor("RL", "out", "0", 10e3)
        c.capacitor("CL", "out", "0", 1e-6, ic=0.0)
        return c

    def test_general_newton_under_step_control(self):
        adaptive = run_transient(
            self._rectifier(),
            TransientOptions(
                t_stop=60e-6,
                dt=0.2e-6,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_max=2e-6,
            ),
        )
        fine = run_transient(
            self._rectifier(),
            TransientOptions(t_stop=60e-6, dt=0.05e-6, use_dc_operating_point=False),
        )
        assert adaptive.stats["strategy"] == "general"
        wa = adaptive.waveform("out")
        wf = fine.waveform("out")
        # Compare at the adaptive solution points (the dense fixed run
        # interpolates accurately; the sparse one does not).
        err = np.max(np.abs(wa.y - wf.resample(wa.t).y))
        assert err < 0.02  # 2 V scale signal: within 1 %

    def test_record_stride_counts_accepted_steps(self):
        res = run_transient(
            _rc_pulse(),
            TransientOptions(
                t_stop=5e-4,
                dt=1e-6,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_max=5e-5,
                record_stride=4,
            ),
        )
        assert len(res.t) - 1 == res.stats["accepted_steps"] // 4


class TestPhaseSwitching:
    """Per-phase method switching: trap through the carrier phase,
    Gear through the settle phase, switched live at the boundary."""

    def _phased_options(self, **kw):
        from repro.circuits import PhaseSchedule

        schedule = PhaseSchedule.carrier_then_settle(
            2e-5,
            carrier_dt=1e-7,
            settle_dt=1e-6,
            settle_method="gear",
            max_order=3,
        )
        options = TransientOptions(
            t_stop=1e-4,
            dt=1e-7,
            step_control="adaptive",
            phases=schedule,
            **kw,
        )
        return options

    def test_phase_switch_fires_once_and_logs(self):
        result = run_transient(_rc_pulse(), self._phased_options())
        assert result.stats["phase_switches"] == 1
        (switch,) = result.stats["phases"]
        assert switch["method"] == "gear"
        assert switch["t"] >= 2e-5
        assert switch["bootstrapped"]

    def test_phased_run_tracks_unphased_solution(self):
        plain = run_transient(
            _rc_pulse(),
            TransientOptions(t_stop=1e-4, dt=1e-7, step_control="adaptive"),
        )
        phased = run_transient(_rc_pulse(), self._phased_options())
        # Different grids; compare the settled tail against the LTE
        # budget rather than point-wise.
        v_plain = plain.waveform("out").y[-1]
        v_phased = phased.waveform("out").y[-1]
        assert v_phased == pytest.approx(v_plain, rel=1e-3, abs=1e-6)

    def test_phases_require_adaptive_control(self):
        from repro.circuits import PhaseSchedule

        schedule = PhaseSchedule.carrier_then_settle(2e-5)
        with pytest.raises(SimulationError):
            TransientOptions(
                t_stop=1e-4, dt=1e-7, step_control="fixed", phases=schedule
            )
