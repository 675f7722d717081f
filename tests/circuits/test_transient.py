"""Tests for the transient engine beyond the basic RC/LR cases."""

import numpy as np
import pytest

from repro.analysis import oscillation_frequency
from repro.circuits import (
    Circuit,
    TransientOptions,
    run_transient,
    sine,
)
from repro.errors import NetlistError, SimulationError


class TestOptionsValidation:
    def test_bad_times(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=0.0, dt=1e-6)
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-6, dt=1e-3)

    def test_bad_method(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, method="euler")

    def test_bad_stride(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, record_stride=0)


class TestLCRing:
    def test_frequency_accuracy(self):
        c = Circuit()
        c.inductor("L1", "a", "0", 10e-6, ic=1e-3)
        c.capacitor("C1", "a", "0", 1e-9, ic=0.0)
        f0 = 1 / (2 * np.pi * np.sqrt(10e-6 * 1e-9))
        res = run_transient(
            c,
            TransientOptions(
                t_stop=20 / f0, dt=1 / (f0 * 80), use_dc_operating_point=False
            ),
        )
        measured = oscillation_frequency(res.waveform("a"))
        assert measured == pytest.approx(f0, rel=2e-3)

    def test_damped_decay_rate(self):
        """Series RLC rings down with tau = 2L/R."""
        c = Circuit()
        c.inductor("L1", "a", "m", 10e-6, ic=1e-3)
        c.resistor("R1", "m", "0", 5.0)
        c.capacitor("C1", "a", "0", 1e-9, ic=0.0)
        f0 = 1 / (2 * np.pi * np.sqrt(10e-6 * 1e-9))
        res = run_transient(
            c,
            TransientOptions(
                t_stop=30 / f0, dt=1 / (f0 * 80), use_dc_operating_point=False
            ),
        )
        v = res.waveform("a")
        tau = 2 * 10e-6 / 5.0  # 4 us
        a_early = v.window(0, 3 / f0).peak_to_peak()
        t_late = 20 / f0
        a_late = v.window(t_late, t_late + 3 / f0).peak_to_peak()
        expected_ratio = np.exp(-t_late / tau)
        assert a_late / a_early == pytest.approx(expected_ratio, rel=0.1)


class TestDrivenCircuits:
    def test_sine_drive_amplitude(self):
        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e6))
        c.resistor("R1", "in", "out", 1e3)
        c.resistor("R2", "out", "0", 1e3)
        res = run_transient(
            c, TransientOptions(t_stop=5e-6, dt=5e-9, use_dc_operating_point=False)
        )
        assert res.waveform("out").max() == pytest.approx(0.5, rel=1e-3)

    def test_record_stride(self):
        c = Circuit()
        c.voltage_source("V1", "in", "0", 1.0)
        c.resistor("R1", "in", "0", 1e3)
        res_full = run_transient(
            c, TransientOptions(t_stop=1e-3, dt=1e-5, use_dc_operating_point=False)
        )
        res_strided = run_transient(
            c,
            TransientOptions(
                t_stop=1e-3, dt=1e-5, record_stride=10, use_dc_operating_point=False
            ),
        )
        assert len(res_strided.t) < len(res_full.t)

    def test_start_from_dc_operating_point(self):
        """With use_dc_operating_point the run starts settled."""
        c = Circuit()
        c.voltage_source("V1", "in", "0", 2.0)
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-6)
        res = run_transient(c, TransientOptions(t_stop=1e-3, dt=1e-5))
        w = res.waveform("out")
        assert np.allclose(w.y, 2.0, atol=1e-6)


class TestNonlinearTransient:
    def test_diode_rectifier(self):
        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(2.0, 1e5))
        c.diode("D1", "in", "out")
        c.resistor("RL", "out", "0", 10e3)
        c.capacitor("CL", "out", "0", 1e-6, ic=0.0)
        res = run_transient(
            c,
            TransientOptions(t_stop=100e-6, dt=0.1e-6, use_dc_operating_point=False),
        )
        w = res.waveform("out")
        # Peak detector holds near peak minus a diode drop.
        assert 1.0 < w.max() < 2.0
        # Never goes significantly negative.
        assert w.min() > -0.1


def _divider():
    c = Circuit()
    c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
    c.resistor("R1", "in", "out", 1e3)
    c.resistor("R2", "out", "0", 1e3)
    return c


def _rectifier():
    c = Circuit()
    c.voltage_source("V1", "in", "0", sine(2.0, 1e5))
    c.diode("D1", "in", "out")
    c.resistor("RL", "out", "0", 10e3)
    c.capacitor("CL", "out", "0", 1e-6, ic=0.0)
    return c


class TestWaveformAccess:
    def test_unknown_node_raises_simulation_error(self):
        res = run_transient(
            _divider(),
            TransientOptions(t_stop=1e-5, dt=1e-7, use_dc_operating_point=False),
        )
        with pytest.raises(SimulationError):
            res.waveform("no_such_node")

    def test_ground_is_a_zero_trace(self):
        res = run_transient(
            _divider(),
            TransientOptions(t_stop=1e-5, dt=1e-7, use_dc_operating_point=False),
        )
        assert np.all(res.waveform("0").y == 0.0)
        # differential against ground keeps working.
        np.testing.assert_array_equal(
            res.differential("out", "0").y, res.waveform("out").y
        )


class TestResultEdgeCases:
    """TransientResult access rules at the recording boundaries."""

    def _options(self, **kw):
        return TransientOptions(
            t_stop=1e-5, dt=1e-7, use_dc_operating_point=False, **kw
        )

    def test_ground_waveform_on_subset_recording(self):
        """Ground stays a synthesized zero trace even when only a
        subset of nodes was recorded."""
        res = run_transient(_divider(), self._options(record_nodes=("out",)))
        w = res.waveform("0")
        assert np.all(w.y == 0.0)
        assert len(w) == len(res.t)
        np.testing.assert_array_equal(
            res.differential("out", "0").y, res.waveform("out").y
        )

    def test_branch_current_available_on_full_recording(self):
        res = run_transient(_divider(), self._options())
        i = res.branch_current("V1")
        # Divider: 1 V across 2 kOhm, source sinks at n+ (SPICE sign).
        assert np.max(np.abs(i.y)) == pytest.approx(1.0 / 2e3, rel=1e-6)

    def test_branch_current_of_branchless_component_raises(self):
        res = run_transient(_divider(), self._options())
        with pytest.raises(SimulationError):
            res.branch_current("R1")

    def test_record_nodes_with_branch_current_raises_not_garbage(self):
        """record_nodes drops branch columns; asking for one must be
        an error, never a silently wrong column."""
        res = run_transient(
            _divider(), self._options(record_nodes=("out", "in"))
        )
        with pytest.raises(SimulationError):
            res.branch_current("V1")
        # The recorded node columns still resolve by name, not index.
        full = run_transient(_divider(), self._options())
        np.testing.assert_allclose(
            res.waveform("in").y, full.waveform("in").y, rtol=0, atol=0
        )

    def test_fixed_stats_contents(self):
        res = run_transient(_divider(), self._options())
        stats = res.stats
        assert stats["strategy"] == "linear"
        assert stats["step_control"] == "fixed"
        assert stats["steps"] == 100
        assert stats["newton_iterations"] == 0  # cached LU, no Newton
        assert stats["lu_refactorizations"] == 1

    def test_adaptive_stats_contents(self):
        res = run_transient(
            _divider(),
            self._options(step_control="adaptive", dt_max=1e-6),
        )
        stats = res.stats
        assert stats["step_control"] == "adaptive"
        assert stats["accepted_steps"] == stats["steps"]
        assert stats["rejected_steps"] >= 0
        assert stats["breakpoints_hit"] == 0
        assert stats["dt_cache_entries"] >= 1
        assert stats["newton_iterations"] == 0


class TestRecordNodes:
    def _options(self, **kw):
        return TransientOptions(
            t_stop=1e-5, dt=1e-7, use_dc_operating_point=False, **kw
        )

    def test_subset_matches_full_recording(self):
        full = run_transient(_divider(), self._options())
        subset = run_transient(
            _divider(), self._options(record_nodes=("out",))
        )
        assert subset.x.shape[1] == 1
        np.testing.assert_array_equal(subset.t, full.t)
        np.testing.assert_allclose(
            subset.waveform("out").y, full.waveform("out").y, rtol=0, atol=0
        )

    def test_unrecorded_node_raises(self):
        res = run_transient(_divider(), self._options(record_nodes=("out",)))
        with pytest.raises(SimulationError):
            res.waveform("in")

    def test_branch_current_unavailable(self):
        res = run_transient(_divider(), self._options(record_nodes=("out",)))
        with pytest.raises(SimulationError):
            res.branch_current("V1")

    def test_unknown_record_node_rejected(self):
        with pytest.raises(NetlistError):
            run_transient(
                _divider(), self._options(record_nodes=("missing",))
            )

    def test_ground_record_node_rejected(self):
        with pytest.raises(SimulationError):
            run_transient(_divider(), self._options(record_nodes=("0",)))


class TestRecordPreallocation:
    def test_stride_not_dividing_step_count(self):
        """10 steps at stride 3 record t = {0, 3, 6, 9}*dt."""
        dt = 1e-6
        res = run_transient(
            _divider(),
            TransientOptions(
                t_stop=10e-6,
                dt=dt,
                record_stride=3,
                use_dc_operating_point=False,
            ),
        )
        assert res.t.shape == (4,)
        assert res.x.shape[0] == 4
        np.testing.assert_allclose(res.t, np.array([0, 3, 6, 9]) * dt)

    def test_stride_equal_to_step_count(self):
        res = run_transient(
            _divider(),
            TransientOptions(
                t_stop=10e-6,
                dt=1e-6,
                record_stride=10,
                use_dc_operating_point=False,
            ),
        )
        assert res.t.shape == (2,)  # t = 0 and the final step

    def test_stride_larger_than_step_count(self):
        res = run_transient(
            _divider(),
            TransientOptions(
                t_stop=10e-6,
                dt=1e-6,
                record_stride=40,
                use_dc_operating_point=False,
            ),
        )
        assert res.t.shape == (1,)  # only the initial condition


class TestStampSplitSafety:
    def test_subclass_overriding_stamp_is_not_frozen(self):
        """A subclass that overrides stamp() without re-declaring
        supports_stamp_split must take the full-restamp path — the
        parent's static/dynamic split no longer describes it."""
        from repro.circuits import Resistor

        class TimeVaryingResistor(Resistor):
            def stamp(self, ctx):
                g = self.conductance * (1.0 + ctx.time * 1e5)
                ctx.system.stamp_conductance(self._n[0], self._n[1], g)

        c = Circuit()
        c.voltage_source("V1", "in", "0", 1.0)
        c.resistor("R1", "in", "out", 1e3)
        c.add(TimeVaryingResistor("R2", "out", "0", 1e3))
        res = run_transient(
            c,
            TransientOptions(t_stop=10e-6, dt=1e-6, use_dc_operating_point=False),
        )
        # R2 is restamped every step, so the divider ratio drifts:
        # at t = k*dt its conductance is g0*(1 + 0.1*k).
        assert res.stats["strategy"] == "linear-restamp"
        y = res.waveform("out").y
        assert y[1] == pytest.approx(1.0 / 2.1, rel=1e-9)  # t = 1 us
        assert y[-1] == pytest.approx(1.0 / 3.0, rel=1e-9)  # t = 10 us

    def test_linear_non_split_circuit_is_never_damped(self):
        """Seed behaviour: a linear circuit solves in one undamped
        step even when a component skipped the stamp split — a 120 V
        source edge must not trip Newton damping/ConvergenceError."""
        from repro.circuits import Resistor, pulse

        class PlainResistor(Resistor):
            def stamp(self, ctx):  # opts out of the split
                super().stamp(ctx)

        c = Circuit()
        c.voltage_source("V1", "in", "0", pulse(0.0, 120.0, delay=1e-6, width=1e-3))
        c.add(PlainResistor("R1", "in", "out", 1e3))
        c.resistor("R2", "out", "0", 1e3)
        res = run_transient(
            c,
            TransientOptions(t_stop=5e-6, dt=1e-7, use_dc_operating_point=False),
        )
        assert res.stats["strategy"] == "linear-restamp"
        # One solve per step, no Newton iteration pile-up.
        assert res.stats["newton_iterations"] == res.stats["steps"]
        assert res.waveform("out").y[-1] == pytest.approx(60.0, rel=1e-9)

    def test_base_matrix_cache_is_frozen(self):
        from repro.circuits.assembly import TransientAssembly

        c = _divider()
        c.prepare()
        assembly = TransientAssembly(c, 1e-7, "trap", 1e-12)
        with pytest.raises(ValueError):
            assembly.G_base[0, 0] = 1.0


class TestJacobianModes:
    def test_stats_report_strategy(self):
        res = run_transient(
            _divider(),
            TransientOptions(t_stop=1e-5, dt=1e-7, use_dc_operating_point=False),
        )
        assert res.stats["strategy"] == "linear"
        assert res.stats["steps"] == 100

    def test_invalid_mode_rejected(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, jacobian="newton-krylov")

