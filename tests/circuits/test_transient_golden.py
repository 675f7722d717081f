"""Golden equivalence: the incremental-stamping engine must reproduce
the seed (full-restamp) engine's waveforms to float tolerance.

The Fig 16 startup is the reference workload: the bench tank, the
tanh-limited driver, carrier resolution, both integration methods.
The reference engine lives in :mod:`repro.circuits.reference` and is
the preserved pre-optimization implementation.
"""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    TransientOptions,
    run_transient,
    run_transient_reference,
    sine,
)
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter

TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)


def _fig16_options(method):
    return TransientOptions(
        t_stop=80 / TANK.frequency,
        dt=1.0 / (TANK.frequency * 40),
        method=method,
        use_dc_operating_point=False,
    )


def _assert_waveforms_match(res_a, res_b, nodes, rtol=1e-9):
    assert np.array_equal(res_a.t, res_b.t)
    for node in nodes:
        y_a = res_a.waveform(node).y
        y_b = res_b.waveform(node).y
        scale = float(np.max(np.abs(y_b)))
        np.testing.assert_allclose(
            y_a, y_b, rtol=rtol, atol=rtol * scale, err_msg=f"node {node}"
        )


class TestFig16Golden:
    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_startup_waveform_parity(self, method):
        netlist = OscillatorNetlist(TANK, vref=2.5)
        reference = run_transient_reference(
            netlist.build(LIMITER), _fig16_options(method)
        )
        optimized = run_transient(netlist.build(LIMITER), _fig16_options(method))
        # The Fig 1 oscillator must hit the cached-Jacobian fast path.
        assert optimized.stats["strategy"] == "rank1"
        _assert_waveforms_match(optimized, reference, ["lc1", "lc2", "mid"])

    def test_rank1_matches_forced_full_newton(self):
        netlist = OscillatorNetlist(TANK, vref=2.5)
        options = _fig16_options("trap")
        fast = run_transient(netlist.build(LIMITER), options)
        options_full = _fig16_options("trap")
        options_full.jacobian = "full"
        full = run_transient(netlist.build(LIMITER), options_full)
        assert full.stats["strategy"] == "general"
        _assert_waveforms_match(fast, full, ["lc1", "lc2"])


class TestLinearAndGeneralGolden:
    def _rc_filter(self):
        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-9, ic=0.0)
        c.inductor("L1", "out", "tail", 1e-3)
        c.resistor("R2", "tail", "0", 50.0)
        return c

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_linear_circuit_parity(self, method):
        options = TransientOptions(
            t_stop=50e-6, dt=50e-9, method=method, use_dc_operating_point=False
        )
        reference = run_transient_reference(self._rc_filter(), options)
        optimized = run_transient(self._rc_filter(), options)
        assert optimized.stats["strategy"] == "linear"
        _assert_waveforms_match(optimized, reference, ["in", "out", "tail"])

    def _rectifier(self):
        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(2.0, 1e5))
        c.diode("D1", "in", "out")
        c.resistor("RL", "out", "0", 10e3)
        c.capacitor("CL", "out", "0", 1e-6, ic=0.0)
        return c

    def test_general_newton_parity(self):
        """A diode (not a lone VCCS) exercises the general strategy."""
        options = TransientOptions(
            t_stop=60e-6, dt=0.1e-6, use_dc_operating_point=False
        )
        reference = run_transient_reference(self._rectifier(), options)
        optimized = run_transient(self._rectifier(), options)
        assert optimized.stats["strategy"] == "general"
        _assert_waveforms_match(optimized, reference, ["in", "out"])


class TestCascadeGolden:
    """Cascades of several NonlinearVCCS devices take the general
    full-Newton path under either ``jacobian`` mode, and it must match
    the seed engine."""

    def _cascade(self, n_stages=3):
        import numpy as np

        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
        c.resistor("R1", "in", "a", 1e3)
        c.resistor("R2", "a", "0", 2e3)
        c.capacitor("Ca", "a", "0", 1e-9)
        nodes = ["a", "b", "c", "d"]
        for k in range(n_stages):
            src, dst = nodes[k], nodes[k + 1]
            c.resistor(f"RL{k}", dst, "0", 1e3)
            c.nonlinear_vccs(
                f"G{k}", dst, "0", src, "0",
                (lambda scale: (lambda v: scale * np.tanh(v)))(1e-3 * (k + 1)),
            )
        return c

    @pytest.mark.parametrize("n_stages", [2, 3])
    def test_matches_reference_engine(self, n_stages):
        options = TransientOptions(
            t_stop=40e-6, dt=0.1e-6, use_dc_operating_point=False
        )
        reference = run_transient_reference(self._cascade(n_stages), options)
        optimized = run_transient(self._cascade(n_stages), options)
        assert optimized.stats["strategy"] == "general"
        _assert_waveforms_match(optimized, reference, ["a", "b", "c"])

    def test_auto_and_full_jacobian_bit_identical(self):
        for n_stages in (2, 3):
            runs = [
                run_transient(
                    self._cascade(n_stages),
                    TransientOptions(
                        t_stop=40e-6,
                        dt=0.1e-6,
                        use_dc_operating_point=False,
                        jacobian=jacobian,
                    ),
                )
                for jacobian in ("auto", "full")
            ]
            assert [r.stats["strategy"] for r in runs] == ["general"] * 2
            assert np.array_equal(runs[0].t, runs[1].t)
            assert np.array_equal(runs[0].x, runs[1].x)

    def test_five_devices_fall_back_to_general(self):
        c = self._cascade(3)
        c.nonlinear_vccs("G90", "a", "0", "d", "0", lambda v: 1e-4 * v)
        c.nonlinear_vccs("G91", "b", "0", "d", "0", lambda v: 1e-4 * v)
        options = TransientOptions(
            t_stop=5e-6, dt=0.1e-6, use_dc_operating_point=False
        )
        res = run_transient(c, options)
        assert res.stats["strategy"] == "general"
