"""The pluggable integration-method layer.

Three tiers of coverage:

* the method objects themselves — coefficient tables, startup policy,
  polynomial exactness of the variable-step BDF weights (the
  fixed-leading-coefficient + Lagrange-interpolation construction must
  be exact on polynomials of the formula's degree, uniform grid or
  not);
* engine integration — BDF2/Gear fixed-grid runs against analytic
  solutions and against the reference engine on fine uniform grids,
  order ramping, solver-strategy parity (the rank-1/Woodbury/sparse
  fast paths must reproduce full Newton under a multistep method);
* guard rails — the reference engine and generic-state components
  refuse multistep methods loudly.
"""

import numpy as np
import pytest

from repro.circuits import (
    BDF2,
    BackwardEuler,
    Capacitor,
    Circuit,
    Gear,
    TransientOptions,
    Trapezoidal,
    pulse,
    resolve_method,
    run_transient,
    run_transient_reference,
    sine,
)
from repro.envelope import RLCTank, TanhLimiter
from repro.core import OscillatorNetlist
from repro.errors import SimulationError


class TestResolveAndTables:
    def test_known_names(self):
        assert resolve_method("trap").name == "trap"
        assert resolve_method("be").name == "be"
        assert resolve_method("bdf2").name == "bdf2"
        gear = resolve_method("gear")
        assert gear.name == "gear" and gear.max_order == 2
        assert resolve_method("gear", max_order=3).max_order == 3

    def test_instances_pass_through(self):
        m = Gear(max_order=3)
        assert resolve_method(m) is m

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError):
            resolve_method("rk4")

    def test_gear_max_order_bounds(self):
        with pytest.raises(SimulationError):
            Gear(max_order=4)
        with pytest.raises(SimulationError):
            Gear(max_order=0)

    def test_one_step_coefficients(self):
        trap = Trapezoidal()
        co = trap.base_coeffs(2)
        assert (co.lead, co.wv0, co.wd0) == (2.0, -1.0, -1.0)
        assert co.one_step
        assert trap.lte_order(2) == 2
        assert not trap.is_multistep
        be = BackwardEuler()
        co = be.base_coeffs(1)
        assert (co.lead, co.wv0, co.wd0) == (1.0, -1.0, 0.0)
        assert be.lte_order(1) == 1

    def test_gear_uniform_weights_match_classic_bdf(self):
        gear = Gear(max_order=3)
        dt = 1e-6
        # Exactly uniform history: interpolation nodes coincide with
        # the uniform offsets, so the classic tables fall out.
        times = (3 * dt, 2 * dt, 1 * dt, 0.0)
        wv, wd = gear.step_weights(dt, 2, times)
        np.testing.assert_allclose(wv[:2], [-2.0 / 1.5, 0.5 / 1.5])
        np.testing.assert_allclose(wv[2:], 0.0, atol=1e-12)
        assert not any(wd)
        wv, wd = gear.step_weights(dt, 3, times)
        lead = 11.0 / 6.0
        np.testing.assert_allclose(
            wv[:3], [-3.0 / lead, 1.5 / lead, (-1.0 / 3.0) / lead]
        )
        np.testing.assert_allclose(wv[3:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_weights_exact_on_polynomials_nonuniform(self, order):
        """The composite formula differentiates polynomials of the
        method's order exactly, on an arbitrary non-uniform history."""
        gear = Gear(max_order=3)
        rng = np.random.default_rng(42 + order)
        t0 = 1.0e-5
        gaps = rng.uniform(0.3e-6, 1.7e-6, size=3)
        times = (t0, t0 - gaps[0], t0 - gaps[0] - gaps[1],
                 t0 - gaps.sum())[: order + 1]
        dt = 0.9e-6
        t_new = t0 + dt
        wv, wd = gear.step_weights(dt, order, times)
        lead = {1: 1.0, 2: 1.5, 3: 11.0 / 6.0}[order]
        for degree in range(order + 1):
            p = np.polynomial.Polynomial(rng.uniform(-1, 1, degree + 1))
            dp = p.deriv()
            approx = (lead / dt) * (
                p(t_new) + sum(w * p(t) for w, t in zip(wv, times))
            )
            scale = max(abs(dp(t_new)), 1.0)
            assert abs(approx - dp(t_new)) < 1e-6 * scale, (
                f"order {order}, degree {degree}"
            )

    def test_startup_policy(self):
        gear = Gear(max_order=3)
        assert gear.usable_order(3, 1) == 1
        assert gear.usable_order(3, 2) == 2
        assert gear.usable_order(3, 3) == 3
        assert gear.usable_order(3, 10) == 3
        assert gear.usable_order(2, 10) == 2
        # Fixed-order methods never ramp.
        assert Trapezoidal().usable_order(2, 1) == 2
        assert BackwardEuler().usable_order(1, 100) == 1
        # BDF2 targets order 2 but still ramps through startup.
        bdf2 = BDF2()
        assert bdf2.usable_order(2, 1) == 1
        assert bdf2.usable_order(5, 10) == 2

    def test_history_depth(self):
        gear = Gear(max_order=3)
        assert gear.history_depth(1) == 1
        assert gear.history_depth(2) == 3
        assert gear.history_depth(3) == 4
        assert Trapezoidal().history_depth(2) == 1
        assert gear.is_multistep and BDF2().is_multistep
        assert not BackwardEuler().is_multistep

    def test_error_constants(self):
        assert Trapezoidal().error_constant(2) == pytest.approx(-1.0 / 12.0)
        assert BackwardEuler().error_constant(1) == pytest.approx(0.5)
        assert Gear(3).error_constant(2) == pytest.approx(-2.0 / 9.0)
        assert Gear(3).error_constant(3) == pytest.approx(-3.0 / 22.0)


class TestOptionsValidation:
    def test_method_names(self):
        TransientOptions(t_stop=1e-3, dt=1e-6, method="bdf2")
        TransientOptions(t_stop=1e-3, dt=1e-6, method="gear", max_order=3)
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, method="rk4")

    def test_max_order_requires_gear(self):
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, method="trap", max_order=3)
        with pytest.raises(SimulationError):
            TransientOptions(t_stop=1e-3, dt=1e-6, method="gear", max_order=7)

    def test_method_instance_accepted(self):
        o = TransientOptions(t_stop=1e-3, dt=1e-6, method=Gear(max_order=3))
        assert o.resolved_method().max_order == 3


def _rc_step_circuit():
    c = Circuit()
    c.voltage_source("V1", "in", "0", lambda t: 1.0)
    c.resistor("R1", "in", "out", 1e3)
    c.capacitor("C1", "out", "0", 1e-7, ic=0.0)
    return c


def _rlc_decay_circuit():
    """Series RLC ringing down hard from an initial capacitor voltage.

    Strongly damped (alpha ~ 0.9 w0): the envelope dies within a few
    carrier periods — the stiff-decay regime the BDF members exist
    for.  Analytic solution of v_C for the underdamped series RLC
    with v_C(0) = V0, i_L(0) = 0.
    """
    c = Circuit()
    c.resistor("R1", "a", "b", 1800.0)
    c.inductor("L1", "b", "c", 1e-3, ic=0.0)
    c.capacitor("C1", "c", "0", 1e-9, ic=1.0)
    c.resistor("Rg", "a", "0", 1e-3)  # ties the loop to ground
    return c


def _rlc_decay_analytic(t):
    R, L, C, V0 = 1800.0 + 1e-3, 1e-3, 1e-9, 1.0
    alpha = R / (2 * L)
    w0 = 1.0 / np.sqrt(L * C)
    wd = np.sqrt(w0 ** 2 - alpha ** 2)
    return V0 * np.exp(-alpha * t) * (
        np.cos(wd * t) + (alpha / wd) * np.sin(wd * t)
    )


class TestFixedGridAccuracy:
    def test_bdf2_second_order_convergence(self):
        errs = []
        for dt in (2e-6, 1e-6, 5e-7):
            o = TransientOptions(
                t_stop=2e-4, dt=dt, method="bdf2", use_dc_operating_point=False
            )
            r = run_transient(_rc_step_circuit(), o)
            exact = 1.0 - np.exp(-r.t / 1e-4)
            errs.append(np.abs(r.waveform("out").y - exact).max())
        # Halving dt should cut the error ~4x (allow startup slack).
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_gear3_third_order_convergence(self):
        # Sine-driven RC with a known closed form; errors measured
        # past 5 time constants so the (low-order) startup-ramp error
        # has decayed and the formula's own order shows.
        w = 2 * np.pi * 2e4
        tau = 1e-4

        def analytic(t):
            D = 1 + (w * tau) ** 2
            A, B = 1 / D, -w * tau / D
            return A * np.sin(w * t) + B * np.cos(w * t) - B * np.exp(-t / tau)

        def late_error(method, dt, **kw):
            c = Circuit()
            c.voltage_source("V1", "in", "0", sine(1.0, 2e4))
            c.resistor("R1", "in", "out", 1e3)
            c.capacitor("C1", "out", "0", 1e-7, ic=0.0)
            o = TransientOptions(
                t_stop=6e-4, dt=dt, method=method,
                use_dc_operating_point=False, **kw
            )
            r = run_transient(c, o)
            late = r.t > 5e-4
            return np.abs(r.waveform("out").y - analytic(r.t))[late].max()

        errs = [late_error("gear", dt, max_order=3) for dt in (2e-6, 1e-6, 5e-7)]
        # Third order: halving dt cuts the error ~8x.
        assert errs[0] / errs[1] > 6.0
        assert errs[1] / errs[2] > 6.0
        # ... and sits well below BDF2 at the same step.
        assert errs[1] < 0.25 * late_error("bdf2", 1e-6)

    def test_fixed_grid_order_ramp_reported(self):
        o = TransientOptions(
            t_stop=1e-5, dt=1e-7, method="gear", max_order=3,
            use_dc_operating_point=False,
        )
        r = run_transient(_rc_step_circuit(), o)
        hist = r.stats["order_histogram"]
        assert hist[1] == 1 and hist[2] == 1  # startup ramp
        assert hist[3] == r.stats["steps"] - 2

    def test_bdf2_matches_reference_engine_on_fine_grid(self):
        """Converged-solution equivalence: BDF2 on a fine uniform grid
        lands on the same waveform the (trapezoidal) reference engine
        converges to, at rtol 1e-6 of signal scale."""
        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-9, ic=0.0)
        options_ref = TransientOptions(
            t_stop=2e-5, dt=2e-9, use_dc_operating_point=False
        )
        reference = run_transient_reference(c, options_ref)
        options_bdf = TransientOptions(
            t_stop=2e-5, dt=2e-9, method="bdf2", use_dc_operating_point=False
        )
        bdf = run_transient(c, options_bdf)
        scale = np.abs(reference.waveform("out").y).max()
        # Compare past one RC time constant: the O(dt^2) error BDF2's
        # order-1 startup ramp injects at t=0 decays with the circuit
        # pole, after which both engines sit on the converged waveform.
        settled = reference.t > 1e-6
        np.testing.assert_allclose(
            bdf.waveform("out").y[settled],
            reference.waveform("out").y[settled],
            rtol=1e-6,
            atol=1e-6 * scale,
        )


class TestSolverStrategyParity:
    """The rank-1/Woodbury fast paths and full Newton must agree under
    a multistep method exactly as they do under trap."""

    TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
    LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)

    def _options(self, jacobian="auto"):
        return TransientOptions(
            t_stop=20 / self.TANK.frequency,
            dt=1.0 / (self.TANK.frequency * 40),
            method="bdf2",
            use_dc_operating_point=False,
            jacobian=jacobian,
        )

    def test_rank1_matches_full_newton(self):
        netlist = OscillatorNetlist(self.TANK, vref=2.5)
        fast = run_transient(netlist.build(self.LIMITER), self._options())
        full = run_transient(netlist.build(self.LIMITER), self._options("full"))
        assert fast.stats["strategy"] == "rank1"
        assert full.stats["strategy"] == "general"
        scale = np.abs(full.x).max()
        np.testing.assert_allclose(
            fast.x, full.x, rtol=1e-9, atol=1e-9 * scale
        )

    def test_sparse_backend_matches_dense(self):
        pytest.importorskip("scipy")
        netlist = OscillatorNetlist(self.TANK, vref=2.5)
        o_dense = self._options()
        o_dense.backend = "dense"
        o_sparse = self._options()
        o_sparse.backend = "sparse"
        dense = run_transient(netlist.build(self.LIMITER), o_dense)
        sparse = run_transient(netlist.build(self.LIMITER), o_sparse)
        assert sparse.stats["backend"] == "sparse"
        scale = np.abs(dense.x).max()
        np.testing.assert_allclose(
            sparse.x, dense.x, rtol=1e-9, atol=1e-9 * scale
        )


class TestStiffDecayAdaptive:
    @pytest.mark.parametrize("method,kw", [
        ("bdf2", {}),
        ("gear", {}),
        ("gear", {"max_order": 3}),
    ])
    def test_adaptive_matches_analytic_rlc_decay(self, method, kw):
        t_stop = 4e-6
        o = TransientOptions(
            t_stop=t_stop, dt=2e-9, method=method,
            step_control="adaptive", use_dc_operating_point=False,
            dt_min=1e-11, dt_max=5e-8, lte_reltol=1e-4, lte_abstol=1e-7,
            **kw,
        )
        r = run_transient(_rlc_decay_circuit(), o)
        exact = _rlc_decay_analytic(r.t)
        # The recorded t=0 sample is the engine's pre-ic zero vector
        # (ic enters through the integrator state); compare from the
        # first integrated point on.
        err = np.abs(r.waveform("c").y - exact)[1:].max()
        assert err < 5e-3  # 1 V initial scale
        assert r.stats["accepted_steps"] > 10
        assert r.stats["order_histogram"]  # multistep stats present

    def test_gear_adaptive_nonlinear_rectifier_matches_fine_trap(self):
        """General-Newton + adaptive stepping + multistep history on a
        nonlinear (diode) circuit: the converged waveform must agree
        with a fine fixed-grid trapezoidal run."""

        def rectifier():
            c = Circuit()
            c.voltage_source("V1", "in", "0", sine(2.0, 1e5))
            c.diode("D1", "in", "out")
            c.resistor("RL", "out", "0", 10e3)
            c.capacitor("CL", "out", "0", 1e-6, ic=0.0)
            return c

        adaptive = run_transient(
            rectifier(),
            TransientOptions(
                t_stop=60e-6, dt=0.2e-6, method="gear",
                step_control="adaptive", use_dc_operating_point=False,
                dt_max=2e-6, lte_reltol=1e-4,
            ),
        )
        fine = run_transient(
            rectifier(),
            TransientOptions(
                t_stop=60e-6, dt=0.05e-6, use_dc_operating_point=False
            ),
        )
        assert adaptive.stats["strategy"] == "general"
        wa = adaptive.waveform("out")
        wf = fine.waveform("out")
        err = np.max(np.abs(wa.y - wf.resample(wa.t).y))
        assert err < 0.02  # 2 V scale signal: within 1 %


class TestHistoryRollback:
    """A rejected multistep trial step must restore the committed
    history *exactly* — values, derivatives, times, and fill level."""

    def _assembly(self):
        from repro.circuits.assembly import TransientAssembly

        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-9, ic=0.0)
        c.inductor("L1", "out", "tail", 1e-3, ic=0.0)
        c.resistor("R2", "tail", "0", 50.0)
        c.prepare()
        return TransientAssembly(c, 1e-8, "bdf2", 1e-12)

    @staticmethod
    def _full_state(assembly):
        r = assembly.reactive
        return (
            r.v.copy(), r.i.copy(), r.t_now,
            r.h_val[: r.h_len].copy(), r.h_der[: r.h_len].copy(),
            r.h_t[: r.h_len].copy(), r.h_len,
        )

    def _commit_step(self, assembly, time, x):
        rhs = assembly.step_rhs(time, x)
        x_new = assembly.lu().solve(rhs)
        assembly.commit(x_new, time)
        return x_new

    def test_snapshot_restore_round_trip_exact(self):
        assembly = self._assembly()
        x = np.zeros(assembly.size)
        # Build up real multistep history on a non-uniform grid.
        x = self._commit_step(assembly, 1e-8, x)
        assembly.set_dt(0.5e-8, order=2)
        x = self._commit_step(assembly, 1.5e-8, x)
        x = self._commit_step(assembly, 2.0e-8, x)
        snapshot = assembly.snapshot_state()
        before = self._full_state(assembly)
        assert before[6] >= 2  # genuine multistep history in play

        # A trial step (different dt, so different weights) advances
        # the state and pushes history...
        assembly.set_dt(0.25e-8, order=2)
        self._commit_step(assembly, 2.25e-8, x)
        after = self._full_state(assembly)
        assert after[2] != before[2]

        # ...and restore undoes every part of it bit-for-bit.
        assembly.restore_state(snapshot)
        restored = self._full_state(assembly)
        for a, b in zip(before, restored):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b

    def test_adaptive_run_with_rejections_is_consistent(self):
        """End-to-end: an adaptive BDF2 run whose controller rejects
        trial steps must still land on the fine fixed-grid waveform
        (a corrupted rollback would show up as a systematic error)."""
        def circuit():
            c = Circuit()
            c.voltage_source(
                "V1", "in", "0",
                # A pulse makes the controller reject around the edges.
                pulse(0.0, 1.0, delay=2e-5, rise=1e-7, fall=1e-7, width=2e-5),
            )
            c.resistor("R1", "in", "out", 1e3)
            c.capacitor("C1", "out", "0", 1e-7)
            return c

        adaptive = run_transient(
            circuit(),
            TransientOptions(
                t_stop=1e-4, dt=1e-6, method="bdf2",
                step_control="adaptive", use_dc_operating_point=False,
                dt_max=5e-6, lte_reltol=1e-4,
            ),
        )
        fine = run_transient(
            circuit(),
            TransientOptions(t_stop=1e-4, dt=5e-8,
                             use_dc_operating_point=False),
        )
        wa = adaptive.waveform("out")
        wf = fine.waveform("out")
        err = np.abs(wa.y - wf.resample(wa.t).y).max()
        assert err < 5e-3


class TestStatsPassthrough:
    def test_transient_result_carries_order_stats(self):
        o = TransientOptions(
            t_stop=4e-6, dt=2e-9, method="gear", max_order=3,
            step_control="adaptive", use_dc_operating_point=False,
            dt_min=1e-11, dt_max=5e-8,
        )
        r = run_transient(_rlc_decay_circuit(), o)
        stats = r.stats
        assert sum(stats["order_histogram"].values()) == stats["accepted_steps"]
        assert stats["accepted_by_order"] == stats["order_histogram"]
        assert set(stats["rejected_by_order"]) <= {1, 2, 3}
        assert "order_raises" in stats and "order_lowers" in stats
        assert stats["final_order"] in (1, 2, 3)


class TestGuards:
    def test_transient_context_rejects_typoed_method_name(self):
        from repro.circuits import StampContext

        with pytest.raises(SimulationError, match="bdf22"):
            StampContext(system=None, x=np.zeros(2), dt=1e-9, method="bdf22")
        # DC contexts carry no coefficients and stay permissive.
        StampContext(system=None, x=np.zeros(2))

    def test_transient_context_rejects_bare_multistep_name(self):
        from repro.circuits import StampContext
        from repro.errors import NetlistError

        # Valid multistep names need engine-installed coefficients; a
        # bare context must fail loudly, not crash later on coeffs.
        with pytest.raises(NetlistError, match="gear"):
            StampContext(system=None, x=np.zeros(2), dt=1e-9, method="gear")

    def test_same_name_custom_method_gets_its_own_cache_entries(self):
        from repro.circuits.assembly import TransientAssembly

        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-9, ic=0.0)
        c.prepare()
        assembly = TransientAssembly(c, 1e-8, Gear(max_order=2), 1e-12)
        entry = assembly._active

        class ScaledGear(Gear):
            """A method that (wrongly) shares the name 'gear'."""

            def base_coeffs(self, order):
                co = super().base_coeffs(order)
                co.lead = co.lead * 2.0
                return co

        assembly.set_method(ScaledGear(max_order=2), order=assembly.order)
        assembly.set_dt(1e-8)
        assert assembly._active is not entry  # name collision is moot

    def test_reference_engine_rejects_multistep(self):
        with pytest.raises(SimulationError):
            run_transient_reference(
                _rc_step_circuit(),
                TransientOptions(t_stop=1e-5, dt=1e-7, method="bdf2",
                                 use_dc_operating_point=False),
            )

    def test_generic_state_component_rejects_multistep(self):
        class OddCap(Capacitor):
            """A Capacitor subclass outside the vectorized fast path
            (it does not re-declare the stamp split)."""

        c = Circuit()
        c.voltage_source("V1", "in", "0", sine(1.0, 1e5))
        c.resistor("R1", "in", "out", 1e3)
        c.add(OddCap("C1", "out", "0", 1e-9, ic=0.0))
        with pytest.raises(SimulationError, match="C1"):
            run_transient(
                c,
                TransientOptions(t_stop=1e-5, dt=1e-7, method="bdf2",
                                 use_dc_operating_point=False),
            )
        # The same netlist still runs under the one-step methods.
        run_transient(
            c,
            TransientOptions(t_stop=1e-5, dt=1e-7, method="trap",
                             use_dc_operating_point=False),
        )
