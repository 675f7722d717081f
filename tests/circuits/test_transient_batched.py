"""Batched lockstep engine vs the per-sample reference path.

The contract under test: for every netlist family the lockstep engine
accepts, ``run_transient_batched(circuits, options)[s]`` matches
``run_transient(circuits[s], options)`` at rtol 1e-9 with the same
Newton iteration count — across both lockstep solve strategies
(``linear``/``rank1``), both integration methods, ragged Newton
convergence, the recording options campaigns actually use, and
generated rank-1 netlists with one sample quarantined mid-run.
Netlists with two or more nonlinear devices run per sample instead
(``tests/campaigns/test_dense_lockstep.py``).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.circuits import (
    BatchIncompatible,
    Circuit,
    NewtonOptions,
    TransientOptions,
    pulse,
    pwl,
    run_transient,
    run_transient_batched,
    sine,
)
from repro.circuits.assembly import _ReactiveSet
from repro.circuits.batched import BatchedTransientAssembly, _BatchedStepSolver
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import RLCTank, TanhLimiter
from repro.envelope.describing import tanh_limiter_pair
from repro.errors import ConvergenceError, SimulationError


F0 = 4e6
T0 = 1.0 / F0


def build_rlc(r, amplitude=1.0):
    """Linear strategy: R + C + L + sources, no nonlinear devices."""
    circuit = Circuit("rlc")
    circuit.voltage_source("Vin", "in", "0", sine(amplitude, 1e5))
    circuit.resistor("R", "in", "out", r)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.inductor("L", "out", "tail", 1e-6)
    circuit.resistor("R2", "tail", "0", 50.0)
    circuit.current_source("Ib", "out", "0", 1e-4)
    return circuit


def build_oscillator(gm_scale, q_scale=1.0):
    """Rank-1 strategy: the Fig 1 startup netlist, one NonlinearVCCS."""
    tank = RLCTank.from_frequency_and_q(F0, 15.0 * q_scale, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def build_k_vccs(k, gm, vectorized=True):
    """k NonlinearVCCS devices: rank1 for k = 1, in both engines;
    for k >= 2 the per-sample engine's general Newton, which the
    lockstep engine declines (BatchIncompatible)."""
    circuit = Circuit(f"k{k}")
    circuit.voltage_source("Vin", "in", "0", sine(0.5, 1e5))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.resistor("RL", "a", "0", 1e3)
    for j in range(k):
        node = f"o{j}"
        gm_j = gm * (1.0 + 0.1 * j)
        circuit.resistor(f"Ro{j}", node, "0", 500.0)
        circuit.capacitor(f"Co{j}", node, "0", 1e-10)

        def func(v, g=gm_j):
            return 1e-3 * np.tanh(g * v / 1e-3)

        circuit.nonlinear_vccs(
            f"G{j}",
            node,
            "0",
            "a",
            "0",
            func,
            vector_pair=tanh_limiter_pair if vectorized else None,
            vector_params=(gm_j, 1e-3) if vectorized else (),
        )
    return circuit


def assert_batch_equivalent(builders, options, rtol=1e-9, atol=1e-15):
    per_sample = [run_transient(build(), options) for build in builders]
    batched = run_transient_batched([build() for build in builders], options)
    assert len(batched) == len(per_sample)
    for reference, stacked in zip(per_sample, batched):
        np.testing.assert_array_equal(stacked.t, reference.t)
        np.testing.assert_allclose(stacked.x, reference.x, rtol=rtol, atol=atol)
        assert (
            stacked.stats["newton_iterations"]
            == reference.stats["newton_iterations"]
        )
    return per_sample, batched


@pytest.mark.parametrize("method", ["trap", "be"])
class TestStrategyEquivalence:
    def options(self, method, **kw):
        kw.setdefault("t_stop", 2e-5)
        kw.setdefault("dt", 1e-8)
        kw.setdefault("use_dc_operating_point", True)
        return TransientOptions(method=method, **kw)

    def test_linear(self, method):
        builders = [lambda r=r: build_rlc(r) for r in (100.0, 150.0, 220.0)]
        per, bat = assert_batch_equivalent(builders, self.options(method))
        assert per[0].stats["strategy"] == "linear"
        assert bat[0].stats["strategy"] == "batched-linear"

    def test_rank1(self, method):
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            method=method,
            use_dc_operating_point=False,
        )
        builders = [
            lambda g=g: build_oscillator(g) for g in (0.9, 1.0, 1.15, 1.3)
        ]
        per, bat = assert_batch_equivalent(builders, options)
        assert per[0].stats["strategy"] == "rank1"
        assert bat[0].stats["strategy"] == "batched-rank1"

    def test_scalar_linearize_fallback(self, method):
        # Devices without a batchable family loop over linearize();
        # the results must not change.
        builders = [
            lambda g=g: build_k_vccs(1, g, vectorized=False)
            for g in (2e-3, 3e-3)
        ]
        per, bat = assert_batch_equivalent(
            builders, self.options(method), atol=1e-12
        )
        assert per[0].stats["strategy"] == "rank1"
        assert bat[0].stats["strategy"] == "batched-rank1"


class TestRaggedConvergence:
    def test_samples_take_different_newton_counts(self):
        # Widely spread drive strengths: saturation onset differs per
        # sample, so Newton counts are ragged while results still pin
        # to the per-sample engine.
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            use_dc_operating_point=False,
        )
        scales = (0.8, 1.0, 1.4, 2.0)
        builders = [lambda g=g: build_oscillator(g) for g in scales]
        per, bat = assert_batch_equivalent(builders, options)
        per_counts = [r.stats["newton_iterations"] for r in per]
        bat_counts = [r.stats["newton_iterations"] for r in bat]
        # The convergence mask reproduces each sample's own count.
        assert bat_counts == per_counts
        assert len(set(bat_counts)) > 1, "spread should be ragged"


class TestRecordingOptions:
    def test_record_nodes_and_stride(self):
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            use_dc_operating_point=False,
            record_nodes=("lc1", "lc2"),
            record_stride=4,
        )
        builders = [lambda g=g: build_oscillator(g) for g in (0.9, 1.2)]
        per, bat = assert_batch_equivalent(builders, options)
        assert bat[0].recorded_nodes == ("lc1", "lc2")
        assert bat[0].x.shape[1] == 2
        # Unrecorded nodes still raise, like the per-sample result.
        with pytest.raises(SimulationError):
            bat[0].waveform("mid")

    def test_stats_carry_batch_info(self):
        options = TransientOptions(
            t_stop=5 * T0, dt=T0 / 40, use_dc_operating_point=False
        )
        bat = run_transient_batched(
            [build_oscillator(1.0), build_oscillator(1.1)], options
        )
        assert bat[0].stats["batch_samples"] == 2
        assert bat[0].stats["steps"] == 200


class TestAdaptiveLockstep:
    def test_shared_worst_sample_grid(self):
        circuits = [
            supply_loss_tank_circuit(F0, 10 * T0, q=q) for q in (12.0, 18.0)
        ]
        options = TransientOptions(
            t_stop=40 * T0,
            dt=T0 / 40,
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T0 / 640,
            dt_max=4 * T0,
        )
        results = run_transient_batched(circuits, options)
        # One shared (non-uniform) grid for every sample.
        np.testing.assert_array_equal(results[0].t, results[1].t)
        dts = np.diff(results[0].t)
        assert dts.min() < dts.max() / 2, "grid should actually adapt"
        # The fault breakpoint is landed on exactly.
        assert np.any(np.isclose(results[0].t, 10 * T0, rtol=0, atol=1e-18))
        assert results[0].stats["breakpoints_hit"] >= 1
        # Stats parity with the per-sample adaptive engine.
        assert results[0].stats["dt_cache_entries"] >= 1

    def test_adaptive_matches_fine_fixed_shape(self):
        circuits = lambda: [
            supply_loss_tank_circuit(F0, 10 * T0, q=q) for q in (12.0, 18.0)
        ]
        adaptive = run_transient_batched(
            circuits(),
            TransientOptions(
                t_stop=30 * T0,
                dt=T0 / 40,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_min=T0 / 640,
                dt_max=2 * T0,
                lte_reltol=2e-4,
            ),
        )
        fine = [
            run_transient(
                c,
                TransientOptions(
                    t_stop=30 * T0, dt=T0 / 320, use_dc_operating_point=False
                ),
            )
            for c in circuits()
        ]
        for a, f in zip(adaptive, fine):
            wa = a.differential("lc1", "lc2")
            wf = f.differential("lc1", "lc2")
            ya = np.interp(wf.t, wa.t, wa.y)
            mask = wf.t < 9 * T0  # driven phase
            scale = np.max(np.abs(wf.y[mask]))
            assert np.max(np.abs(ya[mask] - wf.y[mask])) < 0.02 * scale


class TestIncompatibility:
    def test_topology_mismatch(self):
        a = build_rlc(100.0)
        b = build_rlc(100.0)
        b.resistor("Rextra", "out", "0", 1e4)
        with pytest.raises(BatchIncompatible):
            run_transient_batched(
                [a, b], TransientOptions(t_stop=1e-6, dt=1e-9)
            )

    def test_unsupported_nonlinear_device(self):
        def diode_circuit():
            c = Circuit("d")
            c.voltage_source("V", "in", "0", 1.0)
            c.resistor("R", "in", "a", 1e3)
            c.diode("D", "a", "0")
            c.capacitor("C", "a", "0", 1e-9)
            return c

        with pytest.raises(BatchIncompatible):
            run_transient_batched(
                [diode_circuit(), diode_circuit()],
                TransientOptions(t_stop=1e-6, dt=1e-9),
            )

    def test_non_auto_jacobian(self):
        with pytest.raises(BatchIncompatible):
            run_transient_batched(
                [build_oscillator(1.0)],
                TransientOptions(t_stop=1e-6, dt=1e-9, jacobian="full"),
            )

    def test_empty_batch(self):
        with pytest.raises(SimulationError):
            run_transient_batched([], TransientOptions(t_stop=1e-6, dt=1e-9))


class TestVectorPairContract:
    def test_vector_pair_must_match_scalar_func(self):
        from repro.errors import NetlistError

        c = Circuit("bad")
        with pytest.raises(NetlistError):
            c.nonlinear_vccs(
                "G",
                "a",
                "0",
                "a",
                "0",
                lambda v: 1.0 + v,  # i(0) = 1
                vector_pair=tanh_limiter_pair,  # i(0) = 0
                vector_params=(1e-3, 1e-3),
            )

    def test_oscillator_driver_declares_family(self):
        circuit = build_oscillator(1.0)
        device = circuit["Gdrv"]
        assert device.vector_pair is not None
        # Structural equality across samples is what makes stacking
        # possible: two builds must compare equal.
        other = build_oscillator(2.0)["Gdrv"]
        assert device.vector_pair == other.vector_pair
        i, g = device.vector_pair(
            np.array([0.0, 0.1]), *[np.array([p, p]) for p in device.vector_params]
        )
        gm_ref, ieq_ref = device.linearize(0.1)
        np.testing.assert_allclose(g[1], gm_ref, rtol=1e-12)
        np.testing.assert_allclose(i[1] - g[1] * 0.1, ieq_ref, rtol=1e-12)


class TestVectorPairValidation:
    def test_sign_flipped_family_rejected(self):
        # An odd characteristic agrees with anything at v = 0; the
        # off-origin probes must catch a sign flip.
        from repro.errors import NetlistError

        import math

        def flipped(v, gm, i_max):
            i, g = tanh_limiter_pair(v, gm, i_max)
            return -i, -g

        c = Circuit("flip")
        with pytest.raises(NetlistError):
            c.nonlinear_vccs(
                "G",
                "a",
                "0",
                "a",
                "0",
                lambda v: 1e-3 * math.tanh(2e-3 * v / 1e-3),
                vector_pair=flipped,
                vector_params=(2e-3, 1e-3),
            )

    def test_wrong_scale_family_rejected(self):
        from repro.errors import NetlistError

        import math

        c = Circuit("scale")
        with pytest.raises(NetlistError):
            c.nonlinear_vccs(
                "G",
                "a",
                "0",
                "a",
                "0",
                lambda v: 1e-3 * math.tanh(2e-3 * v / 1e-3),
                vector_pair=tanh_limiter_pair,
                vector_params=(4e-3, 1e-3),  # double the real gm
            )


class TestMultistepLockstep:
    """BDF2/Gear through the batched engine: one shared order schedule,
    stacked multistep history, per-sample equivalence at rtol 1e-9."""

    def test_bdf2_fixed_grid_matches_per_sample(self):
        builders = [lambda r=r: build_rlc(r) for r in (100.0, 150.0, 220.0)]
        options = TransientOptions(
            t_stop=2e-5, dt=1e-8, method="bdf2", use_dc_operating_point=True
        )
        per, bat = assert_batch_equivalent(builders, options)
        assert bat[0].stats["strategy"] == "batched-linear"
        assert bat[0].stats["order_histogram"] == per[0].stats["order_histogram"]

    def test_gear3_fixed_grid_rank1_matches_per_sample(self):
        builders = [
            lambda s=s: build_oscillator(s) for s in (0.9, 1.0, 1.1)
        ]
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            method="gear",
            max_order=3,
            use_dc_operating_point=False,
        )
        per, bat = assert_batch_equivalent(builders, options)
        assert bat[0].stats["strategy"] == "batched-rank1"
        hist = bat[0].stats["order_histogram"]
        assert hist[3] > 0  # the batch reached order 3 together

    def test_gear_adaptive_lockstep_shared_order_schedule(self):
        builders = [lambda r=r: build_rlc(r) for r in (100.0, 220.0)]
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-8,
            method="gear",
            step_control="adaptive",
            use_dc_operating_point=True,
            dt_max=4e-7,
        )
        results = run_transient_batched(
            [build() for build in builders], options
        )
        stats = results[0].stats
        assert stats["accepted_steps"] > 0
        assert sum(stats["order_histogram"].values()) == stats["accepted_steps"]
        # One lockstep grid: both samples share it exactly.
        np.testing.assert_array_equal(results[0].t, results[1].t)

    def test_gear_adaptive_supply_loss_matches_per_sample_shape(self):
        def build(q):
            return supply_loss_tank_circuit(F0, 20 * T0, q=q, inductance=1e-6)

        options = TransientOptions(
            t_stop=80 * T0,
            dt=T0 / 40,
            method="bdf2",
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T0 / 640,
            dt_max=4 * T0,
        )
        batched = run_transient_batched([build(12.0), build(18.0)], options)
        fine = run_transient(
            build(12.0),
            TransientOptions(
                t_stop=80 * T0, dt=T0 / 160, use_dc_operating_point=False
            ),
        )
        wa = batched[0].differential("lc1", "lc2")
        wf = fine.differential("lc1", "lc2")
        pre = wa.window(10 * T0, 20 * T0).peak_to_peak()
        pre_f = wf.window(10 * T0, 20 * T0).peak_to_peak()
        assert pre == pytest.approx(pre_f, rel=0.05)


# -- rank-1 kernel branches the oscillator workloads never reach --------------

DT = 1e-8
MAX_STEP = 0.05


def build_cubic(g0, k=1e-2, delay=None):
    """One node: a cubic conductance ``g0*v + k*v**3`` against R || C,
    driven by a sine current, or by a current step ``delay`` in.

    With ``g0`` at minus the node's companion conductance the rank-1
    Jacobian is singular at ``v = 0`` (the very first Newton iterate,
    or every one before the step) and nowhere else."""
    circuit = Circuit("cubic")
    drive = (
        sine(1e-3, 1e5)
        if delay is None
        else pulse(0.0, 1e-3, delay=delay, rise=1e-9, width=1e-6)
    )
    circuit.current_source("I", "0", "a", drive)
    circuit.resistor("R", "a", "0", 1e3)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.nonlinear_vccs(
        "N", "a", "0", "a", "0",
        lambda v: g0 * v + k * v**3,
        dfunc=lambda v: g0 + 3 * k * v * v,
    )
    return circuit


def build_steep(g, amplitude=3e-3, i_max=1e-3, delay=0.0):
    """One node: a current step ``delay`` in, into a steep tanh limiter
    against R || C.

    At ``v = 0`` the limiter's slope is large, so the first Newton
    update is small and lands on the rank-1 line; the limiter then
    saturates and the next update is many ``max_step`` long."""
    circuit = Circuit("steep")
    circuit.current_source(
        "I", "0", "a", pulse(0.0, amplitude, delay=delay, rise=1e-9, width=1e-6)
    )
    circuit.resistor("R", "a", "0", 1e3)
    circuit.capacitor("C", "a", "0", 1e-12)
    circuit.nonlinear_vccs(
        "N", "a", "0", "a", "0",
        lambda v: i_max * np.tanh(g * v / i_max),
        dfunc=lambda v: g * (1.0 - np.tanh(g * v / i_max) ** 2),
    )
    return circuit


def damped_on_line(steps, n_samples, max_step):
    """Samples that took a damped update *after* landing on the line.

    For a one-node circuit every update moves the control voltage by
    the damped node delta: an update below ``max_step`` lands on the
    line, and a later one of exactly ``max_step`` is the damped
    on-line branch."""
    hit = np.zeros(n_samples, dtype=bool)
    for iterates in steps:
        for s, v in enumerate(iterates):
            d = np.abs(np.diff(v))
            landed = np.flatnonzero(d < max_step * (1 - 1e-9))
            if landed.size and np.isclose(
                d[landed[0] + 1 :], max_step, rtol=1e-9, atol=0
            ).any():
                hit[s] = True
    return hit


class TestRank1Branches:
    """Each branch is reached by one sample of a batch, not all of
    them, and pinned to the per-sample engine: same iterates at rtol
    1e-9 and the same Newton count, or the same failure."""

    def test_singular_denominator_dense_fallback(self, monkeypatch):
        options = TransientOptions(
            t_stop=40 * DT, dt=DT, use_dc_operating_point=False
        )
        probe = BatchedTransientAssembly(
            [build_cubic(0.0)], DT, options.resolved_method(), options.newton.gmin
        )
        vw = probe.rank1_data()[1][0]
        # 1 + g0*vw = 1e-13, under the kernel's 1e-12 singularity screen.
        g_singular = -(1.0 - 1e-13) / vw
        fallbacks = []
        fallback = _BatchedStepSolver._dense_fallback

        def spy(self, s, *args):
            fallbacks.append(int(s))
            return fallback(self, s, *args)

        monkeypatch.setattr(_BatchedStepSolver, "_dense_fallback", spy)
        builders = [
            lambda g=g: build_cubic(g) for g in (g_singular, -0.5e-3, 1e-3)
        ]
        per, bat = assert_batch_equivalent(builders, options)
        assert fallbacks == [0]
        assert [r.stats["newton_iterations"] for r in bat] == [
            r.stats["newton_iterations"] for r in per
        ]

    def test_damped_on_line_update(self, monkeypatch, newton_iterates):
        options = TransientOptions(
            t_stop=40 * DT,
            dt=DT,
            use_dc_operating_point=False,
            newton=NewtonOptions(max_step=MAX_STEP, max_iterations=100),
        )
        gms = (0.05, 0.15, 0.4)
        steps = newton_iterates(monkeypatch)
        builders = [lambda g=g: build_steep(g) for g in gms]
        per, bat = assert_batch_equivalent(builders, options)
        assert damped_on_line(steps, len(gms), MAX_STEP).tolist() == [
            False,
            True,
            True,
        ]
        assert [r.stats["newton_iterations"] for r in bat] == [
            r.stats["newton_iterations"] for r in per
        ]

    @pytest.mark.parametrize("branch", ["singular", "damped"])
    def test_healthy_path_hands_off_mid_step(
        self, monkeypatch, healthy_vs_general, branch
    ):
        """A current step five steps in: until then every sample sits at
        ``v = 0`` with a primed predictor, so those steps start on the
        healthy path.  There the cubic's first linearization is singular
        for one sample (dense fallback), and the steep limiter's first
        update after the step is damped for all of them: each hands the
        step to the general loop with its linearization, and forcing
        the general loop throughout changes nothing."""
        delay = 5 * DT
        options = TransientOptions(
            t_stop=40 * DT, dt=DT, use_dc_operating_point=False
        )
        if branch == "singular":
            probe = BatchedTransientAssembly(
                [build_cubic(0.0)], DT, options.resolved_method(), options.newton.gmin
            )
            g_singular = -(1.0 - 1e-13) / probe.rank1_data()[1][0]
            builders = [
                lambda g=g: build_cubic(g, delay=delay)
                for g in (g_singular, -0.5e-3, 1e-3)
            ]
        else:
            options.newton = NewtonOptions(max_step=MAX_STEP, max_iterations=100)
            builders = [
                lambda g=g: build_steep(g, delay=delay) for g in (0.05, 0.15, 0.4)
            ]
        fallbacks = []
        fallback = _BatchedStepSolver._dense_fallback

        def spy(self, s, *args):
            fallbacks.append(int(s))
            return fallback(self, s, *args)

        monkeypatch.setattr(_BatchedStepSolver, "_dense_fallback", spy)
        healthy, gathers, general_gathers = healthy_vs_general(
            lambda: run_transient_batched([build() for build in builders], options)
        )
        assert gathers < general_gathers  # the healthy path ran
        if branch == "singular":
            # Per run, six steps linearize sample 0 at v = 0 first: five
            # before the current step and the one predicted from them.
            # Four start on the healthy path.
            assert fallbacks == [0] * 12
        per_sample = [run_transient(build(), options) for build in builders]
        for reference, result in zip(per_sample, healthy):
            np.testing.assert_allclose(result.x, reference.x, rtol=1e-9, atol=1e-15)
            assert (
                result.stats["newton_iterations"]
                == reference.stats["newton_iterations"]
            )

    def test_step_from_an_uncommitted_iterate_projects_it(
        self, monkeypatch, newton_iterates
    ):
        """A step from the committed iterate reads ``x_n``'s control
        voltage back from the predictor; a step from any other iterate
        (an adaptive candidate's second half starts at its uncommitted
        midpoint) projects its own.  Here the predictor holds three
        points at 0 V and the step starts 10 V away: a damped move off
        the line, so Newton's first linearization is at 10 V."""
        options = TransientOptions(dt=T0 / 40, use_dc_operating_point=False)
        circuits = [build_oscillator(g) for g in (0.9, 1.3)]
        asm = BatchedTransientAssembly(
            circuits, options.dt, options.resolved_method(), options.newton.gmin
        )
        x_n = np.zeros((len(circuits), asm.size))
        asm.init_state(x_n)
        solver = _BatchedStepSolver(asm, options.newton)
        for k in range(3):
            solver.note_commit(k * options.dt, x_n)
        x_far = x_n.copy()
        x_far[:, circuits[0].node_index("lc1")] = 10.0
        steps = newton_iterates(monkeypatch)
        t = 3 * options.dt
        solver.step(x_far, asm.step_rhs(t, x_far), t)
        assert [iterates[0] for iterates in steps[0]] == [10.0, 10.0]

    def test_newton_nonconvergence_names_the_failed_samples(self):
        options = TransientOptions(
            t_stop=40 * DT,
            dt=DT,
            use_dc_operating_point=False,
            newton=NewtonOptions(max_step=MAX_STEP, max_iterations=20),
        )
        # A larger step needs more max_step-damped updates to settle.
        amplitudes = (1.5e-3, 3e-3, 5e-3)
        fail_times = []
        for amplitude in amplitudes:
            try:
                run_transient(build_steep(0.15, amplitude), options)
                fail_times.append(np.inf)
            except ConvergenceError as exc:
                fail_times.append(exc.time)
        first = min(fail_times)
        expected = [s for s, t in enumerate(fail_times) if t == first]
        assert 0 < len(expected) < len(amplitudes)
        with pytest.raises(ConvergenceError) as info:
            run_transient_batched(
                [build_steep(0.15, a) for a in amplitudes], options
            )
        assert info.value.time == first
        assert info.value.failed_samples == expected


# -- generated rank-1 netlists --------------------------------------------------


def build_generated(values, node, source, spread, name):
    """An RLC network driven by ``source`` with one NonlinearVCCS, a
    tanh limiter conductance at ``node``; every element value of
    ``values`` scaled by ``1 + spread``."""
    r1, c1, l1, r2, c2, gm, i_max = (v * (1.0 + spread) for v in values)
    circuit = Circuit(name)
    circuit.voltage_source("V", "in", "0", source)
    circuit.resistor("R1", "in", "a", r1)
    circuit.capacitor("C1", "a", "0", c1)
    circuit.inductor("L1", "a", "b", l1)
    circuit.resistor("R2", "b", "0", r2)
    circuit.capacitor("C2", "b", "0", c2)
    circuit.nonlinear_vccs(
        "G", node, "0", node, "0",
        lambda v: i_max * np.tanh(gm * v / i_max),
        pair=lambda v: tanh_limiter_pair(v, gm, i_max),
        vector_pair=tanh_limiter_pair,
        vector_params=(gm, i_max),
    )
    return circuit


@st.composite
def generated_batches(draw):
    """``(values, node, source, spreads, quarantined, period)``: a
    netlist of :func:`build_generated`, a function making its pulse or
    PWL source, 2-4 sample spreads, the index of the sample quarantined
    mid-run and the nominal LC period."""
    values = (
        draw(st.floats(20.0, 500.0)),  # R1
        draw(st.floats(1e-10, 2e-9)),  # C1
        draw(st.floats(5e-7, 5e-6)),  # L1
        draw(st.floats(100.0, 5e3)),  # R2
        draw(st.floats(1e-11, 1e-9)),  # C2
        draw(st.floats(1e-4, 2e-2)),  # gm
        draw(st.floats(1e-4, 3e-3)),  # i_max
    )
    period = 2 * np.pi * np.sqrt(values[1] * values[2])
    amplitude = draw(st.floats(0.05, 2.0))
    spreads = draw(st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=4))
    if draw(st.booleans()):
        def source():
            return pulse(
                0.0, amplitude, delay=2 * period, rise=period / 7,
                fall=period / 5, width=5 * period,
            )
    else:
        def source():
            return pwl([
                (0.0, 0.0), (period, amplitude), (4 * period, -amplitude),
                (9 * period, 0.5 * amplitude),
            ])
    node = draw(st.sampled_from(["a", "b"]))
    quarantined = draw(st.integers(0, len(spreads) - 1))
    return values, node, source, spreads, quarantined, period


class TestGeneratedRank1Netlists:
    """Lockstep ≡ per-sample on generated rank-1 netlists, with one
    sample quarantined mid-run: survivors at rtol 1e-9 with equal
    Newton counts, the quarantined sample up to its death, and its
    frozen rows never taking the propagator's product."""

    @pytest.mark.parametrize(
        "fields", [{"method": "trap"}, {"method": "gear", "max_order": 3}],
        ids=["trap", "gear3"],
    )
    @settings(max_examples=12, deadline=2000)
    @given(batch=generated_batches())
    def test_lockstep_matches_per_sample(self, fields, batch):
        values, node, source, spreads, bad, period = batch
        t_death = 6 * period

        def fail_bad(time, phase, circuit):
            return circuit.title == "bad" and time >= t_death

        def options(**kw):
            opts = TransientOptions(
                t_stop=12 * period, dt=period / 30,
                use_dc_operating_point=False, **fields, **kw,
            )
            opts.newton.fail_hook = fail_bad
            return opts

        def build():
            return [
                build_generated(
                    values, node, source(), spread, "bad" if s == bad else f"s{s}"
                )
                for s, spread in enumerate(spreads)
            ]

        frozen_commits = []
        commit = _ReactiveSet.commit

        def spy(self, co, x, time, freeze):
            if freeze is not None and self.pending is not None and x is self.pending[0]:
                off = self.pending[2]
                frozen_commits.append(off is not None and bool(off[freeze].all()))
            commit(self, co, x, time, freeze)

        # The hook fails the rescue too, so the sample's own run ends
        # where its lockstep rows freeze.  A run whose own Newton failed
        # (a rescue counted) is outside the property: the lockstep
        # engine has no rescue ladder.
        per_sample = [
            run_transient(c, options(on_abort="partial", rescue=True))
            for c in build()
        ]
        assume(not any(r.stats["rescues"] for r in per_sample))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_ReactiveSet, "commit", spy)
            batched = run_transient_batched(build(), options(quarantine=True))
        assert frozen_commits and all(frozen_commits)
        for s, (reference, stacked) in enumerate(zip(per_sample, batched)):
            assert stacked.stats["strategy"] == "batched-rank1"
            assert reference.stats["strategy"] == "rank1"
            assert (
                stacked.stats["newton_iterations"]
                == reference.stats["newton_iterations"]
            )
            if s == bad:
                assert stacked.stats["quarantined"] is True
                assert reference.stats["completed"] is False
                alive = len(reference.t)
                np.testing.assert_array_equal(stacked.t[:alive], reference.t)
                frozen = stacked.x[alive - 1 :]
                assert np.all(frozen == frozen[0])
            else:
                assert stacked.stats["quarantined"] is False
                alive = len(stacked.t)
                np.testing.assert_array_equal(stacked.t, reference.t)
            np.testing.assert_allclose(
                stacked.x[:alive], reference.x, rtol=1e-9, atol=1e-15
            )
