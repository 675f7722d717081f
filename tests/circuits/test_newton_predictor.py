"""The Newton predictor: where every rank-1 Newton step starts.

Both rank-1 kernels start on the Sherman–Morrison line at the quadratic
extrapolation of the device's control voltage through the last three
committed points (:class:`~repro.circuits.linsolve.NewtonPredictor`),
and from ``x_n`` wherever the integrator history restarts.  Pinned
here: the predictor's arithmetic, the Newton iterations it saves, the
lockstep engine still mirroring the per-sample one sample for sample,
each restart point, and the converged answer still matching the seed
engine.
"""

from typing import List, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    Circuit,
    EnvelopeOptions,
    PhaseSchedule,
    TransientOptions,
    pulse,
    run_transient,
    run_transient_batched,
    run_transient_envelope,
    run_transient_reference,
    sine,
)
from repro.circuits.linsolve import NewtonPredictor
from repro.circuits.transient import _StepSolver
from repro.core import OscillatorNetlist
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.mc.mismatch import MismatchProfile, MismatchSigmas

TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)
T0 = 1.0 / TANK.frequency


def fig16():
    return OscillatorNetlist(TANK, vref=2.5).build(LIMITER)


def fig16_draw(seed):
    """The Fig 16 netlist of one mismatch draw, sigmas widened 10x so
    the draws' Newton counts differ."""
    sigmas = MismatchSigmas(prescale=0.08, gm_stage=0.2)
    profile = MismatchProfile.sample(seed=seed, sigmas=sigmas)
    tank = RLCTank.from_frequency_and_q(
        TANK.frequency, 15.0 * (1.0 + profile.prescale_errors[0]), 1e-6
    )
    limiter = TanhLimiter(gm=6e-3 * (1.0 + profile.gm_stage_errors[0]), i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def fixed_options(cycles, points_per_cycle=40, **kw):
    return TransientOptions(
        t_stop=cycles * T0,
        dt=T0 / points_per_cycle,
        method="trap",
        use_dc_operating_point=False,
        **kw,
    )


# -- the predictor itself -----------------------------------------------------


class TestPredictor:
    def test_needs_three_points(self):
        p = NewtonPredictor()
        assert p.predict(1.0) is None
        p.push(0.0, 1.0)
        p.push(1.0, 2.0)
        assert p.predict(2.0) is None
        p.push(2.0, 5.0)
        assert p.predict(3.0) is not None
        p.reset()
        assert p.predict(3.0) is None

    def test_exact_on_quadratics_with_uneven_spacing(self):
        def f(t):
            return 0.3 - 1.7 * t + 2.9 * t * t

        p = NewtonPredictor()
        for t in (0.0, 0.4, 0.5, 1.3):  # the oldest point drops out
            p.push(t, f(t))
        for t in (1.5, 2.0, 0.45):
            assert p.predict(t) == pytest.approx(f(t), rel=1e-12, abs=1e-12)

    def test_array_entries_match_float_runs_bitwise(self):
        rng = np.random.default_rng(7)
        times = np.cumsum(rng.uniform(0.5, 1.5, 4))
        values = rng.normal(size=(4, 6))
        batch = NewtonPredictor()
        singles = [NewtonPredictor() for _ in range(6)]
        for t, row in zip(times, values):
            batch.push(float(t), row.copy())
            for s, p in enumerate(singles):
                p.push(float(t), float(row[s]))
        t_next = float(times[-1]) + 0.7
        expected = [p.predict(t_next) for p in singles]
        assert batch.predict(t_next).tolist() == expected


# -- the Newton iterations it saves -------------------------------------------


class TestNewtonEconomy:
    def test_fixed_grid_takes_at_most_two_per_step(self):
        # Started from x_n, 80 Fig 16 cycles took 8065 iterations
        # (2.52 per step): one to move, one or two to confirm.
        result = run_transient(fig16(), fixed_options(80))
        assert result.stats["strategy"] == "rank1"
        per_step = result.stats["newton_iterations"] / result.stats["steps"]
        assert per_step <= 2.0

    def test_adaptive_startup_takes_fewer_than_from_x_n(self):
        # 6524 iterations when every step started from x_n.
        result = OscillatorNetlist(TANK, vref=2.5).run_startup(
            code=0, t_stop=80 * T0, limiter=LIMITER, step_control="adaptive"
        )
        assert result.stats["newton_iterations"] < 6524

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_lockstep_counts_equal_per_sample(self, step_control):
        seeds = (3, 14, 15, 92, 65, 35)
        options = fixed_options(20, step_control=step_control)
        per = [run_transient(fig16_draw(s), options) for s in seeds]
        if step_control == "fixed":
            bat = run_transient_batched([fig16_draw(s) for s in seeds], options)
        else:
            # An adaptive batch shares its worst sample's grid; a batch
            # of one walks the per-sample run's own grid.
            bat = [run_transient_batched([fig16_draw(s)], options)[0] for s in seeds]
        counts = [r.stats["newton_iterations"] for r in per]
        assert [r.stats["newton_iterations"] for r in bat] == counts
        assert len(set(counts)) > 1, "the draws should differ"
        for b, p in zip(bat, per):
            np.testing.assert_array_equal(b.t, p.t)
            np.testing.assert_allclose(b.x, p.x, rtol=1e-9, atol=1e-15)


# -- every history restart restarts the predictor -----------------------------


class Event(NamedTuple):
    kind: str  # "reset", "push" or "step"
    t: float
    predicted: Optional[float] = None
    v_n: Optional[float] = None  # control voltage of x_n
    v_first: Optional[float] = None  # control voltage Newton linearized first


def spy(monkeypatch) -> List[Event]:
    """Log the per-sample engine's predictor resets and pushes, and per
    rank-1 step its prediction, ``x_n``'s control voltage and the
    control voltage of its first linearization."""
    log: List[Event] = []
    reset, push = NewtonPredictor.reset, NewtonPredictor.push
    step_rank1 = _StepSolver._step_rank1

    def spy_reset(self):
        log.append(Event("reset", float("nan")))
        reset(self)

    def spy_push(self, t, v):
        log.append(Event("push", t))
        push(self, t, v)

    def spy_step(self, x, rhs_lin, time):
        device = self._device
        linearize = device.linearize
        first: List[float] = []

        def first_linearize(v):
            if not first:
                first.append(v)
            return linearize(v)

        predicted = self.predictor.predict(time)
        device.linearize = first_linearize
        try:
            return step_rank1(self, x, rhs_lin, time)
        finally:
            del device.linearize
            log.append(Event("step", time, predicted, self._ctrl_diff(x), first[0]))

    monkeypatch.setattr(NewtonPredictor, "reset", spy_reset)
    monkeypatch.setattr(NewtonPredictor, "push", spy_push)
    monkeypatch.setattr(_StepSolver, "_step_rank1", spy_step)
    return log


def restarts(log: List[Event]) -> List[float]:
    """Times of the points the predictor restarted from."""
    return [log[i + 1].t for i, e in enumerate(log[:-1]) if e.kind == "reset"]


def assert_next_step_from_x_n(log: List[Event], t_restart: float) -> None:
    """The first step after the predictor restarted at ``t_restart``
    starts from ``x_n``, exactly as before the predictor existed, and
    the steps just before it were predicted."""
    i = next(
        i for i, e in enumerate(log[:-1])
        if e.kind == "reset" and log[i + 1] == Event("push", t_restart)
    )
    step = next(e for e in log[i:] if e.kind == "step")
    assert step.predicted is None
    assert step.v_first == step.v_n
    before = [e for e in log[:i] if e.kind == "step"]
    if before:
        assert before[-1].predicted is not None


class TestRestarts:
    def test_run_start(self, monkeypatch):
        log = spy(monkeypatch)
        run_transient(fig16(), fixed_options(2))
        assert restarts(log) == [0.0]
        steps = [e for e in log if e.kind == "step"]
        for step in steps[:2]:  # one, then two committed points
            assert step.predicted is None and step.v_first == step.v_n
        assert all(step.predicted is not None for step in steps[2:])
        # A predicted start is linearized at the predicted voltage
        # (up to the line's rounding), not at x_n's.
        assert steps[2].v_first == pytest.approx(steps[2].predicted, abs=1e-12)
        assert steps[2].v_first != steps[2].v_n

    def test_crossed_pulse_breakpoint(self, monkeypatch):
        def pulsed():
            # A tanh load on an RC node, driven by a sine plus a current
            # pulse whose edges are breakpoints of the adaptive grid.
            circuit = Circuit("pulsed")
            circuit.current_source("Is", "0", "a", sine(1e-3, 1e6))
            circuit.current_source(
                "Ip", "0", "a", pulse(0.0, 1e-3, delay=2e-6, rise=1e-8, width=1e-6)
            )
            circuit.resistor("R", "a", "0", 1e3)
            circuit.capacitor("C", "a", "0", 1e-10)
            circuit.nonlinear_vccs(
                "N", "a", "0", "a", "0", lambda v: 1e-3 * np.tanh(v),
                dfunc=lambda v: 1e-3 * (1.0 - np.tanh(v) ** 2),
            )
            return circuit

        options = TransientOptions(
            t_stop=4e-6, dt=5e-8, step_control="adaptive", use_dc_operating_point=False
        )
        log = spy(monkeypatch)
        result = run_transient(pulsed(), options)
        assert result.stats["breakpoints_hit"] >= 2
        assert 2e-6 in restarts(log)
        assert_next_step_from_x_n(log, 2e-6)
        # The lockstep engine restarts at the same breakpoints.
        (stacked,) = run_transient_batched([pulsed()], options)
        assert stacked.stats["newton_iterations"] == result.stats["newton_iterations"]
        np.testing.assert_allclose(stacked.x, result.x, rtol=1e-9, atol=1e-15)

    def test_phase_switch(self, monkeypatch):
        log = spy(monkeypatch)
        result = run_transient(
            fig16(),
            fixed_options(
                12,
                step_control="adaptive",
                phases=PhaseSchedule.carrier_then_settle(8 * T0),
            ),
        )
        (switch,) = result.stats["phases"]
        assert switch["t"] in restarts(log)
        assert_next_step_from_x_n(log, switch["t"])

    def test_envelope_jump(self, monkeypatch):
        log = spy(monkeypatch)
        result = run_transient_envelope(
            fig16(),
            fixed_options(200),
            EnvelopeOptions(
                period=T0, nodes=("lc1", "lc2"), model=EnvelopeModel(TANK, LIMITER)
            ),
        )
        landings = [
            s["t1"] for s in result.stats["envelope"]["segments"]
            if s["kind"] == "skipped"
        ]
        assert len(landings) >= 2
        assert restarts(log) == [0.0] + landings
        for t in landings:
            assert_next_step_from_x_n(log, t)


# -- a prediction the line cannot reach, or a damped move away ----------------


def buffer_stage():
    """A tanh transconductor whose control node is held by a voltage
    source: its output never moves its control voltage (``vw = 0``), so
    no point of the rank-1 line has the predicted control voltage."""
    circuit = Circuit("buffer")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    circuit.nonlinear_vccs(
        "G", "out", "0", "in", "0", lambda v: 1e-3 * np.tanh(v),
        dfunc=lambda v: 1e-3 * (1.0 - np.tanh(v) ** 2),
    )
    circuit.resistor("RL", "out", "0", 1e3)
    circuit.capacitor("CL", "out", "0", 1e-9)
    return circuit


def edge(amplitude):
    """A current step into an RC node much faster than the fixed grid:
    the node jumps by about ``amplitude * 1 kOhm`` within one step, and
    the extrapolation through the jump overshoots by twice that.  (On
    one node, a move along the line moves the control voltage by the
    same amount.)"""
    circuit = Circuit("edge")
    circuit.current_source(
        "I", "0", "a", pulse(0.0, amplitude, delay=1e-7, rise=1e-9, width=1e-6)
    )
    circuit.resistor("R", "a", "0", 1e3)
    circuit.capacitor("C", "a", "0", 1e-12)
    circuit.nonlinear_vccs(
        "N", "a", "0", "a", "0", lambda v: 1e-3 * np.tanh(v),
        dfunc=lambda v: 1e-3 * (1.0 - np.tanh(v) ** 2),
    )
    return circuit


EDGE_OPTIONS = TransientOptions(t_stop=4e-7, dt=1e-8, use_dc_operating_point=False)


def from_x_n(monkeypatch, run):
    """``run()`` with every step started from ``x_n``, as before the
    predictor existed."""
    with monkeypatch.context() as patch:
        patch.setattr(NewtonPredictor, "predict", lambda self, t: None)
        return run()


class TestUntrustedPredictions:
    @pytest.mark.parametrize("engine", ["scalar", "lockstep"])
    def test_control_held_by_a_source_starts_from_x_n(self, monkeypatch, engine):
        options = TransientOptions(t_stop=2e-5, dt=1e-7, use_dc_operating_point=False)

        def run():
            if engine == "lockstep":
                return run_transient_batched([buffer_stage()], options)[0]
            return run_transient(buffer_stage(), options)

        result = run()
        assert result.stats["strategy"] in ("rank1", "batched-rank1")
        reference = from_x_n(monkeypatch, run)
        np.testing.assert_array_equal(result.x, reference.x)
        assert result.stats["newton_iterations"] == reference.stats["newton_iterations"]

    def test_damped_prediction_starts_from_x_n(self, monkeypatch):
        log = spy(monkeypatch)
        run_transient(edge(3e-3), EDGE_OPTIONS)
        steps = [e for e in log if e.kind == "step" and e.predicted is not None]
        far = [e for e in steps if abs(e.predicted - e.v_n) > EDGE_OPTIONS.newton.max_step]
        assert far
        assert all(e.v_first == e.v_n for e in far)
        assert any(e.v_first != e.v_n for e in steps if e not in far)

    def test_lockstep_trusts_per_sample(self):
        # Edges of 0.2, 1.5 and 3 V: the lockstep start trusts the
        # prediction for some samples of a step and not for others.
        amplitudes = (0.2e-3, 1.5e-3, 3e-3)
        per = [run_transient(edge(a), EDGE_OPTIONS) for a in amplitudes]
        bat = run_transient_batched([edge(a) for a in amplitudes], EDGE_OPTIONS)
        assert [r.stats["newton_iterations"] for r in bat] == [
            r.stats["newton_iterations"] for r in per
        ]
        for b, p in zip(bat, per):
            np.testing.assert_allclose(b.x, p.x, rtol=1e-9, atol=1e-15)


# -- the converged answer still matches the seed engine -----------------------


@settings(max_examples=8, deadline=20000)
@given(
    seed=st.integers(0, 2**16),
    points_per_cycle=st.floats(20.0, 80.0),
)
def test_fig16_draws_match_the_seed_engine(seed, points_per_cycle):
    options = fixed_options(12, points_per_cycle)
    optimized = run_transient(fig16_draw(seed), options)
    reference = run_transient_reference(fig16_draw(seed), options)
    assert optimized.stats["strategy"] == "rank1"
    np.testing.assert_array_equal(optimized.t, reference.t)
    # The goldens' criterion: each tank node to rtol 1e-9 of its peak.
    for node in ("lc1", "lc2", "mid"):
        y, y_ref = optimized.waveform(node).y, reference.waveform(node).y
        assert np.abs(y - y_ref).max() <= 1e-9 * np.abs(y_ref).max(), node
