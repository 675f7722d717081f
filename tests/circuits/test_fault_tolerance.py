"""Fault-injection tests for the transient rescue/quarantine layer.

Deterministic failures come from ``NewtonOptions.fail_hook`` — the
test-only hook consulted before each transient Newton step
(``phase="step"``) and each rescue attempt (``phase="rescue"``).
Returning True makes that solve fail exactly as if Newton diverged,
which pins down every escalation path without needing a circuit that
genuinely diverges at a chosen step:

* fixed-grid rescue ladder (gmin ramp, residual continuation),
* adaptive dt-shrink escalation down to ``dt_min`` and rescue there,
* budgets (``max_steps``, ``max_wall_time``, ``max_rescues``),
* partial-result mode (``on_abort="partial"``),
* batched per-sample quarantine on both grids,
* the zero-overhead guarantee for healthy runs.
"""

import pickle

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    TransientOptions,
    run_transient,
    run_transient_batched,
    sine,
)
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.errors import ConvergenceError, SimulationError

F0 = 4e6
T0 = 1.0 / F0
DT = T0 / 40.0
T_STOP = 4.0 * T0


def build_oscillator(gm_scale=1.0, fault_id=None):
    """The Fig 1 startup netlist (rank-1 strategy), optionally marked
    with a ``fault_id`` attribute the module-level hooks key on."""
    tank = RLCTank.from_frequency_and_q(F0, 15.0, 1e-6)
    circuit = OscillatorNetlist(tank, vref=2.5).build(
        TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    )
    circuit.fault_id = fault_id
    return circuit


def build_rc(fault_id=None):
    """Linear strategy: V source + R + C."""
    circuit = Circuit("rc")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    circuit.resistor("R", "in", "out", 1e3)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.fault_id = fault_id
    return circuit


# Failures start here — partway into the run, away from t=0.
T_FAIL = 1.0 * T0 + 0.1 * DT


class FailUntilRescued:
    """Fail every Newton *step* solve from ``start`` on, until the
    engine escalates to the rescue ladder; the rescue succeeds and
    flips the hook off.  Pins "exactly one rescue, run completes" on
    both grids (the adaptive grid cannot step around a failure that
    follows the clock)."""

    def __init__(self, start=T_FAIL):
        self.start = start
        self.rescued = False

    def __call__(self, time, phase, circuit):
        if phase == "rescue":
            self.rescued = True
            return False
        return not self.rescued and time >= self.start


class CountedStepFailures:
    """Fail the first ``n`` step solves at/after ``start`` (rescues
    succeed) — each failed grid step consumes one rescue."""

    def __init__(self, n, start=T_FAIL):
        self.remaining = n
        self.start = start

    def __call__(self, time, phase, circuit):
        if phase == "step" and time >= self.start and self.remaining > 0:
            self.remaining -= 1
            return True
        return False


def fail_all_forever(time, phase, circuit):
    """Step and rescue solves all fail from T_FAIL on: unrecoverable."""
    return time >= T_FAIL


def fail_step_forever(time, phase, circuit):
    return phase == "step" and time >= T_FAIL


def fail_marked_after(time, phase, circuit):
    """Samples marked ``fault_id="bad"`` die (rescue included) from
    T_FAIL on; everyone else is healthy."""
    return getattr(circuit, "fault_id", None) == "bad" and time >= T_FAIL


def _options(**kw):
    kw.setdefault("t_stop", T_STOP)
    kw.setdefault("dt", DT)
    kw.setdefault("method", "trap")
    kw.setdefault("use_dc_operating_point", False)
    return TransientOptions(**kw)


class TestOptionsValidation:
    def test_on_abort_mode_checked(self):
        with pytest.raises(SimulationError):
            _options(on_abort="explode")

    def test_budget_bounds_checked(self):
        with pytest.raises(SimulationError):
            _options(max_rescues=-1)
        with pytest.raises(SimulationError):
            _options(max_steps=0)
        with pytest.raises(SimulationError):
            _options(max_wall_time=0.0)


class TestConvergenceErrorContext:
    def test_context_fields_round_trip_through_pickle(self):
        error = ConvergenceError(
            "died",
            iterations=7,
            residual=0.25,
            time=1e-6,
            dt=1e-9,
            phase="step",
            failed_samples=[2, 5],
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.iterations == 7
        assert clone.residual == 0.25
        assert clone.context() == {
            "iterations": 7,
            "residual": 0.25,
            "time": 1e-6,
            "dt": 1e-9,
            "phase": "step",
            "failed_samples": [2, 5],
        }

    def test_injected_step_failure_is_enriched(self):
        options = _options()
        options.newton.fail_hook = fail_step_forever
        with pytest.raises(ConvergenceError) as excinfo:
            run_transient(build_oscillator(), options)
        context = excinfo.value.context()
        assert context["phase"] == "step"
        assert context["time"] >= T_FAIL
        assert context["dt"] == pytest.approx(DT)


class TestFixedGridRescue:
    def test_rescue_recovers_the_run(self):
        healthy = run_transient(build_oscillator(), _options())
        options = _options(rescue=True)
        options.newton.fail_hook = FailUntilRescued()
        rescued = run_transient(build_oscillator(), options)
        assert rescued.stats["rescues"] == 1
        assert sum(rescued.stats["rescue_stages"].values()) >= 1
        assert rescued.t[-1] == pytest.approx(T_STOP)
        # The rescue ladder lands on the same step solutions the
        # healthy Newton finds (within solver tolerance).
        np.testing.assert_allclose(rescued.x, healthy.x, rtol=1e-5, atol=1e-7)

    def test_without_rescue_the_seed_contract_raises(self):
        options = _options()
        options.newton.fail_hook = CountedStepFailures(1)
        with pytest.raises(ConvergenceError):
            run_transient(build_oscillator(), options)

    def test_rescue_failure_partial_result(self):
        options = _options(rescue=True, on_abort="partial")
        options.newton.fail_hook = fail_all_forever
        result = run_transient(build_oscillator(), options)
        stats = result.stats
        assert stats["completed"] is False
        assert stats["abort_reason"] == "newton"
        assert 0.0 < stats["t_abort"] < T_STOP
        assert result.t[-1] <= stats["t_abort"] + DT
        assert "abort_error" in stats

    def test_rescue_failure_raise_mode(self):
        options = _options(rescue=True)
        options.newton.fail_hook = fail_all_forever
        with pytest.raises(ConvergenceError) as excinfo:
            run_transient(build_oscillator(), options)
        assert excinfo.value.context()["phase"] == "rescue"

    def test_max_rescues_budget(self):
        options = _options(rescue=True, max_rescues=1, on_abort="partial")
        options.newton.fail_hook = CountedStepFailures(2)
        result = run_transient(build_oscillator(), options)
        assert result.stats["abort_reason"] == "max_rescues"
        assert result.stats["rescues"] == 1

    def test_rescue_works_on_linear_circuits_too(self):
        options = _options(rescue=True)
        options.newton.fail_hook = FailUntilRescued()
        rescued = run_transient(build_rc(), options)
        healthy = run_transient(build_rc(), _options())
        assert rescued.stats["rescues"] == 1
        np.testing.assert_allclose(rescued.x, healthy.x, rtol=1e-6, atol=1e-9)


class TestBudgets:
    def test_max_steps_partial(self):
        options = _options(max_steps=10, on_abort="partial")
        result = run_transient(build_oscillator(), options)
        assert result.stats["abort_reason"] == "max_steps"
        assert result.stats["completed"] is False
        assert result.stats["steps"] == 10
        assert result.stats["t_abort"] == pytest.approx(10 * DT)

    def test_max_steps_raise(self):
        options = _options(max_steps=10)
        with pytest.raises(SimulationError, match="max_steps"):
            run_transient(build_oscillator(), options)

    def test_max_wall_time_partial(self):
        options = _options(max_wall_time=1e-12, on_abort="partial")
        result = run_transient(build_oscillator(), options)
        assert result.stats["abort_reason"] == "max_wall_time"
        assert result.stats["completed"] is False

    def test_adaptive_max_steps_partial(self):
        options = _options(
            step_control="adaptive", max_steps=5, on_abort="partial"
        )
        result = run_transient(build_oscillator(), options)
        assert result.stats["abort_reason"] == "max_steps"
        assert result.stats["t_abort"] < T_STOP


class TestAdaptiveRescue:
    def test_escalates_to_dt_min_then_rescues(self):
        options = _options(step_control="adaptive", rescue=True)
        hook = FailUntilRescued()
        options.newton.fail_hook = hook
        result = run_transient(build_oscillator(), options)
        # The controller had to walk dt down to the floor before the
        # rescue fired (the hook fails *every* step solve until then).
        assert result.stats["rescues"] == 1
        assert hook.rescued
        assert result.t[-1] == pytest.approx(T_STOP)
        healthy = run_transient(
            build_oscillator(), _options(step_control="adaptive")
        )
        # Same physics, different grids: compare the final oscillator
        # state loosely.
        assert result.x[-1] == pytest.approx(healthy.x[-1], rel=0.05, abs=1e-3)

    def test_rescue_dead_at_floor_partial(self):
        options = _options(
            step_control="adaptive", rescue=True, on_abort="partial"
        )
        options.newton.fail_hook = fail_all_forever
        result = run_transient(build_oscillator(), options)
        assert result.stats["abort_reason"] == "newton_dt_min"
        assert result.stats["completed"] is False
        assert 0.0 < result.stats["t_abort"] < T_STOP

    def test_without_rescue_raises_at_floor(self):
        options = _options(step_control="adaptive")
        options.newton.fail_hook = fail_step_forever
        with pytest.raises(ConvergenceError):
            run_transient(build_oscillator(), options)


class TestZeroOverhead:
    """Healthy runs must not change when rescue/budgets are armed."""

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_rescue_flag_is_bit_free_on_healthy_runs(self, step_control):
        plain = run_transient(
            build_oscillator(), _options(step_control=step_control)
        )
        armed = run_transient(
            build_oscillator(),
            _options(
                step_control=step_control,
                rescue=True,
                max_steps=10**9,
                max_wall_time=3600.0,
            ),
        )
        assert (
            armed.stats["newton_iterations"] == plain.stats["newton_iterations"]
        )
        assert armed.stats["steps"] == plain.stats["steps"]
        assert np.array_equal(armed.x, plain.x)
        assert armed.stats["rescues"] == 0


class TestBatchedQuarantine:
    def _samples(self, n=6, bad=(1, 4)):
        return [
            build_oscillator(
                1.0 + 0.02 * i, fault_id="bad" if i in bad else None
            )
            for i in range(n)
        ]

    def test_fixed_grid_survivors_finish(self):
        options = _options(quarantine=True)
        options.newton.fail_hook = fail_marked_after
        results = run_transient_batched(self._samples(), options)
        assert results[0].stats["quarantined_samples"] == [1, 4]
        for s, result in enumerate(results):
            if s in (1, 4):
                assert result.stats["quarantined"] is True
                record = result.stats["quarantine"]
                assert record["sample"] == s
                assert record["reason"] == "newton"
                assert record["time"] >= T_FAIL
            else:
                assert result.stats["quarantined"] is False
                assert result.t[-1] == pytest.approx(T_STOP)

    def test_fixed_grid_survivors_match_solo_runs(self):
        options = _options(quarantine=True)
        options.newton.fail_hook = fail_marked_after
        results = run_transient_batched(self._samples(), options)
        solo_options = _options()
        for s in (0, 2, 3, 5):
            solo = run_transient(build_oscillator(1.0 + 0.02 * s), solo_options)
            np.testing.assert_allclose(
                results[s].x, solo.x, rtol=1e-9, atol=1e-12
            )

    def test_quarantined_state_freezes(self):
        options = _options(quarantine=True)
        options.newton.fail_hook = fail_marked_after
        results = run_transient_batched(self._samples(), options)
        x = results[1].x
        death = results[1].stats["quarantine"]["time"]
        frozen = x[results[1].t >= death]
        assert np.all(frozen == frozen[0])

    def test_adaptive_grid_quarantine(self):
        options = _options(step_control="adaptive", quarantine=True)
        options.newton.fail_hook = fail_marked_after
        results = run_transient_batched(self._samples(), options)
        assert results[0].stats["quarantined_samples"] == [1, 4]
        assert results[1].stats["quarantine"]["reason"] == "newton_dt_min"
        assert results[0].t[-1] == pytest.approx(T_STOP)

    def test_all_quarantined_raises(self):
        options = _options(quarantine=True)
        options.newton.fail_hook = fail_marked_after
        circuits = [build_oscillator(1.0, fault_id="bad") for _ in range(3)]
        with pytest.raises(ConvergenceError):
            run_transient_batched(circuits, options)

    def test_all_quarantined_partial(self):
        options = _options(quarantine=True, on_abort="partial")
        options.newton.fail_hook = fail_marked_after
        circuits = [build_oscillator(1.0, fault_id="bad") for _ in range(3)]
        results = run_transient_batched(circuits, options)
        assert results[0].stats["abort_reason"] == "all_quarantined"
        assert results[0].stats["completed"] is False
        assert results[0].stats["quarantined_samples"] == [0, 1, 2]

    def test_without_quarantine_batch_raises(self):
        options = _options()
        options.newton.fail_hook = fail_marked_after
        with pytest.raises(ConvergenceError) as excinfo:
            run_transient_batched(self._samples(), options)
        assert excinfo.value.failed_samples == [1, 4]

    def test_quarantine_flag_is_bit_free_on_healthy_batches(self):
        circuits = [build_oscillator(1.0 + 0.02 * i) for i in range(4)]
        plain = run_transient_batched(circuits, _options())
        armed = run_transient_batched(
            [build_oscillator(1.0 + 0.02 * i) for i in range(4)],
            _options(quarantine=True),
        )
        for a, b in zip(plain, armed):
            assert np.array_equal(a.x, b.x)
            assert (
                a.stats["newton_iterations"] == b.stats["newton_iterations"]
            )
        assert armed[0].stats["quarantined_samples"] == []
