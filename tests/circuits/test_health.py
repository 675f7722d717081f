"""Numerical health layer: guards, certification, condition estimation.

Fault injection is a current source whose value function returns NaN
past a chosen time — a *data* fault the Newton loop would otherwise
propagate silently into the waveform, unlike the ``fail_hook``
convergence faults of ``test_fault_tolerance.py``.  The invariants:

* healthy armed runs (guards + certify + preflight) are bit-identical
  to unarmed runs — the health layer only reads;
* a NaN reaching the solution aborts the scalar engine with a
  structured ``phase="health"`` error (or a ``"health"`` abort reason
  in partial mode), never a NaN-bearing "successful" waveform;
* in the batched engine only the guilty sample is quarantined, with
  ``reason="health"`` and per-sample :class:`HealthReport` records,
  while every survivor stays finite and report-free;
* condition estimation against cached factorizations is cheap,
  accurate to the order of magnitude, and read-only.
"""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    HealthReport,
    TransientOptions,
    run_transient,
    run_transient_batched,
    sine,
)
from repro.circuits.health import (
    check_grid_invariants,
    condest_from_solves,
    invnorm1_estimate,
    nonfinite_sample_rows,
)
from repro.circuits.linsolve import ReusableLU
from repro.errors import ConvergenceError

T_STOP = 1e-6
DT = 1e-9
T_NAN = 5e-7


def nan_after(t):
    return float("nan") if t > T_NAN else 1e-3


def build_rc(poison=False, r=1e3):
    c = Circuit("rc")
    c.resistor("R", "out", "0", r)
    c.capacitor("C", "out", "0", 1e-9)
    c.current_source("I", "0", "out", nan_after if poison else 1e-3)
    return c


def build_oscillator(poison=False):
    """Nonlinear netlist (general strategy) with a sine drive."""
    c = Circuit("osc")
    c.voltage_source("Vin", "in", "0", sine(1.0, 4e6))
    c.resistor("R", "in", "out", 1e3)
    c.capacitor("C", "out", "0", 1e-9)
    c.diode("D", "out", "0")
    if poison:
        c.current_source("I", "0", "out", nan_after)
    return c


def options(**overrides):
    base = dict(t_stop=T_STOP, dt=DT, step_control="fixed")
    base.update(overrides)
    return TransientOptions(**base)


ARMED = dict(guards=True, certify=True)


class TestPrimitives:
    def test_invnorm1_estimate_matches_exact(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(12, 12)) + 12 * np.eye(12)
        inv = np.linalg.inv(A)
        est = invnorm1_estimate(
            lambda b: np.linalg.solve(A, b),
            lambda b: np.linalg.solve(A.T, b),
            12,
        )
        exact = np.abs(inv).sum(axis=0).max()
        assert est <= exact * 1.001
        assert est >= 0.3 * exact  # Hager's bound is rarely this loose

    def test_condest_orders_of_magnitude(self):
        for target in (1e2, 1e8):
            A = np.diag([1.0] * 9 + [1.0 / target])
            est = condest_from_solves(
                np.abs(A).sum(axis=0).max(),
                lambda b, A=A: np.linalg.solve(A, b),
                lambda b, A=A: np.linalg.solve(A.T, b),
                10,
            )
            assert 0.1 * target < est < 10 * target

    def test_reusable_lu_condest(self):
        A = np.diag([1.0, 1e-10, 1.0])
        lu = ReusableLU(A)
        assert lu.condest() == pytest.approx(1e10, rel=1.0)
        assert ReusableLU(np.zeros((3, 3))).condest() == np.inf

    def test_reusable_lu_degrades_on_singular(self):
        """An exactly singular system falls back to lstsq, not Inf."""
        A = np.zeros((40, 40))
        A[:20, :20] = np.eye(20)  # rank-deficient but consistent
        b = np.zeros(40)
        b[:20] = 1.0
        x = ReusableLU(A).solve(b)
        assert np.isfinite(x).all()
        np.testing.assert_allclose(x[:20], 1.0, atol=1e-9)

    def test_reusable_lu_propagates_nan_rhs(self):
        """A NaN *input* must flow through (the engine guard's job),
        not trigger the lstsq degradation."""
        lu = ReusableLU(np.eye(3))
        b = np.array([1.0, np.nan, 0.0])
        assert np.isnan(lu.solve(b)).any()

    def test_nonfinite_sample_rows(self):
        x = np.ones((4, 3))
        x[1, 2] = np.nan
        x[3, 0] = np.inf
        assert nonfinite_sample_rows(x).tolist() == [1, 3]
        eligible = np.array([True, False, True, True])
        assert nonfinite_sample_rows(x, eligible).tolist() == [3]

    def test_grid_invariants(self):
        health = []
        check_grid_invariants(np.array([0.0, 1.0, 2.0]), 2.0, health)
        assert health == []
        check_grid_invariants(np.array([0.0, 2.0, 1.0]), 2.0, health)
        assert [r.kind for r in health] == ["grid"]


class TestScalarEngine:
    @pytest.mark.parametrize("build", [build_rc, build_oscillator])
    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_armed_healthy_run_bit_identical(self, build, step_control):
        plain = run_transient(build(), options(step_control=step_control))
        armed = run_transient(
            build(), options(step_control=step_control, **ARMED)
        )
        assert np.array_equal(plain.x, armed.x)
        assert plain.stats["newton_iterations"] == armed.stats["newton_iterations"]
        assert armed.stats["health"] == []
        assert armed.stats["certified_steps"] > 0
        assert "health" not in plain.stats

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_nan_aborts_with_health_phase(self, step_control):
        with pytest.raises(ConvergenceError) as excinfo:
            run_transient(
                build_rc(poison=True),
                options(step_control=step_control, guards=True),
            )
        assert excinfo.value.phase == "health"

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_nan_partial_mode_keeps_finite_prefix(self, step_control):
        result = run_transient(
            build_rc(poison=True),
            options(step_control=step_control, on_abort="partial", **ARMED),
        )
        assert result.stats["completed"] is False
        assert result.stats["abort_reason"] == "health"
        assert np.isfinite(result.x).all()
        assert result.t[-1] <= T_NAN + 2 * DT

    def test_unguarded_nan_runs_to_garbage(self):
        """The negative control: without guards the NaN propagates
        silently — exactly the failure mode the layer exists for."""
        result = run_transient(build_rc(poison=True), options())
        assert np.isnan(result.x).any()

    def test_health_reports_are_structured(self):
        result = run_transient(
            build_rc(poison=True),
            options(on_abort="partial", guards=True),
        )
        # The abort is recorded in stats; any filed reports are real
        # HealthReport records.
        for report in result.stats["health"]:
            assert isinstance(report, HealthReport)
            assert report.kind in (
                "nonfinite", "ill_conditioned", "residual", "state", "grid"
            )


class TestBatchedEngine:
    @pytest.mark.parametrize("backend", ["dense"])
    def test_armed_healthy_batch_bit_identical(self, backend):
        circuits = [build_rc(r=1e3 * (1 + 0.01 * s)) for s in range(6)]
        plain = run_transient_batched(circuits, options(backend=backend))
        circuits = [build_rc(r=1e3 * (1 + 0.01 * s)) for s in range(6)]
        armed = run_transient_batched(
            circuits, options(backend=backend, **ARMED)
        )
        for a, b in zip(plain, armed):
            assert np.array_equal(a.x, b.x)
            assert b.stats["health"] == []

    @pytest.mark.parametrize("backend", ["dense"])
    def test_nan_sample_quarantined_alone(self, backend):
        circuits = [
            build_rc(poison=(s == 3), r=1e3 * (1 + 0.01 * s))
            for s in range(8)
        ]
        results = run_transient_batched(
            circuits,
            options(
                backend=backend, quarantine=True, on_abort="partial", **ARMED
            ),
        )
        for s, result in enumerate(results):
            if s == 3:
                assert result.stats["quarantined"] is True
                record = result.stats["quarantine"]
                assert record["reason"] == "health"
                assert record["sample"] == 3
                reports = result.stats["health"]
                assert reports and all(r.sample == 3 for r in reports)
                assert all(r.kind == "nonfinite" for r in reports)
            else:
                assert not result.stats.get("quarantined")
                assert np.isfinite(result.x).all()
                assert result.stats["health"] == []

    def test_nan_without_quarantine_aborts_batch(self):
        circuits = [build_rc(poison=(s == 1)) for s in range(4)]
        with pytest.raises(ConvergenceError) as excinfo:
            run_transient_batched(circuits, options(guards=True))
        assert excinfo.value.phase == "health"
        assert excinfo.value.failed_samples == [1]

    def test_adaptive_nan_sample_quarantined(self):
        circuits = [build_rc(poison=(s == 2)) for s in range(4)]
        results = run_transient_batched(
            circuits,
            options(
                step_control="adaptive",
                quarantine=True,
                on_abort="partial",
                **ARMED,
            ),
        )
        assert results[2].stats["quarantine"]["reason"] == "health"
        for s in (0, 1, 3):
            assert np.isfinite(results[s].x).all()
