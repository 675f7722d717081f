"""Tests for the transient-campaign front-end (lockstep + streaming)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import (
    BatchOptions,
    corner_sweep,
    run_batch,
    run_transient_campaign,
    transient_worker,
    TransientMetricSpec,
)
from repro.circuits import Circuit, TransientOptions, sine
from repro.errors import BatchTaskError


def build_rc(r):
    """Module-level (picklable) per-task circuit builder."""
    circuit = Circuit("rc")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    circuit.resistor("R", "in", "out", float(r))
    circuit.capacitor("C", "out", "0", 1e-9)
    return circuit


def build_diode(r):
    """A netlist the lockstep engine cannot stack (diode)."""
    circuit = Circuit("d")
    circuit.voltage_source("V", "in", "0", 1.0)
    circuit.resistor("R", "in", "a", float(r))
    circuit.diode("D", "a", "0")
    circuit.capacitor("C", "a", "0", 1e-9)
    return circuit


OPTIONS = TransientOptions(t_stop=2e-5, dt=1e-8, use_dc_operating_point=True)
TASKS = [100.0, 150.0, 220.0]


class TestRunTransientCampaign:
    def reference(self, build=build_rc, options=OPTIONS, tasks=TASKS):
        return run_transient_campaign(
            tasks, build, options, BatchOptions(batch_mode="sequential")
        )

    def test_vectorized_matches_sequential(self):
        reference = self.reference()
        vectorized = run_transient_campaign(
            TASKS, build_rc, OPTIONS, BatchOptions(batch_mode="vectorized")
        )
        for ref, vec in zip(reference, vectorized):
            np.testing.assert_array_equal(vec.t, ref.t)
            np.testing.assert_allclose(vec.x, ref.x, rtol=1e-9, atol=1e-15)
        assert vectorized[0].stats["strategy"].startswith("batched-")

    def test_incompatible_falls_back_per_sample(self):
        results = run_transient_campaign(
            TASKS, build_diode, OPTIONS, BatchOptions(batch_mode="vectorized")
        )
        reference = self.reference(build=build_diode)
        for ref, res in zip(reference, results):
            np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)
        assert not results[0].stats["strategy"].startswith("batched-")

    def test_process_streaming_matches(self):
        reference = self.reference()
        streamed = run_transient_campaign(
            TASKS,
            build_rc,
            OPTIONS,
            BatchOptions(max_workers=2, batch_mode="process"),
        )
        for ref, res in zip(reference, streamed):
            np.testing.assert_array_equal(res.t, ref.t)
            # Same engine in the workers: bitwise identical records.
            np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)
            assert res.stats["strategy"] == ref.stats["strategy"]

    def test_process_adaptive_streams_ragged_records(self):
        # Adaptive grids have per-sample record counts; the record
        # channel's length header carries each one and the round-trip
        # is bit-identical.
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-8,
            step_control="adaptive",
            use_dc_operating_point=True,
        )
        reference = self.reference(options=options)
        streamed = run_transient_campaign(
            TASKS,
            build_rc,
            options,
            BatchOptions(max_workers=2, batch_mode="process"),
        )
        for ref, res in zip(reference, streamed):
            np.testing.assert_array_equal(res.t, ref.t)
            np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)

    def test_process_adaptive_slot_overflow_falls_back_per_sample(self, monkeypatch):
        # A sample outgrowing its channel slot must come back pickled —
        # same numbers, just a slower lane.  Shrink the capacity so
        # every sample overflows.
        from repro.campaigns import vectorized

        monkeypatch.setattr(vectorized, "_slot_capacity", lambda _o: 2)
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-8,
            step_control="adaptive",
            use_dc_operating_point=True,
        )
        reference = self.reference(options=options)
        streamed = run_transient_campaign(
            TASKS,
            build_rc,
            options,
            BatchOptions(max_workers=2, batch_mode="process"),
        )
        for ref, res in zip(reference, streamed):
            np.testing.assert_array_equal(res.t, ref.t)
            np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)

    def test_empty_tasks(self):
        assert run_transient_campaign([], build_rc, OPTIONS) == []

    def test_build_failure_carries_index(self):
        def build(r):
            if r == 150.0:
                raise ValueError("boom")
            return build_rc(r)

        with pytest.raises(BatchTaskError) as excinfo:
            run_transient_campaign(TASKS, build, OPTIONS)
        assert excinfo.value.index == 1
        assert excinfo.value.task == 150.0


class TestTransientWorker:
    def metric(self, task, result):
        return float(result.waveform("out").y.max())

    def test_run_many_hook_dispatch(self):
        worker = transient_worker(build_rc, OPTIONS, self.metric)
        via_hook = run_batch(
            worker, TASKS, BatchOptions(batch_mode="vectorized")
        )
        plain = [worker(task) for task in TASKS]
        np.testing.assert_allclose(via_hook, plain, rtol=1e-9)

    def test_corner_sweep_vectorized(self):
        class Corner:
            def __init__(self, name, r):
                self.name, self.r = name, r

        corners = [Corner("tt", 100.0), Corner("ss", 220.0)]
        worker = transient_worker(
            lambda corner: build_rc(corner.r), OPTIONS, self.metric
        )
        swept = corner_sweep(
            worker, corners, BatchOptions(batch_mode="vectorized")
        )
        assert set(swept) == {"tt", "ss"}
        for corner in corners:
            assert abs(swept[corner.name] - worker(corner)) < 1e-12

    def test_worker_without_evaluate_returns_results(self):
        worker = transient_worker(build_rc, OPTIONS)
        results = worker.run_many(TASKS)
        assert len(results) == len(TASKS)
        assert results[0].waveform("out").y.size


class TestMetricSpec:
    def test_spec_is_frozen_and_labelled(self):
        spec = TransientMetricSpec(
            name="m", build=build_rc, options=OPTIONS, evaluate=self_eval
        )
        assert spec.name == "m"
        with pytest.raises(AttributeError):
            spec.name = "other"


def self_eval(task, result):
    return float(task)


class TestAutoModeGridPolicy:
    def test_auto_locksteps_fixed_grids(self):
        results = run_transient_campaign(TASKS, build_rc, OPTIONS)
        assert results[0].stats["strategy"].startswith("batched-")

    def test_auto_never_locksteps_adaptive_grids(self):
        # The shared worst-sample grid is a different discretization
        # than per-sample adaptive grids, so implicit lockstep would
        # silently change campaign statistics; adaptive lockstep
        # requires an explicit batch_mode="vectorized" opt-in.
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-8,
            step_control="adaptive",
            use_dc_operating_point=True,
        )
        auto = run_transient_campaign(TASKS, build_rc, options)
        sequential = run_transient_campaign(
            TASKS, build_rc, options, BatchOptions(batch_mode="sequential")
        )
        for a, s in zip(auto, sequential):
            assert not a.stats["strategy"].startswith("batched-")
            np.testing.assert_array_equal(a.t, s.t)
            np.testing.assert_allclose(a.x, s.x, rtol=0, atol=0)
        explicit = run_transient_campaign(
            TASKS, build_rc, options, BatchOptions(batch_mode="vectorized")
        )
        assert explicit[0].stats["strategy"].startswith("batched-")

    def test_run_many_forwards_vectorized_policy_for_adaptive(self):
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-8,
            step_control="adaptive",
            use_dc_operating_point=True,
        )
        worker = transient_worker(build_rc, options)
        results = worker.run_many(TASKS)
        # Explicit vectorized dispatch locksteps adaptive grids too.
        assert results[0].stats["strategy"].startswith("batched-")

    def test_run_many_evaluate_failure_carries_task_index(self):
        def evaluate(task, result):
            if task == 150.0:
                raise ValueError("bad metric")
            return 1.0

        worker = transient_worker(build_rc, OPTIONS, evaluate)
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(worker, TASKS, BatchOptions(batch_mode="vectorized"))
        assert excinfo.value.index == 1
        assert excinfo.value.task == 150.0


def build_sized(n):
    """Heterogeneous topologies: n extra RC stages per task."""
    circuit = Circuit(f"sized{n}")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    prev = "in"
    for j in range(int(n)):
        node = f"s{j}"
        circuit.resistor(f"R{j}", prev, node, 100.0)
        circuit.capacitor(f"C{j}", node, "0", 1e-9)
        prev = node
    return circuit


class TestHeterogeneousProcessCampaign:
    def test_full_state_recording_uses_pickled_records(self):
        # Different unknown counts share the channel: slots are sized
        # to the widest circuit and each carries its own column count,
        # so every per-task result comes back correct.
        tasks = [1, 2, 3]
        results = run_transient_campaign(
            tasks,
            build_sized,
            OPTIONS,
            BatchOptions(max_workers=2, batch_mode="process"),
        )
        reference = run_transient_campaign(
            tasks, build_sized, OPTIONS, BatchOptions(batch_mode="sequential")
        )
        for ref, res in zip(reference, results):
            np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)


class TestRecordChannel:
    @settings(max_examples=200, deadline=1000)
    @given(
        n=st.integers(0, 12),
        n_cols=st.integers(1, 5),
        capacity=st.integers(0, 12),
        width=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_is_bitwise(self, n, n_cols, capacity, width, seed):
        """Any record that fits its slot reads back bit for bit (NaN,
        signed zeros and subnormals included); one that does not is
        refused and leaves the slot untouched, for the pickled lane."""
        from repro.campaigns.vectorized import _read_slot, _write_slot

        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=n * (1 + n_cols), dtype=np.uint64)
        values = bits.view(np.float64)
        t, x = values[:n], values[n:].reshape(n, n_cols)
        slot = np.full(2 + capacity * (1 + width), -7.0)
        fits = _write_slot(slot, capacity, t, x)
        assert fits == (n <= capacity and n * n_cols <= capacity * width)
        if not fits:
            assert (slot == -7.0).all()
            return
        t_back, x_back = _read_slot(slot, capacity)
        assert x_back.shape == (n, n_cols)
        assert t_back.view(np.uint64).tolist() == t.view(np.uint64).tolist()
        assert x_back.view(np.uint64).tolist() == x.view(np.uint64).tolist()

    def test_capacity_exact_on_fixed_grids(self):
        from repro.campaigns.vectorized import _slot_capacity

        assert _slot_capacity(OPTIONS) == len(
            run_transient_campaign([100.0], build_rc, OPTIONS)[0].t
        )
