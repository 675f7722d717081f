"""Tests for the shared batch-campaign engine."""

import pytest

from repro.campaigns import (
    BatchOptions,
    corner_sweep,
    labelled_sweep,
    run_batch,
    run_chain,
)
from repro.errors import ConfigurationError


class TestBatchOptions:
    def test_defaults_are_sequential(self):
        assert not BatchOptions().parallel
        assert not BatchOptions(max_workers=1).parallel
        assert not BatchOptions(max_workers=0).parallel
        assert BatchOptions(max_workers=2).parallel

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchOptions(max_workers=-1)
        with pytest.raises(ConfigurationError):
            BatchOptions(chunksize=0)


class TestRunBatch:
    def test_sequential_order_and_results(self):
        calls = []

        def worker(task):
            calls.append(task)
            return task * task

        assert run_batch(worker, [3, 1, 2]) == [9, 1, 4]
        assert calls == [3, 1, 2]

    def test_empty_batch(self):
        assert run_batch(abs, []) == []

    def test_sequential_allows_closures(self):
        total = {"sum": 0.0}

        def worker(task):
            total["sum"] += task
            return total["sum"]

        assert run_batch(worker, [1.0, 2.0]) == [1.0, 3.0]

    def test_parallel_preserves_task_order(self):
        options = BatchOptions(max_workers=2)
        assert run_batch(abs, [-5, 3, -1, 0], options) == [5, 3, 1, 0]


class TestRunChain:
    def test_carry_threads_through(self):
        def worker(task, carry):
            carry = (carry or 0) + task
            return carry, carry

        assert run_chain(worker, [1, 2, 3]) == [1, 3, 6]

    def test_initial_carry(self):
        def worker(task, carry):
            return task + carry, carry

        assert run_chain(worker, [1, 2], carry=10) == [11, 12]


class _Corner:
    def __init__(self, name, value):
        self.name = name
        self.value = value


class TestSweeps:
    def test_labelled_sweep(self):
        result = labelled_sweep(abs, [-1, -2], label=str)
        assert result == {"-1": 1, "-2": 2}

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            labelled_sweep(abs, [1, 1], label=str)

    def test_corner_sweep_keys_by_name(self):
        corners = [_Corner("tt", 1.0), _Corner("ss", 2.0)]
        result = corner_sweep(lambda c: c.value * 2, corners)
        assert result == {"tt": 2.0, "ss": 4.0}


class TestBatchModes:
    def test_auto_workers_resolve_to_cpu_count(self):
        import os

        options = BatchOptions(max_workers="auto")
        assert options.resolved_max_workers() == (os.cpu_count() or 1)

    def test_process_mode_defaults_to_auto_workers(self):
        import os

        options = BatchOptions(batch_mode="process")
        assert options.resolved_max_workers() == (os.cpu_count() or 1)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchOptions(batch_mode="turbo")
        with pytest.raises(ConfigurationError):
            BatchOptions(max_workers="all")

    def test_sequential_mode_never_parallel(self):
        assert not BatchOptions(max_workers=8, batch_mode="sequential").parallel
        assert not BatchOptions(max_workers=8, batch_mode="vectorized").parallel

    def test_vectorized_without_hook_falls_back_sequential(self):
        calls = []

        def worker(task):
            calls.append(task)
            return task * 2

        result = run_batch(worker, [1, 2], BatchOptions(batch_mode="vectorized"))
        assert result == [2, 4]
        assert calls == [1, 2]


def _failing_worker(task):
    if task == 7:
        raise ValueError("kaboom")
    return task


class TestErrorWrapping:
    def test_sequential_failure_carries_index_and_task(self):
        from repro.errors import BatchTaskError

        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(_failing_worker, [5, 6, 7, 8])
        assert excinfo.value.index == 2
        assert excinfo.value.task == 7
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_failure_carries_index(self):
        from repro.errors import BatchTaskError

        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(_failing_worker, [5, 7, 6], BatchOptions(max_workers=2))
        assert excinfo.value.index == 1
        assert excinfo.value.task == 7

    def test_batch_task_error_pickles_round_trip(self):
        # Worker processes raise BatchTaskError across the pool
        # boundary; a non-picklable exception would break the pool.
        import pickle

        from repro.errors import BatchTaskError

        error = BatchTaskError("msg", index=3, task=7)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.index == 3
        assert clone.task == 7
        assert str(clone) == "msg"

    def test_process_mode_is_forced_even_for_one_worker(self):
        import os

        options = BatchOptions(batch_mode="process", max_workers=1)
        assert options.parallel
        # A single task still goes through the pool: process isolation
        # is the point of forcing the mode.
        pids = run_batch(_worker_pid, [0], options)
        assert pids[0] != os.getpid()

    def test_vectorized_failure_attributes_failed_samples(self):
        # A lockstep Newton failure names its samples; the campaign
        # wraps the collective error around the first of them.
        from repro.campaigns import run_transient_campaign
        from repro.circuits import TransientOptions
        from repro.errors import BatchTaskError, ConvergenceError

        options = TransientOptions(
            t_stop=2 * _T0, dt=_T0 / 40, use_dc_operating_point=False
        )
        options.newton.fail_hook = _kill_gm_above_one
        with pytest.raises(BatchTaskError) as excinfo:
            run_transient_campaign(
                [0.9, 1.1, 1.0],
                _build_startup,
                options,
                BatchOptions(batch_mode="vectorized"),
            )
        assert excinfo.value.index == 1
        assert excinfo.value.task == 1.1
        assert isinstance(excinfo.value.__cause__, ConvergenceError)

    def test_unpicklable_pool_result_carries_index(self):
        # The pool's pickling error surfaces as the task's failure,
        # with or without the watchdog.
        from repro.errors import BatchTaskError

        for options in (
            BatchOptions(max_workers=2),
            BatchOptions(max_workers=2, task_timeout=30.0),
        ):
            with pytest.raises(BatchTaskError) as excinfo:
                run_batch(_local_lambda, [0, 1], options)
            assert excinfo.value.index == 0
            assert excinfo.value.task == 0


_T0 = 1.0 / 4e6


def _build_startup(gm_scale):
    """The Fig 1 startup netlist, tagged with its gm scale."""
    from repro.core import OscillatorNetlist
    from repro.envelope import RLCTank, TanhLimiter

    tank = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    circuit = OscillatorNetlist(tank, vref=2.5).build(limiter)
    circuit.gm_scale = gm_scale
    return circuit


def _kill_gm_above_one(time, phase, circuit):
    return circuit.gm_scale > 1.0 and time >= _T0


def _local_lambda(task):
    """Task 0's result is one no pool can pickle back to the parent."""
    return (lambda: task) if task == 0 else task


def _worker_pid(task):
    import os

    return os.getpid()


class TestChunkedAttribution:
    def test_chunked_parallel_failure_attributes_true_index(self):
        # A chunked map surfaces a failed chunk's exception at the
        # chunk's first drain position; child-side wrapping must still
        # name the task that actually died.
        from repro.errors import BatchTaskError

        tasks = [5, 6, 8, 9, 7, 10, 11, 12]
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(
                _failing_worker,
                tasks,
                BatchOptions(max_workers=2, chunksize=4),
            )
        assert excinfo.value.index == 4
        assert excinfo.value.task == 7


class TestRunChainErrors:
    def test_chain_failures_propagate_raw(self):
        # Continuation callers (dc_sweep, warm-started MC) document
        # typed errors; run_chain must not rewrap them.
        def worker(task, carry):
            if task == 3:
                raise ValueError("diverged")
            return task, carry

        with pytest.raises(ValueError):
            run_chain(worker, [1, 2, 3, 4])
