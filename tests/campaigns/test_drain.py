"""The pool drain's state machine, driven by a fake pool and clock.

:func:`repro.campaigns.runner.drain` owns submission, the watchdog
(a deadline from when a job is first observed running) and the
kill / rebuild / resubmit cycle for every process campaign.  Here it
runs against :class:`FakePool`, an executor made of plain
``concurrent.futures.Future`` objects that only moves when
:class:`FakeClock` is read, so each test scripts exactly which job
runs, finishes, hangs or crashes at which tick, and no test sleeps.

Ticks are ``2**-10`` fake seconds: multiples of it are exact in
floating point, and a timeout of a few ticks keeps the drain's real
poll interval (a quarter of the timeout) near a millisecond.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaigns import BatchOptions, RetryPolicy, TaskFailure
from repro.campaigns import vectorized
from repro.campaigns.runner import _Checkpointer, _run_pool_resilient, drain
from repro.circuits import Circuit, TransientOptions
from repro.errors import BatchTaskError

TICK = 2.0**-10
HANG = None  # a duration that never ends
CRASH = "crash"  # a job that kills its worker process


class FakeClock:
    """Every reading advances one tick and steps every live pool."""

    def __init__(self):
        self.ticks = 0
        self.pools = []

    def __call__(self):
        self.ticks += 1
        for pool in self.pools:
            pool.step(self.ticks)
        return self.ticks * TICK


class FakePool:
    """An executor whose jobs start and finish on clock ticks.

    ``duration(arg)`` gives a job's length in ticks: an int, ``HANG``
    or ``CRASH``.  At most ``workers`` jobs run at once; the rest wait
    queued (``Future.running()`` is False).  A crash breaks the pool
    the way a dead worker process does: every unfinished future fails
    with ``BrokenProcessPool``.
    """

    def __init__(self, clock, workers, duration):
        self.workers = workers
        self.duration = duration
        self.queued = []
        self.running = {}
        self.submitted = []
        self.killed = False
        self.closed = False
        clock.pools.append(self)

    def submit(self, fn, arg):
        future = Future()
        self.submitted.append(arg)
        if self.duration(arg) == 0:  # done before the drain first waits
            future.set_running_or_notify_cancel()
            self._finish(future, fn, arg)
        else:
            self.queued.append((future, fn, arg))
        return future

    @staticmethod
    def _finish(future, fn, arg):
        try:
            future.set_result(fn(arg))
        except Exception as exc:
            future.set_exception(exc)

    def step(self, tick):
        if self.closed:
            return
        for future, (end, fn, arg) in list(self.running.items()):
            if end is CRASH:
                self._break()
                return
            if end is not HANG and tick >= end:
                del self.running[future]
                self._finish(future, fn, arg)
        while self.queued and len(self.running) < self.workers:
            future, fn, arg = self.queued.pop(0)
            future.set_running_or_notify_cancel()
            length = self.duration(arg)
            end = length if length in (HANG, CRASH) else tick + length
            self.running[future] = (end, fn, arg)

    def _break(self):
        for future in list(self.running) + [f for f, _fn, _a in self.queued]:
            future.set_exception(BrokenProcessPool("a worker died"))
        self.running.clear()
        self.queued.clear()

    def shutdown(self, wait=True, cancel_futures=False):
        # A real pool's shutdown(wait=True) would block on a hung job.
        assert not (wait and self.running), "shutdown would wait on a hung job"
        self.killed = not wait
        self.closed = True


class Harness:
    """A clock and the pools ``make_pool`` handed out, in order."""

    def __init__(self, duration, workers=2):
        self.clock = FakeClock()
        self.pools = []
        self.duration = duration
        self.workers = workers

    def make_pool(self):
        pool = FakePool(self.clock, self.workers, self.duration)
        self.pools.append(pool)
        return pool


def _identity(arg):
    return arg


def run_drain(harness, jobs, timeout):
    """Drain ``jobs`` ({key: arg}); returns results and timed-out keys."""
    results, timed_out = {}, []

    def on_done(key, future):
        results[key] = future.result()

    drain(
        harness.make_pool, _identity, jobs, timeout, on_done,
        timed_out.append, harness.clock,
    )
    return results, timed_out


class TestDrainStateMachine:
    def test_queued_time_never_counts(self):
        """One worker, two 3-tick jobs, a 4-tick deadline: the second
        job waits 3 ticks in the queue, 6 in all, and is not overdue."""
        harness = Harness(lambda arg: 3, workers=1)
        results, timed_out = run_drain(harness, {0: "a", 1: "b"}, 4 * TICK)
        assert results == {0: "a", 1: "b"}
        assert timed_out == []
        assert len(harness.pools) == 1 and not harness.pools[0].killed

    def test_overdue_job_kills_pool_and_resubmits_survivors(self):
        """Job 0 hangs; job 2, still running when the deadline fires,
        finishes on a fresh pool with its original argument."""
        lengths = {"hang": HANG, "short": 1, "long": 4}
        harness = Harness(lambda arg: lengths[arg])
        results, timed_out = run_drain(
            harness, {0: "hang", 1: "short", 2: "long"}, 3 * TICK
        )
        assert timed_out == [0]
        assert results == {1: "short", 2: "long"}
        first, second = harness.pools
        assert first.killed
        assert second.submitted == ["long"]  # the survivor, unchanged
        assert second.closed and not second.killed

    def test_without_timeout_waits_for_completion(self):
        harness = Harness(lambda arg: 0)  # done at submission
        results, timed_out = run_drain(harness, {0: 1, 1: 2}, None)
        assert results == {0: 1, 1: 2} and timed_out == []
        assert harness.pools[0].closed and not harness.pools[0].killed

    def test_callback_error_kills_pool(self):
        """An exception from ``on_done`` ends the drain through a kill,
        never through a shutdown that waits on the hung peer."""
        harness = Harness(lambda arg: HANG if arg == "hang" else 1)

        def on_done(key, future):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            drain(
                harness.make_pool, _identity, {0: "ok", 1: "hang"},
                10 * TICK, on_done, lambda key: None, harness.clock,
            )
        assert harness.pools[0].killed

    def test_broken_pool_names_in_flight_jobs(self):
        lengths = {"done": 1, "crash": CRASH, "queued": 2}
        harness = Harness(lambda arg: lengths[arg])
        jobs = {0: "done", 1: "crash", 2: "queued"}
        with pytest.raises(BrokenProcessPool) as excinfo:
            run_drain(harness, jobs, 8 * TICK)
        assert excinfo.value.in_flight == [1, 2]
        assert harness.pools[0].killed


# -- run_batch's callbacks on the fake pool ------------------------------------


def _double(task):
    if isinstance(task, tuple):  # an adjusted retry: (task, attempt)
        task, _attempt = task
    if task == "boom":
        raise ValueError("boom")
    return task * 2


def run_batch_on_fake(tasks, duration, options, workers=2):
    """``run_batch``'s fault-tolerant pool path on a fake pool."""
    harness = Harness(lambda job: duration(*job), workers)
    done, failures = {}, {}
    saver = _Checkpointer(None, len(tasks), done, 1)
    _run_pool_resilient(
        _double, tasks, list(range(len(tasks))), options,
        options.retry or RetryPolicy(), done, failures, saver,
        make_pool=harness.make_pool, clock=harness.clock,
    )
    results = [done.get(i, failures.get(i)) for i in range(len(tasks))]
    return results, harness


def _adjust(task, attempt):
    return (task, attempt)


def hang_first_attempt(index, task):
    """Task 7 hangs; an adjusted retry, ``(7, attempt)``, does not."""
    return HANG if task == 7 else 1


class TestRunBatchOnFakePool:
    def test_timeout_raises_without_skip(self):
        options = BatchOptions(on_error="raise", task_timeout=3 * TICK)
        with pytest.raises(BatchTaskError, match="watchdog") as excinfo:
            run_batch_on_fake([1, 7], hang_first_attempt, options)
        assert excinfo.value.index == 1

    def test_timeout_skip_records_timeout_failure(self):
        options = BatchOptions(on_error="skip", task_timeout=3 * TICK)
        results, harness = run_batch_on_fake(
            [1, 7, 2, 3], hang_first_attempt, options
        )
        assert results[0] == 2 and results[2] == 4 and results[3] == 6
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout" and failure.attempts == 1
        assert isinstance(failure.error, TimeoutError)
        assert harness.pools[0].killed

    def test_timeout_then_retry_succeeds(self):
        options = BatchOptions(
            on_error="retry",
            retry=RetryPolicy(max_attempts=2, adjust=_adjust),
            task_timeout=3 * TICK,
        )
        results, harness = run_batch_on_fake(
            [1, 2, 3, 4], lambda index, task: HANG if task == 3 else 1, options
        )
        assert results == [2, 4, 6, 8]
        assert harness.pools[0].killed
        # The retry ran on the fresh pool with the adjusted attempt 2.
        assert (2, (3, 2)) in harness.pools[1].submitted

    def test_survivors_not_charged_an_attempt(self):
        """Tasks in flight when the pool is rebuilt complete normally,
        resubmitted as their first attempt; only the hung one is
        charged."""
        options = BatchOptions(
            on_error="retry",
            retry=RetryPolicy(max_attempts=2, adjust=_adjust),
            task_timeout=4 * TICK,
        )

        def duration(index, task):
            if index in (7, 12):
                return HANG  # the two 7s hang on every attempt
            return 4 if index >= 10 else 1

        tasks = list(range(12)) + [7]
        results, harness = run_batch_on_fake(tasks, duration, options, workers=4)
        failures = [r for r in results if isinstance(r, TaskFailure)]
        assert [f.kind for f in failures] == ["timeout", "timeout"]
        assert sorted(f.task for f in failures) == [7, 7]
        assert [f.attempts for f in failures] == [2, 2]
        for task, result in zip(range(12), results):
            if task != 7:
                assert result == task * 2
        # Survivors were resubmitted as they were: attempt 1, unadjusted.
        resubmitted = [job for pool in harness.pools[1:] for job in pool.submitted]
        assert all(
            not isinstance(task, tuple) for index, task in resubmitted
            if index not in (7, 12)
        )
        assert any(index not in (7, 12) for index, _task in resubmitted)

    def test_error_raise_kills_pool_with_hung_peer(self):
        options = BatchOptions(on_error="raise", task_timeout=50 * TICK)
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch_on_fake(
                ["boom", 7], lambda i, t: HANG if t == 7 else 1, options
            )
        assert excinfo.value.index == 0

    def test_error_retry_resubmits_on_same_pool(self):
        options = BatchOptions(
            on_error="retry",
            retry=RetryPolicy(max_attempts=3),
            task_timeout=50 * TICK,
        )
        results, harness = run_batch_on_fake(
            [1, "boom"], lambda i, t: 1, options
        )
        assert results[0] == 2
        failure = results[1]
        assert isinstance(failure, TaskFailure) and failure.attempts == 3
        assert failure.kind == "error"
        assert len(harness.pools) == 1
        assert [job for job in harness.pools[0].submitted].count((1, "boom")) == 3

    def test_error_skip_records_failure(self):
        options = BatchOptions(on_error="skip", task_timeout=50 * TICK)
        results, _harness = run_batch_on_fake(
            ["boom", 3], lambda i, t: 1, options
        )
        assert isinstance(results[0], TaskFailure)
        assert results[0].attempts == 1 and "boom" in results[0].message
        assert results[1] == 6

    def test_broken_pool_names_in_flight_tasks(self):
        options = BatchOptions(on_error="skip", task_timeout=50 * TICK)
        with pytest.raises(BatchTaskError, match=r"task\(s\) \[1, 2\] in flight"):
            run_batch_on_fake(
                [1, 2, 3], lambda i, t: CRASH if t == 2 else 1 + i, options
            )


# -- the transient campaign's timeout policy on the fake pool ------------------


def build_rc(r):
    circuit = Circuit("rc")
    circuit.resistor("R", "out", "0", float(r))
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.current_source("I", "0", "out", 1e-3)
    return circuit


def test_hung_shard_raises_when_asked(monkeypatch):
    """A sharded campaign under ``on_error="raise"`` turns a watchdog
    kill into a BatchTaskError naming a sample of the hung shard."""
    harness = Harness(lambda job: HANG if 1 in job[1] else 1, workers=4)
    real_drain = vectorized.drain

    def fake_drain(make_pool, fn, jobs, timeout, on_done, on_timeout):
        state = dict(build=build_rc, options=options, lockstep=True)
        real_drain(
            harness.make_pool, lambda job: vectorized._run_job(job, state),
            jobs, 3 * TICK, on_done, on_timeout, harness.clock,
        )

    monkeypatch.setattr(vectorized, "drain", fake_drain)
    options = TransientOptions(t_stop=1e-6, dt=1e-9, step_control="fixed")
    with pytest.raises(BatchTaskError, match="watchdog") as excinfo:
        vectorized.run_transient_campaign(
            [1e3 + s for s in range(8)],
            build_rc,
            options,
            BatchOptions(
                batch_mode="sharded",
                max_workers=4,
                shard_size=2,
                on_error="raise",
                task_timeout=3.0,
            ),
        )
    assert excinfo.value.index in (0, 1)
    assert harness.pools[0].killed
