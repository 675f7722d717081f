"""Batched execution of many independent simulations.

Every campaign-shaped workload in this library — Monte-Carlo sampling
over mismatch draws, FMEA fault injection, DC continuation sweeps,
process-corner benches — reduces to *one worker applied to a list of
tasks*.  This module is the single execution engine for that shape, so
scaling decisions (process parallelism, chunking, warm starts,
lockstep vectorization) are made in one place instead of being
reimplemented per campaign:

* :func:`run_batch` — independent tasks, scheduled by the
  :class:`BatchOptions` policy: in-process, or one task per job over a
  ``concurrent.futures.ProcessPoolExecutor``.  Results always come
  back in task order, so seeded campaigns stay reproducible no matter
  how they were scheduled.  Lockstep vectorization needs to see
  inside the worker, so it lives in the transient front-end,
  :func:`~repro.campaigns.vectorized.run_transient_campaign`.
* :func:`run_chain` — ordered tasks threaded through a *carry* (warm
  start): each worker call receives the previous call's carry, which
  is how continuation sweeps reuse the last operating point as the
  next initial guess.

A :func:`run_batch` worker exception is wrapped in
:class:`~repro.errors.BatchTaskError` carrying the failing task's
index (original exception chained as ``__cause__``), so a mid-campaign
failure identifies which task died no matter how the batch was
scheduled.  :func:`run_chain` deliberately propagates raw exceptions:
continuation chains back pre-existing typed-error contracts
(``dc_sweep`` documents :class:`~repro.errors.ConvergenceError`), and
a sequential chain's traceback already names its point.

:func:`run_batch` has one execution body, and fault-tolerant
campaigns opt in through :class:`BatchOptions`:
``on_error="skip"`` records a structured
:class:`~repro.errors.TaskFailure` in the failing task's slot instead
of aborting the batch; ``on_error="retry"`` re-attempts each failed
task under a :class:`RetryPolicy` (backoff delays, a per-attempt
``adjust`` hook that can e.g. enable transient rescue) before
recording the failure; ``checkpoint_path`` persists completed results
periodically so a killed campaign resumes with
``run_batch(..., resume_from=path)`` re-running only the missing
tasks.  A :class:`~concurrent.futures.process.BrokenProcessPool`
flushes the checkpoint before surfacing as a
:class:`~repro.errors.BatchTaskError` naming the in-flight tasks.
Every pool with a watchdog, here and in the transient campaigns, runs
through one loop, :func:`drain`.

Only the Python standard library is used here; the module sits below
every simulation layer so any of them can import it without cycles
(the vectorized transient front-end lives one module up, in
:mod:`repro.campaigns.vectorized`).
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..errors import (
    BatchTaskError,
    ConfigurationError,
    ConvergenceError,
    TaskFailure,
)

__all__ = [
    "BatchOptions",
    "RetryPolicy",
    "nearest_neighbor_chain",
    "run_batch",
    "run_chain",
]

T = TypeVar("T")
R = TypeVar("R")
C = TypeVar("C")

_BATCH_MODES = ("auto", "sequential", "process", "vectorized", "sharded")
_ON_ERROR_MODES = ("raise", "skip", "retry")


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`run_batch` re-attempts a failed task.

    Parameters
    ----------
    max_attempts:
        Total attempts per task (first try included).
    delay, backoff:
        Seconds slept before attempt ``k+1`` is
        ``delay * backoff**(k-1)`` — exponential backoff, no sleep
        before the first retry when ``delay`` is 0 (the default;
        simulation failures are deterministic, so backoff only matters
        when the ``adjust`` hook changes the task between attempts or
        the failure is environmental).
    adjust:
        ``adjust(task, attempt) -> task`` transforms the *original*
        task for attempt number ``attempt`` (2, 3, ...).  This is the
        escalation hook: a transient campaign can re-run a failed
        sample with ``rescue=True``, a looser tolerance, or a smaller
        initial dt.  Must be picklable for process pools only if it is
        baked into tasks — the hook itself runs parent-side.
    """

    max_attempts: int = 3
    delay: float = 0.0
    backoff: float = 2.0
    adjust: Optional[Callable[[object, int], object]] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.delay < 0:
            raise ConfigurationError("delay must be >= 0")
        if self.backoff < 1:
            raise ConfigurationError("backoff must be >= 1")

    def wait(self, attempt: int) -> float:
        """Seconds to sleep before attempt ``attempt + 1``."""
        return self.delay * self.backoff ** (attempt - 1)

    def task_for_attempt(self, task: object, attempt: int) -> object:
        if attempt <= 1 or self.adjust is None:
            return task
        return self.adjust(task, attempt)


@dataclass(frozen=True)
class BatchOptions:
    """Execution policy for :func:`run_batch`.

    Parameters
    ----------
    max_workers:
        ``None``, 0 or 1 run the batch sequentially in-process (the
        default — always correct, and on single-core containers also
        the fastest).  Larger values fan tasks out over that many
        worker processes; the worker and its tasks must then be
        picklable (module-level functions, no closures).  The string
        ``"auto"`` resolves to ``os.cpu_count()``.
    chunksize:
        Tasks per pool job of a transient ``"process"`` campaign
        (:func:`~repro.campaigns.vectorized.run_transient_campaign`);
        raise it when individual transients are much cheaper than a
        pickle round-trip.  :func:`run_batch` submits one task per
        job and ignores it.
    batch_mode:
        How the batch executes:

        * ``"auto"`` (default) — sequential unless ``max_workers``
          asks for processes (the historical behaviour).
        * ``"sequential"`` — force the in-process loop regardless of
          ``max_workers``.
        * ``"process"`` — force the process pool (``max_workers``
          defaults to ``"auto"`` if unset).
        * ``"vectorized"`` — lockstep execution in the transient
          front-end
          (:func:`~repro.campaigns.vectorized.run_transient_campaign`):
          one stacked-array simulation instead of a Python loop.  An
          opaque :func:`run_batch` worker cannot be stacked, so there
          the mode runs in-process.
        * ``"sharded"`` — lockstep execution split into sub-batches
          ("shards") of ``shard_size`` samples, dispatched across
          ``max_workers`` processes by the transient front-end.  One
          worker (or one core) degrades gracefully to running the
          shards sequentially in-process; fixed-grid results are
          bit-identical to the unsharded lockstep run either way.
          Within :func:`run_batch` the mode runs in-process, as
          ``"vectorized"`` does.
    on_error:
        What a task failure does to the rest of the batch:

        * ``"raise"`` (default) — abort with
          :class:`~repro.errors.BatchTaskError` (the historical
          behaviour) naming the lowest failing index, as task order
          decides: in a pool it raises once every earlier task has
          finished, and the pool is killed first, so the error never
          waits on a later, hung task.
        * ``"skip"`` — record a :class:`~repro.errors.TaskFailure` in
          that task's result slot; the batch finishes.
        * ``"retry"`` — re-attempt per ``retry`` (a default
          :class:`RetryPolicy` if unset), then record the
          :class:`~repro.errors.TaskFailure` if every attempt failed.

        The transient campaign pools of
        :func:`~repro.campaigns.vectorized.run_transient_campaign`
        (``"process"`` and ``"sharded"``) judge a failed job once every
        job has finished: ``"raise"`` names its first failing sample,
        and otherwise its samples re-run solo in the parent, attempted
        as here.
    retry:
        The :class:`RetryPolicy` used by ``on_error="retry"``.
    checkpoint_path:
        When set, completed task results are pickled to this path
        (atomically, every ``checkpoint_every`` completions and at
        the end) so a killed campaign can resume via
        ``run_batch(..., resume_from=checkpoint_path)``.  Failures are
        *not* checkpointed — a resume re-attempts them.
    checkpoint_every:
        Completions between checkpoint writes.
    shard_size:
        ``batch_mode="sharded"`` only: samples per sub-batch.  ``None``
        (default) divides the campaign evenly over the resolved worker
        count (``ceil(S / workers)``).
    stiffness_bins:
        ``batch_mode="sharded"`` only: when > 1, a lockstep probe step
        ranks samples by first-step LTE ratio
        (:func:`~repro.circuits.batched.probe_stiffness_ratios`) and
        shards are cut *within* this many stiffness quantile bins
        (:func:`~repro.circuits.stepcontrol.stiffness_bins`), so an
        adaptive shard's shared worst-sample grid answers to peers of
        similar stiffness.  1 (default) keeps task order.
    task_timeout:
        Watchdog deadline in seconds for pool-executed jobs (process
        and sharded modes).  A job observed *running* longer than this
        is presumed hung (a worker spinning in native code, a
        deadlocked import): its worker processes are killed, the pool
        is rebuilt and the unfinished peers are resubmitted, uncharged.
        Then, by pool:

        * :func:`run_batch` (one task per job) — the hung task retries
          under ``on_error="retry"`` while attempts remain, else
          raises (``"raise"``) or records a
          :class:`~repro.errors.TaskFailure` with ``kind="timeout"``.
        * transient campaigns (a shard, or ``chunksize`` tasks, per
          job) — every sample of the hung job becomes a
          ``kind="timeout"`` :class:`~repro.errors.TaskFailure`, or
          the campaign raises under ``"raise"``.  They are never
          retried: a re-run in the parent would hang the parent.

        ``None`` (default) disables the watchdog.  Sequential
        in-process execution cannot be interrupted and ignores it.
    """

    max_workers: Optional[Union[int, str]] = None
    chunksize: int = 1
    batch_mode: str = "auto"
    on_error: str = "raise"
    retry: Optional[RetryPolicy] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 16
    shard_size: Optional[int] = None
    stiffness_bins: int = 1
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR_MODES:
            raise ConfigurationError(
                f"on_error must be one of {_ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if isinstance(self.max_workers, str):
            if self.max_workers != "auto":
                raise ConfigurationError(
                    f"max_workers must be an int, None or 'auto', "
                    f"got {self.max_workers!r}"
                )
        elif self.max_workers is not None and self.max_workers < 0:
            raise ConfigurationError("max_workers must be >= 0, None or 'auto'")
        if self.chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")
        if self.batch_mode not in _BATCH_MODES:
            raise ConfigurationError(
                f"batch_mode must be one of {_BATCH_MODES}, "
                f"got {self.batch_mode!r}"
            )
        if self.batch_mode == "process" and self.max_workers == 0:
            raise ConfigurationError(
                "batch_mode='process' forces a pool; max_workers=0 "
                "(sequential) contradicts it — use None, 'auto' or >= 1"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1 or None")
        if self.stiffness_bins < 1:
            raise ConfigurationError("stiffness_bins must be >= 1")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError("task_timeout must be > 0 or None")

    def resolved_max_workers(self) -> int:
        """The concrete worker count this policy asks for."""
        if self.max_workers == "auto":
            return os.cpu_count() or 1
        if self.max_workers is None:
            # "process"/"sharded" with no explicit count: use the box.
            if self.batch_mode in ("process", "sharded"):
                return os.cpu_count() or 1
            return 1
        return int(self.max_workers)

    @property
    def parallel(self) -> bool:
        # "sharded" runs its own shard-level pool inside the transient
        # front-end; the generic per-task pool must not also engage.
        if self.batch_mode in ("sequential", "vectorized", "sharded"):
            return False
        if self.batch_mode == "process":
            # Forced: even a pool of one worker buys process isolation
            # (a crashing task kills a pool worker, not the campaign).
            return True
        return self.resolved_max_workers() > 1


def wrap_task_error(
    exc: BaseException,
    index: int,
    task: object,
    action: str = "batch worker failed",
) -> BatchTaskError:
    """Uniform :class:`BatchTaskError` construction for every path.

    One helper so the campaign layers (in-process loop, process
    drain, vectorized front-end) cannot drift in what they attach to
    a failure.  The rendered traceback of the original exception rides
    along as ``cause_text``: a live ``__cause__`` chain does not
    survive pickling back through a process pool, the string does.
    """
    return BatchTaskError(
        f"{action} on task {index} ({task!r}): {exc}",
        index=index,
        task=task,
        cause_text=_cause_text(exc),
    )


def _cause_text(exc: BaseException) -> str:
    """The rendered traceback a failure carries across a process."""
    return getattr(exc, "cause_text", None) or "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def nearest_neighbor_chain(
    points: Sequence,
    start: int = 0,
) -> List[int]:
    """Greedy nearest-neighbour visiting order over parameter vectors.

    Warm-started campaigns (continuation chains, envelope-following
    Monte-Carlo) converge fastest when consecutive tasks are *similar*:
    each run seeds the next, and the seed is only as good as the
    parameter distance between neighbours.  This orders the tasks as a
    greedy chain — start at ``start``, repeatedly hop to the nearest
    unvisited point (Euclidean; ties broken by index for determinism).

    ``points`` holds one scalar or one fixed-length numeric sequence
    per task.  O(n^2) in pure Python, which is fine for campaign sizes
    (hundreds of samples around millisecond-to-seconds simulations).
    """
    pts: List[tuple] = []
    for p in points:
        if isinstance(p, (list, tuple)):
            pts.append(tuple(float(v) for v in p))
        else:
            try:
                pts.append(tuple(float(v) for v in p))
            except TypeError:
                pts.append((float(p),))
    n = len(pts)
    if n == 0:
        return []
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range for {n} points")
    dim = len(pts[0])
    for i, p in enumerate(pts):
        if len(p) != dim:
            raise ValueError(
                f"point {i} has {len(p)} coordinates, expected {dim}"
            )
    order = [start]
    remaining = set(range(n))
    remaining.discard(start)
    current = start
    while remaining:
        here = pts[current]
        best = min(
            remaining,
            key=lambda j: (
                sum((a - b) ** 2 for a, b in zip(here, pts[j])),
                j,
            ),
        )
        order.append(best)
        remaining.discard(best)
        current = best
    return order


def _indexed_call(worker: Callable, job):
    """Run one ``(index, task)`` job, attributing a failure child-side.

    Wrapping inside the worker process renders the traceback where the
    exception was raised; the :class:`BatchTaskError` pickles back
    through the pool intact and the drain passes it through unchanged.
    """
    index, task = job
    try:
        return worker(task)
    except BatchTaskError:
        raise
    except Exception as exc:
        raise wrap_task_error(exc, index, task) from exc


# -- execution ----------------------------------------------------------------


def _failure_context(exc: BaseException) -> Dict[str, object]:
    """Structured context attached to a :class:`TaskFailure`."""
    context: Dict[str, object] = {}
    if isinstance(exc, ConvergenceError):
        context.update(exc.context())
    cause = exc.__cause__
    if isinstance(cause, ConvergenceError):
        context.update(cause.context())
    cause_text = getattr(exc, "cause_text", None)
    if cause_text:
        context["cause_text"] = cause_text
    return context


class _Checkpointer:
    """Periodic, atomic pickle of the completed-results map.

    The payload is ``{"version": 1, "n_tasks": N, "done": {index:
    result}}`` — successes only, so a resume re-attempts every task
    that failed or never ran.  Writes go through a temp file and
    ``os.replace`` so a kill mid-write leaves the previous checkpoint
    intact.
    """

    def __init__(self, path: Optional[str], n_tasks: int, done: Dict[int, object], every: int):
        self.path = path
        self.n_tasks = n_tasks
        self.done = done
        self.every = max(1, int(every))
        self._dirty = 0

    def tick(self) -> None:
        if self.path is None:
            return
        self._dirty += 1
        if self._dirty >= self.every:
            self.flush()

    def flush(self) -> None:
        if self.path is None or self._dirty == 0:
            return
        payload = {"version": 1, "n_tasks": self.n_tasks, "done": dict(self.done)}
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh)
        os.replace(tmp, self.path)
        self._dirty = 0


def _load_checkpoint(path: str, n_tasks: int) -> Dict[int, object]:
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(
            f"resume_from checkpoint {path!r} does not exist"
        ) from None
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise ConfigurationError(
            f"resume_from checkpoint {path!r} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("version") != 1:
        raise ConfigurationError(f"{path!r} is not a run_batch checkpoint")
    if payload.get("n_tasks") != n_tasks:
        raise ConfigurationError(
            f"checkpoint {path!r} was written for {payload.get('n_tasks')} "
            f"tasks; this batch has {n_tasks} — resuming would misalign "
            "results"
        )
    return {int(k): v for k, v in payload["done"].items()}


def _attempt_task(
    worker: Callable,
    index: int,
    task: object,
    options: "BatchOptions",
    policy: RetryPolicy,
):
    """All attempts of one task, in-process.

    Returns ``(result, None)`` on success, ``(None, TaskFailure)``
    when every attempt failed.
    """
    attempts = policy.max_attempts if options.on_error == "retry" else 1
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        if attempt > 1 and policy.delay:
            time.sleep(policy.wait(attempt - 1))
        try:
            return worker(policy.task_for_attempt(task, attempt)), None
        except Exception as exc:  # noqa: BLE001 — failures become records
            last = exc
    return None, TaskFailure(
        index=index,
        task=task,
        error=last,
        attempts=attempts,
        context=_failure_context(last),
    )


def _pool_worker_init() -> None:  # pragma: no cover - runs in workers
    """Reset inherited signal handlers in forked pool workers.

    The parent maps SIGTERM onto :class:`KeyboardInterrupt` for its
    own graceful-checkpoint cleanup; a forked worker inheriting that
    handler would print a spurious traceback every time the watchdog
    (or the pool shutdown) terminates it.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers without waiting on hung tasks.

    ``shutdown(wait=True)`` joins workers, which never returns while
    one is hung — the whole point of the watchdog is not to wait.
    Terminating the processes first makes the non-blocking shutdown
    safe.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def drain(
    make_pool: Callable[[], Executor],
    fn: Callable,
    jobs: Dict[int, object],
    timeout: Optional[float],
    on_done: Callable[[int, Future], Optional[object]],
    on_timeout: Callable[[int], Optional[object]],
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Run ``fn(arg)`` for every ``{key: arg}`` job through a pool.

    The one pool drain of the campaign layer.  ``on_done(key, future)``
    settles each finished job; it returns ``None``, or a new argument
    to run again on the same pool (a retry).  Any exception it raises
    ends the drain.

    With a ``timeout``, a job's deadline starts when it is first
    observed *running*, so queue time never counts.  An overdue job's
    pool is killed, the only way to stop a hung worker.
    ``on_timeout(key)`` then returns ``None`` to settle the job, or an
    argument to requeue it.  The unfinished peers are resubmitted as
    they were to a fresh pool from ``make_pool``, so they are never
    charged an attempt.

    The pool is killed on every abnormal exit, so an error never waits
    on a hung peer.  A broken pool raises its ``BrokenProcessPool``
    with ``in_flight``, the sorted keys of every unfinished job.
    ``make_pool`` and ``clock`` let tests drive the loop with fakes.
    """
    queue = dict(jobs)
    poll = None if timeout is None else min(1.0, timeout / 4.0)
    while queue:
        pool = make_pool()
        args = queue
        pending: Dict[Future, int] = {}
        queue = {}
        try:
            for key, arg in args.items():
                pending[pool.submit(fn, arg)] = key
            running_since: Dict[Future, float] = {}
            while pending:
                wait(pending, timeout=poll, return_when=FIRST_COMPLETED)
                now = clock()
                # Settle every job finished by this reading of the clock,
                # so none of them can be judged overdue below.
                done = [future for future in pending if future.done()]
                for future in sorted(done, key=pending.get):
                    if isinstance(future.exception(), BrokenProcessPool):
                        raise future.exception()
                    key = pending.pop(future)
                    retry = on_done(key, future)
                    if retry is not None:
                        args[key] = retry
                        pending[pool.submit(fn, retry)] = key
                if timeout is None:
                    continue
                for future in pending:
                    if future.running():
                        running_since.setdefault(future, now)
                overdue = [
                    future
                    for future in pending
                    if now - running_since.get(future, now) > timeout
                ]
                if not overdue:
                    continue
                for future in sorted(overdue, key=pending.get):
                    key = pending.pop(future)
                    retry = on_timeout(key)
                    if retry is not None:
                        queue[key] = retry
                for key in pending.values():
                    queue[key] = args[key]
                _kill_pool(pool)
                break
            else:
                pool.shutdown(wait=True)
        except BaseException as exc:
            if isinstance(exc, BrokenProcessPool):
                exc.in_flight = sorted(pending.values())
            _kill_pool(pool)
            raise


def _run_pool_resilient(
    worker: Callable,
    task_list: Sequence,
    missing: Sequence[int],
    options: "BatchOptions",
    policy: RetryPolicy,
    done: Dict[int, object],
    failures: Dict[int, TaskFailure],
    saver: _Checkpointer,
    make_pool: Optional[Callable[[], Executor]] = None,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """The process path of :func:`run_batch`.

    Per-task futures let completed results land (and checkpoint) no
    matter which tasks die.  A failed task resubmits for its retries
    while the rest of the pool keeps working; a hung one (see
    :func:`drain`) retries on the fresh pool or records a
    ``kind="timeout"`` :class:`~repro.errors.TaskFailure`.  A broken
    pool flushes the checkpoint and raises a :class:`BatchTaskError`
    naming the in-flight tasks.
    """
    attempts = {index: 1 for index in missing}
    #: ``on_error="raise"`` errors waiting on a lower index to settle.
    raising: Dict[int, BatchTaskError] = {}
    if make_pool is None:
        make_pool = functools.partial(
            ProcessPoolExecutor,
            max_workers=options.resolved_max_workers(),
            initializer=_pool_worker_init,
        )

    def job(index: int):
        return index, policy.task_for_attempt(task_list[index], attempts[index])

    def fail(index: int, error: BaseException, kind: str):
        if options.on_error == "retry" and attempts[index] < policy.max_attempts:
            attempts[index] += 1
            if policy.delay:
                time.sleep(policy.wait(attempts[index] - 1))
            return job(index)
        if options.on_error == "raise":
            if not isinstance(error, BatchTaskError):
                cause = error
                action = "batch worker failed"
                if kind == "timeout":
                    action = "task watchdog fired"
                error = wrap_task_error(cause, index, task_list[index], action)
                error.__cause__ = cause
            raising[index] = error
            raise_first()
            return None
        failures[index] = TaskFailure(
            index=index,
            task=task_list[index],
            error=error,
            attempts=attempts[index],
            context=_failure_context(error),
            kind=kind,
        )
        return None

    def raise_first() -> None:
        # Task order decides, as in the in-process loop: the lowest
        # failed index raises once every task before it has finished.
        first = min(raising, default=None)
        if first is not None and all(i in done for i in missing if i < first):
            saver.flush()
            raise raising[first]

    def on_done(index: int, future: Future):
        if future.exception() is not None:
            return fail(index, future.exception(), "error")
        done[index] = future.result()
        saver.tick()
        raise_first()
        return None

    def on_timeout(index: int):
        error = TimeoutError(
            f"task {index} exceeded task_timeout={options.task_timeout}s; "
            "its worker was killed"
        )
        return fail(index, error, "timeout")

    try:
        drain(
            make_pool,
            functools.partial(_indexed_call, worker),
            {index: job(index) for index in missing},
            options.task_timeout,
            on_done,
            on_timeout,
            clock,
        )
    except BrokenProcessPool as exc:
        saver.flush()
        index = exc.in_flight[0]
        raise wrap_task_error(
            exc,
            index,
            task_list[index],
            action=(
                f"worker process pool broke with task(s) {exc.in_flight} "
                "in flight"
            ),
        ) from exc


def _sigterm_to_interrupt(signum, frame):  # pragma: no cover - signal path
    """SIGTERM handler: surface as KeyboardInterrupt for one cleanup."""
    raise KeyboardInterrupt(f"terminated by signal {signum}")


def run_batch(
    worker: Callable[[T], R],
    tasks: Iterable[T],
    options: Optional[BatchOptions] = None,
    resume_from: Optional[str] = None,
) -> List[R]:
    """Apply ``worker`` to every task; results in task order.

    Tasks run in-process unless ``options.parallel`` asks for a pool
    and there is more than one task, a ``task_timeout`` to enforce,
    or a forced ``batch_mode="process"``.  In-process runs pickle nothing, so closures and
    stateful workers are welcome; the pool runs one task per job and
    needs picklable workers and tasks, and is worthwhile only when
    tasks are expensive and cores are actually available.  Both paths
    run under the same ``options.on_error`` policy:

    * ``"raise"`` — a worker exception (anything but
      :class:`BatchTaskError` itself) is re-raised as
      :class:`~repro.errors.BatchTaskError` carrying the failing
      task's index.  In-process the original is chained as
      ``__cause__``; in the pool the original lives in the worker, so
      it appears in the error message and the remote traceback
      instead.
    * ``"skip"`` / ``"retry"`` — failed tasks come back as
      :class:`~repro.errors.TaskFailure` records in their result slots
      (always falsy, so truthy results filter with ``[r for r in
      results if r]``), after ``options.retry`` attempts under
      ``"retry"``.

    Completed results checkpoint to ``options.checkpoint_path``;
    ``resume_from=path`` loads a checkpoint and re-runs only tasks
    without a stored result (failures are never stored, so a resume
    re-attempts them) while continuing to checkpoint to the same file
    unless ``checkpoint_path`` overrides it.  A broken process pool
    flushes the checkpoint, then raises a
    :class:`~repro.errors.BatchTaskError` naming the in-flight tasks.

    While a checkpoint path is set, SIGINT and SIGTERM are graceful:
    the checkpoint is flushed before the interrupt propagates, and the
    re-raised interrupt names the ``resume_from=`` path that picks the
    campaign back up.  (SIGTERM is mapped onto
    :class:`KeyboardInterrupt` for the duration of the batch and
    restored afterwards.  Only the main thread can install signal
    handlers; elsewhere SIGTERM keeps its default behaviour and only
    SIGINT is graceful.)
    """
    task_list = list(tasks)
    options = options or BatchOptions()
    n_tasks = len(task_list)
    done: Dict[int, object] = {}
    if resume_from is not None:
        done = _load_checkpoint(resume_from, n_tasks)
    save_path = options.checkpoint_path or resume_from
    saver = _Checkpointer(save_path, n_tasks, done, options.checkpoint_every)
    restore = None
    if save_path is not None:
        try:
            restore = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        except ValueError:  # pragma: no cover - non-main thread
            restore = None
    try:
        return _run_batch_body(worker, task_list, options, done, saver)
    except KeyboardInterrupt as exc:
        if save_path is None:
            raise
        saver.flush()
        raise KeyboardInterrupt(
            f"batch interrupted with {len(done)}/{n_tasks} results "
            f"checkpointed; resume with run_batch(..., "
            f"resume_from={save_path!r})"
        ) from exc
    finally:
        if restore is not None:
            signal.signal(signal.SIGTERM, restore)


def _run_batch_body(
    worker: Callable,
    task_list: Sequence,
    options: BatchOptions,
    done: Dict[int, object],
    saver: _Checkpointer,
) -> List:
    n_tasks = len(task_list)
    policy = options.retry or RetryPolicy()
    failures: Dict[int, TaskFailure] = {}
    missing = [index for index in range(n_tasks) if index not in done]
    # One task gains nothing from a pool, unless it needs the
    # isolation a forced "process" mode asks for or a watchdog.
    in_process = not options.parallel or (
        n_tasks <= 1
        and options.batch_mode != "process"
        and options.task_timeout is None
    )
    if missing and not in_process:
        _run_pool_resilient(
            worker, task_list, missing, options, policy, done, failures, saver
        )
    else:
        for index in missing:
            result, failure = _attempt_task(
                worker, index, task_list[index], options, policy
            )
            if failure is None:
                done[index] = result
                saver.tick()
                continue
            if options.on_error == "raise":
                saver.flush()
                error = failure.error
                if isinstance(error, BatchTaskError):
                    raise error
                raise wrap_task_error(error, index, task_list[index]) from error
            failures[index] = failure
    saver.flush()
    return [
        done[index] if index in done else failures[index]
        for index in range(n_tasks)
    ]


def run_chain(
    worker: Callable[[T, Optional[C]], Tuple[R, C]],
    tasks: Sequence[T],
    carry: Optional[C] = None,
) -> List[R]:
    """Warm-started sequential campaign.

    ``worker(task, carry)`` returns ``(result, next_carry)``; the carry
    of each call seeds the next one (first call receives ``carry``).
    This is the execution shape of continuation: a DC sweep starting
    every point from the previous solution, a corner ladder reusing
    the last bias point, a parameter stepper walking a turn-on curve.

    Unlike :func:`run_batch`, failures propagate *raw*: continuation
    callers (``dc_sweep``, warm-started Monte-Carlo) document typed
    errors like :class:`~repro.errors.ConvergenceError`, and the
    sequential traceback already identifies the failing point.
    """
    results: List[R] = []
    for task in tasks:
        result, carry = worker(task, carry)
        results.append(result)
    return results
