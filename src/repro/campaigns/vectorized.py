"""Vectorized and process-parallel execution of transient campaigns.

:mod:`repro.campaigns.runner` schedules *opaque* workers; this module
is the campaign front-end for workers the library can see inside —
"build a circuit per task, run one transient, evaluate the result".
Knowing that shape unlocks execution strategies a generic worker
cannot offer:

* **Lockstep vectorization** (``BatchOptions(batch_mode="vectorized")``)
  — all tasks' circuits are stacked into one batched transient run
  (:func:`~repro.circuits.batched.run_transient_batched`): one time
  loop, batched linear algebra, per-sample Newton masks.  Netlists
  the lockstep engine cannot stack fall back to the per-sample
  reference path automatically.
* **Sharded lockstep** (``BatchOptions(batch_mode="sharded")``, and
  the ``"auto"`` choice for fixed-grid campaigns on multi-core
  machines) — the lockstep batch split into sub-batches dispatched
  across a process pool.  Because every per-sample solve in the
  lockstep engine (batched inverse, per-sample Newton masks,
  batched DC seed) is independent of batch membership, fixed-grid
  shard merges are bit-identical to the unsharded run;
  ``stiffness_bins`` additionally clusters samples of similar
  stiffness into the same shard so adaptive sharded runs are not
  dragged to one outlier's step size.
* **Per-sample processes** (``batch_mode="process"``) — one transient
  per task in a process pool, ``chunksize`` tasks per job.
* **Sequential** (``batch_mode="sequential"``, and ``"auto"`` for
  adaptive grids) — the per-sample engine in a plain loop.

Both pool strategies share one job function (:func:`_run_job`), one
pool drain with its watchdog (:func:`~repro.campaigns.runner.drain`)
and one record channel: a ``multiprocessing.shared_memory`` block
with one slot per sample, ``[n, n_cols, t, x.ravel()]``, that workers
write at the sample's global offset.  Full waveforms stream at the
cost of scalars; only a sample that outgrows its slot (a long
adaptive run) comes back pickled.

The generic :func:`~repro.campaigns.run_batch` sees only an opaque
worker, so it has none of these strategies: under
``batch_mode="vectorized"`` or ``"sharded"`` it runs the worker
in-process.  A campaign that wants lockstep calls
:func:`run_transient_campaign` (as
:func:`~repro.mc.montecarlo.run_monte_carlo` does).
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.waveform import Waveform
from ..circuits.backend import preload_scipy
from ..circuits.batched import (
    BatchIncompatible,
    probe_stiffness_ratios,
    run_transient_batched,
)
from ..circuits.envelope_transient import EnvelopeOptions, run_transient_envelope
from ..circuits.netlist import Circuit
from ..circuits.stepcontrol import stiffness_bins
from ..circuits.transient import (
    TransientOptions,
    TransientResult,
    _fixed_record_count,
    run_transient,
)
from ..errors import BatchTaskError, ConvergenceError, SimulationError, TaskFailure
from .runner import (
    BatchOptions,
    RetryPolicy,
    _attempt_task,
    _cause_text,
    _pool_worker_init,
    drain,
    nearest_neighbor_chain,
    wrap_task_error,
)

__all__ = [
    "TransientMetricSpec",
    "run_envelope_campaign",
    "run_transient_campaign",
]


@dataclass(frozen=True)
class TransientMetricSpec:
    """A transient campaign metric split into its schedulable halves.

    A plain ``metric(task) -> float`` callable hides the simulation
    inside; expressing it as *build the circuit*, *shared run
    options*, *evaluate the result* lets the campaign layer choose the
    execution strategy (lockstep batch, shared-memory processes,
    plain loop).  For fixed-grid options every strategy computes the
    same statistics (lockstep is equivalence-pinned at rtol 1e-9);
    adaptive options lockstep only on explicit
    ``batch_mode="vectorized"``, because the shared worst-sample grid
    is a different discretization than per-sample adaptive grids.

    Parameters
    ----------
    name:
        Metric name carried into result summaries.
    build:
        ``task -> Circuit``.  Must be picklable (module-level) for
        process execution; closures are fine for lockstep/sequential.
    options:
        One :class:`~repro.circuits.transient.TransientOptions` shared
        by every task — the lockstep grid.  Anything that must vary
        per task belongs in the circuit, not the options.
    evaluate:
        ``(task, TransientResult) -> float``.
    waveform:
        Optional ``TransientResult -> Waveform`` extractor.  When set,
        campaigns that stream waveforms (e.g. :func:`~repro.mc.
        montecarlo.run_monte_carlo`) retain one waveform per task
        alongside the scalar values.
    """

    name: str
    build: Callable[[object], Circuit]
    options: TransientOptions
    evaluate: Callable[[object, TransientResult], float]
    waveform: Optional[Callable[[TransientResult], Waveform]] = None


def run_transient_campaign(
    tasks: Sequence[object],
    build: Callable[[object], Circuit],
    options: TransientOptions,
    batch: Optional[BatchOptions] = None,
) -> List[TransientResult]:
    """Run one transient per task; results in task order.

    The execution strategy follows ``batch.batch_mode``:

    * ``"vectorized"`` — the lockstep batched engine; netlists it
      cannot stack fall back to the sequential per-sample loop.
    * ``"sharded"`` — the lockstep engine split into sub-batches of
      ``batch.shard_size`` samples (default: the campaign divided
      evenly over the resolved worker count), dispatched across a
      shard-level process pool with records streamed through one
      shared-memory block at per-sample global offsets.  One worker
      (or one core) degrades gracefully to running the shards
      sequentially in-process.  Fixed-grid shard merges are
      **bit-identical** to the unsharded lockstep run — every
      per-sample solve (batched inverse, per-sample Newton masks,
      batched DC seed) is independent of batch membership.  With
      ``batch.stiffness_bins > 1`` a probe step ranks samples by
      first-step LTE ratio and shards are cut within stiffness
      quantile bins — on *adaptive* grids (a deliberate, explicit
      choice: each shard then integrates its own worst-sample grid,
      a different discretization than the unsharded batch) this
      keeps one stiff outlier from dragging a shard of benign
      samples to its dt.
    * ``"auto"`` (default) — lockstep for **fixed-grid** runs (where
      the batched engine is equivalence-pinned to the per-sample path
      at rtol 1e-9) — sharded across cores when the machine has more
      than one (bit-identical, so the upgrade is safe), single-batch
      lockstep otherwise; sequential for adaptive runs;
      ``max_workers`` requesting processes goes parallel instead.
      Adaptive runs never lockstep implicitly: the shared
      worst-sample grid is a *different, coarser-or-equal
      discretization* than each sample's own adaptive grid, so
      results legitimately differ at LTE-tolerance level — opting in
      must be explicit (``"vectorized"`` or ``"sharded"``).
    * ``"process"`` (or ``"auto"`` + ``max_workers > 1``) — one
      transient per task in a process pool, ``batch.chunksize`` tasks
      per job.
    * ``"sequential"`` — plain loop, no stacking.

    Both pool modes return every record through one shared-memory
    channel with a slot per sample; a sample that outgrows its slot
    (an adaptive run past 4x its initial-dt record count) comes back
    pickled instead, with the same numbers.  They also share
    ``batch.on_error`` and ``batch.task_timeout`` handling: a failed
    job raises :class:`~repro.errors.BatchTaskError` naming its first
    failing sample, or its samples re-run solo in the parent
    (``"skip"`` / ``"retry"``); a hung job's samples become
    ``kind="timeout"`` :class:`~repro.errors.TaskFailure` records.
    In-process paths wrap worker failures in
    :class:`~repro.errors.BatchTaskError` carrying the task index.

    With ``options.quarantine`` the lockstep path tolerates diverging
    samples (they are masked out and flagged ``quarantined`` in their
    stats while the rest of the batch finishes), and when
    ``options.rescue`` is *also* set each quarantined sample gets a
    solo second chance through the per-sample engine's rescue ladder
    — see :func:`_rerun_quarantined`.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    mode = batch.batch_mode if batch is not None else "auto"
    want_process = batch is not None and batch.parallel
    auto_fixed = (
        mode == "auto" and not want_process and options.step_control == "fixed"
    )
    circuits = _build_all(tasks, build)
    if mode == "sharded" or (
        auto_fixed and len(tasks) > 1 and (os.cpu_count() or 1) > 1
    ):
        policy = batch if batch is not None else BatchOptions()
        if policy.batch_mode != "sharded":
            # "auto" promotion: re-key the policy so worker resolution
            # ("use the box") and validation follow the sharded rules.
            policy = replace(policy, batch_mode="sharded")
        shards = _plan_shards(circuits, options, policy)
        return _run_jobs(tasks, build, options, policy, circuits, shards, True)
    if mode == "vectorized" or auto_fixed:
        try:
            return _run_one_shard(circuits, tasks, range(len(tasks)), options)
        except BatchTaskError:
            raise
        except Exception as exc:
            raise _wrap_collective(exc, tasks) from exc
    if want_process:
        chunks = _chunks(range(len(tasks)), batch.chunksize)
        return _run_jobs(tasks, build, options, batch, circuits, chunks, False)
    return _run_sequential(tasks, circuits, options)


def _wrap_collective(exc: BaseException, tasks: Sequence) -> BatchTaskError:
    """Wrap a failure of a whole lockstep batch.

    A vectorized solve fails collectively; when the underlying error
    names its failing samples (the batched engine's ConvergenceError
    carries ``failed_samples``), the first one becomes the index.
    Otherwise the index is ``-1``: not attributable to a single task.
    """
    samples = getattr(exc, "failed_samples", None)
    # Duck-typed attribute: guard against numpy arrays, whose bare
    # truthiness raises for more than one element.
    index = int(samples[0]) if samples is not None and len(samples) else -1
    task = tasks[index] if 0 <= index < len(tasks) else None
    return wrap_task_error(exc, index, task, action="vectorized batch failed")


# -- fallback paths -----------------------------------------------------------


def _build_all(tasks: Sequence[object], build) -> List[Circuit]:
    circuits = []
    for index, task in enumerate(tasks):
        try:
            circuits.append(build(task))
        except Exception as exc:
            raise wrap_task_error(
                exc, index, task, action="circuit build failed"
            ) from exc
    return circuits


def _run_sequential(
    tasks: Sequence[object],
    circuits: Sequence[Circuit],
    options: TransientOptions,
    indices: Optional[Sequence[int]] = None,
) -> List[TransientResult]:
    """Per-sample loop; failures name ``indices[local]`` (default: local)."""
    results = []
    for local, circuit in enumerate(circuits):
        try:
            results.append(run_transient(circuit, options))
        except Exception as exc:
            g = local if indices is None else indices[local]
            raise wrap_task_error(
                exc, g, tasks[local], action="transient failed"
            ) from exc
    return results


def _rerun_quarantined(
    circuits: Sequence[Circuit],
    options: TransientOptions,
    results: List[TransientResult],
) -> None:
    """Give lockstep-quarantined samples a solo second chance.

    A quarantined sample was killed under the *shared* lockstep grid
    and batch discipline; alone — on its own grid, with the rescue
    ladder — it may well finish.  Each quarantined sample re-runs
    through the per-sample engine with rescue enabled: success
    replaces the frozen partial result (``quarantined`` flips to
    False, the original ``quarantine`` record stays for traceability
    alongside ``solo_rerun=True``); failure keeps the partial result
    and records why in ``stats["rescue_failed"]``.  Mutates
    ``results`` in place.
    """
    solo = replace(options, quarantine=False)
    for s, result in enumerate(results):
        if not result.stats.get("quarantined"):
            continue
        try:
            rerun = run_transient(circuits[s], solo)
        except (ConvergenceError, SimulationError) as exc:
            result.stats["rescue_failed"] = str(exc)
            continue
        if rerun.stats.get("completed") is False:
            # on_abort="partial" solo rerun that aborted again: the
            # quarantined lockstep result stands.
            result.stats["rescue_failed"] = str(
                rerun.stats.get("abort_error")
                or rerun.stats.get("abort_reason")
            )
            continue
        rerun.stats["quarantined"] = False
        rerun.stats["quarantine"] = result.stats.get("quarantine")
        rerun.stats["solo_rerun"] = True
        results[s] = rerun


# -- shared-memory lifecycle --------------------------------------------------

#: Parent-side shared blocks created but not yet released.  The
#: streaming paths release their block in a ``finally``, but a block
#: can still outlive them — ``KeyboardInterrupt`` landing between
#: creation and the ``try``, or an exception raised *by* the release
#: itself — so an atexit backstop unlinks anything left over rather
#: than leaking ``/dev/shm`` segments past the interpreter.
_LIVE_SHM: dict = {}


def _create_shared_block(shape: Tuple[int, ...]) -> shared_memory.SharedMemory:
    """Create (and register for cleanup) one float64 record block."""
    shm = shared_memory.SharedMemory(
        create=True, size=int(np.prod(shape)) * 8
    )
    _LIVE_SHM[shm.name] = shm
    return shm


def _release_shared_block(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a block; safe to call twice."""
    _LIVE_SHM.pop(shm.name, None)
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


@atexit.register
def _reap_shared_blocks() -> None:  # pragma: no cover - teardown path
    for shm in list(_LIVE_SHM.values()):
        try:
            _release_shared_block(shm)
        except Exception:
            pass


# -- the record channel -------------------------------------------------------


def _slot_capacity(options: TransientOptions) -> int:
    """Records one sample's channel slot holds.

    A fixed grid's record count is exact.  An adaptive run has none
    known up front, so it gets 4x the fixed-grid count at the
    *initial* dt.  The controller shrinks below dt only transiently
    (near breakpoints or stiffness onsets), so a sample overflowing
    4x is rare, and legal: that one sample comes back pickled.
    """
    if options.step_control == "fixed":
        return _fixed_record_count(options)
    return 4 * (_fixed_record_count(options) + 2)


def _write_slot(slot: np.ndarray, capacity: int, t, x) -> bool:
    """Write one record into its slot ``[n, n_cols, t[0:capacity], x.ravel()]``.

    Returns False, leaving the slot alone, when the record does not
    fit: more than ``capacity`` records, or more values than the
    slot's ``x`` area holds.
    """
    n, n_cols = x.shape
    if n > capacity or n * n_cols > slot.size - 2 - capacity:
        return False
    slot[:2] = n, n_cols
    slot[2 : 2 + n] = t
    slot[2 + capacity : 2 + capacity + n * n_cols] = x.reshape(-1)
    return True


def _read_slot(slot: np.ndarray, capacity: int):
    """Copy ``(t, x)`` back out of a slot :func:`_write_slot` filled."""
    n, n_cols = int(slot[0]), int(slot[1])
    t = np.array(slot[2 : 2 + n])
    x = np.array(slot[2 + capacity : 2 + capacity + n * n_cols])
    return t, x.reshape(n, n_cols)


# -- jobs: shards and per-sample chunks ----------------------------------------


def _plan_shards(
    circuits: Sequence[Circuit],
    options: TransientOptions,
    batch: BatchOptions,
) -> List[List[int]]:
    """Cut the campaign into shards of global sample indices.

    With ``batch.stiffness_bins > 1`` the samples are first grouped
    into stiffness quantile bins by a lockstep probe step (cluster
    first), then each bin is chunked into shards (shard within
    clusters) — so no shard mixes a stiff outlier with benign
    samples.  A failed probe degrades to task order.  Shards always
    partition ``range(S)`` exactly, each in ascending sample order.
    """
    S = len(circuits)
    bins = [np.arange(S)]
    if batch.stiffness_bins > 1 and S > 1:
        ratios = probe_stiffness_ratios(circuits, options)
        if ratios is not None:
            bins = stiffness_bins(ratios, batch.stiffness_bins)
    workers = max(batch.resolved_max_workers(), 1)
    shard_size = batch.shard_size or max(1, math.ceil(S / workers))
    return [shard for members in bins for shard in _chunks(members, shard_size)]


def _chunks(indices: Sequence[int], size: int) -> List[List[int]]:
    """Cut ``indices`` into consecutive jobs of at most ``size``."""
    return [
        [int(i) for i in indices[k : k + size]]
        for k in range(0, len(indices), size)
    ]


def _run_one_shard(
    circuits: Sequence[Circuit],
    tasks: Sequence[object],
    indices: Sequence[int],
    options: TransientOptions,
) -> List[TransientResult]:
    """One lockstep batch: a shard, or the whole unsharded campaign.

    Netlists the engine cannot stack fall back to the per-sample loop
    (failures attributed to *global* task indices), and quarantined
    samples get their solo rescue rerun inside the batch.
    """
    try:
        results = run_transient_batched(circuits, options)
    except BatchIncompatible:
        return _run_sequential(tasks, circuits, options, indices)
    if options.quarantine and options.rescue:
        _rerun_quarantined(circuits, options, results)
    return results


def _globalize_quarantine(stats: dict, indices: Sequence[int]) -> None:
    """Remap shard-local sample indices in per-sample stats to global.

    Covers the quarantine records and the health layer's
    :class:`~repro.circuits.health.HealthReport` list, so a report
    filed against shard-local sample 2 names the campaign's global
    sample index by the time anyone reads the merged results.
    """
    record = stats.get("quarantine")
    if record and "sample" in record:
        record = dict(record)
        record["sample"] = int(indices[int(record["sample"])])
        stats["quarantine"] = record
    local_list = stats.get("quarantined_samples")
    if local_list:
        stats["quarantined_samples"] = [int(indices[int(s)]) for s in local_list]
    health = stats.get("health")
    if health:
        stats["health"] = [
            replace(report, sample=int(indices[int(report.sample)]))
            if getattr(report, "sample", None) is not None
            else report
            for report in health
        ]


#: Worker-process state installed by :func:`_job_init`.
_WORKER_STATE: dict = {}


def _job_init(channel, build, options, lockstep) -> None:
    """Pool initializer: attach the record channel, keep the run inputs."""
    _pool_worker_init()
    shm_name, shape, capacity = channel
    shm = shared_memory.SharedMemory(name=shm_name)
    # Detach cleanly at worker exit; the parent owns the unlink.
    atexit.register(shm.close)
    _WORKER_STATE.update(
        shm=shm,
        records=np.ndarray(shape, dtype=np.float64, buffer=shm.buf),
        capacity=capacity,
        build=build,
        options=options,
        lockstep=lockstep,
    )


def _run_job(job, state: Optional[dict] = None):
    """Run one job, child- or parent-side; never raises.

    A job is ``(job_no, global_indices, tasks)``.  A lockstep job runs
    its tasks as one shard through :func:`_run_one_shard`; a solo job
    runs them one by one.  ``state`` defaults to the pool worker's;
    the in-process shard loop passes its own, with the parent's
    circuits and no channel.

    Returns ``(job_no, items, None)`` with one ``(g, nodes, stats,
    record)`` per sample, where ``record`` is ``None`` when the sample
    went into its channel slot and ``(t, x)`` when it did not.  A
    failure comes back as ``(job_no, None, failure)`` (see
    :func:`_failure`), ``g`` being the first failing global sample
    (``-1`` when a shard failure names none), so sibling jobs finish
    and the parent applies its ``on_error`` policy.
    """
    job_no, indices, tasks = job
    state = _WORKER_STATE if state is None else state
    build, options = state["build"], state["options"]
    lockstep = state["lockstep"]
    g = -1
    try:
        if lockstep:
            circuits = state.get("circuits")
            if circuits is None:
                sub = [build(task) for task in tasks]
            else:
                sub = [circuits[i] for i in indices]
            results = _run_one_shard(sub, tasks, indices, options)
        else:
            results = []
            for g, task in zip(indices, tasks):
                results.append(run_transient(build(task), options))
    except Exception as exc:  # noqa: BLE001 — becomes a failure payload
        if lockstep:
            if isinstance(exc, BatchTaskError):
                g = int(getattr(exc, "index", -1))
            else:
                samples = getattr(exc, "failed_samples", None)
                if samples is not None and len(samples):
                    g = int(indices[int(samples[0])])
        return job_no, None, _failure(exc, g)
    records = state.get("records")
    items = []
    for g, result in zip(indices, results):
        if lockstep:
            _globalize_quarantine(result.stats, indices)
        record = (result.t, result.x)
        if records is not None and _write_slot(
            records[g], state["capacity"], result.t, result.x
        ):
            record = None
        items.append((g, result.recorded_nodes, dict(result.stats), record))
    return job_no, items, None


def _failure(exc: BaseException, g: int) -> tuple:
    """A job failure record: ``(g, message, cause_text, kind)``."""
    return g, f"{type(exc).__name__}: {exc}", _cause_text(exc), "error"


def _solo_fallback(
    indices: Sequence[int],
    tasks: Sequence[object],
    build,
    options: TransientOptions,
    batch: BatchOptions,
    results: List[object],
    lockstep: bool,
) -> None:
    """Recover a failed job sample-by-sample (``on_error != "raise"``).

    A collective shard failure rarely implicates every member; each
    sample re-runs solo through the per-sample engine under the batch
    retry policy, so innocents recover (a shard's get flagged
    ``shard_fallback``) and persistent failures land as
    :class:`~repro.errors.TaskFailure` records in their own slots.
    """
    policy = batch.retry or RetryPolicy()

    def worker(task: object) -> TransientResult:
        return run_transient(build(task), options)

    for g in indices:
        result, failure = _attempt_task(worker, g, tasks[g], batch, policy)
        if failure is None and lockstep:
            result.stats["shard_fallback"] = True
        results[g] = result if failure is None else failure


def _run_jobs(
    tasks: Sequence[object],
    build,
    options: TransientOptions,
    batch: BatchOptions,
    circuits: Sequence[Circuit],
    job_indices: List[List[int]],
    lockstep: bool,
) -> List[object]:
    """Run the jobs, merge their records in task order, apply ``on_error``.

    Pool workers write each sample into its channel slot; lockstep
    jobs with one worker run in-process, with no pool and no channel.
    Failed jobs are judged in job order once every job has finished.
    A hung job's samples never re-run: in the parent, whatever hung
    the worker would hang the parent.
    """
    S = len(tasks)
    n_jobs = len(job_indices)
    n_workers = max(1, min(batch.resolved_max_workers(), n_jobs))
    results: List[object] = [None] * S
    failed: dict = {}
    records = None
    capacity = 0

    def merge(payload) -> None:
        job_no, items, failure = payload
        if failure is not None:
            failed[job_no] = failure
            return
        t_job = None
        for g, nodes, stats, record in items:
            t, x = _read_slot(records[g], capacity) if record is None else record
            if t_job is not None and t.tobytes() == t_job.tobytes():
                t = t_job  # samples on one grid share one array, as lockstep
            t_job = t
            if lockstep:
                stats["shard"] = job_no
                stats["n_shards"] = n_jobs
                stats["shard_workers"] = n_workers
            results[g] = TransientResult(
                circuit=circuits[g], t=t, x=x, recorded_nodes=nodes, stats=stats
            )

    jobs = {
        job_no: (job_no, indices, [tasks[g] for g in indices])
        for job_no, indices in enumerate(job_indices)
    }
    if lockstep and n_workers <= 1:
        state = dict(
            build=build, options=options, lockstep=True, circuits=circuits
        )
        for job in jobs.values():
            merge(_run_job(job, state))
    else:
        timeout = batch.task_timeout

        def on_done(job_no: int, future) -> None:
            exc = future.exception()  # _run_job never raises: a pickling error
            if exc is None:
                merge(future.result())
            else:
                failed[job_no] = _failure(exc, job_indices[job_no][0])

        def on_timeout(job_no: int) -> None:
            message = f"watchdog fired: job {job_no} exceeded {timeout!r}s"
            g = job_indices[job_no][0]
            failed[job_no] = (g, message, f"TimeoutError: {message}", "timeout")

        for circuit in circuits:
            # Workers rebuild their own circuits; the parent-side ones
            # label the merged results, so they need branch numbering too.
            circuit.prepare()
        # Forked workers inherit what the parent imported: load the
        # scipy their solves need once here, not once per worker.
        preload_scipy(options.backend, max(circuit.size for circuit in circuits))
        capacity = _slot_capacity(options)
        if options.record_nodes is not None:
            width = len(options.record_nodes)
        else:
            width = max(circuit.size for circuit in circuits)
        shape = (S, 2 + capacity * (1 + width))
        shm = _create_shared_block(shape)
        try:
            records = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
            channel = (shm.name, shape, capacity)

            def make_pool() -> ProcessPoolExecutor:
                return ProcessPoolExecutor(
                    max_workers=n_workers,
                    initializer=_job_init,
                    initargs=(channel, build, options, lockstep),
                )

            try:
                drain(make_pool, _run_job, jobs, timeout, on_done, on_timeout)
            except BrokenProcessPool as exc:
                g = job_indices[exc.in_flight[0]][0]
                raise wrap_task_error(
                    exc,
                    g,
                    tasks[g],
                    action=(
                        f"worker process pool broke with job(s) "
                        f"{exc.in_flight} in flight"
                    ),
                ) from exc
        finally:
            _release_shared_block(shm)

    action = "sharded batch failed" if lockstep else "transient worker failed"
    for job_no in sorted(failed):
        g, message, cause, kind = failed[job_no]
        indices = job_indices[job_no]
        if batch.on_error == "raise":
            task = tasks[g] if 0 <= g < S else None
            raise BatchTaskError(
                f"{action} on task {g} ({task!r}): {message}",
                index=g,
                task=task,
                cause_text=cause,
            )
        if kind == "timeout":
            for g_i in indices:
                results[g_i] = TaskFailure(
                    index=g_i,
                    task=tasks[g_i],
                    error=TimeoutError(message),
                    attempts=1,
                    kind="timeout",
                )
            continue
        _solo_fallback(indices, tasks, build, options, batch, results, lockstep)
    return results


# -- warm-started envelope campaigns ------------------------------------------


def run_envelope_campaign(
    tasks: Sequence[object],
    build: Callable[[object], Circuit],
    options: TransientOptions,
    envelope,
    params: Optional[Sequence] = None,
    start: int = 0,
) -> List[TransientResult]:
    """Envelope-following transients over a campaign, warm-started.

    Runs :func:`~repro.circuits.envelope_transient.
    run_transient_envelope` once per task, visiting the tasks in
    greedy nearest-neighbour order over ``params`` (one scalar or
    parameter vector per task — typically the Monte-Carlo draws) so
    that each sample's settled envelope state
    (``stats["envelope"]["final"]``) seeds the next sample's skip
    schedule via ``EnvelopeOptions.warm_start``.  Nearby draws settle
    to nearby envelopes, so a warm-started sample starts skipping at
    the neighbour's converged skip length instead of re-climbing from
    ``skip_initial``.

    The chain is self-correcting: the engine's correction burst
    measures every skip against the describing-function prediction, so
    a warm start carried across a parameter cliff is *rejected*
    (``stats["envelope"]["warm_start"] == "rejected"``) and that
    sample falls back to the cold ``skip_initial`` schedule — a bad
    seed costs resolved cycles, never accuracy.

    ``envelope`` is either one shared
    :class:`~repro.circuits.envelope_transient.EnvelopeOptions` or a
    callable ``task -> EnvelopeOptions`` — campaigns whose draws
    perturb the tank or limiter need a per-task describing-function
    model, and only the task knows the draw.  Without ``params`` the
    tasks run in the given order, still chaining warm starts.  Results
    are returned in task order, each with
    ``stats["envelope"]["chain_rank"]`` recording its position in the
    visiting chain.  ``skip == "off"`` degrades to plain
    carrier-resolved runs (no warm state to carry).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    env_for = (
        envelope
        if callable(envelope) and not isinstance(envelope, EnvelopeOptions)
        else (lambda _task: envelope)
    )
    if params is not None:
        params = list(params)
        if len(params) != len(tasks):
            raise SimulationError(
                f"params has {len(params)} entries for {len(tasks)} tasks"
            )
        order = nearest_neighbor_chain(params, start=start)
    else:
        order = list(range(len(tasks)))
    results: List[Optional[TransientResult]] = [None] * len(tasks)
    warm: Optional[dict] = None
    for rank, g in enumerate(order):
        base = env_for(tasks[g])
        if not isinstance(base, EnvelopeOptions):
            raise SimulationError(
                "envelope must be an EnvelopeOptions or a callable "
                f"returning one, got {type(base).__name__}"
            )
        env = replace(base, warm_start=warm)
        try:
            result = run_transient_envelope(build(tasks[g]), options, env)
        except BatchTaskError:
            raise
        except Exception as exc:
            raise wrap_task_error(
                exc, g, tasks[g], action="envelope campaign task failed"
            ) from exc
        stats = result.stats.get("envelope")
        if isinstance(stats, dict):
            stats["chain_rank"] = rank
            final = stats.get("final")
            warm = dict(final) if isinstance(final, dict) else None
        else:
            warm = None
        results[g] = result
    return results
