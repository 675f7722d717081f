"""Batch-campaign subsystem: one API for many independent runs.

The reproduction's expensive workloads are campaigns — the same
simulation executed over many samples (Monte-Carlo), faults (FMEA),
stimulus values (DC sweeps) or process corners.  This package owns
the execution of that shape:

* :class:`BatchOptions`, :func:`run_batch` — independent tasks, with
  sequential, process-parallel, or (for workers carrying a
  ``run_many`` hook) lockstep-vectorized scheduling, plus the
  fault-tolerance policy: ``on_error`` skip/retry modes backed by
  :class:`RetryPolicy`, structured :class:`~repro.errors.TaskFailure`
  records, and checkpoint/resume;
* :func:`run_chain` — warm-started (continuation) task chains;
* :func:`labelled_sweep`, :func:`corner_sweep` — batches keyed by a
  task label;
* :func:`run_transient_campaign`, :func:`transient_worker`,
  :class:`TransientMetricSpec` — the transient-campaign front-end
  (:mod:`repro.campaigns.vectorized`): lockstep stacked-array
  execution via the batched engine, sharded or per-sample across a
  process pool, with waveforms streamed through shared memory.

See :mod:`repro.campaigns.runner` for the execution semantics.  The
core runner deliberately depends only on the standard library (plus
the shared error types) so every simulation layer can import it
without cycles.  Like every package of the library, this one exports
its names through the lazy-export table of :mod:`repro._lazy`, so each
module loads on first access to one of its names; for the transient
front-end that is required, not just cheaper: importing
:mod:`~repro.campaigns.vectorized` eagerly would cycle through
:mod:`repro.circuits`, whose DC solver imports this package's runner
for continuation chains.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "..errors": ("TaskFailure",),
    ".runner": ("BatchOptions", "RetryPolicy", "nearest_neighbor_chain", "run_batch",
                "run_chain"),
    ".sweeps": ("corner_sweep", "labelled_sweep"),
    ".vectorized": ("TransientMetricSpec", "run_envelope_campaign",
                    "run_transient_campaign", "transient_worker"),
})
