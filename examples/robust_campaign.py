"""Fault-tolerant campaign execution, end to end.

Large campaigns fail in boring ways: one mismatch draw refuses to
converge, a worker process dies, the job gets killed at 80%.  The
fault-tolerance layer turns each of those from "lose the campaign"
into a structured, resumable outcome, on three levels:

1. **Per-run rescue** — when Newton fails at the dt floor,
   ``TransientOptions(rescue=True)`` walks a continuation ladder on
   the failing *step* (gmin ramp, then source ramp) before giving
   up; budgets (``max_steps``, ``max_wall_time``, ``max_rescues``)
   bound the worst case, and ``on_abort="partial"`` returns the
   waveform up to the abort instead of raising.

2. **Per-sample quarantine** — in the lockstep batched engine
   (``quarantine=True``), a sample that exhausts rescue is masked
   out of the batch: its state freezes, the survivors finish
   normally, and the campaign front-end re-runs quarantined samples
   solo through the rescue ladder.  8 bad draws no longer cost you
   the other 56.

3. **Campaign resilience** — ``run_batch`` grows
   ``on_error="skip"|"retry"`` (structured
   :class:`~repro.errors.TaskFailure` records in the failed slots),
   :class:`repro.campaigns.RetryPolicy` backoff with an optional
   per-attempt task ``adjust`` hook, and periodic checkpointing with
   ``resume_from=`` so a killed campaign re-runs only what's missing.

The healthy path is untouched: with no failures, rescue and
quarantine add *zero* Newton solves and results stay bit-identical
(``benchmarks/run_perf.py --check`` gates exactly that).

Faults here are injected deterministically through the test-only
``NewtonOptions.fail_hook`` so the demo is reproducible without
hunting for a genuinely divergent netlist.

Run:  python examples/robust_campaign.py
"""

import os
import tempfile

import numpy as np

from repro.campaigns import BatchOptions, RetryPolicy, TaskFailure, run_batch
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import TransientOptions, run_transient
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.errors import ConvergenceError

F0 = 4e6
T0 = 1.0 / F0

N_SAMPLES = 32
FAULTY = frozenset({3, 11, 17, 22})


def build_sample(index):
    """Seeded mismatch draw: deterministic gm/Q spread per index."""
    rng = np.random.default_rng(1000 + index)
    tank = RLCTank.from_frequency_and_q(
        F0, 15.0 * (1.0 + 0.03 * rng.standard_normal()), 1e-6
    )
    circuit = OscillatorNetlist(tank, vref=2.5).build(
        TanhLimiter(gm=6e-3 * (1.0 + 0.05 * rng.standard_normal()), i_max=2e-3)
    )
    circuit.mc_index = index
    return circuit


class TransientFault:
    """Deterministic divergence: step solves fail from ``t_on`` until
    the rescue ladder intervenes (so per-run rescue *works*)."""

    def __init__(self, t_on):
        self.t_on = t_on
        self.active = True

    def __call__(self, time, phase, circuit):
        if phase == "rescue":
            self.active = False  # the ladder's solve succeeds
            return False
        return self.active and time >= self.t_on


def persistent_fault(time, phase, circuit):
    """Divergence that rescue cannot fix, but only for FAULTY draws —
    the quarantine demo's 4 bad samples."""
    return getattr(circuit, "mc_index", -1) in FAULTY and time >= 5e-7


def demo_rescue_ladder():
    print("== 1. per-run rescue ladder ==")
    options = TransientOptions(
        t_stop=4 * T0, dt=T0 / 40, method="trap",
        use_dc_operating_point=False, rescue=True,
    )
    options.newton.fail_hook = TransientFault(t_on=1.0 * T0)
    result = run_transient(build_sample(0), options)
    print(f"   transient hit an injected Newton failure at t={T0:.3e} s")
    print(f"   rescues taken: {result.stats['rescues']} "
          f"(stages: {result.stats['rescue_stages']})")
    print(f"   run completed to t_stop: t[-1] = {result.t[-1]:.3e} s")

    # The same fault without rescue is fatal — but the error now
    # carries structured context for the post-mortem.
    plain = TransientOptions(
        t_stop=4 * T0, dt=T0 / 40, method="trap",
        use_dc_operating_point=False,
    )
    plain.newton.fail_hook = TransientFault(t_on=1.0 * T0)
    try:
        run_transient(build_sample(0), plain)
    except ConvergenceError as exc:
        print(f"   without rescue: ConvergenceError, context={exc.context()}")


def demo_quarantine():
    print("== 2. lockstep quarantine (32 samples, 4 divergent) ==")
    options = TransientOptions(
        t_stop=8 * T0, dt=T0 / 40, method="trap",
        use_dc_operating_point=False,
        quarantine=True, rescue=True,
    )
    options.newton.fail_hook = persistent_fault
    results = run_transient_campaign(
        list(range(N_SAMPLES)), build_sample, options,
        BatchOptions(batch_mode="vectorized"),
    )
    healthy = [r for r in results if not r.stats.get("quarantined")]
    quarantined = [r for r in results if r.stats.get("quarantined")]
    print(f"   {len(healthy)} healthy waveforms, "
          f"{len(quarantined)} quarantined")
    print(f"   quarantined samples: {results[0].stats['quarantined_samples']}")
    record = quarantined[0].stats["quarantine"]
    print(f"   first record: sample {record['sample']} died at "
          f"t={record['time']:.3e} s ({record['reason']}); solo rerun: "
          f"{quarantined[0].stats.get('rescue_failed', 'recovered')}")


def flaky_metric(task):
    """A worker that fails for small tasks unless retried with the
    rescue knob — stands in for 'enable rescue only on retry'."""
    if isinstance(task, dict):
        index, rescued = task["index"], task["rescue"]
    else:
        index, rescued = task, False
    if index % 5 == 0 and index != 0 and not rescued:
        raise ValueError(f"task {index} diverged (rescue off)")
    return index * index


def adjust_for_retry(task, attempt):
    index = task["index"] if isinstance(task, dict) else task
    return {"index": index, "rescue": attempt >= 2}


def demo_retry_and_resume():
    print("== 3. retry/backoff + checkpoint/resume ==")
    # Two worker processes: a failed task is resubmitted to the pool
    # while the others keep running.
    options = BatchOptions(
        max_workers=2,
        on_error="retry",
        retry=RetryPolicy(max_attempts=2, adjust=adjust_for_retry),
    )
    results = run_batch(flaky_metric, range(12), options)
    print(f"   retry mode: {sum(isinstance(r, TaskFailure) for r in results)} "
          f"failures after per-task retries on 2 worker processes "
          f"(adjust hook healed them all)")

    # Checkpoint/resume: the first pass "crashes" on half the tasks;
    # the resumed pass re-runs only what's missing.
    path = os.path.join(tempfile.mkdtemp(), "campaign.pkl")

    def fragile(task):
        if task >= 6:
            raise ValueError(f"task {task} lost its worker")
        return task * 10

    first = run_batch(
        fragile, range(12),
        BatchOptions(on_error="skip", checkpoint_path=path),
    )
    failed = [r.index for r in first if isinstance(r, TaskFailure)]
    print(f"   first pass: tasks {failed} failed; successes checkpointed")

    reran = []

    def healed(task):
        reran.append(task)
        return task * 10

    resumed = run_batch(healed, range(12), resume_from=path)
    print(f"   resume re-ran only {reran}; "
          f"full results intact: {resumed == [t * 10 for t in range(12)]}")


def main() -> None:
    demo_rescue_ladder()
    demo_quarantine()
    demo_retry_and_resume()


if __name__ == "__main__":
    main()
