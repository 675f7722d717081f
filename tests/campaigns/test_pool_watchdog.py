"""The pool watchdog and graceful interrupts, on real process pools.

``BatchOptions(task_timeout=...)`` gives every process-pool task a
per-attempt deadline measured from when it is first observed
*running* (queue time never counts).  A hung worker is terminated, the
pool rebuilt, surviving in-flight tasks resubmitted without charging
an attempt, and the hung task either retried (under a
:class:`RetryPolicy`) or recorded as ``TaskFailure(kind="timeout")``.
The watchdog's state machine is tested against a fake pool and clock
in ``test_drain.py``; this file keeps the real-pool smoke tests.

SIGTERM/SIGINT handling: an interrupted ``run_batch`` flushes its
atomic checkpoint before re-raising, and the re-raised interrupt names
the ``resume_from=`` path.
"""

import pickle
import signal
import time

import pytest

from repro.campaigns import BatchOptions, TaskFailure, run_batch
from repro.errors import BatchTaskError, ConfigurationError


def _double(task):
    return task * 2


def _hang_on_seven(task):  # pragma: no cover - hangs in pool workers
    if task == 7:
        time.sleep(300.0)
    return task * 2


def _fail_zero_stall_others(task):  # pragma: no cover - pool workers
    if task == 0:
        raise ValueError("task 0 fails")
    time.sleep(30.0)
    return task


class TestTaskTimeout:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchOptions(task_timeout=0.0)
        with pytest.raises(ConfigurationError):
            BatchOptions(task_timeout=-1.0)
        BatchOptions(task_timeout=1.5)  # fine

    def test_hung_worker_killed_and_recorded(self):
        t0 = time.monotonic()
        results = run_batch(
            _hang_on_seven,
            [1, 7, 2, 3],
            BatchOptions(
                batch_mode="process",
                max_workers=2,
                on_error="skip",
                task_timeout=2.0,
            ),
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        assert results[0] == 2 and results[2] == 4 and results[3] == 6
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert isinstance(failure.error, TimeoutError)

    def test_raise_does_not_wait_on_hung_peer(self):
        """A failure under ``on_error="raise"`` kills the pool instead of
        waiting for a peer that is still running."""
        t0 = time.monotonic()
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(
                _fail_zero_stall_others,
                [0, 1],
                BatchOptions(
                    batch_mode="process",
                    max_workers=2,
                    on_error="raise",
                    task_timeout=5.0,
                ),
            )
        assert excinfo.value.index == 0
        assert time.monotonic() - t0 < 10.0


class TestGracefulInterrupt:
    def test_sigterm_flushes_checkpoint_with_resume_hint(self, tmp_path):
        """A SIGTERM mid-campaign lands as KeyboardInterrupt, the
        checkpoint is flushed, and the re-raised interrupt names the
        resume path."""
        save = tmp_path / "campaign.ckpt"

        fired = {"done": False}

        def worker(task):
            if task == 5 and not fired["done"]:
                fired["done"] = True
                signal.raise_signal(signal.SIGTERM)
            return task * 2

        with pytest.raises(KeyboardInterrupt) as excinfo:
            run_batch(
                worker,
                range(10),
                BatchOptions(
                    on_error="skip",
                    checkpoint_every=1,
                    checkpoint_path=str(save),
                ),
            )
        assert "resume_from=" in str(excinfo.value)
        assert save.exists()
        with open(save, "rb") as fh:
            payload = pickle.load(fh)
        assert payload["done"]  # partial progress persisted

        # The flushed checkpoint actually resumes.
        resumed = run_batch(
            _double,
            range(10),
            BatchOptions(on_error="skip"),
            resume_from=str(save),
        )
        assert resumed == [t * 2 for t in range(10)]

    def test_sigterm_handler_restored(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        run_batch(
            _double,
            range(4),
            BatchOptions(checkpoint_path=str(tmp_path / "c.ckpt")),
        )
        assert signal.getsignal(signal.SIGTERM) is before
