"""Fault-tolerant campaign execution: retry, skip, checkpoint/resume.

Covers the :func:`repro.campaigns.run_batch` resilience layer
(:class:`RetryPolicy`, ``on_error`` modes, structured
:class:`~repro.errors.TaskFailure` records, checkpointing, broken-pool
handling) and the acceptance scenario for the robustness tentpole: a
seeded 64-sample Monte-Carlo-style startup campaign with 8 injected
non-convergent samples completes with 56 healthy waveforms plus 8
structured quarantine records — and a killed campaign resumes from its
checkpoint re-running only the missing tasks.
"""

import os
import pickle

import numpy as np
import pytest

from repro.campaigns import BatchOptions, RetryPolicy, TaskFailure, run_batch
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import TransientOptions
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.errors import BatchTaskError, ConfigurationError, ConvergenceError


# -- picklable workers (process-pool tests need module-level defs) -----------


def _square(task):
    return task * task


def _fail_on_multiples_of_three(task):
    if task % 3 == 0 and task != 0:
        raise ValueError(f"task {task} refuses")
    return task * 10


def _fail_below_five(task):
    if task < 5:
        raise ValueError(f"task {task} too small")
    return task


def _exit_on_seven(task):
    if task == 7:
        os._exit(17)  # hard worker death: breaks the pool
    return task


def _convergence_failure(task):
    raise ConvergenceError(
        "no convergence", iterations=9, time=2e-6, dt=1e-9, phase="step"
    )


def _succeed_if_adjusted(task):
    if isinstance(task, dict) and task.get("rescue"):
        return ("rescued", task["index"])
    raise ValueError("needs the rescue knob")


def _enable_rescue(task, attempt):
    return {"index": task, "rescue": attempt >= 2}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(delay=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)

    def test_backoff_schedule(self):
        policy = RetryPolicy(delay=0.1, backoff=2.0)
        assert policy.wait(1) == pytest.approx(0.1)
        assert policy.wait(2) == pytest.approx(0.2)
        assert policy.wait(3) == pytest.approx(0.4)

    def test_batch_options_validation(self):
        with pytest.raises(ConfigurationError):
            BatchOptions(on_error="ignore")
        with pytest.raises(ConfigurationError):
            BatchOptions(checkpoint_every=0)


class TestTaskFailureRecords:
    def test_skip_mode_records_failures_in_slots(self):
        results = run_batch(
            _fail_on_multiples_of_three,
            range(7),
            BatchOptions(on_error="skip"),
        )
        failures = [r for r in results if isinstance(r, TaskFailure)]
        assert [f.index for f in failures] == [3, 6]
        assert [r for r in results if not isinstance(r, TaskFailure)] == [
            0, 10, 20, 40, 50,
        ]
        # TaskFailure is always falsy: healthy truthy results filter
        # with a plain comprehension.
        assert all(not f for f in failures)
        assert "task 3 refuses" in failures[0].message

    def test_failure_context_carries_convergence_fields(self):
        results = run_batch(
            _convergence_failure, [0], BatchOptions(on_error="skip")
        )
        context = results[0].context
        assert context["iterations"] == 9
        assert context["time"] == 2e-6
        assert context["phase"] == "step"

    def test_retry_mode_counts_attempts(self):
        results = run_batch(
            _fail_below_five,
            [1, 9],
            BatchOptions(on_error="retry", retry=RetryPolicy(max_attempts=3)),
        )
        assert isinstance(results[0], TaskFailure)
        assert results[0].attempts == 3
        assert results[1] == 9

    def test_retry_adjust_hook_heals_tasks(self):
        policy = RetryPolicy(max_attempts=2, adjust=_enable_rescue)
        results = run_batch(
            _succeed_if_adjusted,
            [4, 5],
            BatchOptions(on_error="retry", retry=policy),
        )
        assert results == [("rescued", 4), ("rescued", 5)]


class TestCheckpointResume:
    def test_checkpoint_then_resume_runs_only_missing(self, tmp_path):
        path = str(tmp_path / "campaign.pkl")
        first = run_batch(
            _fail_below_five,
            range(8),
            BatchOptions(on_error="skip", checkpoint_path=path),
        )
        assert [r.index for r in first if isinstance(r, TaskFailure)] == [
            0, 1, 2, 3, 4,
        ]
        # The checkpoint stores only the successes.
        with open(path, "rb") as fh:
            stored = pickle.load(fh)
        assert sorted(stored["done"]) == [5, 6, 7]
        # Resume with a healed worker: only the failed tasks re-run.
        calls = []

        def healed(task):
            calls.append(task)
            return task

        resumed = run_batch(healed, range(8), resume_from=path)
        assert calls == [0, 1, 2, 3, 4]
        assert resumed == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_raise_mode_flushes_checkpoint_before_raising(self, tmp_path):
        path = str(tmp_path / "campaign.pkl")
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(
                _fail_on_multiples_of_three,
                range(6),
                BatchOptions(checkpoint_path=path, checkpoint_every=1),
            )
        assert excinfo.value.index == 3
        with open(path, "rb") as fh:
            stored = pickle.load(fh)
        assert sorted(stored["done"]) == [0, 1, 2]

    def test_task_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "campaign.pkl")
        run_batch(
            _square, range(4), BatchOptions(on_error="skip", checkpoint_path=path)
        )
        with pytest.raises(ConfigurationError, match="misalign"):
            run_batch(_square, range(9), resume_from=path)

    def test_missing_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "never-written.pkl")
        with pytest.raises(ConfigurationError, match="does not exist"):
            run_batch(_square, range(4), resume_from=path)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ConfigurationError, match="unreadable"):
            run_batch(_square, range(4), resume_from=str(path))

    def test_checkpoint_write_is_atomic(self, tmp_path):
        path = str(tmp_path / "campaign.pkl")
        run_batch(
            _square,
            range(4),
            BatchOptions(on_error="skip", checkpoint_path=path),
        )
        assert not os.path.exists(path + ".tmp")


class TestProcessPoolResilience:
    def test_skip_mode_across_processes(self, tmp_path):
        path = str(tmp_path / "campaign.pkl")
        results = run_batch(
            _fail_on_multiples_of_three,
            range(7),
            BatchOptions(
                max_workers=2, on_error="skip", checkpoint_path=path
            ),
        )
        failures = [r for r in results if isinstance(r, TaskFailure)]
        assert [f.index for f in failures] == [3, 6]
        # The child-side traceback rode along as a string.
        assert "task 3 refuses" in failures[0].context["cause_text"]
        with open(path, "rb") as fh:
            assert sorted(pickle.load(fh)["done"]) == [0, 1, 2, 4, 5]

    def test_broken_pool_surfaces_and_checkpoints(self, tmp_path):
        path = str(tmp_path / "campaign.pkl")
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(
                _exit_on_seven,
                range(12),
                BatchOptions(
                    max_workers=2,
                    on_error="skip",
                    checkpoint_path=path,
                    checkpoint_every=1,
                ),
            )
        assert "in flight" in str(excinfo.value)
        assert excinfo.value.index >= 0
        # Completed results survived the crash.
        with open(path, "rb") as fh:
            stored = pickle.load(fh)
        assert len(stored["done"]) >= 1
        assert 7 not in stored["done"]

    def test_batch_task_error_cause_text_survives_pickle(self):
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch(
                _fail_on_multiples_of_three,
                range(7),
                BatchOptions(max_workers=2),
            )
        error = pickle.loads(pickle.dumps(excinfo.value))
        assert error.index == 3
        assert error.cause_text is not None
        assert "ValueError" in error.cause_text


class TestVectorizedFallback:
    def test_vectorized_success_checkpoints(self, tmp_path):
        # run_batch cannot stack an opaque worker: the vectorized mode
        # runs it in-process, and still checkpoints every result.
        path = str(tmp_path / "campaign.pkl")

        def worker(task):
            return -task

        results = run_batch(
            worker,
            range(3),
            BatchOptions(batch_mode="vectorized", checkpoint_path=path),
        )
        assert results == [0, -1, -2]
        with open(path, "rb") as fh:
            assert sorted(pickle.load(fh)["done"]) == [0, 1, 2]


# -- acceptance: 64-sample campaign with 8 injected divergences ---------------

F0 = 4e6
T0 = 1.0 / F0
_FAULTY = frozenset({3, 11, 17, 22, 30, 41, 52, 60})


def _build_mc_sample(index):
    """Seeded mismatch draw: deterministic gm/Q variation per index."""
    rng = np.random.default_rng(1000 + index)
    gm_scale = 1.0 + 0.05 * rng.standard_normal()
    q_scale = 1.0 + 0.03 * rng.standard_normal()
    tank = RLCTank.from_frequency_and_q(F0, 15.0 * q_scale, 1e-6)
    circuit = OscillatorNetlist(tank, vref=2.5).build(
        TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    )
    circuit.mc_index = index
    return circuit


def _mc_fault_hook(time, phase, circuit):
    """8 of the 64 samples diverge persistently from 0.5 us on —
    rescue attempts included, so no ladder can save them."""
    return getattr(circuit, "mc_index", -1) in _FAULTY and time >= 5e-7


class TestCampaignAcceptance:
    def test_64_sample_campaign_with_8_divergent_samples(self):
        t_stop = 8.0 * T0
        options = TransientOptions(
            t_stop=t_stop,
            dt=T0 / 40.0,
            method="trap",
            use_dc_operating_point=False,
            quarantine=True,
            rescue=True,
        )
        options.newton.fail_hook = _mc_fault_hook
        tasks = list(range(64))
        results = run_transient_campaign(
            tasks,
            _build_mc_sample,
            options,
            BatchOptions(batch_mode="vectorized"),
        )
        assert len(results) == 64
        healthy = [r for r in results if not r.stats.get("quarantined")]
        quarantined = [r for r in results if r.stats.get("quarantined")]
        assert len(healthy) == 56
        assert len(quarantined) == 8
        assert results[0].stats["quarantined_samples"] == sorted(_FAULTY)
        for result in healthy:
            assert result.t[-1] == pytest.approx(t_stop)
        for result in quarantined:
            record = result.stats["quarantine"]
            assert record["sample"] in _FAULTY
            assert record["reason"] == "newton"
            assert record["time"] >= 5e-7
            # The solo rescue rerun was attempted and also failed
            # (the injected fault follows the sample, not the batch).
            assert "rescue_failed" in result.stats
