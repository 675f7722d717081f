"""The health layer at campaign scale: the ISSUE 8 acceptance story.

The headline scenario: a 64-sample sharded Monte-Carlo-shaped campaign
with one sample whose device data turns NaN mid-run must deliver 63
certified, finite waveforms plus one structured quarantine/health
record — no hang, no NaN in any survivor, no leaked shared-memory
segment.  Around it: health reports crossing the shard/process
boundary with globally remapped sample indices, the pool watchdog
turning a hung shard (or a hung per-sample task) into structured
timeout failures, and the Monte-Carlo front-end aggregating
per-sample reports.

Everything a pool worker touches (build functions, source callables)
is module-level for pickling.
"""

import time

import numpy as np
import pytest

from repro.campaigns import BatchOptions, TaskFailure
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import Circuit, TransientOptions

T_STOP = 1e-6
DT = 1e-9
T_NAN = 5e-7
POISONED_SAMPLE = 13
N_SAMPLES = 64


def nan_after(t):
    return float("nan") if t > T_NAN else 1e-3


def hang_after(t):  # pragma: no cover - runs (and dies) in pool workers
    if t > T_NAN:
        time.sleep(300.0)
    return 1e-3


_STALLED = []


def stall_once(t):  # pragma: no cover - runs (and dies) in pool workers
    """Stall 30 s once per process: a finite hang, so a campaign that
    ignores its watchdog fails the test's time bound, not the suite."""
    if t > T_NAN and not _STALLED:
        _STALLED.append(t)
        time.sleep(30.0)
    return 1e-3


def build(task):
    """task = (r_scale, kind) with kind in (None, "nan", "hang", "stall")."""
    r_scale, kind = task
    circuit = Circuit("rc")
    circuit.resistor("R", "out", "0", 1e3 * r_scale)
    circuit.capacitor("C", "out", "0", 1e-9)
    sources = {"nan": nan_after, "hang": hang_after, "stall": stall_once}
    source = sources.get(kind, 1e-3)
    circuit.current_source("I", "0", "out", source)
    return circuit


def tasks_with(kind, where, n=N_SAMPLES):
    return [
        (1.0 + 0.01 * s, kind if s == where else None) for s in range(n)
    ]


def armed_options(**overrides):
    base = dict(
        t_stop=T_STOP,
        dt=DT,
        step_control="fixed",
        guards=True,
        certify=True,
        quarantine=True,
        on_abort="partial",
    )
    base.update(overrides)
    return TransientOptions(**base)


class TestShardedNaNAcceptance:
    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_63_certified_plus_1_quarantine_no_leak(
        self, max_workers, shm_segments
    ):
        before = shm_segments()
        results = run_transient_campaign(
            tasks_with("nan", POISONED_SAMPLE),
            build,
            armed_options(),
            BatchOptions(batch_mode="sharded", max_workers=max_workers),
        )
        assert len(results) == N_SAMPLES
        quarantined = []
        for g, result in enumerate(results):
            if result.stats.get("quarantined"):
                quarantined.append(g)
                record = result.stats["quarantine"]
                assert record["reason"] == "health"
                assert record["sample"] == POISONED_SAMPLE
                reports = result.stats["health"]
                assert reports
                # Shard-local indices must have been remapped to the
                # campaign's global sample index.
                assert all(r.sample == POISONED_SAMPLE for r in reports)
                assert all(r.kind == "nonfinite" for r in reports)
            else:
                assert np.isfinite(result.x).all(), f"NaN in survivor {g}"
                assert result.stats["health"] == []
                assert result.stats["certified_steps"] > 0
        assert quarantined == [POISONED_SAMPLE]
        assert shm_segments() - before == set()

    def test_sharded_armed_matches_lockstep_unarmed(self):
        """Healthy armed sharded run == unarmed single-batch, bitwise."""
        tasks = tasks_with(None, -1, n=16)
        reference = run_transient_campaign(
            tasks,
            build,
            TransientOptions(t_stop=T_STOP, dt=DT, step_control="fixed"),
            BatchOptions(batch_mode="vectorized"),
        )
        sharded = run_transient_campaign(
            tasks,
            build,
            armed_options(quarantine=False, on_abort="raise"),
            BatchOptions(batch_mode="sharded", max_workers=4),
        )
        for a, b in zip(reference, sharded):
            assert np.array_equal(a.x, b.x)
            assert b.stats["health"] == []


class TestShardWatchdog:
    def test_hung_shard_becomes_timeout_failures(self, shm_segments):
        """A worker hung mid-solve is killed; its shard's samples land
        as ``TaskFailure(kind="timeout")`` and every other shard's
        results survive.  Must finish far faster than the hang."""
        t0 = time.monotonic()
        before = shm_segments()
        results = run_transient_campaign(
            tasks_with("hang", 7, n=16),
            build,
            TransientOptions(t_stop=T_STOP, dt=DT, step_control="fixed"),
            BatchOptions(
                batch_mode="sharded",
                max_workers=4,
                shard_size=4,
                on_error="skip",
                task_timeout=3.0,
            ),
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        failures = [r for r in results if isinstance(r, TaskFailure)]
        assert len(failures) == 4  # the hung shard, whole
        assert {f.kind for f in failures} == {"timeout"}
        assert {f.index for f in failures} == {4, 5, 6, 7}
        for g, result in enumerate(results):
            if not isinstance(result, TaskFailure):
                assert np.isfinite(result.x).all()
        assert shm_segments() - before == set()


class TestProcessWatchdog:
    def test_hung_task_becomes_timeout_failure(self):
        """Per-sample process campaigns honour ``task_timeout`` too: the
        hung task is a timeout failure in its own slot, and every other
        slot is bit-equal to the sequential run."""
        options = TransientOptions(t_stop=T_STOP, dt=DT, step_control="fixed")
        t0 = time.monotonic()
        results = run_transient_campaign(
            tasks_with("stall", 1, n=4),
            build,
            options,
            BatchOptions(
                batch_mode="process",
                max_workers=2,
                on_error="skip",
                task_timeout=1.0,
            ),
        )
        assert time.monotonic() - t0 < 10.0
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout" and failure.index == 1
        reference = run_transient_campaign(
            tasks_with(None, -1, n=4),
            build,
            options,
            BatchOptions(batch_mode="sequential"),
        )
        for g in (0, 2, 3):
            assert np.array_equal(results[g].t, reference[g].t)
            assert np.array_equal(results[g].x, reference[g].x)


class TestMonteCarloAggregation:
    def test_health_reports_aggregate_with_global_samples(self):
        from repro.campaigns.vectorized import TransientMetricSpec
        from repro.mc import run_monte_carlo

        spec = TransientMetricSpec(
            name="v_final",
            build=_mc_build,
            options=armed_options(),
            evaluate=_mc_evaluate,
        )
        result = run_monte_carlo(
            spec,
            n_samples=8,
            batch=BatchOptions(batch_mode="vectorized"),
        )
        assert result.n == 8
        # Sample index == seed index; the poisoned seed draws the NaN.
        flagged = {r.sample for r in result.health}
        assert flagged == {_MC_POISONED}
        assert result.health_for(_MC_POISONED)
        assert result.health_for(0) == []


_MC_POISONED = 5


def _mc_build(profile):
    # Sample i draws with seed base_seed + i (bitwise reproducible in
    # isolation), so the poisoned sample is identified by comparing
    # against its deterministic draw — no side channel needed.
    from repro.mc.mismatch import DEFAULT_SIGMAS, MismatchProfile

    poisoned = MismatchProfile.sample(
        seed=12345 + _MC_POISONED, sigmas=DEFAULT_SIGMAS
    )
    return build((1.0, "nan" if profile == poisoned else None))


def _mc_evaluate(profile, result):
    return float(result.x[-1, 0])
