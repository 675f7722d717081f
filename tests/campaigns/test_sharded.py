"""Sharded campaign execution vs the single-batch lockstep run.

The contract under test: splitting a fixed-grid lockstep campaign
into shards — sequentially in-process or across a process pool with
the shared-memory record stream — merges back **bit-identical** to
the unsharded vectorized run, for both lockstep solve strategies
(``batched-linear``/``batched-rank1``) and for the per-sample
fallback a shard takes on netlists the lockstep engine declines
(``woodbury``/``general``: three and six nonlinear devices; the
``woodbury`` family keeps the name of the rank-k lockstep kernel it
once ran).  Bit-identity is possible because every per-sample solve
in the lockstep engine (the batched inverse, per-sample Newton masks,
the batched DC seed) is independent of batch membership.

Fault paths: quarantined samples keep their (globally remapped)
quarantine records through the shard merge, and a shard that fails
collectively either raises with the failing sample's global index or
— under ``on_error="skip"``/``"retry"`` — lands a ``TaskFailure`` in
exactly the guilty sample's slot while its shard-mates recover solo.

Deterministic failures come from ``NewtonOptions.fail_hook`` keyed on
a circuit attribute (module-level, so the hook pickles into pool
workers).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.campaigns import BatchOptions, RetryPolicy, TaskFailure
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import (
    Circuit,
    TransientOptions,
    sine,
    stiffness_bins,
)
from repro.circuits.batched import probe_stiffness_ratios
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.envelope.describing import tanh_limiter_pair
from repro.errors import BatchTaskError

F0 = 4e6
T0 = 1.0 / F0


def build_linear(task):
    """Linear strategy: R + C + L + sources, no nonlinear devices."""
    r = float(task)
    circuit = Circuit("rlc")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    circuit.resistor("R", "in", "out", r)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.inductor("L", "out", "tail", 1e-6)
    circuit.resistor("R2", "tail", "0", 50.0)
    return circuit


def build_in_parent_only(task):
    """:func:`build_linear`, refused inside a pool worker."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("a pool worker rebuilt its circuit")
    return build_linear(task)


def build_rank1(task):
    """Rank-1 strategy: the Fig 1 startup netlist, one NonlinearVCCS."""
    gm_scale = float(task)
    tank = RLCTank.from_frequency_and_q(F0, 15.0, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def _build_k_vccs(task, k):
    gm = float(task)
    circuit = Circuit(f"k{k}")
    circuit.voltage_source("Vin", "in", "0", sine(0.5, 1e5))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.resistor("RL", "a", "0", 1e3)
    for j in range(k):
        node = f"o{j}"
        gm_j = gm * (1.0 + 0.1 * j)
        circuit.resistor(f"Ro{j}", node, "0", 500.0)
        circuit.capacitor(f"Co{j}", node, "0", 1e-10)
        circuit.nonlinear_vccs(
            f"G{j}",
            node,
            "0",
            "a",
            "0",
            lambda v, g=gm_j: 1e-3 * np.tanh(g * v / 1e-3),
            vector_pair=tanh_limiter_pair,
            vector_params=(gm_j, 1e-3),
        )
    return circuit


def build_woodbury(task):
    """3 NonlinearVCCS devices: more than the lockstep engine stacks,
    so every shard runs its samples through the per-sample engine's
    general Newton."""
    return _build_k_vccs(task, 3)


def build_general(task):
    """6 NonlinearVCCS devices: the same per-sample fallback at a
    larger k."""
    return _build_k_vccs(task, 6)


FAMILIES = {
    "linear": (
        build_linear,
        [100.0, 150.0, 220.0, 330.0, 470.0],
        dict(t_stop=2e-5, dt=1e-8, use_dc_operating_point=True),
        "batched-linear",
    ),
    "rank1": (
        build_rank1,
        [0.9, 1.0, 1.1, 1.2, 1.3],
        dict(t_stop=8 * T0, dt=T0 / 40, use_dc_operating_point=False),
        "batched-rank1",
    ),
    "woodbury": (
        build_woodbury,
        [2e-3, 2.4e-3, 2.8e-3, 3.2e-3, 3.6e-3],
        dict(t_stop=1e-5, dt=1e-8, use_dc_operating_point=True),
        "general",
    ),
    "general": (
        build_general,
        [2e-3, 2.4e-3, 2.8e-3, 3.2e-3, 3.6e-3],
        dict(t_stop=1e-5, dt=1e-8, use_dc_operating_point=True),
        "general",
    ),
}


def _run_family(family, batch):
    build, tasks, opt_kw, _strategy = FAMILIES[family]
    return run_transient_campaign(
        tasks, build, TransientOptions(**opt_kw), batch
    )


def assert_bit_identical(reference, sharded):
    assert len(sharded) == len(reference)
    for ref, res in zip(reference, sharded):
        np.testing.assert_array_equal(res.t, ref.t)
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)


class TestShardMergeBitIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sequential_shards(self, family):
        """1 worker: shards run in-process, merges stay bit-identical."""
        reference = _run_family(family, BatchOptions(batch_mode="vectorized"))
        sharded = _run_family(
            family,
            BatchOptions(batch_mode="sharded", shard_size=2, max_workers=1),
        )
        assert_bit_identical(reference, sharded)
        strategy = FAMILIES[family][3]
        assert sharded[0].stats["strategy"] == strategy
        # 5 samples in shards of 2 -> 3 shards, stamped per sample.
        assert [r.stats["shard"] for r in sharded] == [0, 0, 1, 1, 2]
        assert all(r.stats["n_shards"] == 3 for r in sharded)
        assert all(r.stats["shard_workers"] == 1 for r in sharded)

    @pytest.mark.parametrize("family", ["linear", "rank1"])
    def test_process_pool_shards(self, family):
        """2 workers: the shared-memory streamed merge, bit-identical."""
        reference = _run_family(family, BatchOptions(batch_mode="vectorized"))
        sharded = _run_family(
            family,
            BatchOptions(batch_mode="sharded", shard_size=2, max_workers=2),
        )
        assert_bit_identical(reference, sharded)
        assert all(r.stats["shard_workers"] == 2 for r in sharded)

    def test_forked_workers_run_the_parents_circuits(self):
        """Forked shard workers inherit the circuits the parent built:
        none builds its own, and the merge stays bit-identical."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only a forked worker inherits the parent's circuits")
        _build, tasks, opt_kw, _strategy = FAMILIES["linear"]
        options = TransientOptions(**opt_kw)
        reference = run_transient_campaign(
            tasks, build_linear, options, BatchOptions(batch_mode="vectorized")
        )
        sharded = run_transient_campaign(
            tasks,
            build_in_parent_only,
            options,
            BatchOptions(batch_mode="sharded", shard_size=2, max_workers=2),
        )
        assert_bit_identical(reference, sharded)

    def test_shard_size_invariance(self):
        """Any shard cut merges to the same bits as any other."""
        runs = [
            _run_family(
                "rank1",
                BatchOptions(
                    batch_mode="sharded", shard_size=size, max_workers=1
                ),
            )
            for size in (1, 3, 5)
        ]
        for other in runs[1:]:
            assert_bit_identical(runs[0], other)

    def test_adaptive_sharded_runs_per_shard_grids(self):
        """Explicit adaptive sharding: every sample finishes, each
        shard on its own worst-sample grid (pickled-record pool)."""
        build, tasks, _kw, _s = FAMILIES["rank1"]
        options = TransientOptions(
            t_stop=4 * T0,
            dt=T0 / 40,
            step_control="adaptive",
            use_dc_operating_point=False,
        )
        results = run_transient_campaign(
            tasks,
            build,
            options,
            BatchOptions(batch_mode="sharded", shard_size=2, max_workers=2),
        )
        assert len(results) == len(tasks)
        for result in results:
            assert result.t[-1] == pytest.approx(4 * T0)
            assert "shard" in result.stats


# -- fault paths ---------------------------------------------------------------

#: Samples the injected fault follows (by circuit attribute, so the
#: hook pickles into pool workers and follows solo reruns too).
_FAULTY = (3, 7)
_T_FAIL = 2.0 * T0


def _fault_hook(time, phase, circuit):
    return getattr(circuit, "fault_id", -1) in _FAULTY and time >= _T_FAIL


def build_faulty_rank1(task):
    index, gm_scale = task
    circuit = build_rank1(gm_scale)
    circuit.fault_id = index
    return circuit


def _faulty_options(**kw):
    options = TransientOptions(
        t_stop=8 * T0,
        dt=T0 / 40,
        use_dc_operating_point=False,
        **kw,
    )
    options.newton.fail_hook = _fault_hook
    return options


FAULTY_TASKS = [(i, 0.9 + 0.05 * i) for i in range(10)]


class TestShardedFaults:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_quarantine_records_remap_to_global(self, max_workers):
        """Quarantined samples keep globally-indexed records through
        the shard merge; healthy samples stay bit-identical."""
        options = _faulty_options(quarantine=True, rescue=True)
        reference = run_transient_campaign(
            FAULTY_TASKS,
            build_faulty_rank1,
            options,
            BatchOptions(batch_mode="vectorized"),
        )
        sharded = run_transient_campaign(
            FAULTY_TASKS,
            build_faulty_rank1,
            options,
            BatchOptions(
                batch_mode="sharded", shard_size=4, max_workers=max_workers
            ),
        )
        quarantined = [
            s for s, r in enumerate(sharded) if r.stats.get("quarantined")
        ]
        assert quarantined == list(_FAULTY)
        for s in quarantined:
            record = sharded[s].stats["quarantine"]
            assert record["sample"] == s  # global, not shard-local
            assert record["reason"] == "newton"
            # The solo rescue rerun also hit the injected fault.
            assert "rescue_failed" in sharded[s].stats
        for s, (ref, res) in enumerate(zip(reference, sharded)):
            if s in _FAULTY:
                continue
            np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=0)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_task_failure_lands_in_guilty_slot(self, max_workers):
        """No quarantine: the faulty shard fails collectively; under
        on_error="skip" only the guilty samples become TaskFailure
        records, shard-mates recover through the solo fallback."""
        options = _faulty_options(quarantine=False)
        results = run_transient_campaign(
            FAULTY_TASKS,
            build_faulty_rank1,
            options,
            BatchOptions(
                batch_mode="sharded",
                shard_size=4,
                max_workers=max_workers,
                on_error="skip",
            ),
        )
        assert len(results) == len(FAULTY_TASKS)
        for s, result in enumerate(results):
            if s in _FAULTY:
                assert isinstance(result, TaskFailure)
                assert result.index == s
                assert not result  # falsy, filterable
            else:
                assert result.t[-1] == pytest.approx(8 * T0)
                # Shard-mates of a faulty sample went through the solo
                # fallback; samples in clean shards merged normally.
                in_faulty_shard = any(s // 4 == f // 4 for f in _FAULTY)
                assert bool(
                    result.stats.get("shard_fallback")
                ) == in_faulty_shard

    def test_task_failure_respects_retry_policy(self):
        attempts = 2
        results = run_transient_campaign(
            FAULTY_TASKS,
            build_faulty_rank1,
            _faulty_options(quarantine=False),
            BatchOptions(
                batch_mode="sharded",
                shard_size=4,
                max_workers=1,
                on_error="retry",
                retry=RetryPolicy(max_attempts=attempts),
            ),
        )
        for s in _FAULTY:
            assert isinstance(results[s], TaskFailure)
            assert results[s].attempts == attempts

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_on_error_raise_names_global_sample(self, max_workers):
        with pytest.raises(BatchTaskError) as excinfo:
            run_transient_campaign(
                FAULTY_TASKS,
                build_faulty_rank1,
                _faulty_options(quarantine=False),
                BatchOptions(
                    batch_mode="sharded",
                    shard_size=4,
                    max_workers=max_workers,
                ),
            )
        assert excinfo.value.index == _FAULTY[0]


def build_crash_in_pool(task):
    """Sample 1 is marked to kill the pool worker that steps it."""
    circuit = build_linear(100.0 + 10.0 * task)
    circuit.crash_in_pool = task == 1
    return circuit


def crash_in_pool(time, phase, circuit):
    """Fail hook: a marked circuit kills its pool worker outright (a
    forked worker runs the parent's circuits, so the crash comes at the
    first step, not at the build); the parent runs it harmlessly."""
    if circuit.crash_in_pool and multiprocessing.parent_process() is not None:
        os._exit(3)
    return False


class TestShardCrash:
    def test_crashed_worker_raises_batch_task_error(self, shm_segments):
        """A dead shard worker surfaces as a BatchTaskError naming a
        sample of the crashed shard, like a per-sample process crash,
        not as a raw BrokenProcessPool; no shared memory leaks."""
        before = shm_segments()
        options = TransientOptions(t_stop=2e-6, dt=1e-8)
        options.newton.fail_hook = crash_in_pool
        with pytest.raises(BatchTaskError) as excinfo:
            run_transient_campaign(
                list(range(4)),
                build_crash_in_pool,
                options,
                BatchOptions(batch_mode="sharded", shard_size=2, max_workers=2),
            )
        assert excinfo.value.index in (0, 1)
        assert "in flight" in str(excinfo.value)
        assert shm_segments() - before == set()


# -- stiffness clustering ------------------------------------------------------


def build_mixed_stiffness(task):
    """RC circuits whose time constants span decades: the fast ones
    (small tau) are the stiff ones relative to the shared probe dt."""
    rng = np.random.default_rng(int(task))
    tau_exp = rng.uniform(-9.0, -6.0)
    circuit = Circuit("mixed")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e6))
    circuit.resistor("R", "in", "out", 1e3)
    circuit.capacitor("C", "out", "0", 10.0**tau_exp / 1e3)
    return circuit


class TestStiffnessClustering:
    def test_bins_rank_and_partition(self):
        ratios = [0.5, 8.0, 0.1, 8.0, np.nan, 2.0]
        bins = stiffness_bins(ratios, 3)
        assert [list(b) for b in bins] == [[0, 2], [1, 5], [3, 4]]
        merged = sorted(int(i) for b in bins for i in b)
        assert merged == list(range(6))

    def test_bins_degenerate_counts(self):
        assert stiffness_bins([], 4) == []
        bins = stiffness_bins([1.0, 2.0], 8)  # more bins than samples
        assert [list(b) for b in bins] == [[0], [1]]
        (whole,) = stiffness_bins([3.0, 1.0, 2.0], 1)
        assert list(whole) == [0, 1, 2]

    def test_probe_ranks_fast_circuits_stiffer(self):
        tasks = list(range(12))
        circuits = [build_mixed_stiffness(t) for t in tasks]
        options = TransientOptions(t_stop=1e-6, dt=1e-9)
        ratios = probe_stiffness_ratios(circuits, options)
        assert ratios is not None and len(ratios) == 12
        taus = [c["R"].resistance * c["C"].capacitance for c in circuits]
        stiffest = int(np.argmax(ratios))
        assert taus[stiffest] == min(taus)

    def test_clustering_is_deterministic_and_bit_identical(self):
        """Same seed-built campaign twice: identical shard assignment,
        identical bits; and clustered == unclustered results on a
        fixed grid (clustering only reorders the shard cut)."""
        tasks = list(range(12))
        options = TransientOptions(t_stop=1e-6, dt=1e-9)
        clustered = BatchOptions(
            batch_mode="sharded",
            shard_size=3,
            stiffness_bins=4,
            max_workers=1,
        )
        first = run_transient_campaign(
            tasks, build_mixed_stiffness, options, clustered
        )
        second = run_transient_campaign(
            tasks, build_mixed_stiffness, options, clustered
        )
        assert [r.stats["shard"] for r in first] == [
            r.stats["shard"] for r in second
        ]
        assert_bit_identical(first, second)
        reference = run_transient_campaign(
            tasks,
            build_mixed_stiffness,
            options,
            BatchOptions(batch_mode="vectorized"),
        )
        assert_bit_identical(reference, first)

    def test_clusters_compose_with_sharding(self):
        """Shards never straddle a stiffness bin: every shard's samples
        share one bin, and bins split into ceil(len/shard_size) shards."""
        tasks = list(range(12))
        options = TransientOptions(t_stop=1e-6, dt=1e-9)
        circuits = [build_mixed_stiffness(t) for t in tasks]
        ratios = probe_stiffness_ratios(circuits, options)
        bins = stiffness_bins(ratios, 4)
        results = run_transient_campaign(
            tasks,
            build_mixed_stiffness,
            options,
            BatchOptions(
                batch_mode="sharded",
                shard_size=2,
                stiffness_bins=4,
                max_workers=1,
            ),
        )
        shard_of = [r.stats["shard"] for r in results]
        bin_of = {int(s): b for b, members in enumerate(bins) for s in members}
        for shard in set(shard_of):
            members = [s for s, sh in enumerate(shard_of) if sh == shard]
            assert len({bin_of[s] for s in members}) == 1
