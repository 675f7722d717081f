"""A 256-sample Monte-Carlo campaign, sharded across cores.

PR 3 made campaigns *vectorized*: one lockstep time loop over stacked
``(S, n, n)`` systems.  This example shows the next multiplier —
``BatchOptions(batch_mode="sharded")`` cuts the stacked campaign into
sub-batches dispatched across a process pool, each shard running the
same lockstep engine and streaming its fixed-grid records into one
shared-memory block at global per-sample offsets.

Two properties make the mode safe to reach for by default (and the
``"auto"`` policy does, on multi-core machines):

* **Bit-identical merges.**  Every per-sample solve in the lockstep
  engine — the batched inverse, the per-sample Newton masks, the
  stacked-Newton DC seed — is independent of batch membership, so a
  fixed-grid campaign merges back bit-identical to the unsharded run
  no matter how it was cut.  This example verifies that for every
  shard size it walks.
* **Graceful degradation.**  With one worker (or one core) the shards
  run sequentially in-process: same merges, no pool, no shared
  memory, and wall time within noise of the single-batch run.

The second knob, ``stiffness_bins``, matters on *adaptive* grids: a
lockstep shard integrates one shared grid sized by its stiffest
member, so a single fast-time-constant outlier drags a whole shard to
its dt.  A probe step ranks samples by first-step LTE ratio
(:func:`repro.circuits.probe_stiffness_ratios`), samples are clustered
into stiffness quantile bins (:func:`repro.circuits.stiffness_bins`),
and shards are cut within bins — so the benign samples share coarse
grids and only the stiff bin pays for fine ones.

Run:  python examples/parallel_campaign.py
"""

import os
import time

import numpy as np

from repro.campaigns import BatchOptions
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import Circuit, TransientOptions, sine
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter

N_SAMPLES = 256
F0 = 4e6
T0 = 1.0 / F0
CYCLES = 20

OPTIONS = TransientOptions(
    t_stop=CYCLES * T0,
    dt=T0 / 40,
    method="trap",
    use_dc_operating_point=False,
    record_nodes=("lc1", "lc2"),
)


def build_startup_sample(index):
    """One seeded mismatch draw -> the Fig 1 startup netlist."""
    rng = np.random.default_rng(4242 + index)
    gm_scale = 1.0 + 0.05 * rng.standard_normal()
    q_scale = 1.0 + 0.03 * rng.standard_normal()
    tank = RLCTank.from_frequency_and_q(F0, 15.0 * q_scale, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def build_mixed_stiffness_sample(index):
    """Mostly-benign RC samples with a sprinkling of fast outliers
    (50x the drive frequency, so LTE control forces a 50x finer
    grid) — the workload shape where stiffness clustering pays: in
    index order every shard would catch one outlier and integrate
    its fine grid."""
    rng = np.random.default_rng(9000 + index)
    fast = index % 8 == 0
    freq = (50e6 if fast else 1e6) * rng.uniform(0.95, 1.05)
    circuit = Circuit("mixed")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, freq))
    circuit.resistor("R", "in", "out", 1e3)
    circuit.capacitor("C", "out", "0", 1e-10)
    return circuit


def amplitude(result):
    return float(np.max(np.abs(result.waveform("lc1").y - result.waveform("lc2").y)))


def walk_shard_sizes() -> None:
    tasks = list(range(N_SAMPLES))
    print(f"machine: {os.cpu_count()} core(s)")
    print(f"\n-- {N_SAMPLES}-sample startup MC, fixed grid "
          f"({CYCLES} cycles x 40 pts) --")

    start = time.perf_counter()
    reference = run_transient_campaign(
        tasks, build_startup_sample, OPTIONS,
        BatchOptions(batch_mode="vectorized"),
    )
    base_wall = time.perf_counter() - start
    print(f"single lockstep batch:          {base_wall:6.2f}s  (1 shard)")

    for shard_size in (32, 64, 128):
        start = time.perf_counter()
        sharded = run_transient_campaign(
            tasks, build_startup_sample, OPTIONS,
            BatchOptions(
                batch_mode="sharded",
                shard_size=shard_size,
                max_workers="auto",
            ),
        )
        wall = time.perf_counter() - start
        identical = all(
            np.array_equal(a.x, b.x) for a, b in zip(reference, sharded)
        )
        stats = sharded[0].stats
        print(
            f"sharded (shard_size={shard_size:3d}):     {wall:6.2f}s  "
            f"({stats['n_shards']} shards x {stats['shard_workers']} "
            f"worker(s), bit-identical={identical})"
        )
        assert identical, "fixed-grid shard merge must be bit-identical"

    p05, p95 = np.quantile([amplitude(r) for r in reference], [0.05, 0.95])
    print(f"startup amplitude p05={p05:.4f} V  p95={p95:.4f} V")


def walk_stiffness_bins() -> None:
    n = 64
    tasks = list(range(n))
    options = TransientOptions(
        t_stop=2e-6, dt=1e-9, step_control="adaptive"
    )
    print(f"\n-- {n}-sample mixed-stiffness MC, adaptive grid --")
    print("(lockstep shards integrate their worst member's grid: "
          "clustering keeps benign samples off the stiff outliers' dt)")
    for bins in (1, 4, 8):
        start = time.perf_counter()
        results = run_transient_campaign(
            tasks, build_mixed_stiffness_sample, options,
            BatchOptions(
                batch_mode="sharded",
                shard_size=8,
                stiffness_bins=bins,
                max_workers="auto",
            ),
        )
        wall = time.perf_counter() - start
        # One grid per shard: count each shard's accepted steps once.
        steps_by_shard = {}
        for result in results:
            steps_by_shard[result.stats["shard"]] = result.stats["steps"]
        grid_steps = sum(steps_by_shard.values())
        label = "unclustered" if bins == 1 else f"{bins} stiffness bins"
        print(
            f"{label:>18s}:  {grid_steps:6d} accepted shard-steps, "
            f"{wall:5.2f}s"
        )


def main() -> None:
    walk_shard_sizes()
    walk_stiffness_bins()


if __name__ == "__main__":
    main()
