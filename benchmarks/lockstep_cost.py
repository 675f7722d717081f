"""Fixed and per-sample cost of a lockstep step on the ``mc_lockstep`` netlist.

Run from the repository root::

    python benchmarks/lockstep_cost.py
    make lockstep-cost                  # same

Builds the ``mc_lockstep`` benchmark workload's mismatch draws (seed
``SEED``) and its fixed-grid trapezoidal options (``CYCLES`` carrier
cycles of 40 steps), then times ``run_transient_batched`` on the first
S draws for every S in ``SIZES`` and ``run_transient`` on draw 0.  The
sizes run in-process and interleaved, one round after another, on
``time.process_time``; each size reports the minimum over ``REPEATS``
rounds, so a slow moment on a shared host costs one round, not one
size.

It prints microseconds per step for each size and the scalar engine,
each also over the scalar engine's (a ratio that holds still while
the host's speed drifts between runs), then a least-squares fit
``us_per_step = fixed + per_sample * S``: the lockstep engine's fixed
cost per step and its cost per sample-step.
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro.circuits import run_transient, run_transient_batched  # noqa: E402
from workloads import WORKLOADS, build_oscillator, startup_options  # noqa: E402


#: Lockstep batch sizes S (at most the workload's 256 draws).
SIZES = (1, 8, 32, 128, 256)
#: Carrier cycles per run, 40 steps each.
CYCLES = 80
#: Interleaved rounds; each size reports its minimum.
REPEATS = 7
#: ``mc_lockstep`` workload seed of the mismatch draws.
SEED = 1


def cpu_seconds(run) -> float:
    start = time.process_time()
    run()
    return time.process_time() - start


def main() -> None:
    profiles = WORKLOADS["mc_lockstep"](SEED).profiles
    options = startup_options(CYCLES)
    steps = int(round(options.t_stop / options.dt))
    circuits = [build_oscillator(p) for p in profiles[: max(SIZES)]]

    runs = {f"S={S}": (lambda S=S: run_transient_batched(circuits[:S], options))
            for S in SIZES}
    runs["run_transient"] = lambda: run_transient(circuits[0], options)
    for run in runs.values():  # warm caches and imports
        run()
    best = {name: np.inf for name in runs}
    for _ in range(REPEATS):
        for name, run in runs.items():
            best[name] = min(best[name], cpu_seconds(run))

    us = {name: 1e6 * seconds / steps for name, seconds in best.items()}
    print(f"{steps} steps per run, min of {REPEATS} interleaved rounds "
          "(process time)")
    scalar = us["run_transient"]
    print(f"{'engine':>16}  {'us/step':>8}  {'us/sample-step':>14}  "
          f"{'/ run_transient':>15}")
    for S in SIZES:
        name = f"S={S}"
        print(f"{'lockstep ' + name:>16}  {us[name]:8.1f}  {us[name] / S:14.2f}  "
              f"{us[name] / scalar:14.2f}x")
    print(f"{'run_transient':>16}  {scalar:8.1f}  {scalar:14.2f}  {1.0:14.2f}x")
    per_sample, fixed = np.polyfit(SIZES, [us[f"S={S}"] for S in SIZES], 1)
    print(f"fit: {fixed:.1f} us fixed per step + {per_sample:.3f} us per "
          "sample-step")


if __name__ == "__main__":
    main()
