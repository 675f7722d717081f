"""Fixed and per-sample cost of a lockstep step on the ``mc_lockstep`` netlist.

Run from the repository root::

    python benchmarks/lockstep_cost.py
    make lockstep-cost                  # same

Builds the ``mc_lockstep`` benchmark workload's mismatch draws (seed
``SEED``) and its fixed-grid trapezoidal options (``CYCLES`` carrier
cycles of 40 steps), then times ``run_transient_batched`` on the first
S draws for every S in ``SIZES`` and ``run_transient`` on draw 0, with
trapezoidal (the lockstep runs' method) and also with backward Euler,
BDF2 and third-order Gear, whose dt entries hold the multistep rank-1
propagator.  The
sizes run in-process and interleaved, one round after another, on
``time.process_time``; each size reports the minimum over ``REPEATS``
rounds, so a slow moment on a shared host costs one round, not one
size.  The same rounds time the scalar engine's linear step:
``run_transient`` of the supply-loss tank (``TANK_Q``, ``TANK_CYCLES``
carrier cycles on a fixed grid of 40 steps a cycle) with trapezoidal,
backward Euler, BDF2 and third-order Gear, and one adaptive phased run
of the same tank with the ``supply_loss_q`` workload's options (a
trapezoidal carrier, then a Gear-3 settle phase from the fault on),
timed whole and stopped at the fault: the carrier phase is the second
run, and the settle phase the difference.

The same rounds also time a reference that no change to the library
touches: ``REFERENCE_STEPS`` iterations of a bare numpy loop, one
12-by-12 matrix-vector product and a vector add each (numpy's own
dispatch cost, about what one small engine operation pays).  Every
row's microseconds are also printed over the reference's microseconds
per iteration, a ratio that holds still while the host's speed drifts
between runs and that moves only with the row's own code.

It prints the reference's microseconds per iteration, then
microseconds per step for each size and the scalar engine, each also
over the reference, then a least-squares fit
``us_per_step = fixed + per_sample * S``: the lockstep engine's fixed
cost per step and its cost per sample-step.  Next come draw 0's
``run_transient`` microseconds per step for each method, then the tank
runs' microseconds per step, and the phased run's microseconds per
accepted step in each phase, each over the reference too, with the
phase's accepted and rejected steps and solves per accepted step (from
the runs' ``stats``: a change that steps the same grid keeps them).
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import dataclasses  # noqa: E402

from repro.circuits import (  # noqa: E402
    TransientOptions,
    run_transient,
    run_transient_batched,
)
from repro.core import supply_loss_tank_circuit  # noqa: E402
from workloads import (  # noqa: E402
    F_SUPPLY,
    T_SUPPLY,
    WORKLOADS,
    build_oscillator,
    startup_options,
)


#: Lockstep batch sizes S (at most the workload's 256 draws).
SIZES = (1, 8, 32, 128, 256)
#: Carrier cycles per run, 40 steps each.
CYCLES = 80
#: Interleaved rounds; each size reports its minimum.
REPEATS = 7
#: ``mc_lockstep`` workload seed of the mismatch draws.
SEED = 1
#: Supply-loss tank of the scalar linear-step runs: its Q, and carrier
#: cycles per run (the drive stays on throughout).
TANK_Q = 47.2
TANK_CYCLES = 400
#: Integration methods of the draw-0 and tank runs: label ->
#: TransientOptions fields.
TANK_METHODS = {
    "trap": {"method": "trap"},
    "be": {"method": "be"},
    "bdf2": {"method": "bdf2"},
    "gear-3": {"method": "gear", "max_order": 3},
}


#: Iterations of the reference loop (about the steps of one tank run).
REFERENCE_STEPS = 16000


def reference_loop() -> None:
    """The drift reference: a fixed bare numpy loop of small operations."""
    a = np.full((12, 12), 1.0 / 12.0)
    b = np.zeros(12)
    x = np.ones(12)
    for _ in range(REFERENCE_STEPS):
        x = a @ x + b


def cpu_seconds(run) -> float:
    start = time.process_time()
    run()
    return time.process_time() - start


def main() -> None:
    profiles = WORKLOADS["mc_lockstep"](SEED).profiles
    options = startup_options(CYCLES)
    steps = int(round(options.t_stop / options.dt))
    circuits = [build_oscillator(p) for p in profiles[: max(SIZES)]]

    runs = {"reference": reference_loop}
    runs.update({f"S={S}": (lambda S=S: run_transient_batched(circuits[:S], options))
                 for S in SIZES})
    runs["run_transient"] = lambda: run_transient(circuits[0], options)
    for label, fields in TANK_METHODS.items():
        if label != "trap":  # trap is the run_transient row
            runs[f"fig16 {label}"] = (
                lambda o=dataclasses.replace(options, **fields):
                run_transient(circuits[0], o)
            )
    tank = supply_loss_tank_circuit(F_SUPPLY, 2 * TANK_CYCLES * T_SUPPLY, q=TANK_Q)
    tank_steps = 40 * TANK_CYCLES
    for label, fields in TANK_METHODS.items():
        tank_options = TransientOptions(
            t_stop=TANK_CYCLES * T_SUPPLY, dt=T_SUPPLY / 40,
            use_dc_operating_point=False, **fields,
        )
        runs[f"tank {label}"] = (
            lambda o=tank_options: run_transient(tank, o)
        )
    supply = WORKLOADS["supply_loss_q"](SEED)
    phased_tank = supply_loss_tank_circuit(
        F_SUPPLY, supply.t_fault, q=TANK_Q, inductance=1e-6
    )
    phased = {
        "phased": supply.options,
        "carrier": dataclasses.replace(supply.options, t_stop=supply.t_fault),
    }
    counts = {}
    for name, phase_options in phased.items():
        runs[name] = lambda o=phase_options: run_transient(phased_tank, o)
        stats = run_transient(phased_tank, phase_options).stats
        counts[name] = np.array(
            [stats[key] for key in ("accepted_steps", "rejected_steps", "solves")]
        )
    counts["settle"] = counts["phased"] - counts["carrier"]
    for run in runs.values():  # warm caches and imports
        run()
    best = {name: np.inf for name in runs}
    for _ in range(REPEATS):
        for name, run in runs.items():
            best[name] = min(best[name], cpu_seconds(run))

    best["settle"] = best.pop("phased") - best["carrier"]
    per_step = {"reference": REFERENCE_STEPS, "carrier": counts["carrier"][0],
                "settle": counts["settle"][0]}
    us = {
        name: 1e6 * seconds / per_step.get(
            name, tank_steps if name.startswith("tank") else steps
        )
        for name, seconds in best.items()
    }
    ref = us["reference"]

    def row(label: str, name: str, extra: str = "") -> None:
        print(f"{label:>16}  {us[name]:8.1f} us/step  {us[name] / ref:7.1f}x ref{extra}")

    print(f"min of {REPEATS} interleaved rounds (process time); reference "
          f"loop ({REFERENCE_STEPS} numpy iterations): {ref:.2f} us per "
          "iteration")
    print(f"run_transient_batched, mc_lockstep draws ({steps} fixed steps):")
    for S in SIZES:
        name = f"S={S}"
        row(f"lockstep {name}", name, f"  {us[name] / S:8.2f} us/sample-step")
    per_sample, fixed = np.polyfit(SIZES, [us[f"S={S}"] for S in SIZES], 1)
    print(f"fit: {fixed:.1f} us fixed per step ({fixed / ref:.1f}x ref) + "
          f"{per_sample:.3f} us per sample-step ({per_sample / ref:.3f}x ref)")
    print(f"run_transient, draw 0 ({steps} fixed steps):")
    for label in TANK_METHODS:
        row(label, "run_transient" if label == "trap" else f"fig16 {label}")
    print(f"run_transient, supply-loss tank (Q {TANK_Q}, {tank_steps} fixed "
          "steps):")
    for label in TANK_METHODS:
        row(label, "tank " + label)
    print(f"run_transient, phased supply-loss tank (Q {TANK_Q}, supply_loss_q "
          "options), per accepted step:")
    for label, name in (("carrier (trap)", "carrier"), ("settle (gear-3)", "settle")):
        accepted, rejected, solves = counts[name]
        row(label, name, f"  ({accepted} accepted, {rejected} rejected, "
            f"{solves / accepted:.3f} solves per accepted)")


if __name__ == "__main__":
    main()
