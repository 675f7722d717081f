"""Performance harness for the transient engine and its campaigns.

Times the workloads the incremental-stamping + adaptive-stepping
engine was built for and writes ``BENCH_transient.json`` (repo root by
default) so future PRs have a perf trajectory to regress against:

* ``fig16_startup`` — the Fig 16 carrier-resolution MNA startup (80
  carrier cycles, trapezoidal).  Baseline: the preserved seed engine
  (:func:`repro.circuits.reference.run_transient_reference`) run live
  on the same machine, so speedups are hardware-independent.
* ``fig16_startup_adaptive`` — the same startup with LTE step control
  against the *fine* fixed-step golden run (4x carrier resolution)
  whose accuracy adaptive mode must match: records wall-clock and
  Newton-solve ratios plus the amplitude/frequency error actually
  achieved.
* ``supply_loss_adaptive`` — a §8-style supply-loss corner: forced
  carrier, the drive collapses at the fault breakpoint, ring-down,
  then a long quiet tail.  Stiff-then-slow — the workload class
  adaptive stepping exists for.
* ``supply_loss_gear`` — the same supply-loss scenario at a *tight*
  accuracy target (LTE reltol 1e-6), integrated with adaptive
  trapezoidal (baseline) vs variable-order Gear/BDF3.  The gated
  asset is the **accepted-step economy**: at matched amplitude error
  the third-order formula walks the decay and quiet tail in less
  than half the steps trap needs — on large netlists every accepted
  step is an assembly + factorization, so the step count is the
  hardware-independent currency.  (On this 7-unknown tank the raw
  wall clock favours trap — the per-step cost is Python overhead,
  not linear algebra — which is why the gate rides the deterministic
  step ratio, not seconds.)
* ``fig16_startup_envelope`` — the Fig 16 startup integrated by the
  cycle-skipping envelope engine
  (:func:`repro.circuits.run_transient_envelope`): resolve a few
  anchor cycles, advance N periods via the describing-function
  amplitude ODE, re-anchor with a correction burst whose mismatch
  controls N.  Gated on the deterministic resolved-cycle economy
  (>= 5x fewer resolved cycles than the carrier run) and Newton-solve
  count at <= 1% settled-amplitude error; wall clock is a loose
  floor.  The ``skip="off"`` escape hatch is gated separately by the
  live ``envelope_identity`` check in ``--check`` mode.
* ``supply_loss_envelope`` — the supply-loss corner integrated
  multi-rate: a :class:`repro.circuits.PhaseSchedule` runs trap at
  carrier resolution until the fault, then switches live to L-stable
  Gear/BDF3 with a coarse dt for the ring-down and quiet tail
  (multistep history bootstrapped at the boundary).  Baseline:
  adaptive trap over the whole run at identical tolerances; gated on
  the settle-phase accepted-step economy at matched pre-fault
  amplitude and frequency error (the carrier phase is deliberately
  identical to the baseline, so only the tail can win).
* ``mc_startup`` — a Monte-Carlo campaign of short carrier-resolution
  startups over mismatch draws (driver gm / tank Q spread), routed
  through the shared campaign runner.  Baseline: the same campaign on
  the seed engine.
* ``mc_startup_batched`` — the same campaign shape at 64 samples,
  executed by the lockstep batched engine
  (:func:`repro.circuits.run_transient_batched`): stacked
  ``(S, n, n)`` systems, one time loop, per-sample Newton masks.
  Baseline: the optimized *per-sample* engine run sample by sample on
  the same machine; per-sample amplitudes must match at rtol 1e-9.
* ``mc_startup_sharded`` — the same 64-sample lockstep campaign
  executed by the sharded campaign layer
  (``BatchOptions(batch_mode="sharded")``): sub-batches dispatched
  across a process pool, fixed-grid records streamed through shared
  memory, merges bit-identical to the single-batch run.  Baseline:
  the PR-3 single lockstep batch on the same machine.  On multi-core
  hosts the sharded run must win >= 1.5x; on one core it must degrade
  gracefully to sequential in-process shards within 10% of the
  single batch.  The entry stamps the effective worker and shard
  counts so recorded speedups carry their hardware context.
* ``ladder_transient_dense_vs_sparse`` — the distributed sensing-coil
  ladder (:class:`repro.sensor.coils.DistributedCoil`): an N-segment
  RLC transmission-line netlist with hundreds of unknowns, the first
  workload family where the sparse backend
  (:mod:`repro.circuits.backend`) wins.  Baseline: the dense backend
  on the identical netlist and grid; the two waveforms must match at
  rtol 1e-9.
* ``coil_mesh_krylov`` — the 2-D sensing-coil mesh
  (:class:`repro.sensor.coils.CoilMesh`) at >= 10k unknowns, pulse
  drive, adaptive stepping: the Krylov backend's stale-LU
  preconditioner pool vs the sparse backend's per-dt-entry ``splu``
  refactorization.  The gated asset is the **factorization economy**:
  the anchor pool, which adopts a dt-cache entry rebuilt after an
  eviction (bit-identical to the matrix it already factored), holds
  the LU count roughly constant while the sparse run refactors on every
  dt-cache build and rebuild, so at 10k+ unknowns (where ``splu``
  dominates wall time) the deterministic refactorization counter must
  show >= 2x fewer factorizations and the wall clock must not fall
  below a loose floor.  Waveforms must match sparse at rtol 1e-6 on
  the shared time points.  The entry stamps the unknown count and
  scipy version — iteration counts ride scipy's GMRES internals.
* ``fault_coverage`` — the §7 FMEA campaign (behavioural system
  model).  Its simulation core is not MNA-based, so the recorded
  baseline is the same code path; the entry tracks absolute seconds.

Regression gate
---------------
``--check`` reruns every workload at the sizes recorded in the
committed baseline JSON and fails (exit 1) if any workload's
``speedup`` regressed by more than ``--tolerance`` (default 15 %), or
if an adaptive workload's amplitude/frequency error exceeded its
acceptance bound.  Each workload runs on its own: one whose live
assertion fails is reported by name as a gate failure and the rest
are still run and checked.  ``make verify`` wires this behind the
tier-1 pytest run.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--out PATH] [--quick]
    PYTHONPATH=src python benchmarks/run_perf.py --check [--baseline PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import time
import warnings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import numpy as np

from repro.analysis import envelope_by_peaks, oscillation_frequency
from repro.campaigns import BatchOptions, run_batch
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import (
    EnvelopeOptions,
    PhaseSchedule,
    TransientOptions,
    run_transient,
    run_transient_batched,
    run_transient_envelope,
    run_transient_reference,
)
from repro.core import FailureKind, OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.faults import FaultCampaign
from repro.mc.mismatch import MismatchProfile
from repro.sensor.coils import CoilMesh, DistributedCoil

try:
    import scipy as _scipy

    SCIPY_VERSION = _scipy.__version__
except ImportError:  # pragma: no cover - the sparse workload skips
    SCIPY_VERSION = None

from common import standard_config

#: Fig 16 bench tank and driver (mirrors bench_fig16_startup.py).
TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)

#: Acceptance bound on adaptive amplitude/frequency error vs the fine
#: fixed-step golden run (fraction, not percent).
ADAPTIVE_ERROR_LIMIT = 0.01


#: Timing repeats: the optimized engines finish short workloads in
#: tens of milliseconds, where single-shot wall clocks are noisy
#: enough to trip a 15% regression gate on their own.  Best-of-N is
#: the usual stabilizer (minimum ≈ the run with least interference).
TIMING_REPEATS = 5


def _timed(fn, repeats: int = TIMING_REPEATS):
    best = np.inf
    result = None
    for attempt in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# -- fig16 startup -----------------------------------------------------------


def _startup_options(cycles: int) -> TransientOptions:
    return TransientOptions(
        t_stop=cycles / TANK.frequency,
        dt=1.0 / (TANK.frequency * 40),
        method="trap",
        use_dc_operating_point=False,
    )


def _run_startup(engine, cycles: int):
    netlist = OscillatorNetlist(TANK, vref=2.5)
    circuit = netlist.build(LIMITER)
    result = engine(circuit, _startup_options(cycles))
    diff = result.waveform("lc1").y - result.waveform("lc2").y
    return float(np.max(np.abs(diff[-80:]))), result


def bench_fig16_startup(cycles: int = 80) -> dict:
    seed_seconds, (seed_amp, _) = _timed(
        lambda: _run_startup(run_transient_reference, cycles)
    )
    opt_seconds, (opt_amp, opt) = _timed(
        lambda: _run_startup(run_transient, cycles)
    )
    assert abs(seed_amp - opt_amp) < 1e-6 * max(seed_amp, 1.0), (
        "engines disagree on the startup amplitude"
    )
    return {
        "workload": f"carrier-resolution startup, {cycles} cycles, trap",
        "baseline": "seed engine (live, same machine)",
        "cycles": cycles,
        "seed_seconds": seed_seconds,
        "optimized_seconds": opt_seconds,
        "speedup": seed_seconds / opt_seconds,
        # Deterministic work counter for the regression gate: an
        # engine change that costs iterations moves this; machine
        # load cannot.
        "optimized_newton_iterations": opt.stats["newton_iterations"],
    }


# -- fig16 startup, adaptive vs fine fixed golden ----------------------------


def bench_fig16_adaptive(cycles: int = 80) -> dict:
    # The envelope comparison needs the limiter-saturated regime: in
    # the exponential-growth phase any per-step tolerance compounds
    # into a large *relative* envelope difference, so short smoke runs
    # would measure growth-phase sensitivity, not integration quality.
    cycles = max(cycles, 60)
    netlist = OscillatorNetlist(TANK, vref=2.5)
    t_stop = cycles / TANK.frequency

    fixed_seconds, fixed = _timed(
        lambda: netlist.run_startup(
            code=0, t_stop=t_stop, points_per_cycle=160, limiter=LIMITER
        )
    )
    adaptive_seconds, adaptive = _timed(
        lambda: netlist.run_startup(
            code=0, t_stop=t_stop, limiter=LIMITER, step_control="adaptive"
        )
    )
    amp_f = envelope_by_peaks(fixed.differential).y[-1]
    amp_a = envelope_by_peaks(adaptive.differential).y[-1]
    freq_f = oscillation_frequency(fixed.differential.window(0.5 * t_stop, t_stop))
    freq_a = oscillation_frequency(adaptive.differential.window(0.5 * t_stop, t_stop))
    amp_error = abs(amp_a / amp_f - 1.0)
    freq_error = abs(freq_a / freq_f - 1.0)
    assert amp_error < ADAPTIVE_ERROR_LIMIT, f"amplitude error {amp_error:.2%}"
    assert freq_error < ADAPTIVE_ERROR_LIMIT, f"frequency error {freq_error:.2%}"
    return {
        "workload": f"adaptive startup vs fine fixed golden (ppc 160), "
        f"{cycles} cycles",
        "baseline": "fine fixed-step golden run (live, same machine)",
        "cycles": cycles,
        "seed_seconds": fixed_seconds,
        "optimized_seconds": adaptive_seconds,
        "speedup": fixed_seconds / adaptive_seconds,
        "newton_solves_fixed": fixed.stats["newton_iterations"],
        "newton_solves_adaptive": adaptive.stats["newton_iterations"],
        "newton_solve_ratio": fixed.stats["newton_iterations"]
        / adaptive.stats["newton_iterations"],
        "amplitude_error": amp_error,
        "frequency_error": freq_error,
        "accepted_steps": adaptive.stats["accepted_steps"],
        "rejected_steps": adaptive.stats["rejected_steps"],
    }


# -- supply-loss corner (adaptive showcase) ----------------------------------


def bench_supply_loss_adaptive(cycles: int = 400) -> dict:
    f0 = TANK.frequency
    T = 1.0 / f0
    t_fault = (cycles / 10) * T
    t_stop = cycles * T

    def run(options):
        circuit = supply_loss_tank_circuit(
            f0, t_fault, q=15.0, inductance=TANK.inductance
        )
        return run_transient(circuit, options)

    fixed_seconds, fixed = _timed(
        lambda: run(
            TransientOptions(
                t_stop=t_stop, dt=T / 160, use_dc_operating_point=False
            )
        )
    )
    adaptive_seconds, adaptive = _timed(
        lambda: run(
            TransientOptions(
                t_stop=t_stop,
                dt=T / 40,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_min=T / 640,
                dt_max=8 * T,
            )
        )
    )
    wf = fixed.differential("lc1", "lc2")
    wa = adaptive.differential("lc1", "lc2")
    pre_f = wf.window(0.6 * t_fault, t_fault).peak_to_peak() / 2
    pre_a = wa.window(0.6 * t_fault, t_fault).peak_to_peak() / 2
    post_f = wf.window(t_fault + 4 * T, t_fault + 9 * T).peak_to_peak() / 2
    post_a = wa.window(t_fault + 4 * T, t_fault + 9 * T).peak_to_peak() / 2
    freq_f = oscillation_frequency(wf.window(0.6 * t_fault, t_fault))
    freq_a = oscillation_frequency(wa.window(0.6 * t_fault, t_fault))
    amp_error = abs(pre_a / pre_f - 1.0)
    freq_error = abs(freq_a / freq_f - 1.0)
    assert amp_error < ADAPTIVE_ERROR_LIMIT, f"amplitude error {amp_error:.2%}"
    assert freq_error < ADAPTIVE_ERROR_LIMIT, f"frequency error {freq_error:.2%}"
    return {
        "workload": f"supply-loss corner: drive until {cycles // 10} cycles, "
        f"ring-down + quiet tail to {cycles} cycles",
        "baseline": "fine fixed-step golden run (ppc 160, live, same machine)",
        "cycles": cycles,
        "seed_seconds": fixed_seconds,
        "optimized_seconds": adaptive_seconds,
        "speedup": fixed_seconds / adaptive_seconds,
        "steps_fixed": fixed.stats["steps"],
        "steps_adaptive": adaptive.stats["steps"],
        "step_ratio": fixed.stats["steps"] / adaptive.stats["steps"],
        "optimized_solves": adaptive.stats["solves"],
        "amplitude_error": amp_error,
        "frequency_error": freq_error,
        "post_fault_amplitude_fixed": post_f,
        "post_fault_amplitude_adaptive": post_a,
        "accepted_steps": adaptive.stats["accepted_steps"],
        "rejected_steps": adaptive.stats["rejected_steps"],
        "breakpoints_hit": adaptive.stats["breakpoints_hit"],
    }


# -- supply-loss decay: adaptive trap vs variable-order Gear -----------------


def _fitted_amplitude(waveform, t0: float, t1: float, frequency: float) -> float:
    """Carrier amplitude over a window by least-squares sinusoid fit.

    Sampling-robust: an adaptive grid at 15-30 points per cycle makes
    raw peak-to-peak (and even parabola-refined peaks) underestimate
    the carrier by percents, which would charge sampling density to
    the integrator.  The two-basis fit is exact for a sinusoid at any
    sampling density, so it measures integration error alone.
    """
    window = waveform.window(t0, t1)
    basis = np.column_stack([
        np.sin(2 * np.pi * frequency * window.t),
        np.cos(2 * np.pi * frequency * window.t),
    ])
    coef, *_ = np.linalg.lstsq(basis, window.y, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def bench_supply_loss_gear(cycles: int = 400) -> dict:
    f0 = TANK.frequency
    T = 1.0 / f0
    t_fault = (cycles / 10) * T
    t_stop = cycles * T

    def circuit():
        return supply_loss_tank_circuit(f0, t_fault, q=40.0, inductance=TANK.inductance)

    def options(method, **kw):
        return TransientOptions(
            t_stop=t_stop,
            dt=T / 40,
            method=method,
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T / 81920,
            dt_max=8 * T,
            lte_reltol=1e-6,
            lte_abstol=1e-9,
            **kw,
        )

    # Error reference: one fine fixed-grid golden run (not timed).
    fine = run_transient(
        circuit(),
        TransientOptions(t_stop=t_stop, dt=T / 160, use_dc_operating_point=False),
    )
    amp_ref = _fitted_amplitude(
        fine.differential("lc1", "lc2"), 0.6 * t_fault, t_fault, f0
    )

    trap_seconds, trap = _timed(lambda: run_transient(circuit(), options("trap")))
    gear_seconds, gear = _timed(
        lambda: run_transient(
            circuit(), options("gear", max_order=3, order_control=False)
        )
    )
    amp_err_trap = abs(
        _fitted_amplitude(
            trap.differential("lc1", "lc2"), 0.6 * t_fault, t_fault, f0
        ) / amp_ref - 1.0
    )
    amp_err_gear = abs(
        _fitted_amplitude(
            gear.differential("lc1", "lc2"), 0.6 * t_fault, t_fault, f0
        ) / amp_ref - 1.0
    )
    assert amp_err_trap < ADAPTIVE_ERROR_LIMIT, f"trap amp error {amp_err_trap:.2%}"
    assert amp_err_gear < ADAPTIVE_ERROR_LIMIT, f"gear amp error {amp_err_gear:.2%}"
    step_ratio = trap.stats["accepted_steps"] / gear.stats["accepted_steps"]
    assert step_ratio >= 2.0, (
        f"gear must halve trap's accepted steps, got {step_ratio:.2f}x"
    )
    return {
        "workload": f"supply-loss decay at tight accuracy (lte_reltol 1e-6), "
        f"{cycles} cycles: adaptive trap vs variable-order Gear (BDF3)",
        "baseline": "adaptive trapezoidal, identical tolerances (live, same machine)",
        "cycles": cycles,
        "seed_seconds": trap_seconds,
        "optimized_seconds": gear_seconds,
        "speedup": trap_seconds / gear_seconds,
        "steps_trap": trap.stats["accepted_steps"],
        "steps_gear": gear.stats["accepted_steps"],
        "optimized_steps": gear.stats["accepted_steps"],
        "optimized_solves": gear.stats["solves"],
        "step_ratio": step_ratio,
        "rejected_trap": trap.stats["rejected_steps"],
        "rejected_gear": gear.stats["rejected_steps"],
        "amplitude_error_trap": amp_err_trap,
        "amplitude_error_gear": amp_err_gear,
        "gear_order_histogram": {
            str(order): count
            for order, count in gear.stats["order_histogram"].items()
        },
    }


# -- multi-rate envelope following ------------------------------------------


def _envelope_recipe(**kw) -> EnvelopeOptions:
    """The describing-function skip recipe for the bench tank/limiter."""
    return EnvelopeOptions(
        period=1.0 / TANK.frequency,
        nodes=("lc1", "lc2"),
        model=EnvelopeModel(TANK, LIMITER),
        **kw,
    )


def bench_fig16_startup_envelope(cycles: int = 400) -> dict:
    """Cycle-skipping envelope startup vs the carrier-resolved run.

    The gated assets are *deterministic*: the resolved-cycle economy
    (the envelope engine must integrate >= 5x fewer carrier cycles
    than the plain engine on the same grid) and the Newton-solve
    count, both immune to machine load.  Envelope accuracy (settled
    amplitude vs the carrier-resolved golden run) is asserted inside
    the bench; wall clock rides the usual loose floor.
    """
    # The skip ladder needs room to grow past the startup transient;
    # below ~120 cycles the anchor + correction bursts dominate and
    # the economy measures burst overhead, not skipping.
    cycles = max(cycles, 120)
    T = 1.0 / TANK.frequency
    options = dataclasses.replace(
        _startup_options(cycles), record_nodes=("lc1", "lc2")
    )
    netlist = OscillatorNetlist(TANK, vref=2.5)

    carrier_seconds, carrier = _timed(
        lambda: run_transient(netlist.build(LIMITER), options)
    )
    env_seconds, env = _timed(
        lambda: run_transient_envelope(
            netlist.build(LIMITER), options, _envelope_recipe()
        )
    )
    e = env.stats["envelope"]
    cycle_ratio = e["total_cycles"] / max(e["resolved_cycles"], 1)
    assert cycle_ratio >= 5.0, (
        f"envelope must resolve >= 5x fewer cycles, got {cycle_ratio:.1f}x"
    )
    a_gold = 0.5 * carrier.differential("lc1", "lc2").window(
        options.t_stop - 2 * T, options.t_stop
    ).peak_to_peak()
    envelope_error = abs(e["final"]["amplitude"] - a_gold) / a_gold
    assert envelope_error <= ADAPTIVE_ERROR_LIMIT, (
        f"envelope amplitude error {envelope_error:.2%}"
    )
    return {
        "workload": f"cycle-skipping envelope startup, {cycles} cycles "
        "(describing-function predictor, adaptive skip length)",
        "baseline": "carrier-resolved trap on the same grid (live, same machine)",
        "cycles": cycles,
        "seed_seconds": carrier_seconds,
        "optimized_seconds": env_seconds,
        "speedup": carrier_seconds / env_seconds,
        "resolved_cycles": e["resolved_cycles"],
        "total_cycles": e["total_cycles"],
        "resolved_cycle_ratio": cycle_ratio,
        "optimized_newton_iterations": env.stats["newton_iterations"],
        "envelope_amplitude_error": envelope_error,
        "skips_attempted": len(e["skip_history"]),
        "final_skip": e["final"]["skip"],
    }


def bench_supply_loss_envelope(cycles: int = 400) -> dict:
    """Multi-rate supply-loss: phased trap->Gear vs whole-run trap.

    The envelope-following treatment of the supply-loss corner: the
    carrier phase is integrated with trapezoidal at carrier
    resolution, then the schedule switches to L-stable Gear/BDF3 with
    a coarse dt at the fault breakpoint — switched live, multistep
    history bootstrapped at the boundary.  Baseline: adaptive trap
    over the whole run at identical tolerances.  The gated asset is
    the *settle-phase* accepted-step economy at matched pre-fault
    amplitude error: the carrier phase is deliberately identical to
    the baseline (that is the point of phasing — keep trap's carrier
    accuracy), so the total step ratio only reflects how much of the
    run the tail occupies, while the post-fault ratio isolates what
    the live switch buys.
    """
    f0 = TANK.frequency
    T = 1.0 / f0
    t_fault = (cycles / 10) * T
    t_stop = cycles * T

    def circuit():
        return supply_loss_tank_circuit(
            f0, t_fault, q=40.0, inductance=TANK.inductance
        )

    def options(**kw):
        return TransientOptions(
            t_stop=t_stop,
            dt=T / 40,
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T / 81920,
            dt_max=8 * T,
            lte_reltol=1e-6,
            lte_abstol=1e-9,
            **kw,
        )

    # Error reference: one fine fixed-grid golden run (not timed).
    fine = run_transient(
        circuit(),
        TransientOptions(t_stop=t_stop, dt=T / 160, use_dc_operating_point=False),
    )
    amp_ref = _fitted_amplitude(
        fine.differential("lc1", "lc2"), 0.6 * t_fault, t_fault, f0
    )

    trap_seconds, trap = _timed(lambda: run_transient(circuit(), options()))
    phased_seconds, phased = _timed(
        lambda: run_transient(
            circuit(),
            options(
                phases=PhaseSchedule.carrier_then_settle(
                    t_fault,
                    carrier_dt=T / 40,
                    settle_dt=T / 4,
                    settle_method="gear",
                    max_order=3,
                )
            ),
        )
    )
    amp_err = abs(
        _fitted_amplitude(
            phased.differential("lc1", "lc2"), 0.6 * t_fault, t_fault, f0
        ) / amp_ref - 1.0
    )
    freq_ref = oscillation_frequency(
        fine.differential("lc1", "lc2").window(0.6 * t_fault, t_fault)
    )
    freq_phased = oscillation_frequency(
        phased.differential("lc1", "lc2").window(0.6 * t_fault, t_fault)
    )
    freq_err = abs(freq_phased / freq_ref - 1.0)
    assert amp_err < ADAPTIVE_ERROR_LIMIT, f"phased amp error {amp_err:.2%}"
    assert freq_err < ADAPTIVE_ERROR_LIMIT, f"phased freq error {freq_err:.2%}"
    assert phased.stats["phase_switches"] == 1, (
        f"expected one live phase switch, got {phased.stats['phase_switches']}"
    )
    step_ratio = trap.stats["accepted_steps"] / phased.stats["accepted_steps"]
    # Post-fault accepted steps: one record per accepted step, so the
    # record timestamps partition deterministically at the fault.
    settle_trap = int(np.sum(trap.t > t_fault))
    settle_phased = int(np.sum(phased.t > t_fault))
    settle_step_ratio = settle_trap / settle_phased
    assert settle_step_ratio >= 1.5, (
        "phase schedule must cut settle-phase accepted steps >= 1.5x, "
        f"got {settle_step_ratio:.2f}x"
    )
    return {
        "workload": f"supply-loss multi-rate (lte_reltol 1e-6), {cycles} cycles: "
        "trap carrier then Gear/BDF3 settle via live phase switch",
        "baseline": "adaptive trapezoidal whole-run, identical tolerances "
        "(live, same machine)",
        "cycles": cycles,
        "seed_seconds": trap_seconds,
        "optimized_seconds": phased_seconds,
        "speedup": trap_seconds / phased_seconds,
        "steps_trap": trap.stats["accepted_steps"],
        "steps_phased": phased.stats["accepted_steps"],
        "optimized_steps": phased.stats["accepted_steps"],
        "optimized_solves": phased.stats["solves"],
        "step_ratio": step_ratio,
        "settle_steps_trap": settle_trap,
        "settle_steps_phased": settle_phased,
        "settle_step_ratio": settle_step_ratio,
        "phase_switches": phased.stats["phase_switches"],
        "amplitude_error": amp_err,
        "frequency_error": freq_err,
    }


# -- Monte-Carlo startup campaign -------------------------------------------


#: Carrier frequency of the mc_startup workloads — circuit and grid
#: derive from this one constant so they cannot desynchronize.
_MC_F0 = 4e6


def _mc_circuit(profile: MismatchProfile):
    """The mc_startup netlist for one mismatch draw (gm / Q spread).

    One recipe shared by the per-sample, seed-engine, and lockstep
    campaign benches, so all three measure the same workload.
    """
    gm_scale = 1.0 + profile.gm_stage_errors[0]
    q_scale = 1.0 + profile.prescale_errors[0]
    tank = RLCTank.from_frequency_and_q(_MC_F0, 15.0 * q_scale, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def _mc_options(cycles: int = 20, record_all: bool = False) -> TransientOptions:
    return TransientOptions(
        t_stop=cycles / _MC_F0,
        dt=1.0 / (_MC_F0 * 40),
        method="trap",
        use_dc_operating_point=False,
        record_nodes=None if record_all else ("lc1", "lc2"),
    )


def _mc_startup_metric(profile: MismatchProfile, engine):
    """``(startup amplitude, stats)`` of one mismatch instance."""
    circuit = _mc_circuit(profile)
    options = _mc_options(record_all=engine is run_transient_reference)
    result = engine(circuit, options)
    diff = result.waveform("lc1").y - result.waveform("lc2").y
    return float(np.max(np.abs(diff))), result.stats


def _run_mc_campaign(engine, n_samples: int):
    profiles = [MismatchProfile.sample(seed=1000 + i) for i in range(n_samples)]
    outputs = run_batch(lambda p: _mc_startup_metric(p, engine), profiles)
    values = [value for value, _stats in outputs]
    newton = sum(stats.get("newton_iterations", 0) for _value, stats in outputs)
    return values, newton


def bench_mc_startup(n_samples: int = 16) -> dict:
    seed_seconds, (seed_vals, _) = _timed(
        lambda: _run_mc_campaign(run_transient_reference, n_samples)
    )
    opt_seconds, (opt_vals, opt_newton) = _timed(
        lambda: _run_mc_campaign(run_transient, n_samples)
    )
    np.testing.assert_allclose(opt_vals, seed_vals, rtol=1e-6)
    return {
        "workload": f"MC startup campaign, {n_samples} mismatch samples, "
        "20 carrier cycles each",
        "baseline": "seed engine (live, same machine)",
        "n_samples": n_samples,
        "seed_seconds": seed_seconds,
        "optimized_seconds": opt_seconds,
        "speedup": seed_seconds / opt_seconds,
        "optimized_newton_iterations": opt_newton,
    }


# -- Monte-Carlo startup campaign, lockstep batched --------------------------


def _amplitudes(results) -> list:
    return [
        float(np.max(np.abs(r.waveform("lc1").y - r.waveform("lc2").y)))
        for r in results
    ]


def bench_mc_startup_batched(n_samples: int = 64, cycles: int = 20) -> dict:
    profiles = MismatchProfile.sample_many(n_samples, base_seed=2000).profiles()
    options = _mc_options(cycles)

    def per_sample():
        return [run_transient(_mc_circuit(p), options) for p in profiles]

    def batched():
        return run_transient_batched(
            [_mc_circuit(p) for p in profiles], options
        )

    seed_seconds, per_results = _timed(per_sample)
    opt_seconds, batch_results = _timed(batched)
    np.testing.assert_allclose(
        _amplitudes(batch_results), _amplitudes(per_results), rtol=1e-9
    )
    newton = sum(r.stats["newton_iterations"] for r in batch_results)
    newton_ref = sum(r.stats["newton_iterations"] for r in per_results)
    return {
        "workload": f"lockstep MC startup campaign, {n_samples} mismatch "
        f"samples, {cycles} carrier cycles each",
        "baseline": "per-sample optimized engine (live, same machine)",
        "n_samples": n_samples,
        "cycles": cycles,
        "seed_seconds": seed_seconds,
        "optimized_seconds": opt_seconds,
        "speedup": seed_seconds / opt_seconds,
        # The mask-driven lockstep Newton must do exactly the per-
        # sample iteration work; both are recorded so the gate catches
        # an engine change that quietly costs iterations.
        "optimized_newton_iterations": newton,
        "per_sample_newton_iterations": newton_ref,
    }


# -- Monte-Carlo startup campaign, sharded across cores ----------------------


def _mc_sharded_build(index: int):
    """Module-level (picklable) build for the sharded campaign bench."""
    return _mc_circuit(MismatchProfile.sample(seed=2000 + index))


def bench_mc_startup_sharded(n_samples: int = 64, cycles: int = 20) -> dict:
    """Sharded campaign vs the single lockstep batch it decomposes.

    The contract has two halves, both asserted live: the shard merge
    is *bit-identical* to the unsharded vectorized run (every
    per-sample solve is independent of batch membership), and the
    wall clock scales with cores — >= 1.5x on multi-core hosts, and
    within 10% of the single batch on one core, where the shards
    degrade to a sequential in-process loop with no pool or shared
    memory.  The effective worker/shard counts are stamped into the
    entry: a recorded speedup is meaningless without its hardware
    context, so it should never be compared across machines blind.
    """
    options = _mc_options(cycles)
    tasks = list(range(n_samples))

    def campaign(mode):
        return run_transient_campaign(
            tasks, _mc_sharded_build, options, BatchOptions(batch_mode=mode)
        )

    seed_seconds, vec_results = _timed(lambda: campaign("vectorized"))
    opt_seconds, shard_results = _timed(lambda: campaign("sharded"))
    for s, (vec, shard) in enumerate(zip(vec_results, shard_results)):
        assert np.array_equal(vec.x, shard.x), (
            f"sharded merge diverged from the single batch on sample {s}"
        )
    workers = int(shard_results[0].stats["shard_workers"])
    n_shards = int(shard_results[0].stats["n_shards"])
    speedup = seed_seconds / opt_seconds
    if workers > 1:
        assert speedup >= 1.5, (
            f"sharded campaign on {workers} workers must beat the single "
            f"batch >= 1.5x, got {speedup:.2f}x"
        )
    else:
        assert speedup >= 0.9, (
            f"sequential shard degradation must stay within 10% of the "
            f"single batch, got {speedup:.2f}x"
        )
    newton = sum(r.stats["newton_iterations"] for r in shard_results)
    newton_ref = sum(r.stats["newton_iterations"] for r in vec_results)
    assert newton == newton_ref, "sharding changed the Newton work"
    return {
        "workload": f"sharded MC startup campaign, {n_samples} mismatch "
        f"samples, {cycles} carrier cycles each",
        "baseline": "single lockstep batch (vectorized campaign, live, "
        "same machine)",
        "n_samples": n_samples,
        "cycles": cycles,
        "effective_workers": workers,
        "effective_shards": n_shards,
        "seed_seconds": seed_seconds,
        "optimized_seconds": opt_seconds,
        "speedup": speedup,
        "optimized_newton_iterations": newton,
    }


# -- distributed-coil ladder: dense vs sparse backend ------------------------


def bench_ladder_dense_vs_sparse(segments: int = 250, cycles: int = 40) -> dict:
    """The sparse backend's raison d'être, measured honestly.

    One linear N-segment coil ladder, one fixed grid, identical RHS
    work per step — the dense and sparse runs differ *only* in the
    linear algebra, so the speedup is the backend's own.  The
    waveforms must agree at rtol 1e-9 (same equations, different
    factorization), and the deterministic counters (steps, Newton
    solves — zero for a linear netlist) gate engine regressions.
    """
    coil = DistributedCoil(TANK, n_segments=segments)

    def options(backend):
        return TransientOptions(
            t_stop=cycles / TANK.frequency,
            dt=1.0 / (TANK.frequency * 40),
            use_dc_operating_point=False,
            record_nodes=("lc1", "lc2"),
            backend=backend,
        )

    dense_seconds, dense = _timed(
        lambda: run_transient(coil.build_circuit(), options("dense"))
    )
    sparse_seconds, sparse = _timed(
        lambda: run_transient(coil.build_circuit(), options("sparse"))
    )
    scale = float(np.abs(dense.x).max())
    np.testing.assert_allclose(
        sparse.x, dense.x, rtol=1e-9, atol=1e-9 * scale,
        err_msg="sparse backend diverged from dense on the ladder",
    )
    assert sparse.stats["backend"] == "sparse"
    assert dense.stats["backend"] == "dense"
    return {
        "workload": f"distributed-coil ladder, {segments} segments "
        f"({coil.unknown_count} unknowns), {cycles} carrier cycles, "
        "dense vs sparse backend",
        "baseline": "dense backend, identical netlist/grid (live, same machine)",
        "segments": segments,
        "cycles": cycles,
        "unknowns": coil.unknown_count,
        "seed_seconds": dense_seconds,
        "optimized_seconds": sparse_seconds,
        "speedup": dense_seconds / sparse_seconds,
        "optimized_newton_iterations": sparse.stats["newton_iterations"],
        "optimized_steps": sparse.stats["steps"],
    }


# -- coil mesh: sparse direct vs Krylov stale-LU backend ---------------------


#: The mesh bench's tank (a physically-motivated 4 MHz-class LC cell);
#: the mesh replicates it per node, so the netlist is dominated by
#: reactive companion stamps — the workload the dt-cache exists for.
MESH_TANK = RLCTank(inductance=10e-6, capacitance=1e-9, series_resistance=2.0)

#: Below this the dense/sparse direct paths win and the Krylov gates
#: are informational only (mirrors ``KRYLOV_AUTO_THRESHOLD``'s intent:
#: iterative machinery pays off where factorization dominates).
KRYLOV_GATE_UNKNOWNS = 10_000


def bench_coil_mesh_krylov(nx: int = 50, periods: int = 8) -> dict:
    """Krylov stale-LU pool vs per-dt sparse refactorization, measured
    honestly on the first 10k-unknown workload in the repo.

    One mesh, one pulse drive, one adaptive grid — the runs differ
    only in the linear-algebra backend.  The asserted asset is
    deterministic: the anchor pool must cut LU factorizations >= 2x
    (in practice ~7x: the pool refreshes stay flat while sparse
    refactors every dt-cache entry build and rebuild).  Wall-clock
    speedup is recorded (>= 2x at the default size on an idle
    machine) but only gated as a loose 1.3x floor — shared-runner
    noise must not fail the gate that the counters already enforce.
    """
    mesh = CoilMesh(tank=MESH_TANK, nx=nx, ny=nx)
    f0 = mesh.tank.frequency
    t_stop = periods * 8.0 / f0

    def run(backend):
        return run_transient(
            mesh.build_circuit(drive="pulse"),
            TransientOptions(
                t_stop=t_stop,
                dt=0.05 / f0,
                step_control="adaptive",
                backend=backend,
            ),
        )

    # Best-of-2: each run is seconds long, so 5 repeats would dominate
    # the whole suite for noise margin the counter gates don't need.
    sparse_seconds, sparse = _timed(lambda: run("sparse"), repeats=2)
    krylov_seconds, krylov = _timed(lambda: run("krylov"), repeats=2)

    # Waveform equivalence at rtol 1e-6 on shared time points.  The
    # adaptive controllers almost always walk identical grids, but an
    # iterative solve may legitimately flip one accept decision; shared
    # points still compare exactly (the quantized dt ladder makes
    # accepted times exactly representable).
    scale = max(float(np.abs(sparse.x).max()), 1e-12)
    _, i_s, i_k = np.intersect1d(
        np.round(sparse.t * f0, 9),
        np.round(krylov.t * f0, 9),
        return_indices=True,
    )
    assert i_s.size >= 0.5 * sparse.t.size, (
        "krylov and sparse adaptive grids share too few points"
    )
    np.testing.assert_allclose(
        krylov.x[i_k], sparse.x[i_s], rtol=1e-6, atol=1e-6 * scale,
        err_msg="krylov backend diverged from sparse on the coil mesh",
    )
    assert krylov.stats["backend"] == "krylov"

    lu_sparse = sparse.stats["lu_refactorizations"]
    lu_krylov = krylov.stats["lu_refactorizations"]
    speedup = sparse_seconds / krylov_seconds
    if mesh.unknown_count >= KRYLOV_GATE_UNKNOWNS:
        assert lu_krylov * 2 <= lu_sparse, (
            f"stale-LU pool must halve factorizations at >= "
            f"{KRYLOV_GATE_UNKNOWNS} unknowns: {lu_krylov} vs "
            f"{lu_sparse} sparse"
        )
        assert speedup >= 1.3, (
            f"krylov wall floor: expected >= 1.3x over sparse at "
            f"{mesh.unknown_count} unknowns, got {speedup:.2f}x"
        )
    counters = krylov.stats["krylov"]
    return {
        "workload": f"{nx}x{nx} sensing-coil mesh "
        f"({mesh.unknown_count} unknowns), pulse drive, {periods} "
        "periods adaptive, sparse direct vs Krylov stale-LU pool",
        "baseline": "sparse backend, identical netlist/grid (live, "
        "same machine)",
        "nx": nx,
        "periods": periods,
        "unknowns": mesh.unknown_count,
        # Iteration counts ride scipy's GMRES internals, so the stamp
        # records which scipy produced them.
        "scipy": SCIPY_VERSION,
        "seed_seconds": sparse_seconds,
        "optimized_seconds": krylov_seconds,
        "speedup": speedup,
        "seed_lu_refactorizations": lu_sparse,
        "optimized_lu_refactorizations": lu_krylov,
        "optimized_newton_iterations": krylov.stats["newton_iterations"],
        "optimized_steps": krylov.stats["steps"],
        "optimized_solves": krylov.stats["solves"],
        "optimized_krylov_iterations": counters["iterations"],
        "krylov_solves": counters["solves"],
        "krylov_refreshes": counters["refreshes"],
        "krylov_fallbacks": counters["fallbacks"],
    }


# -- FMEA fault coverage -----------------------------------------------------


def bench_fault_coverage() -> dict:
    def campaign():
        result = FaultCampaign(
            config_factory=standard_config, injection_time=0.02, t_stop=0.04
        ).run()
        assert result.coverage == 1.0
        assert FailureKind.MISSING_OSCILLATION in result.result_for(
            "open-coil"
        ).detections
        return result

    seconds, _ = _timed(campaign)
    return {
        "workload": "sec7 FMEA campaign (behavioural model, full catalog)",
        "baseline": "same code path (campaign core is not MNA-based)",
        "seed_seconds": seconds,
        "optimized_seconds": seconds,
        "speedup": 1.0,
    }


# -- harness ----------------------------------------------------------------


def run_benches(
    cycles: int,
    samples: int,
    supply_cycles: int,
    batched_samples: int,
    ladder_segments: int,
    mesh_nx: int,
) -> "tuple[dict, dict]":
    """Run every workload on its own: ``(benches, gate_failures)``.

    A bench whose live assertion fails is reported by name in
    ``gate_failures`` (name -> message) and the remaining benches
    still run, so one failing gate never hides the others.
    """
    runs = {
        "fig16_startup": lambda: bench_fig16_startup(cycles),
        "fig16_startup_adaptive": lambda: bench_fig16_adaptive(cycles),
        "supply_loss_adaptive": lambda: bench_supply_loss_adaptive(supply_cycles),
        "supply_loss_gear": lambda: bench_supply_loss_gear(supply_cycles),
        "fig16_startup_envelope": lambda: bench_fig16_startup_envelope(supply_cycles),
        "supply_loss_envelope": lambda: bench_supply_loss_envelope(supply_cycles),
        "mc_startup": lambda: bench_mc_startup(samples),
        "mc_startup_batched": lambda: bench_mc_startup_batched(batched_samples),
        "mc_startup_sharded": lambda: bench_mc_startup_sharded(batched_samples),
        "fault_coverage": bench_fault_coverage,
    }
    if SCIPY_VERSION is not None:
        runs["ladder_transient_dense_vs_sparse"] = (
            lambda: bench_ladder_dense_vs_sparse(ladder_segments)
        )
        runs["coil_mesh_krylov"] = lambda: bench_coil_mesh_krylov(mesh_nx)
    benches, gate_failures = {}, {}
    for name, run in runs.items():
        try:
            bench = run()
        except AssertionError as exc:
            gate_failures[name] = str(exc) or "assertion failed"
            print(f"{name:24s} GATE FAILED: {gate_failures[name]}")
            continue
        # Every entry carries its effective parallelism so recorded wall
        # numbers are never read without their hardware context; only the
        # sharded campaign uses more than one worker today.
        bench.setdefault("effective_workers", 1)
        bench.setdefault("effective_shards", 1)
        benches[name] = bench
    return benches, gate_failures


#: Deterministic gate metrics: ratios where higher is better (gated
#: with a floor) and work counters where higher is worse (gated with
#: a ceiling).  These move when the engine's algorithmic efficiency
#: changes and are immune to machine load; wall-clock speedup is only
#: a loose catastrophic floor on every workload.
_RATIO_METRICS = (
    "newton_solve_ratio",
    "step_ratio",
    "resolved_cycle_ratio",
    "settle_step_ratio",
)
_WORK_METRICS = (
    "optimized_newton_iterations",
    "optimized_steps",
    "optimized_solves",
    "optimized_lu_refactorizations",
    "optimized_krylov_iterations",
)
_WALL_SLACK_FACTOR = 2.5


def check_against_baseline(baseline: dict, tolerance: float) -> int:
    """Rerun the baseline's workloads and flag efficiency regressions.

    Returns the number of failures (0 = gate passes); a bench whose
    own assertion fails counts as one, reported by name.  Every workload
    gates its *deterministic* counters (Newton solves, step ratios vs
    the golden run) at ``tolerance``; wall-clock speedups get
    ``_WALL_SLACK_FACTOR`` times the slack, enough to ride out shared
    -machine noise while still catching an order-of-magnitude loss.
    Adaptive accuracy bounds are enforced unconditionally inside the
    benches themselves.
    """
    recorded = baseline["benches"]
    cycles = recorded.get("fig16_startup", {}).get("cycles", 80)
    samples = recorded.get("mc_startup", {}).get("n_samples", 16)
    supply_cycles = recorded.get("supply_loss_adaptive", {}).get("cycles", 400)
    batched_samples = recorded.get("mc_startup_batched", {}).get("n_samples", 64)
    ladder_segments = recorded.get("ladder_transient_dense_vs_sparse", {}).get(
        "segments", 250
    )
    mesh_nx = recorded.get("coil_mesh_krylov", {}).get("nx", 50)
    fresh, gate_failures = run_benches(
        cycles, samples, supply_cycles, batched_samples, ladder_segments,
        mesh_nx,
    )

    failures = len(gate_failures)
    for name, old in recorded.items():
        new = fresh.get(name)
        if new is None or "speedup" not in old:
            continue
        shared = lambda keys: [k for k in keys if k in old and k in new]
        status = "ok"

        def fail(key):
            nonlocal status, failures
            if status == "ok":
                failures += 1
                status = f"REGRESSED ({key} {old[key]:.3g} -> {new[key]:.3g})"

        for key in shared(_RATIO_METRICS):
            if new[key] < old[key] * (1.0 - tolerance):
                fail(key)
        for key in shared(_WORK_METRICS):
            if new[key] > old[key] * (1.0 + tolerance):
                fail(key)
        # Clamp so the wall floor never collapses to zero: even with a
        # generous --tolerance, an order-of-magnitude wall-clock loss
        # with unchanged counters (e.g. a slow solve) must still fail.
        wall_floor = max(0.05, 1.0 - _WALL_SLACK_FACTOR * tolerance)
        if new["speedup"] < old["speedup"] * wall_floor:
            fail("speedup")

        # Every deterministic counter that moved, else the first one.
        deterministic = shared(_RATIO_METRICS) + shared(_WORK_METRICS)
        shown = [k for k in deterministic if new[k] != old[k]] or (
            deterministic[:1] or ["speedup"]
        )
        # Six digits, so a counter in the tens of thousands that moved
        # by one still reads as moved.
        counters = "  ".join(
            f"{k:28s} {old[k]:10.6g} -> {new[k]:10.6g}" for k in shown
        )
        print(
            f"{name:24s} {counters}  wall {old['speedup']:5.2f}x -> "
            f"{new['speedup']:5.2f}x  {status}"
        )
    return failures


def check_rescue_overhead(cycles: int = 20) -> int:
    """Gate the fault-tolerance layer's zero-overhead guarantee.

    Healthy workloads must be *bit-identical* with the rescue ladder,
    budgets and quarantine armed: the fault-tolerance code may only
    engage after a ConvergenceError, never add Newton work to a run
    that converges.  Runs live (no baseline needed): the Fig 16
    startup on both grids, per-sample and batched, nominal vs armed,
    comparing the deterministic work counters and the waveforms
    themselves.  Returns the number of failures (0 = gate passes).
    """
    failures = 0
    armed_fields = dict(
        rescue=True,
        quarantine=True,
        max_steps=10**9,
        max_wall_time=3600.0,
    )
    netlist = OscillatorNetlist(TANK, vref=2.5)
    for step_control in ("fixed", "adaptive"):
        options = dataclasses.replace(
            _startup_options(cycles), step_control=step_control
        )
        armed = dataclasses.replace(options, **armed_fields)
        plain = run_transient(netlist.build(LIMITER), options)
        guarded = run_transient(netlist.build(LIMITER), armed)
        same = (
            plain.stats["newton_iterations"] == guarded.stats["newton_iterations"]
            and plain.stats["steps"] == guarded.stats["steps"]
            and np.array_equal(plain.x, guarded.x)
        )
        label = f"rescue_overhead_{step_control}"
        if not same:
            failures += 1
            print(
                f"{label:24s} FAIL: armed run differs "
                f"(newton {plain.stats['newton_iterations']} -> "
                f"{guarded.stats['newton_iterations']}, steps "
                f"{plain.stats['steps']} -> {guarded.stats['steps']})"
            )
        else:
            print(
                f"{label:24s} newton_iterations "
                f"{plain.stats['newton_iterations']:>6} unchanged, "
                "waveform bit-identical  ok"
            )
    # Batched lockstep engine with quarantine armed.
    circuits_plain = [netlist.build(LIMITER) for _ in range(4)]
    circuits_armed = [netlist.build(LIMITER) for _ in range(4)]
    options = _startup_options(cycles)
    armed = dataclasses.replace(options, **armed_fields)
    plain = run_transient_batched(circuits_plain, options)
    guarded = run_transient_batched(circuits_armed, armed)
    same = all(
        a.stats["newton_iterations"] == b.stats["newton_iterations"]
        and np.array_equal(a.x, b.x)
        for a, b in zip(plain, guarded)
    )
    if not same:
        failures += 1
        print("rescue_overhead_batched  FAIL: armed lockstep run differs")
    else:
        print(
            "rescue_overhead_batched  per-sample counters unchanged, "
            "waveforms bit-identical  ok"
        )
    return failures


def check_health_overhead(cycles: int = 20) -> int:
    """Gate the health layer's bit-identity + bounded-overhead guarantee.

    Healthy workloads must be *bit-identical* with preflight lint,
    NaN/conditioning guards and post-step certification armed: the
    health layer may only *read* (residual recompute, condition
    estimate against the cached LU), never perturb the iterate or the
    step sequence.  Certification does extra arithmetic per accepted
    step, so armed wall clock gets a generous fixed budget
    (``_HEALTH_WALL_FACTOR`` x plain + slack) — enough headroom for
    shared-machine noise, tight enough to catch an accidental extra
    factorization per step.  A healthy startup must also certify every
    step and file zero health reports.  Returns the number of failures
    (0 = gate passes).
    """
    failures = 0
    armed_fields = dict(guards=True, certify=True, preflight="warn")
    netlist = OscillatorNetlist(TANK, vref=2.5)
    for step_control in ("fixed", "adaptive"):
        options = dataclasses.replace(
            _startup_options(cycles), step_control=step_control
        )
        armed = dataclasses.replace(options, **armed_fields)
        t0 = time.perf_counter()
        plain = run_transient(netlist.build(LIMITER), options)
        t_plain = time.perf_counter() - t0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            guarded = run_transient(netlist.build(LIMITER), armed)
        t_armed = time.perf_counter() - t0
        label = f"health_overhead_{step_control}"
        identical = (
            plain.stats["newton_iterations"] == guarded.stats["newton_iterations"]
            and plain.stats["steps"] == guarded.stats["steps"]
            and np.array_equal(plain.x, guarded.x)
        )
        clean = (
            not guarded.stats.get("health")
            and guarded.stats.get("certified_steps", 0) > 0
        )
        budget = _HEALTH_WALL_FACTOR * t_plain + _HEALTH_WALL_SLACK
        if not identical:
            failures += 1
            print(f"{label:24s} FAIL: armed run differs from unarmed")
        elif not clean:
            failures += 1
            print(
                f"{label:24s} FAIL: healthy run filed "
                f"{len(guarded.stats.get('health', []))} health report(s), "
                f"certified {guarded.stats.get('certified_steps', 0)} steps"
            )
        elif t_armed > budget:
            failures += 1
            print(
                f"{label:24s} FAIL: armed wall {t_armed:.3f}s over budget "
                f"{budget:.3f}s (plain {t_plain:.3f}s)"
            )
        else:
            print(
                f"{label:24s} bit-identical, "
                f"{guarded.stats['certified_steps']:>6} steps certified, "
                f"wall {t_armed / max(t_plain, 1e-9):4.2f}x  ok"
            )
    # Batched lockstep engine, armed vs unarmed.
    circuits_plain = [netlist.build(LIMITER) for _ in range(4)]
    circuits_armed = [netlist.build(LIMITER) for _ in range(4)]
    options = _startup_options(cycles)
    armed = dataclasses.replace(options, **armed_fields)
    plain = run_transient_batched(circuits_plain, options)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        guarded = run_transient_batched(circuits_armed, armed)
    same = all(
        a.stats["newton_iterations"] == b.stats["newton_iterations"]
        and np.array_equal(a.x, b.x)
        and not b.stats.get("health")
        for a, b in zip(plain, guarded)
    )
    if not same:
        failures += 1
        print("health_overhead_batched  FAIL: armed lockstep run differs")
    else:
        print(
            "health_overhead_batched  per-sample counters unchanged, "
            "waveforms bit-identical, zero reports  ok"
        )
    return failures


def check_envelope_identity(cycles: int = 20) -> int:
    """Gate the envelope engine's ``skip="off"`` bit-identity contract.

    With skipping disabled the envelope front-end must delegate to
    the plain engine and only *annotate* the result: identical time
    grid, identical records, identical Newton-solve count, with the
    provenance metadata marking every record as resolved.  Runs live
    (no baseline needed) on the Fig 16 startup.  Returns the number
    of failures (0 = gate passes).
    """
    failures = 0
    options = dataclasses.replace(
        _startup_options(cycles), record_nodes=("lc1", "lc2")
    )
    netlist = OscillatorNetlist(TANK, vref=2.5)
    plain = run_transient(netlist.build(LIMITER), options)
    off = run_transient_envelope(
        netlist.build(LIMITER), options, _envelope_recipe(skip="off")
    )
    identical = (
        plain.stats["newton_iterations"] == off.stats["newton_iterations"]
        and np.array_equal(plain.t, off.t)
        and np.array_equal(plain.x, off.x)
    )
    e = off.stats["envelope"]
    annotated = e["skip"] == "off" and all(
        p == "resolved" for p in e["provenance"]
    )
    if not identical:
        failures += 1
        print(
            "envelope_identity        FAIL: skip=off differs from the plain "
            f"engine (newton {plain.stats['newton_iterations']} -> "
            f"{off.stats['newton_iterations']})"
        )
    elif not annotated:
        failures += 1
        print(
            "envelope_identity        FAIL: skip=off provenance is not "
            "all-resolved"
        )
    else:
        print(
            "envelope_identity        skip=off bit-identical, "
            f"{len(off.t):>6} records all resolved  ok"
        )
    return failures


#: Armed-run wall budget: certification recomputes the step residual
#: (one dense mat-vec + device re-linearization per accepted step), so
#: some overhead is the *point*; 3x plus absolute slack catches an
#: accidental extra factorization without tripping on machine noise.
_HEALTH_WALL_FACTOR = 3.0
_HEALTH_WALL_SLACK = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_transient.json",
        help="output JSON path (default: repo root BENCH_transient.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads (smoke-testing the harness itself)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: rerun the committed baseline's workloads "
        "and fail on any speedup regression beyond --tolerance",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_transient.json",
        help="baseline JSON for --check (default: committed bench file)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional speedup regression in --check mode",
    )
    args = parser.parse_args(argv)

    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; run without --check first")
            return 2
        baseline = json.loads(args.baseline.read_text())
        failures = check_against_baseline(baseline, args.tolerance)
        overhead_failures = check_rescue_overhead()
        health_failures = check_health_overhead()
        envelope_failures = check_envelope_identity()
        if failures or overhead_failures or health_failures or envelope_failures:
            if failures:
                print(f"FAIL: {failures} workload(s) failed their gate or "
                      f"regressed > {args.tolerance:.0%} vs {args.baseline}")
            if overhead_failures:
                print(f"FAIL: {overhead_failures} healthy workload(s) "
                      "changed with the rescue ladder armed")
            if health_failures:
                print(f"FAIL: {health_failures} healthy workload(s) "
                      "changed or overran with the health layer armed")
            if envelope_failures:
                print("FAIL: envelope skip=off run is not bit-identical "
                      "to the plain engine")
            return 1
        print(f"bench gate ok (within {args.tolerance:.0%} of {args.baseline})")
        return 0

    cycles = 20 if args.quick else 80
    samples = 4 if args.quick else 16
    supply_cycles = 120 if args.quick else 400
    batched_samples = 8 if args.quick else 64
    ladder_segments = 80 if args.quick else 250
    mesh_nx = 24 if args.quick else 50
    benches, gate_failures = run_benches(
        cycles, samples, supply_cycles, batched_samples, ladder_segments,
        mesh_nx,
    )
    if gate_failures:
        print(f"FAIL: {', '.join(gate_failures)} failed their gate; "
              f"{args.out} not written")
        return 1
    payload = {
        "generated_by": "benchmarks/run_perf.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": bool(args.quick),
        # Environment stamp: speedups are hardware-independent, but
        # comparing raw seconds across machines needs this context.
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": SCIPY_VERSION,
            "cpu_count": os.cpu_count(),
        },
        "benches": benches,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for name, bench in benches.items():
        line = (
            f"{name:24s} seed {bench['seed_seconds']:.3f}s -> optimized "
            f"{bench['optimized_seconds']:.3f}s  ({bench['speedup']:.2f}x)"
        )
        if "amplitude_error" in bench:
            line += (
                f"  [amp err {bench['amplitude_error']:.2%}, "
                f"freq err {bench['frequency_error']:.2%}]"
            )
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
