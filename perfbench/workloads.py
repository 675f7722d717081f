"""The four benchmark workloads.

Each workload turns a seed into generated inputs (the simulator sees
only those), runs one *pass* over them as the timed job, extracts one
checked output per sample, and computes the same outputs by an
independent reference path outside the timed runs.

A pass is a fixed list of *jobs*, the unit of timing: one simulator
call each (one campaign, or one run of a multi-run workload).  The
benchmark repeats passes over the same inputs, so every pass does the
same work and must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence

import numpy as np

from repro.campaigns import BatchOptions, run_envelope_campaign
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import (
    EnvelopeOptions,
    PhaseSchedule,
    TransientOptions,
    run_transient,
)
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.errors import TaskFailure
from repro.mc.mismatch import MismatchProfile
from repro.sensor import CoilMesh

#: Carrier of the Fig 16 oscillator.
F0 = 4e6
T0 = 1.0 / F0

#: Carrier of the supply-loss tank, 2^22 Hz (4.19 MHz): its period and the
#: adaptive controller's dt ladder are then exact binary fractions.  At
#: 4 MHz, rounding in the accumulated step times can land a step ~5e-19 s
#: short of the fault breakpoint for some Q, and the controller then
#: rejects the leftover sliver step down to dt_min and aborts.
F_SUPPLY = 2.0 ** 22
T_SUPPLY = 1.0 / F_SUPPLY


def nproc() -> int:
    """CPUs this process may run on (affinity-aware, unlike os.cpu_count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def campaign_batch() -> BatchOptions:
    """Default campaign options, with pool workers capped at ``nproc``.

    ``BatchOptions()`` sizes its shard pool by ``os.cpu_count()``, which
    ignores CPU affinity; only when that overshoots is the sharded
    policy it would pick requested explicitly with the cap.
    """
    if (os.cpu_count() or 1) <= nproc():
        return BatchOptions()
    return BatchOptions(batch_mode="sharded", max_workers=nproc())


# -- shared helpers -----------------------------------------------------------


def _draw_parts(profile: MismatchProfile):
    """Fig 16 tank and limiter for one mismatch draw (Q and gm spread)."""
    tank = RLCTank.from_frequency_and_q(F0, 15.0 * (1.0 + profile.prescale_errors[0]), 1e-6)
    limiter = TanhLimiter(gm=6e-3 * (1.0 + profile.gm_stage_errors[0]), i_max=2e-3)
    return tank, limiter


def build_oscillator(profile: MismatchProfile):
    """Campaign build callback: the Fig 16 startup netlist of one draw."""
    tank, limiter = _draw_parts(profile)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def envelope_for(profile: MismatchProfile) -> EnvelopeOptions:
    tank, limiter = _draw_parts(profile)
    return EnvelopeOptions(
        period=T0, nodes=("lc1", "lc2"), model=EnvelopeModel(tank, limiter)
    )


def startup_options(cycles: int) -> TransientOptions:
    return TransientOptions(
        t_stop=cycles * T0,
        dt=T0 / 40,
        method="trap",
        use_dc_operating_point=False,
        record_nodes=("lc1", "lc2"),
    )


def settled_amplitude(result, t_stop: float) -> float:
    """Half the differential peak-to-peak over the last two carrier cycles."""
    window = result.differential("lc1", "lc2").window(t_stop - 2 * T0, t_stop)
    return 0.5 * float(window.peak_to_peak())


def fitted_amplitude(result, t0: float, t1: float, frequency: float) -> float:
    """Carrier amplitude over ``[t0, t1]`` by least-squares sinusoid fit
    (exact for a sinusoid at any sampling density, so an adaptive grid
    is charged only for its integration error)."""
    window = result.differential("lc1", "lc2").window(t0, t1)
    phase = 2 * np.pi * frequency * window.t
    basis = np.column_stack([np.sin(phase), np.cos(phase)])
    coef, *_ = np.linalg.lstsq(basis, window.y, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def relative_error(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return np.abs(values - reference) / np.abs(reference)


class Workload:
    """One benchmark workload; subclasses fill in the five hooks."""

    name = ""
    why = ""
    #: Worst relative deviation from the reference a sample may show.
    tolerance = 0.0
    #: Whether a job runs through the campaign layer.
    campaign = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @property
    def samples(self) -> int:
        raise NotImplementedError

    @property
    def cycles(self) -> float:
        """Carrier cycles one pass simulates, summed over samples."""
        raise NotImplementedError

    def summary(self) -> Dict[str, object]:
        raise NotImplementedError

    def warm_up(self, build) -> None:
        raise NotImplementedError

    def jobs(self, build) -> list:
        """One pass: zero-argument callables, each a timed simulator call
        returning a list of results."""
        raise NotImplementedError

    def outputs(self, results: list) -> np.ndarray:
        """One checked output per sample (NaN where the sample failed)."""
        raise NotImplementedError

    def same_outputs(self, first, other) -> bool:
        return np.array_equal(first, other, equal_nan=True)

    def reference_errors(self, outputs) -> np.ndarray:
        """Relative deviation of each checked sample from its reference."""
        raise NotImplementedError


def _failed(result) -> bool:
    return isinstance(result, TaskFailure) or bool(
        getattr(result, "stats", {}).get("quarantined")
    )


# -- envelope_mc --------------------------------------------------------------


class EnvelopeMC(Workload):
    name = "envelope_mc"
    why = (
        "the only workload with envelope-predictor work; step control, "
        "batching, the pool and sparse linear algebra do no work here"
    )
    tolerance = 0.02  # the engine's own skip-acceptance residual
    campaign = True
    DRAWS = 8
    CYCLES = 400

    def __init__(self, seed: int):
        super().__init__(seed)
        self.profiles = [MismatchProfile.sample(rng=self.rng) for _ in range(self.DRAWS)]
        self.params = [
            (p.prescale_errors[0], p.gm_stage_errors[0]) for p in self.profiles
        ]
        self.options = startup_options(self.CYCLES)

    @property
    def samples(self) -> int:
        return self.DRAWS

    @property
    def cycles(self) -> float:
        return float(self.DRAWS * self.CYCLES)

    def summary(self):
        return {
            "draws": self.DRAWS,
            "cycles_per_draw": self.CYCLES,
            "unknowns": build_oscillator(self.profiles[0]).prepare(),
            "q": [round(15.0 * (1 + q), 4) for q, _gm in self.params],
            "gm_scale": [round(1 + gm, 4) for _q, gm in self.params],
        }

    def warm_up(self, build) -> None:
        run_envelope_campaign(
            self.profiles[:2], build, startup_options(60), envelope_for,
            params=self.params[:2],
        )

    def jobs(self, build):
        return [lambda: run_envelope_campaign(
            self.profiles, build, self.options, envelope_for, params=self.params
        )]

    def outputs(self, results):
        return np.array([
            math.nan if _failed(r) else r.stats["envelope"]["final"]["amplitude"]
            for r in results
        ])

    def reference_errors(self, outputs):
        reference = np.array([
            settled_amplitude(
                run_transient(build_oscillator(p), self.options), self.options.t_stop
            )
            for p in self.profiles
        ])
        return relative_error(outputs, reference)


# -- supply_loss_q ------------------------------------------------------------


class SupplyLossQ(Workload):
    name = "supply_loss_q"
    why = (
        "step control and the small-n step core dominate, and tank Q drawn "
        "over the paper's two decades moves the work; no predictor, batching or pool"
    )
    tolerance = 0.01
    RUNS = 4
    CYCLES = 400
    FAULT_CYCLES = 40
    Q_RANGE = (5.0, 500.0)

    def __init__(self, seed: int):
        super().__init__(seed)
        # Log-uniform over the two decades, stratified so every pass
        # spans the whole range whatever the seed.
        lo, hi = (math.log(q) for q in self.Q_RANGE)
        u = (np.arange(self.RUNS) + self.rng.random(self.RUNS)) / self.RUNS
        self.qs = [float(q) for q in np.exp(lo + (hi - lo) * u)]
        self.t_fault = self.FAULT_CYCLES * T_SUPPLY
        self.options = TransientOptions(
            t_stop=self.CYCLES * T_SUPPLY,
            dt=T_SUPPLY / 40,
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T_SUPPLY / 81920,
            dt_max=8 * T_SUPPLY,
            lte_reltol=1e-6,
            lte_abstol=1e-9,
            phases=PhaseSchedule.carrier_then_settle(
                self.t_fault,
                carrier_dt=T_SUPPLY / 40,
                settle_dt=T_SUPPLY / 4,
                settle_method="gear",
                max_order=3,
            ),
        )
        self.circuits = [self._circuit(q) for q in self.qs]

    def _circuit(self, q: float):
        return supply_loss_tank_circuit(F_SUPPLY, self.t_fault, q=q, inductance=1e-6)

    @property
    def samples(self) -> int:
        return self.RUNS

    @property
    def cycles(self) -> float:
        return float(self.RUNS * self.CYCLES)

    def summary(self):
        return {
            "runs": self.RUNS,
            "cycles_per_run": self.CYCLES,
            "fault_at_cycle": self.FAULT_CYCLES,
            "unknowns": self.circuits[0].prepare(),
            "q": [round(q, 3) for q in self.qs],
        }

    def warm_up(self, build) -> None:
        options = TransientOptions(
            t_stop=8 * T_SUPPLY, dt=T_SUPPLY / 40, step_control="adaptive",
            use_dc_operating_point=False, lte_reltol=1e-6, lte_abstol=1e-9,
            phases=PhaseSchedule.carrier_then_settle(
                4 * T_SUPPLY, carrier_dt=T_SUPPLY / 40, settle_dt=T_SUPPLY / 4,
                settle_method="gear", max_order=3,
            ),
        )
        run_transient(supply_loss_tank_circuit(F_SUPPLY, 4 * T_SUPPLY, q=50.0), options)

    def jobs(self, build):
        return [lambda c=c: [run_transient(c, self.options)] for c in self.circuits]

    def outputs(self, results):
        return np.array([
            fitted_amplitude(r, 0.6 * self.t_fault, self.t_fault, F_SUPPLY) for r in results
        ])

    def reference_errors(self, outputs):
        fine = TransientOptions(
            t_stop=self.t_fault, dt=T_SUPPLY / 160, use_dc_operating_point=False
        )
        reference = np.array([
            fitted_amplitude(
                run_transient(self._circuit(q), fine),
                0.6 * self.t_fault, self.t_fault, F_SUPPLY,
            )
            for q in self.qs
        ])
        return relative_error(outputs, reference)


# -- mc_lockstep --------------------------------------------------------------


class MCLockstep(Workload):
    name = "mc_lockstep"
    why = (
        "the only workload on the lockstep batched engine, the process pool "
        "and shared-memory transport, through default BatchOptions()"
    )
    tolerance = 1e-9
    campaign = True
    SAMPLES = 256
    CYCLES = 80
    CHECKED = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.profiles = [MismatchProfile.sample(rng=self.rng) for _ in range(self.SAMPLES)]
        self.checked = np.sort(self.rng.choice(self.SAMPLES, self.CHECKED, replace=False))
        self.options = startup_options(self.CYCLES)
        self.batch = campaign_batch()

    @property
    def samples(self) -> int:
        return self.SAMPLES

    @property
    def cycles(self) -> float:
        return float(self.SAMPLES * self.CYCLES)

    def summary(self):
        return {
            "draws": self.SAMPLES,
            "cycles_per_draw": self.CYCLES,
            "unknowns": build_oscillator(self.profiles[0]).prepare(),
            "checked_against_scalar": [int(i) for i in self.checked],
            "q_range": [
                round(15.0 * (1 + min(p.prescale_errors[0] for p in self.profiles)), 4),
                round(15.0 * (1 + max(p.prescale_errors[0] for p in self.profiles)), 4),
            ],
        }

    def warm_up(self, build) -> None:
        run_transient_campaign(self.profiles[:4], build, startup_options(4), self.batch)

    def jobs(self, build):
        return [lambda: run_transient_campaign(
            self.profiles, build, self.options, self.batch
        )]

    def outputs(self, results):
        return np.array([
            math.nan if _failed(r) else settled_amplitude(r, self.options.t_stop)
            for r in results
        ])

    def reference_errors(self, outputs):
        reference = np.array([
            settled_amplitude(
                run_transient(build_oscillator(self.profiles[i]), self.options),
                self.options.t_stop,
            )
            for i in self.checked
        ])
        errors = np.zeros(len(outputs))
        errors[self.checked] = relative_error(outputs[self.checked], reference)
        # Unchecked samples still fail on a NaN (failed) output.
        errors[np.isnan(outputs)] = np.inf
        return errors


# -- coil_mesh ----------------------------------------------------------------


class CoilMeshKrylov(Workload):
    name = "coil_mesh"
    why = (
        "the only workload where linear algebra and dt-cache stamping "
        "dominate: a 12,301-unknown mesh on the Krylov backend"
    )
    tolerance = 1e-6
    NX = 50
    PERIODS = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        self.series_resistance = 2.0 * float(self.rng.uniform(0.9, 1.1))
        self.drive_current = 1e-3 * float(self.rng.uniform(0.8, 1.25))
        tank = RLCTank(
            inductance=10e-6, capacitance=1e-9, series_resistance=self.series_resistance
        )
        self.mesh = CoilMesh(tank=tank, nx=self.NX, ny=self.NX)
        self.f0 = self.mesh.tank.frequency
        self.circuit = self.mesh.build_circuit(
            drive_current=self.drive_current, drive="pulse"
        )

    def _options(self, backend: str, periods: float) -> TransientOptions:
        return TransientOptions(
            t_stop=periods / self.f0,
            dt=0.05 / self.f0,
            step_control="adaptive",
            backend=backend,
        )

    @property
    def samples(self) -> int:
        return 1

    @property
    def cycles(self) -> float:
        return float(self.PERIODS)

    def summary(self):
        return {
            "mesh": f"{self.NX}x{self.NX}",
            "unknowns": self.mesh.unknown_count,
            "periods": self.PERIODS,
            "series_resistance_ohm": round(self.series_resistance, 5),
            "drive_current_a": round(self.drive_current, 8),
        }

    def warm_up(self, build) -> None:
        run_transient(self.circuit, self._options("krylov", 2))

    def jobs(self, build):
        options = self._options("krylov", self.PERIODS)
        return [lambda: [run_transient(self.circuit, options)]]

    def outputs(self, results):
        r = results[0]
        return (r.t, r.x)

    def same_outputs(self, first, other) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(first, other))

    def reference_errors(self, outputs):
        t, x = outputs
        sparse = run_transient(self.circuit, self._options("sparse", self.PERIODS))
        # Compare on shared time points: an iterative solve may flip one
        # adaptive accept decision without being wrong.
        _, i_s, i_k = np.intersect1d(
            np.round(sparse.t * self.f0, 9), np.round(t * self.f0, 9),
            return_indices=True,
        )
        if i_s.size < 0.5 * sparse.t.size:
            return np.array([np.inf])
        scale = max(float(np.abs(sparse.x).max()), 1e-30)
        return np.array([float(np.abs(x[i_k] - sparse.x[i_s]).max()) / scale])


WORKLOADS = {w.name: w for w in (EnvelopeMC, SupplyLossQ, MCLockstep, CoilMeshKrylov)}


def result_stats(results: Sequence) -> List[dict]:
    """The stats dicts of a pass's results (failures contribute none)."""
    return [r.stats for r in results if not isinstance(r, TaskFailure)]
