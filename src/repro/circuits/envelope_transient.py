"""Cycle-skipping envelope-following transient engine.

The paper's long scenarios — startup (Fig 16), supply loss, regulation
steps, keyless-entry polling — span hundreds to thousands of carrier
cycles whose interesting content is the *envelope*.  Integrating every
cycle wastes almost all of the work: inside a burst of a few cycles
the amplitude barely moves, and the averaged describing-function
dynamics (:class:`~repro.envelope.dynamics.EnvelopeModel`) predict the
slow amplitude evolution to well under a percent.

:func:`run_transient_envelope` exploits that separation of scales:

1. **Anchor** — integrate ``resolve_cycles`` carrier-resolved cycles
   on the fixed grid (the bit-exact :mod:`transient` machinery) and
   extract the amplitude of the differential tank voltage from the
   last full cycle.
2. **Skip** — advance the amplitude by ``N`` carrier periods with the
   envelope ODE, then *jump* the MNA state: every unknown and every
   reactive integrator state is scaled about its cycle mean by the
   predicted amplitude ratio, which preserves the carrier phase while
   re-seeding the oscillation at the predicted envelope.
3. **Re-anchor** — integrate a short carrier-resolved correction
   burst; the settled amplitude is compared against the model's own
   prediction for the same interval, and the residual controls ``N``
   adaptively — shrink on mismatch (the model is wrong here, resolve
   more), grow on agreement (the model is trustworthy, skip more).

``skip="off"`` delegates to :func:`~.transient.run_transient`
unchanged, so the fallback path is bit-identical to the existing
engine by construction.  ``skip="on"`` shares that engine's set-up and
runs every resolved burst through its fixed-grid loop, so it honours
the same run options: ``preflight``, ``guards``, ``certify``,
``rescue`` (``max_rescues`` counts across bursts), ``max_steps`` /
``max_wall_time`` (charged per resolved step, across bursts) and
``on_abort``.  ``step_control="adaptive"``, ``phases`` and components
with generic integrator state are rejected.  All skipping happens on
the canonical fixed grid (time is always ``k * dt`` for an integer
``k``), so resolved segments of an envelope run line up exactly with
the plain engine's samples.

Warm starts
-----------
Campaigns sweep many nearby parameter draws; the settled skip length
of one sample is an excellent initial guess for the next.  The
``warm_start`` mapping (``{"skip": N, "amplitude": A}``, as published
in a previous run's ``stats["envelope"]["final"]``) seeds the skip
length; the first re-anchor acts as the acceptance test — a mismatch
beyond tolerance *rejects* the warm start and falls back to the cold
``skip_initial`` (see ``stats["envelope"]["warm_start"]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..envelope.dynamics import EnvelopeModel
from ..errors import SimulationError
from .netlist import Circuit
from .transient import (
    TransientOptions,
    TransientResult,
    _engine_stats,
    _record_capacity,
    _RecordingBuffer,
    _resolve_recording,
    _run_fixed,
    _RunAbort,
    _RunBudget,
    _setup,
    _StepRescue,
    run_transient,
)

__all__ = ["EnvelopeOptions", "run_transient_envelope"]

#: Amplitudes below this are treated as "no oscillation yet": the
#: describing-function predictor still applies (exponential growth
#: regime) but a zero amplitude cannot be scaled, so the engine keeps
#: resolving until the seed kick shows up in the waveform.
_AMPLITUDE_FLOOR = 1e-15


@dataclass
class EnvelopeOptions:
    """Configuration of the cycle-skipping envelope engine.

    Parameters
    ----------
    period:
        Carrier period ``T``.  Must be an integer number of ``dt``
        steps (within 1%) so skips stay on the canonical grid.
    nodes:
        ``(positive, negative)`` tank nodes whose differential voltage
        defines the envelope amplitude.
    model:
        The averaged amplitude dynamics used as the skip predictor.
    skip:
        ``"on"`` enables cycle skipping; ``"off"`` delegates to the
        plain engine (bit-identical).
    resolve_cycles:
        Carrier cycles integrated in the initial anchor burst.
    correct_cycles:
        Carrier cycles integrated in each re-anchor correction burst.
    skip_initial / skip_min / skip_max:
        Initial / minimum / maximum skipped cycles per jump.
    tolerance:
        Relative amplitude mismatch at a re-anchor above which the
        skip length shrinks (and a warm start is rejected); agreement
        below ``tolerance / 4`` grows it.
    grow / shrink:
        Multiplicative skip-length adaptation factors.
    warm_start:
        Optional ``{"skip": N, "amplitude": A}`` mapping from a
        previous run's ``stats["envelope"]["final"]``.
    """

    period: float = 0.0
    nodes: Tuple[str, str] = ("", "")
    model: Optional[EnvelopeModel] = None
    skip: str = "on"
    resolve_cycles: int = 4
    correct_cycles: int = 2
    skip_initial: int = 8
    skip_min: int = 1
    skip_max: int = 256
    tolerance: float = 0.02
    grow: float = 2.0
    shrink: float = 0.25
    warm_start: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.skip not in ("on", "off"):
            raise SimulationError("skip must be 'on' or 'off'")
        if self.skip == "off":
            return
        if self.period <= 0:
            raise SimulationError("period must be positive")
        if self.model is None:
            raise SimulationError("skip='on' requires an EnvelopeModel")
        if len(self.nodes) != 2 or not all(self.nodes):
            raise SimulationError("nodes must name the two tank nodes")
        if self.resolve_cycles < 1 or self.correct_cycles < 1:
            raise SimulationError(
                "resolve_cycles and correct_cycles must be >= 1"
            )
        if not 1 <= self.skip_min <= self.skip_initial <= self.skip_max:
            raise SimulationError(
                "need skip_min <= skip_initial <= skip_max (all >= 1)"
            )
        if self.tolerance <= 0:
            raise SimulationError("tolerance must be positive")
        if self.grow <= 1.0 or not 0 < self.shrink < 1.0:
            raise SimulationError("need grow > 1 and 0 < shrink < 1")


class _CycleRing:
    """Rolling window of the last carrier cycle's committed states.

    Keeps ``n`` per-step snapshots of the solution vector and of the
    ``reactive`` set's integrator state so the amplitude and the cycle
    means — the two inputs of the skip jump — come from exactly one
    full period of resolved samples.
    """

    def __init__(self, n: int, size: int, reactive):
        self.n = int(n)
        self.reactive = reactive
        self.x = np.empty((self.n, size))
        self.v = np.empty((self.n, reactive.n))
        self.i = np.empty((self.n, reactive.n))
        self.count = 0
        self._head = 0

    def push(self, x: np.ndarray) -> None:
        """Store a committed step (the fixed-grid loop's commit hook)."""
        h = self._head
        self.x[h] = x
        self.v[h] = self.reactive.v
        self.i[h] = self.reactive.i
        self._head = (h + 1) % self.n
        self.count += 1

    @property
    def full(self) -> bool:
        return self.count >= self.n

    def reset(self) -> None:
        self.count = 0
        self._head = 0

    def amplitude(self, diff: np.ndarray) -> float:
        """Peak amplitude of ``x @ diff`` over the stored cycle."""
        d = self.x.dot(diff)
        return 0.5 * float(d.max() - d.min())

    def means(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.x.mean(axis=0),
            self.v.mean(axis=0),
            self.i.mean(axis=0),
        )


def _steps_per_cycle(options: TransientOptions, envelope: EnvelopeOptions) -> int:
    ratio = envelope.period / options.dt
    spc = int(round(ratio))
    if spc < 4 or abs(ratio - spc) > 0.01 * spc:
        raise SimulationError(
            f"period/dt = {ratio:.3f} must be an integer >= 4 (within 1%) "
            "so skipped cycles stay on the fixed grid"
        )
    return spc


def run_transient_envelope(
    circuit: Circuit,
    options: TransientOptions,
    envelope: EnvelopeOptions,
) -> TransientResult:
    """Envelope-following transient: resolve, skip, re-anchor.

    Returns a :class:`~.transient.TransientResult` whose ``t`` grid is
    ragged — resolved segments carry every ``record_stride``-th fixed
    step, each skip contributes its single landing sample — and whose
    ``stats["envelope"]`` records per-segment provenance
    (``segments`` with ``kind`` ``"resolved"``/``"skipped"``, a
    per-record ``provenance`` list, resolved/skipped cycle counters,
    the skip-length adaptation history, and the ``final`` state for
    warm-starting a neighbouring run).
    """
    if envelope.skip == "off":
        result = run_transient(circuit, options)
        n_records = len(result.t)
        result.stats["envelope"] = {
            "skip": "off",
            "resolved_cycles": (
                options.t_stop / envelope.period
                if envelope.period > 0
                else None
            ),
            "skipped_cycles": 0,
            "segments": [
                {"kind": "resolved", "t0": 0.0, "t1": options.t_stop}
            ],
            "provenance": ["resolved"] * n_records,
        }
        return result

    if options.step_control != "fixed":
        raise SimulationError(
            "cycle skipping requires step_control='fixed' (skips are "
            "whole carrier periods on the canonical grid)"
        )
    if options.phases is not None:
        raise SimulationError("phases and cycle skipping are exclusive")
    spc = _steps_per_cycle(options, envelope)
    total_steps = int(round(options.t_stop / options.dt))
    dt = options.dt
    period = spc * dt  # grid-exact period

    x, assembly, solver, certifier, preflight_diags, krylov_base = _setup(
        circuit, options
    )
    if assembly.states:
        raise SimulationError(
            "cycle skipping requires stateless non-reactive components; "
            f"components {sorted(assembly.states)} carry generic integrator "
            "state the amplitude jump cannot rescale"
        )
    reactive = assembly.reactive
    record_indices, recorded_nodes, n_columns = _resolve_recording(
        circuit, options
    )
    recorder = _RecordingBuffer(
        (n_columns,), _record_capacity(options), record_indices
    )
    rescue = _StepRescue(assembly, options) if options.rescue else None
    budget = _RunBudget.for_options(options)
    size = circuit.size

    # Differential projection vector for the amplitude measurement.
    diff = np.zeros(size)
    for node, sign in zip(envelope.nodes, (1.0, -1.0)):
        idx = circuit.node_index(node)
        if idx >= 0:
            diff[idx] = sign

    model = envelope.model
    cyc = _CycleRing(spc, size, reactive)
    # Record rows that are skip landings (every other row is resolved).
    skipped_rows: List[int] = []
    segments: List[Dict[str, object]] = []
    skip_history: List[Dict[str, object]] = []
    resolved_cycles = 0.0
    skipped_cycles = 0

    def burst(x: np.ndarray, k0: int, n_steps: int) -> np.ndarray:
        """``n_steps`` carrier-resolved grid steps from global step
        ``k0`` through the plain engine's fixed-grid loop, feeding the
        cycle ring."""
        nonlocal resolved_cycles
        x, _ = _run_fixed(
            options,
            assembly,
            solver,
            x,
            recorder,
            certifier,
            rescue,
            budget,
            steps=range(k0 + 1, k0 + n_steps + 1),
            on_commit=cyc.push,
        )
        resolved_cycles += n_steps / spc
        if n_steps:
            segments.append(
                {
                    "kind": "resolved",
                    "t0": k0 * dt,
                    "t1": (k0 + n_steps) * dt,
                    "cycles": n_steps / spc,
                }
            )
        return x

    def jump(x: np.ndarray, scale: float, t_new: float) -> np.ndarray:
        """Rescale the full committed state about its cycle means by
        the predicted amplitude ratio and reseat it at ``t_new``; the
        integrator history and the Newton predictor restart there."""
        x_mean, v_mean, i_mean = cyc.means()
        x_new = x_mean + scale * (x - x_mean)
        reactive.reseat(
            v_mean + scale * (reactive.v - v_mean),
            i_mean + scale * (reactive.i - i_mean),
            t_new,
        )
        cyc.reset()
        solver.note_commit(t_new, x_new, restart=True)
        return x_new

    # -- main loop ---------------------------------------------------------
    recorder.append(0.0, x)
    solver.note_commit(0.0, x)

    warm = envelope.warm_start
    warm_status: Optional[str] = None
    warm_skip = 0
    warm_amp: Optional[float] = None
    skip_n = envelope.skip_initial
    if warm is not None:
        try:
            warm_skip = int(warm["skip"])  # type: ignore[index]
        except (KeyError, TypeError, ValueError):
            raise SimulationError(
                "warm_start must map 'skip' to an integer cycle count"
            ) from None
        warm_skip = max(envelope.skip_min, min(warm_skip, envelope.skip_max))
        amp = warm.get("amplitude") if hasattr(warm, "get") else None
        warm_amp = float(amp) if amp is not None else None  # type: ignore[arg-type]
        warm_status = "pending"

    k = 0
    amplitude = 0.0
    try:
        anchor = min(envelope.resolve_cycles * spc, total_steps)
        x = burst(x, k, anchor)
        k += anchor
        amplitude = cyc.amplitude(diff) if cyc.full else 0.0

        while k < total_steps:
            remaining_cycles = (total_steps - k) // spc
            budget_cycles = remaining_cycles - envelope.correct_cycles
            n_skip = min(skip_n, budget_cycles)
            # The neighbour's converged skip length only applies once this
            # run's envelope reaches the amplitude regime it converged in
            # (a settled-regime length trusted during startup would jump
            # straight through the transient); cap the trial at half the
            # budget so a rejection still has cycles left to re-anchor.
            warm_try = warm_status == "pending" and (
                warm_amp is None
                or abs(amplitude - warm_amp)
                <= 0.5 * max(abs(warm_amp), _AMPLITUDE_FLOOR)
            )
            if warm_try:
                n_skip = min(
                    max(n_skip, warm_skip),
                    budget_cycles,
                    max(envelope.skip_min, budget_cycles // 2),
                )
            if (
                n_skip < envelope.skip_min
                or not cyc.full
                or amplitude <= _AMPLITUDE_FLOOR
            ):
                # No room (or no measurable oscillation yet): resolve one
                # more cycle — or the ragged tail — and re-assess.
                n = min(spc, total_steps - k)
                x = burst(x, k, n)
                k += n
                amplitude = cyc.amplitude(diff) if cyc.full else 0.0
                continue

            # Predict, jump, land a provenance-tagged sample.
            a_pred = model.advance(amplitude, n_skip * period)
            t_new = (k + n_skip * spc) * dt
            segments.append(
                {
                    "kind": "skipped",
                    "t0": k * dt,
                    "t1": t_new,
                    "cycles": n_skip,
                }
            )
            x = jump(x, a_pred / amplitude, t_new)
            k += n_skip * spc
            skipped_cycles += n_skip
            skipped_rows.append(recorder.n)
            recorder.append(t_new, x)

            # Re-anchor: short resolved burst, then judge the predictor.
            n = envelope.correct_cycles * spc
            x = burst(x, k, n)
            k += n
            a_meas = cyc.amplitude(diff)
            a_ref = model.advance(a_pred, envelope.correct_cycles * period)
            mismatch = abs(a_meas - a_ref) / max(abs(a_ref), _AMPLITUDE_FLOOR)
            skip_history.append(
                {
                    "t": k * dt,
                    "skip": n_skip,
                    "mismatch": mismatch,
                    "amplitude": a_meas,
                }
            )
            if mismatch > envelope.tolerance:
                if warm_try:
                    # The neighbouring sample's skip length does not
                    # transfer: reject the warm start, back to cold.
                    warm_status = "rejected"
                    skip_n = envelope.skip_initial
                skip_n = max(
                    envelope.skip_min, int(skip_n * envelope.shrink)
                )
            else:
                if warm_try:
                    warm_status = "accepted"
                    skip_n = max(skip_n, n_skip)
                if mismatch < envelope.tolerance / 4.0:
                    skip_n = min(
                        envelope.skip_max,
                        max(skip_n + 1, int(skip_n * envelope.grow)),
                    )
            amplitude = a_meas
        run_stats: Dict[str, object] = {
            "steps": int(round(resolved_cycles * spc))
        }
    except _RunAbort as abort:
        # The loop counted the aborted burst's steps only.
        abort.stats["steps"] += int(round(resolved_cycles * spc))
        run_stats = abort.translate(options.on_abort)
    if rescue is not None:
        run_stats.update(rescue.stats())

    times, records = recorder.arrays()
    if certifier is not None:
        certifier.check_grid(times, options)
    provenance = ["resolved"] * recorder.n
    for row in skipped_rows:
        provenance[row] = "skipped"
    stats = _engine_stats(
        options, assembly, solver, certifier, preflight_diags, krylov_base
    )
    stats.update(run_stats)
    stats["envelope"] = {
        "skip": "on",
        "period": period,
        "steps_per_cycle": spc,
        "total_cycles": total_steps / spc,
        "resolved_cycles": resolved_cycles,
        "skipped_cycles": skipped_cycles,
        "segments": segments,
        "provenance": provenance,
        "skip_history": skip_history,
        "warm_start": warm_status,
        "final": {"skip": skip_n, "amplitude": amplitude},
    }
    return TransientResult(
        circuit=circuit,
        t=times,
        x=records,
        recorded_nodes=recorded_nodes,
        stats=stats,
    )
