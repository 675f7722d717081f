"""Transient analysis: the engine produces a time grid.

Historically this module baked a fixed step into every layer; it is
now structured around a step *controller*: the engine integrates from
0 to ``t_stop`` and the time grid is an output, uniform or not.  Two
step-control modes share every other part of the stack:

* ``TransientOptions(step_control="fixed")`` (default) — the classic
  fixed grid, ``t_k = k*dt``; bit-compatible with the seed engine and
  pinned to :func:`~repro.circuits.reference.run_transient_reference`
  by the golden tests.
* ``step_control="adaptive"`` — an LTE-based
  :class:`~repro.circuits.stepcontrol.StepController` proposes each
  step: each candidate is taken as two half steps whose local
  truncation error is estimated from committed history (a full-step
  probe solve only after a restart or a rejection), steps are
  accepted/rejected against
  ``lte_reltol``/``lte_abstol``, the step size walks a quantized
  ``dt_max/2^k`` grid between ``dt_min`` and ``dt_max`` with bounded
  growth, and source discontinuities (pulse edges, PWL corners) force
  exact step boundaries.  Stiff-then-slow runs — oscillator startup,
  supply-loss decay — take large steps through the slow phases that a
  fixed carrier-resolution grid pays for at every instant.

The integrator itself is pluggable (:mod:`~repro.circuits.
integration`): ``method`` accepts ``"trap"``/``"be"`` (the bit-pinned
one-step classics), ``"bdf2"``, and ``"gear"`` — variable-order BDF
with order control on the same LTE machinery (``order_control``,
``max_order``).  The BDF members are strongly damping at large
``omega*dt``, which is what lets them stride through stiff decays and
quiet tails that trapezoidal must keep resolving; the flip side is
numerical damping of *live* oscillatory content (a driven or growing
carrier sags by roughly Q times the per-step damping), so trap
remains the right default for carrier-resolved runs and the BDF tiers
are the tool for decay/tail-dominated scenarios.

Engine architecture (incremental stamping, dt-keyed)
----------------------------------------------------
This is the hot path behind the startup bench, the supply-loss
corners, and every Monte-Carlo / FMEA campaign, so the system is
assembled incrementally via :class:`~repro.circuits.assembly.
TransientAssembly`: linear matrix stamps once per *step size* (cached
per ``dt`` in a small LRU, so the controller's few quantized step
sizes never thrash refactorizations), the linear RHS once per step,
and only nonlinear devices per Newton iteration.  On top of the cache
the engine picks a solve strategy per run:

* ``linear`` — no nonlinear devices: one cached factorization per
  step size (:class:`~repro.circuits.linsolve.ReusableLU`) serves
  every step taken at that size.  On the dense backend below its LU
  threshold that factorization is an explicit inverse, and each step
  size's entry turns it into a propagator: the step is one matrix
  product of the state and the sources, whose extra rows are the
  state the commit installs
  (:meth:`~repro.circuits.assembly.TransientAssembly.linear_solve`).
* ``linear-restamp`` — linear circuit containing components outside
  the stamp split (possibly time-varying): fresh assembly and one
  undamped solve per step, never Newton iteration.
* ``rank1`` — exactly one :class:`~repro.circuits.controlled.
  NonlinearVCCS` (the Fig 1 oscillator): the Jacobian is the cached
  base matrix plus a rank-1 update, so each Newton iterate is a
  Sherman–Morrison formula around one cached factorization — the
  inner loop performs no matrix assembly and no LAPACK call.  Where
  the ``linear`` strategy has a propagator, so does this one: the
  linear part ``z_lin`` is the same one product, and a step that
  ends on the Sherman–Morrison line ``z_lin - c*w`` takes its
  committed state from the product moved along the matching column
  (EMTP's compensation split: Dommel, IEEE Trans. PAS-90, 1971).
* ``general`` — every other nonlinear netlist: full Newton; each
  iteration copies the cached parts and restamps only the nonlinear
  devices (``jacobian="full"`` forces it for any nonlinear netlist).

One fixed-grid loop (:func:`_run_fixed`) and one adaptive loop
(:func:`_run_adaptive`) drive this engine, the lockstep engine of
:mod:`~repro.circuits.batched` and the bursts of the envelope engine
of :mod:`~repro.circuits.envelope_transient`; they take the run's
assembly, solver, recorder, certifier, rescue ladder and budget as
parameters and branch only on what those offer, never on the caller.

Steps in blocks
---------------
Where a linear netlist's steps are propagator products (the dense
``linear`` strategy) and every per-step stamp is an independent
source's, both loops take their steps in *blocks*, SPICE2's bypass
(Nagel, UCB/ERL M520, 1975) applied to the step bookkeeping instead of
the devices.  The sources of every step in the block are stamped
first, the products run back to back (each the same matmul on the same
operands as a single step, so the same bits), and the adaptive loop
then estimates every candidate's LTE and error ratio at once and feeds
the ratios to the unchanged controller in order.  Only what the
single-step loop would have done is kept and counted: the accepted
prefix, and the estimate of the first rejected candidate.  An adaptive
block runs while dt and the order hold and ends at the first
rejection, dt or order change, exhausted budget, or before the
candidate that lands on a breakpoint (phase onsets and ``t_stop``
among them), which the single-step body takes, as it takes every
full-step probe.  A fixed-grid block ends at the order ramp's changes
and the budget.  Runs armed with ``guards``, ``certify``, ``rescue`` or
a Newton ``fail_hook``, and runs with an ``on_commit`` callback, take
blocks of one, the single-step body: their hooks read each step at its
own committed state.  Armed and unarmed runs are the same run, bit for
bit.

Results are recorded into a growable buffer that finalizes into a
:class:`TransientResult` with a (possibly non-uniform) ``t``; pass
``record_nodes`` to store only the node voltages a campaign actually
consumes.  Downstream analysis (:class:`~repro.analysis.waveform.
Waveform` calculus, measurements, envelope extraction) is correct on
non-uniform grids, so adaptive results flow through unchanged.

Waveform equivalence of the fixed-step mode with the pre-optimization
engine is pinned by the golden tests against :func:`~repro.circuits.
reference.run_transient_reference`; adaptive mode is validated at
shape level against fine fixed-step runs.
"""

from __future__ import annotations

import time as time_module

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.waveform import Waveform
from ..errors import ConvergenceError, NetlistError, SimulationError
from .assembly import TransientAssembly
from .backend import KrylovBackend, MatrixBackend, resolve_backend
from .component import Component
from .dcop import NewtonOptions, continuation_ladder, solve_dc
from .health import CONDITION_LIMIT, HealthReport, check_grid_invariants
from .integration import (
    KNOWN_METHODS,
    IntegrationMethod,
    resolve_method,
)
from .linsolve import NewtonPredictor, damp_voltage_delta, solve_dense
from .netlist import GROUND_NAMES, Circuit
from .preflight import PREFLIGHT_MODES, apply_preflight
from .sources import VoltageSource
from .stepcontrol import (
    LteHistory,
    Phase,
    PhaseSchedule,
    StepController,
    collect_breakpoints,
)

__all__ = ["TransientOptions", "TransientResult", "run_transient"]

#: Relative residual margin of the ``certify`` check, on top of the
#: Newton-tolerance floor an accepted iterate legitimately carries.
CERTIFY_RTOL = 1e-6


@dataclass
class TransientOptions:
    """Settings for :func:`run_transient`."""

    t_stop: float = 1e-3
    dt: float = 1e-6
    #: Integration method: "trap", "be", "bdf2", "gear", or a custom
    #: :class:`~repro.circuits.integration.IntegrationMethod` instance.
    method: object = "trap"
    #: Start from DC operating point (False: start from ICs / zeros).
    use_dc_operating_point: bool = True
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: Record every n-th step (1 = all).  In adaptive mode the stride
    #: counts *accepted* steps.
    record_stride: int = 1
    #: Node names to record (None = every unknown, including branch
    #: currents).  Campaigns that consume two traces stop paying for
    #: the full state vector.
    record_nodes: Optional[Sequence[str]] = None
    #: Jacobian strategy: "auto" takes the rank-1 Sherman–Morrison
    #: path for a netlist whose only full-stamp component is one
    #: NonlinearVCCS; "full" forces per-iteration assembly + solve.
    jacobian: str = "auto"
    #: Linear-algebra backend: "auto" picks dense below the unknown-
    #: count threshold of :mod:`~repro.circuits.backend` and sparse
    #: (CSR + splu) at or above it; "dense"/"sparse" (or a
    #: MatrixBackend instance) force the choice.
    backend: object = "auto"

    # -- integration-method knobs -------------------------------------------
    #: Variable-order methods only (``method="gear"``): whether the
    #: adaptive controller moves the target order up and down on the
    #: LTE machinery.  ``None`` means "on when the method spans more
    #: than one order"; fixed-order methods ignore it.
    order_control: Optional[bool] = None
    #: ``method="gear"`` only: highest BDF order the run may reach
    #: (1-3; default 2 — order 3 is stiffly stable but not A-stable,
    #: so it is an explicit opt-in for strongly damped problems).
    max_order: Optional[int] = None

    # -- step control ------------------------------------------------------
    #: "fixed" integrates on the uniform grid t_k = k*dt; "adaptive"
    #: lets a StepController pick each step by LTE, with ``dt`` as the
    #: initial step size.
    step_control: str = "fixed"
    #: Adaptive: smallest/largest step the controller may take.
    #: Defaults: ``dt/256`` and ``dt*16``.
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None
    #: Adaptive: LTE tolerance — a step is accepted when the estimated
    #: local error of the node voltages is below
    #: ``lte_abstol + lte_reltol * |x|_inf``.
    lte_reltol: float = 1e-3
    lte_abstol: float = 1e-6
    #: Adaptive: extra forced step boundaries (source discontinuities
    #: are collected automatically from the netlist).
    breakpoints: Optional[Sequence[float]] = None
    #: Adaptive: objects whose known event times become forced step
    #: boundaries too — anything exposing ``breakpoints(t_stop)``,
    #: e.g. an :class:`~repro.digital.events.EventScheduler`, a
    #: :class:`~repro.digital.watchdog.WatchdogTimer`, or a
    #: :class:`~repro.digital.por.PowerOnReset`; mixed-signal
    #: scenarios run adaptively without hand-listing event times.
    #: A fixed grid cannot land on them and rejects them.
    breakpoint_sources: Optional[Sequence[object]] = None
    #: Adaptive: per-phase method switching.  A
    #: :class:`~repro.circuits.stepcontrol.PhaseSchedule` partitions
    #: the run at stimulus breakpoints into carrier-resolved phases
    #: (trap, fine dt) and decay/settle phases (Gear, coarse dt); each
    #: phase onset is a forced step boundary at which the engine
    #: performs a live ``set_method`` switch with controller rebind
    #: and history reset/bootstrap.  The first phase's method
    #: overrides ``method`` for the whole run's assembly.
    phases: Optional[PhaseSchedule] = None

    # -- fault tolerance ----------------------------------------------------
    #: Per-step Newton rescue ladder.  When a step's Newton fails (on
    #: the fixed grid: immediately; on the adaptive grid: after step
    #: shrinking has reached ``dt_min``), the engine escalates through
    #: a per-step gmin ramp and then a residual ("source-ramp")
    #: continuation before giving up — the transient analogue of the
    #: DC solver's homotopy fallbacks.  Off by default so the seed
    #: contract (raise on first hard failure) is opt-out; the healthy
    #: path is bit-identical either way because rescue only ever
    #: engages *after* a ConvergenceError.
    rescue: bool = False
    #: Budget: rescued steps allowed per run before aborting.
    max_rescues: int = 8
    #: Budgets: cap on attempted steps (fixed: grid steps; adaptive:
    #: proposed candidates) and wall-clock seconds.  None = unlimited.
    max_steps: Optional[int] = None
    max_wall_time: Optional[float] = None
    #: What to do when the run cannot continue — Newton dead at the
    #: dt floor after any rescue, adaptive LTE underflow, or an
    #: exhausted budget.  "raise" propagates the error (the seed
    #: behaviour); "partial" returns the waveform integrated so far
    #: with ``stats["abort_reason"]`` and ``stats["t_abort"]`` set.
    on_abort: str = "raise"
    #: Batched lockstep engine only: mask a sample whose Newton
    #: exhausts escalation out of the batch (state frozen, flagged in
    #: its stats) so the remaining samples finish, instead of one
    #: pathological sample killing the whole campaign.
    quarantine: bool = False

    # -- numerical health ---------------------------------------------------
    #: Preflight netlist lint before any stamping: "off" (default),
    #: "warn" (one PreflightWarning per finding), or "raise" (abort
    #: on error-severity findings with PreflightError).  Findings land
    #: in ``stats["preflight"]`` either way.
    preflight: str = "off"
    #: Runtime NaN/Inf + conditioning guards.  A non-finite step
    #: solution raises a ``phase="health"`` ConvergenceError — routed
    #: through the rescue ladder / quarantine machinery like any other
    #: Newton death — and each cached factorization gets a one-time
    #: 1-norm condition estimate against
    #: :data:`~repro.circuits.health.CONDITION_LIMIT` (violations
    #: become warning HealthReports).  Guards only *read* solver
    #: state, so healthy armed runs are bit-identical to unarmed runs.
    guards: bool = False
    #: Post-step certification: recompute each accepted step's
    #: residual ||F(x)|| (relative margin :data:`CERTIFY_RTOL`),
    #: spot-check reactive charge/flux consistency after commit, and
    #: enforce time-grid invariants at the end of the run.  Violations
    #: become HealthReport entries in ``stats["health"]``.  Pure
    #: recomputation — never mutates the accepted solution — so armed
    #: healthy runs stay bit-identical.
    certify: bool = False

    def __post_init__(self) -> None:
        if self.t_stop <= 0 or self.dt <= 0:
            raise SimulationError("t_stop and dt must be positive")
        if self.dt >= self.t_stop:
            raise SimulationError("dt must be smaller than t_stop")
        if (
            not isinstance(self.method, IntegrationMethod)
            and self.method not in KNOWN_METHODS
        ):
            raise SimulationError(f"unknown method {self.method!r}")
        if self.max_order is not None:
            if self.method != "gear":
                raise SimulationError(
                    "max_order applies to method='gear' only"
                )
            if not 1 <= self.max_order <= 3:
                raise SimulationError("max_order must be 1..3")
        if self.record_stride < 1:
            raise SimulationError("record_stride must be >= 1")
        if self.jacobian not in ("auto", "full"):
            raise SimulationError(f"unknown jacobian mode {self.jacobian!r}")
        if not isinstance(self.backend, MatrixBackend) and self.backend not in (
            "auto",
            "dense",
            "sparse",
            "krylov",
        ):
            raise SimulationError(f"unknown backend {self.backend!r}")
        if self.step_control not in ("fixed", "adaptive"):
            raise SimulationError(
                f"unknown step_control mode {self.step_control!r}"
            )
        if self.dt_min is not None and self.dt_min <= 0:
            raise SimulationError("dt_min must be positive")
        if self.dt_max is not None and self.dt_max <= 0:
            raise SimulationError("dt_max must be positive")
        if (
            self.dt_min is not None
            and self.dt_max is not None
            and self.dt_min > self.dt_max
        ):
            raise SimulationError("dt_min must not exceed dt_max")
        if self.lte_reltol <= 0 or self.lte_abstol <= 0:
            raise SimulationError("lte_reltol and lte_abstol must be positive")
        if self.phases is not None:
            if not isinstance(self.phases, PhaseSchedule):
                raise SimulationError(
                    "phases must be a PhaseSchedule instance"
                )
            if self.step_control != "adaptive":
                raise SimulationError(
                    "phases requires step_control='adaptive' (phase "
                    "boundaries are forced adaptive step boundaries)"
                )
        if self.breakpoint_sources is not None and self.step_control != "adaptive":
            raise SimulationError(
                "breakpoint_sources requires step_control='adaptive' (their "
                "event times are forced adaptive step boundaries)"
            )
        if self.on_abort not in ("raise", "partial"):
            raise SimulationError(
                f"on_abort must be 'raise' or 'partial', got {self.on_abort!r}"
            )
        if self.max_rescues < 0:
            raise SimulationError("max_rescues must be >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise SimulationError("max_steps must be >= 1 (or None)")
        if self.max_wall_time is not None and self.max_wall_time <= 0:
            raise SimulationError("max_wall_time must be positive (or None)")
        if self.preflight not in PREFLIGHT_MODES:
            raise SimulationError(
                f"preflight must be one of {PREFLIGHT_MODES}, "
                f"got {self.preflight!r}"
            )

    def resolved_dt_min(self) -> float:
        return self.dt_min if self.dt_min is not None else self.dt / 256.0

    def resolved_dt_max(self) -> float:
        return self.dt_max if self.dt_max is not None else self.dt * 16.0

    def resolved_method(self) -> IntegrationMethod:
        """The integration-method instance this run starts with.

        With a :class:`~repro.circuits.stepcontrol.PhaseSchedule` the
        first phase decides (later phases switch the live assembly).
        """
        if self.phases is not None:
            return self.phases.initial_phase.resolved_method()
        return resolve_method(self.method, max_order=self.max_order)

    def resolved_order_control(self, method: IntegrationMethod) -> bool:
        if self.order_control is None:
            return method.max_order > method.min_order
        return bool(self.order_control)


@dataclass
class TransientResult:
    """Recorded node voltages (and branch currents) over time.

    ``t`` is uniform in fixed-step mode and non-uniform in adaptive
    mode; every consumer downstream (Waveform calculus, measurements,
    envelope extraction) handles both.  With ``record_nodes`` the
    column space shrinks to the requested node voltages; asking for
    anything that was not recorded raises
    :class:`~repro.errors.SimulationError` rather than guessing.
    """

    circuit: Circuit
    t: np.ndarray
    x: np.ndarray  # shape (n_samples, n_recorded_columns)
    #: Column names when a ``record_nodes`` subset was recorded.
    recorded_nodes: Optional[Tuple[str, ...]] = None
    #: Engine diagnostics: strategy, Newton iteration totals, LU
    #: refactorization count, accepted/rejected step counts (adaptive).
    stats: Dict[str, object] = field(default_factory=dict)

    def _column(self, node: str) -> Optional[int]:
        """Recorded column for a node; None means ground (zero trace)."""
        if node in GROUND_NAMES:
            return None
        if self.recorded_nodes is not None:
            try:
                return self.recorded_nodes.index(node)
            except ValueError:
                raise SimulationError(
                    f"node {node!r} was not recorded; record_nodes="
                    f"{list(self.recorded_nodes)}"
                ) from None
        try:
            idx = self.circuit.node_index(node)
        except NetlistError:
            raise SimulationError(
                f"unknown node {node!r}; known nodes: "
                f"{list(self.circuit.node_names)}"
            ) from None
        return idx if idx >= 0 else None

    def waveform(self, node: str) -> Waveform:
        column = self._column(node)
        if column is None:
            y = np.zeros_like(self.t)
        else:
            y = self.x[:, column]
        return Waveform(self.t, y, name=node)

    def differential(self, node_p: str, node_n: str) -> Waveform:
        wp = self.waveform(node_p)
        wn = self.waveform(node_n)
        return Waveform(self.t, wp.y - wn.y, name=f"{node_p}-{node_n}")

    def branch_current(self, component_name: str) -> Waveform:
        component = self.circuit[component_name]
        branches = component.branch_indices
        if not branches:
            raise SimulationError(f"{component_name} has no branch current")
        if self.recorded_nodes is not None:
            raise SimulationError(
                "branch currents are not available when record_nodes "
                "restricts recording to node voltages"
            )
        return Waveform(self.t, self.x[:, branches[0]], name=f"i({component_name})")


class _RecordingBuffer:
    """Growable ``(t, x)`` recording that finalizes into result arrays.

    Every engine records through it: each row is one ``row_shape``
    array — an ``(n_columns,)`` state per sample, or the lockstep
    engine's ``(S, n_columns)`` stack — and ``record_indices`` gathers
    the recorded columns along the last axis.  Fixed-step runs
    preallocate their exact record count and never grow; adaptive runs
    start from a capacity guess and double as accepted steps
    accumulate, so recording stays amortized O(1) per step with no
    per-step Python list overhead.
    """

    def __init__(
        self,
        row_shape: Tuple[int, ...],
        capacity: int,
        record_indices: Optional[np.ndarray],
    ):
        capacity = max(int(capacity), 4)
        self._t = np.empty(capacity)
        self._x = np.empty((capacity,) + tuple(row_shape))
        self._indices = record_indices
        #: Rows recorded so far.
        self.n = 0

    def _reserve(self, end: int) -> None:
        """Double the capacity until ``end`` rows fit."""
        capacity = self._t.size
        if end <= capacity:
            return
        while capacity < end:
            capacity *= 2
        self._t = np.concatenate([self._t, np.empty(capacity - self._t.size)])
        grown = np.empty((capacity,) + self._x.shape[1:])
        grown[: self.n] = self._x[: self.n]
        self._x = grown

    def append(self, time: float, x: np.ndarray) -> None:
        if self.n == self._t.size:
            self._reserve(self.n + 1)
        if self._indices is not None:
            # ``x[idx]`` is numpy's fastest gather for one row, ``take``
            # for a stacked one.
            x = x[self._indices] if x.ndim == 1 else x.take(self._indices, axis=-1)
        self._t[self.n] = time
        self._x[self.n] = x
        self.n += 1

    def extend(self, times: Sequence[float], xs: np.ndarray) -> None:
        """:meth:`append` of one state per time, as one slice (single
        states only)."""
        end = self.n + len(times)
        self._reserve(end)
        if self._indices is not None:
            xs = xs[:, self._indices]
        self._t[self.n : end] = times
        self._x[self.n : end] = xs
        self.n = end

    def arrays(self, copy_x: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """The recorded ``(t, x)``: the buffers themselves when full,
        trimmed copies otherwise — or, with ``copy_x=False``, a trimmed
        view of ``x`` for a caller that copies its slices anyway."""
        n = self.n
        if n == self._t.size:
            return self._t, self._x
        return self._t[:n].copy(), self._x[:n].copy() if copy_x else self._x[:n]


def _record_capacity(options: TransientOptions) -> int:
    """Initial recording capacity of a run: exact on a fixed grid; on
    an adaptive one the run at its initial step size (the buffer
    doubles if the controller ends up taking smaller steps)."""
    if options.step_control == "fixed":
        return _fixed_record_count(options)
    return int(options.t_stop / options.dt) // options.record_stride + 2


def _voltage_tol(x: np.ndarray, n_nodes: int, options: NewtonOptions) -> float:
    return options.abstol_v + options.reltol * float(np.abs(x[:n_nodes]).max())


class _RunAbort(Exception):
    """Internal control flow: the run cannot continue.

    Carries the machine-readable reason, the underlying error (when
    the abort was a solver failure rather than a budget), and the
    loop's partial stats.  Every engine translates it per
    ``options.on_abort`` with :meth:`translate`: re-raise the real
    error, or finalize the recording made so far into a partial result.
    """

    def __init__(
        self,
        reason: str,
        error: Optional[BaseException] = None,
        stats: Optional[Dict[str, object]] = None,
    ):
        super().__init__(reason)
        self.reason = reason
        self.error = error
        self.stats = stats or {}

    def translate(self, on_abort: str) -> Dict[str, object]:
        """Re-raise (``on_abort="raise"``), or the partial run's stats
        with ``abort_reason``, ``completed=False`` and ``abort_error``."""
        if on_abort == "raise":
            if self.error is not None:
                raise self.error
            raise SimulationError(
                f"transient aborted: {self.reason} budget exhausted at "
                f"t={self.stats.get('t_abort', 0.0):.4e}"
            )
        stats = dict(self.stats)
        stats["abort_reason"] = self.reason
        stats["completed"] = False
        if self.error is not None:
            stats["abort_error"] = str(self.error)
        return stats


class _RunBudget:
    """Step / wall-clock budget charged once per attempted step.

    Only constructed when a limit is actually set, so budget-free runs
    pay nothing; the wall clock is read only when a deadline exists.
    """

    __slots__ = ("max_steps", "deadline", "steps")

    def __init__(self, options: TransientOptions):
        self.max_steps = options.max_steps
        self.deadline = (
            time_module.monotonic() + options.max_wall_time
            if options.max_wall_time is not None
            else None
        )
        self.steps = 0

    @classmethod
    def for_options(cls, options: TransientOptions) -> Optional["_RunBudget"]:
        if options.max_steps is None and options.max_wall_time is None:
            return None
        return cls(options)

    def charge(self) -> Optional[str]:
        """Account one attempted step; the exhausted budget's name or None."""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            return "max_steps"
        if self.deadline is not None and time_module.monotonic() > self.deadline:
            return "max_wall_time"
        return None


#: Rescue stage 1's extra node-to-ground conductances, descending.
RESCUE_GMIN_LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10)
#: Rescue stage 2's residual-continuation waypoints.
RESCUE_RAMP_STEPS = 8


class _StepRescue:
    """Per-step Newton rescue ladder: gmin ramp, then residual ramp.

    The transient analogue of ``solve_dc``'s homotopy fallbacks,
    applied to *one step's* companion-model equations after plain
    Newton (every fast path plus its own fallbacks) has failed:

    1. **Gmin ramp** — damped Newton with a large extra conductance
       from every node to ground, tightened rung by rung down
       :data:`RESCUE_GMIN_LADDER` (each rung warm-starting the next) and
       finishing at the nominal gmin, which *is* the true step system.
    2. **Residual ("source-ramp") continuation** — solve
       ``F(x) - (1 - lam) * F(x_prev) = 0`` along a ``lam`` ladder
       from near 0 to 1.  At small ``lam`` the previous state is
       almost a solution by construction; at ``lam = 1`` the offset
       vanishes and the true step system is recovered.  Since the
       step residual at ``x_prev`` is dominated by the stimulus and
       companion-source change over the step, this ramps the step's
       forcing in gradually — source stepping without needing a
       per-component scale hook.

    Both ladders share :func:`~repro.circuits.dcop.continuation_ladder`
    with the DC solver.  All solves are damped dense Newton against
    :meth:`~repro.circuits.assembly.TransientAssembly.assemble_dense`
    — rescue is rare by construction, so generality beats speed here,
    and none of this code runs (or allocates) on a healthy step.
    """

    def __init__(self, assembly: TransientAssembly, options: TransientOptions):
        self.assembly = assembly
        self.newton = options.newton
        self.rescues = 0
        self.by_stage: Dict[str, int] = {}

    def stats(self) -> Dict[str, object]:
        return {"rescues": self.rescues, "rescue_stages": dict(self.by_stage)}

    # -- one damped dense Newton solve ------------------------------------

    def _solve(
        self,
        x0: np.ndarray,
        rhs_lin: np.ndarray,
        time: float,
        extra_gmin: float = 0.0,
        rhs_offset: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        options = self.newton
        assembly = self.assembly
        n_nodes = assembly.n_nodes
        x = x0.copy()
        last_delta = np.inf
        for iteration in range(options.max_iterations):
            G, rhs = assembly.assemble_dense(x, rhs_lin, time, extra_gmin=extra_gmin)
            if rhs_offset is not None:
                rhs = rhs + rhs_offset
            x_new = solve_dense(G, rhs)
            delta, last_delta = damp_voltage_delta(
                x_new - x, n_nodes, options.max_step
            )
            x = x + delta
            if last_delta < _voltage_tol(x, n_nodes, options):
                return x, iteration + 1
        raise ConvergenceError(
            f"rescue Newton failed at t={time:.4e}",
            iterations=options.max_iterations,
            residual=last_delta,
            time=time,
            dt=assembly.dt,
            phase="rescue",
        )

    def _residual(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        G, rhs = self.assembly.assemble_dense(x, rhs_lin, time)
        return G.dot(x) - rhs

    # -- the ladder -------------------------------------------------------

    def rescue(self, x_prev: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        """Solve one step's equations that plain Newton gave up on.

        Returns the converged solution of the *unmodified* step system
        (both ladders end at the nominal equations); raises the last
        stage's :class:`~repro.errors.ConvergenceError` when every
        ladder fails.
        """
        hook = self.newton.fail_hook
        if hook is not None and hook(time, "rescue", self.assembly.circuit):
            raise ConvergenceError(
                f"injected rescue failure at t={time:.4e}",
                time=time,
                dt=self.assembly.dt,
                phase="rescue",
            )
        self.rescues += 1
        try:
            x, _ = continuation_ladder(
                lambda gmin, xw: self._solve(xw, rhs_lin, time, extra_gmin=gmin),
                RESCUE_GMIN_LADDER + (0.0,),
                x_prev,
            )
            self.by_stage["gmin_ramp"] = self.by_stage.get("gmin_ramp", 0) + 1
            return x
        except ConvergenceError:
            pass
        f0 = self._residual(x_prev, rhs_lin, time)
        m = RESCUE_RAMP_STEPS
        x, _ = continuation_ladder(
            lambda lam, xw: self._solve(
                xw, rhs_lin, time, rhs_offset=(1.0 - lam) * f0
            ),
            [k / m for k in range(1, m + 1)],
            x_prev,
        )
        self.by_stage["source_ramp"] = self.by_stage.get("source_ramp", 0) + 1
        return x


class _Certifier:
    """Post-step certification: recompute what the solver claimed.

    ``check_step`` re-assembles the accepted step's *dense* system at
    the converged iterate and certifies ``||G x - rhs||_inf`` against
    a threshold that allows what an accepted Newton iterate
    legitimately carries (``~||G||_inf`` times the voltage tolerance)
    plus a relative :data:`CERTIFY_RTOL` margin; ``check_state`` verifies
    the committed reactive charge/flux state is finite and consistent
    with the committed node voltages / branch currents.  Violations
    become :class:`~repro.circuits.health.HealthReport` entries —
    certification only ever *reads*, so the accepted waveform is
    bit-identical with or without it.
    """

    def __init__(
        self,
        assembly: TransientAssembly,
        options: TransientOptions,
        health: list,
    ):
        self.assembly = assembly
        self.newton = options.newton
        self.health = health
        self.checked = 0

    def check_step(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> None:
        """Certify the residual of the (pre-commit) accepted step."""
        self.checked += 1
        assembly = self.assembly
        G, rhs = assembly.assemble_dense(x, rhs_lin, time)
        gx = G.dot(x)
        residual = float(np.abs(gx - rhs).max()) if gx.size else 0.0
        n = assembly.n_nodes
        x_v = x[:n]
        tol_v = self.newton.abstol_v + self.newton.reltol * (
            float(np.abs(x_v).max()) if x_v.size else 0.0
        )
        norm_g = float(np.abs(G).sum(axis=1).max()) if G.size else 0.0
        scale = max(float(np.abs(gx).max()), float(np.abs(rhs).max()), 1e-30)
        threshold = 10.0 * norm_g * tol_v + CERTIFY_RTOL * scale
        if not np.isfinite(residual) or residual > threshold:
            self.health.append(
                HealthReport(
                    "residual",
                    f"accepted-step residual {residual:.3e} exceeds the "
                    f"certification threshold {threshold:.3e} at "
                    f"t={time:.4e}",
                    time=time,
                    value=residual,
                )
            )

    def check_state(self, x: np.ndarray, time: float) -> None:
        """Charge/flux spot-check of the committed reactive state."""
        reactive = self.assembly.reactive
        nonfinite, charge, flux = reactive.state_faults(x)
        value = None
        if nonfinite:
            why = "non-finite reactive integrator state"
        elif charge:
            why = "reactive charge state disagrees with committed node voltages"
        elif flux:
            why = "inductor flux state disagrees with committed branch currents"
            value = float(np.abs(reactive.i[reactive.n_caps :] - x[reactive.br_idx]).max())
        else:
            return
        self.health.append(
            HealthReport("state", f"{why} at t={time:.4e}", time=time, value=value)
        )

    def check_grid(
        self, times: np.ndarray, options: TransientOptions
    ) -> None:
        """Time-grid invariants of the finished recording."""
        check_grid_invariants(times, options.t_stop, self.health)


class _StepSolver:
    """Per-run solver state shared across steps (caches, statistics).

    All ``(dt, method)``-dependent solve data (base matrix, cached
    factorization, rank-1 vectors) lives in the assembly's active
    per-``dt`` cache entry, so a step-size change by the adaptive
    controller transparently switches every strategy to the right
    cached factorization.

    A single sample is never quarantined or frozen; the shared time
    loops read these two class attributes where the lockstep solver
    keeps live masks.
    """

    quarantine_enabled = False
    freeze = None

    def __init__(
        self,
        assembly: TransientAssembly,
        options: NewtonOptions,
        jacobian: str,
        guards: bool = False,
        health: Optional[list] = None,
    ):
        self.assembly = assembly
        self.options = options
        self.n_nodes = assembly.n_nodes
        self.newton_iterations = 0
        #: Solves of the MNA system (cached-LU or fully stamped), for
        #: every strategy; a linear run takes one per step.
        self.solves = 0
        self.guards = guards
        self.health = health if health is not None else []
        self._cond_checked: set = set()
        self._condest_skip_noted = False

        device = assembly.rank1_device()
        if assembly.is_linear:
            self.strategy = "linear"
        elif not assembly.circuit.has_nonlinear():
            # Linear circuit containing components that did not opt
            # into the stamp split (their stamps may vary with time):
            # one fresh assembly and one undamped solve per step, the
            # seed engine's exact linear behaviour.
            self.strategy = "linear-restamp"
        elif device is not None and jacobian == "auto":
            self.strategy = "rank1"
            self._device = device
            _op, _on, self._cp, self._cn = device._n
        else:
            self.strategy = "general"
        #: Where each rank-1 Newton step starts (``None`` for every
        #: other strategy); the time loops feed it their commits.
        self.predictor = NewtonPredictor() if self.strategy == "rank1" else None

    def _ctrl_diff(self, vec: np.ndarray) -> float:
        cp, cn = self._cp, self._cn
        value = vec[cp] if cp >= 0 else 0.0
        if cn >= 0:
            value = value - vec[cn]
        return float(value)

    def note_commit(self, time: float, x: np.ndarray, restart: bool = False) -> None:
        """Feed an accepted point to the Newton predictor.  ``restart``
        first drops its history, where the integrator history restarts
        too: a crossed breakpoint (every phase switch lands on one) or
        an envelope jump.  A run starts with an empty predictor."""
        predictor = self.predictor
        if predictor is not None:
            if restart:
                predictor.reset()
            predictor.push(time, self._ctrl_diff(x))

    def _full_solve(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        """One fully-stamped linearized solve at iterate ``x``.

        Dense backend: copy the cached parts, restamp the full-stamp
        components, one dense solve (the historical path, bit-pinned;
        :meth:`~repro.circuits.assembly.TransientAssembly.assemble_dense`,
        which adds back the companion part a propagated step's
        ``rhs_lin`` leaves out).
        Sparse and Krylov backends: the same equations via the
        assembly's low-rank Woodbury update around the cached per-dt
        solver (sparse LU, or the Krylov solver) — no refactorization.
        """
        self.solves += 1
        assembly = self.assembly
        if assembly.backend.is_dense:
            G, rhs = assembly.assemble_dense(x, rhs_lin, time)
            return solve_dense(G, rhs)
        return assembly.delta_solve(x, rhs_lin, time)

    @property
    def lu_refactorizations(self) -> int:
        return self.assembly.lu_factorizations

    # -- one time step ------------------------------------------------------

    def step(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        hook = self.options.fail_hook
        if hook is not None and hook(time, "step", self.assembly.circuit):
            raise self._fail(time, float("inf"))
        if self.guards:
            self._guard_conditioning(time)
        if self.strategy == "linear":
            # The active entry's propagator, or a cached-factorization
            # solve; either counts as the step's one solve.
            self.solves += 1
            x_new = self.assembly.linear_solve(rhs_lin)
        elif self.strategy == "linear-restamp":
            self.newton_iterations += 1
            x_new = self._full_solve(x, rhs_lin, time)
        elif self.strategy == "rank1":
            x_new = self._step_rank1(x, rhs_lin, time)
        else:
            x_new = self._step_general(x, rhs_lin, time)
        if self.guards and not np.isfinite(x_new).all():
            raise ConvergenceError(
                f"non-finite step solution at t={time:.4e}",
                time=time,
                dt=self.assembly.dt,
                phase="health",
            )
        return x_new

    def _guard_conditioning(self, time: float) -> None:
        """One-time condition estimate of each cached factorization.

        Only the strategies that already materialize the cached LU are
        checked — estimating conditioning must never *cause* a
        factorization the unarmed run would not perform.  Findings are
        warnings: the dense/sparse factorizations degrade gracefully
        (least-squares fallbacks), so an ill-conditioned scalar run is
        flagged, not killed.

        Backends with no direct factorization of the active matrix —
        the Krylov backend's solvers answer iteratively against a
        stale preconditioner — cannot provide an estimate; the guard
        degrades gracefully (NaN/Inf screening of every step stays
        armed) and records the skip once in ``stats["health"]``.
        """
        if self.strategy not in ("linear", "rank1"):
            return
        lu = self.assembly.lu()
        key = id(lu)
        if key in self._cond_checked:
            return
        self._cond_checked.add(key)
        condest = getattr(lu, "condest", None)
        if condest is None:
            if not self._condest_skip_noted:
                self._condest_skip_noted = True
                self.health.append(
                    HealthReport(
                        "condest_skipped",
                        "condition estimation skipped: backend "
                        f"{self.assembly.backend.name!r} keeps no direct "
                        "factorization of the active matrix; NaN/Inf "
                        "screening stays armed",
                        severity="info",
                        time=time,
                    )
                )
            return
        value = condest()
        if not np.isfinite(value) or value > CONDITION_LIMIT:
            self.health.append(
                HealthReport(
                    "ill_conditioned",
                    f"cached factorization condition estimate {value:.3e} "
                    f"exceeds limit {CONDITION_LIMIT:.1e} "
                    f"(first used at t={time:.4e})",
                    severity="warning",
                    time=time,
                    value=float(value),
                )
            )

    def _fail(self, time: float, residual: float) -> ConvergenceError:
        return ConvergenceError(
            f"transient Newton failed at t={time:.4e}",
            iterations=self.options.max_iterations,
            residual=residual,
            time=time,
            dt=self.assembly.dt,
            phase="step",
        )

    def _step_general(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        options = self.options
        last_delta = np.inf
        for _iteration in range(options.max_iterations):
            x_new = self._full_solve(x, rhs_lin, time)
            self.newton_iterations += 1
            delta, last_delta = damp_voltage_delta(
                x_new - x, self.n_nodes, options.max_step
            )
            x = x + delta
            if last_delta < _voltage_tol(x, self.n_nodes, options):
                return x
        raise self._fail(time, last_delta)

    def _step_rank1(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        """Sherman–Morrison Newton around the cached base factorization.

        The Jacobian is always ``G_base + gm*u@v.T``, so every Newton
        solve collapses to ``x_new = z_lin - q*w`` with cached vectors
        ``z_lin`` (once per step) and ``w`` (once per step size), and
        a scalar ``q`` from the device linearization.  Once an
        iterate lies exactly on that line, the remaining iterations —
        update, damping, convergence test — reduce to *scalar*
        arithmetic; the solution vector is materialized once at
        convergence.

        The step starts on the line, at the point whose control
        voltage is the predictor's quadratic extrapolation
        (``c = (zl_c - v_pred)/vw``), so Newton spends its first
        iteration confirming instead of moving.  It starts from ``x_n``
        instead while the predictor holds fewer than three points —
        after the run start, a crossed breakpoint, a phase switch or an
        envelope jump — and whenever the predicted control voltage is a
        damped move (``max_step`` or more along the line) away from
        ``x_n``'s, or on no point of the line at all (``vw = 0``).

        Where the step size's entry has a propagator, ``z_lin`` is its
        product and every return on the line is ``out - c*wout``
        (:meth:`~repro.circuits.assembly._ReactiveSet.slide`), whose
        state rows the commit installs; a step that ends off the line
        (damped, or through the dense fallback) gathers its commit.
        """
        options = self.options
        linearize = self._device.linearize
        assembly = self.assembly
        n = self.n_nodes
        max_step = options.max_step
        self.solves += 1
        z_lin = assembly.linear_solve(rhs_lin)
        w, vw, w_vmax, wout = assembly.rank1_data()
        slide = assembly.reactive.slide
        zl_c = self._ctrl_diff(z_lin)
        x_v = x[:n]
        tol = options.abstol_v + options.reltol * (
            float(np.abs(x_v).max()) if x_v.size else 0.0
        )
        v_ctrl = self._ctrl_diff(x)
        on_line = False  # is x exactly z_lin - c*w?
        c = 0.0
        v_pred = self.predictor.predict(time)
        if v_pred is not None and abs(v_pred - v_ctrl) * w_vmax < max_step * abs(vw):
            c = (zl_c - v_pred) / vw
            v_ctrl = zl_c - c * vw
            on_line = True
        last_delta = np.inf
        for _iteration in range(options.max_iterations):
            gm, i_eq = linearize(v_ctrl)
            denom = 1.0 + gm * vw
            self.newton_iterations += 1
            if abs(denom) < 1e-12:
                # Jacobian momentarily singular along the rank-1
                # direction; fall back to a dense solve.
                if on_line:
                    x = z_lin - c * w
                    on_line = False
                x_new = self._full_solve(x, rhs_lin, time)
                delta, last_delta = damp_voltage_delta(
                    x_new - x, n, options.max_step
                )
                x = x + delta
                v_ctrl = self._ctrl_diff(x)
                if last_delta < tol:
                    return x
                continue
            q = i_eq + gm * (zl_c - i_eq * vw) / denom
            if on_line:
                last_delta = abs(c - q) * w_vmax
                if last_delta > max_step:
                    c = c + (max_step / last_delta) * (q - c)
                    last_delta = max_step
                else:
                    c = q
                v_ctrl = zl_c - c * vw
                if last_delta < tol:
                    return z_lin - c * w if wout is None else slide(c, wout)
            else:
                x_new = z_lin - q * w
                delta, last_delta = damp_voltage_delta(x_new - x, n, max_step)
                if last_delta == max_step:  # damped: stays off the line
                    x = x + delta
                    v_ctrl = self._ctrl_diff(x)
                else:
                    x = x_new
                    on_line = True
                    c = q
                    v_ctrl = zl_c - c * vw
                if last_delta < tol:
                    if on_line and wout is not None:
                        return slide(c, wout)
                    return x
        raise self._fail(time, last_delta)


def _fixed_record_count(options: TransientOptions) -> int:
    """Records a fixed-grid run produces (initial sample included).

    Shared by the per-sample engine, the batched lockstep engine, and
    the shared-memory campaign streamer, whose preallocated block
    shape must agree with the engines' recording cadence exactly.
    """
    n_steps = int(round(options.t_stop / options.dt))
    return n_steps // options.record_stride + 1


def _resolve_recording(
    circuit: Circuit, options: TransientOptions
) -> Tuple[Optional[np.ndarray], Optional[Tuple[str, ...]], int]:
    """Validate ``record_nodes`` into gather indices and column count."""
    record_indices: Optional[np.ndarray] = None
    recorded_nodes: Optional[Tuple[str, ...]] = None
    if options.record_nodes is not None:
        recorded_nodes = tuple(options.record_nodes)
        indices = []
        for name in recorded_nodes:
            idx = circuit.node_index(name)  # unknown name -> NetlistError
            if idx < 0:
                raise SimulationError(
                    f"cannot record ground node {name!r}; it is 0 V by "
                    "definition"
                )
            indices.append(idx)
        record_indices = np.asarray(indices, dtype=np.intp)
    n_columns = circuit.size if record_indices is None else len(record_indices)
    return record_indices, recorded_nodes, n_columns


def _step_controller(
    options: TransientOptions,
    method: IntegrationMethod,
    dt_initial: float,
    breakpoints: Sequence[float] = (),
    order_control: bool = False,
) -> StepController:
    """The LTE step controller ``options`` configure, for every engine
    (and the lockstep stiffness probe)."""
    return StepController(
        t_stop=options.t_stop,
        dt_initial=dt_initial,
        dt_min=options.resolved_dt_min(),
        dt_max=options.resolved_dt_max(),
        method=method,
        reltol=options.lte_reltol,
        abstol=options.lte_abstol,
        breakpoints=breakpoints,
        order_control=order_control,
    )


#: Candidates of an adaptive block with no stretch to go by, doubling
#: while the stretch goes on, and the most candidates of any block.
_BLOCK_START = 8
_BLOCK_MAX = 64
#: Steps of a fixed-grid block (every one is kept).
_FIXED_BLOCK = 256


class _BlockLength:
    """How many candidates an adaptive run's next block takes.

    A stretch is a run of accepted candidates at one ``(dt, order,
    method)`` setup, ended by a rejection or a change of dt or order.
    Stretches recur: a driven carrier walks the same few step sizes in
    the same pattern every cycle, so the last stretch at a setup
    predicts the next one there.  A block is sized to take the
    predicted rest of its stretch and the candidate that ends it.  A
    stretch with no prediction goes on in blocks of
    :data:`_BLOCK_START` candidates, and one that outruns its
    prediction (mostly by a candidate or two) in blocks of two, each
    doubling up to :data:`_BLOCK_MAX`.  Candidates past a stretch's end
    are computed and dropped, so a good prediction is what keeps blocks
    cheap.
    """

    def __init__(self):
        self.lengths: Dict[tuple, int] = {}
        self.setup: Optional[tuple] = None
        self.run = 0
        self.grow = _BLOCK_START
        self.predicted = False

    def next(self, setup: tuple) -> int:
        """The length of a block starting at ``setup``."""
        if setup != self.setup:
            self.setup, self.run, self.grow = setup, 0, _BLOCK_START
        expected = self.lengths.get(setup)
        self.predicted = expected is not None and expected >= self.run
        if self.predicted:
            return min(expected - self.run + 1, _BLOCK_MAX)
        return self.grow

    def done(self, accepted: int, ended: bool) -> None:
        """Account a block that accepted ``accepted`` candidates and
        whether it ended its stretch."""
        self.run += accepted
        if ended:
            self.lengths[self.setup] = self.run
            self.setup = None
        elif self.predicted:
            self.grow = 2
        else:
            self.grow = min(2 * self.grow, _BLOCK_MAX)


def _takes_blocks(
    options: TransientOptions,
    assembly,
    solver,
    certifier,
    rescue,
) -> bool:
    """Whether a run takes its steps in blocks
    (:meth:`~repro.circuits.assembly.TransientAssembly.propagate_block`):
    the scalar ``linear`` strategy on an assembly whose steps can run
    as blocks, unarmed.  Runs with guards, certification, rescue or a
    Newton fail hook take blocks of one, the single-step body, whose
    hooks see each step at its own committed state."""
    return (
        solver.strategy == "linear"
        and assembly.blocks
        and not solver.guards
        and certifier is None
        and rescue is None
        and options.newton.fail_hook is None
    )


def _run_fixed(
    options: TransientOptions,
    assembly,
    solver,
    x: np.ndarray,
    recorder: _RecordingBuffer,
    certifier=None,
    rescue: Optional[_StepRescue] = None,
    budget: Optional[_RunBudget] = None,
    steps: Optional[range] = None,
    on_commit=None,
) -> Tuple[np.ndarray, Dict[str, object]]:
    """The classic uniform grid: t_k = k*dt, every step accepted.

    Serves every engine: ``x`` is one state, or the lockstep engine's
    ``(S, size)`` stack.  ``steps`` is the range of grid step numbers
    to take (default: the whole run); the envelope engine runs each
    burst as a sub-range with the same ``budget`` and ``rescue``, and
    ``on_commit(x)`` sees every committed step.  A step whose Newton
    fails quarantines the failed samples and is retried with the
    survivors (a quarantining solver), climbs the ``rescue`` ladder,
    or ends the run.

    Multistep methods ramp their order with the committed history
    (the Gear startup policy: first step at order 1, and so on), so
    the same loop serves trap/BE and BDF/Gear; the one-step path
    stays free of any order bookkeeping.

    A run that takes blocks (:func:`_takes_blocks`, and no
    ``on_commit``) steps up to :data:`_FIXED_BLOCK` grid steps at a
    time while the order holds, charging the budget per step and
    writing the recorded steps as one slice.

    The caller records the initial point (and feeds it to the solver's
    predictor) first.  Returns the final iterate and the loop's stats.
    """
    dt = options.dt
    if steps is None:
        steps = range(1, int(round(options.t_stop / dt)) + 1)
    stride = options.record_stride
    method = assembly.method
    multistep = method.is_multistep
    target = method.max_order
    order_histogram: Dict[int, int] = {}

    def loop_stats(step: int) -> Dict[str, object]:
        stats: Dict[str, object] = {"steps": step - steps.start}
        if multistep:
            stats["order_histogram"] = order_histogram
        return stats

    def abort(reason: str, step: int, error=None) -> _RunAbort:
        stats = loop_stats(step)
        stats["t_abort"] = (step - 1) * dt
        return _RunAbort(reason, error=error, stats=stats)

    blocks = on_commit is None and _takes_blocks(
        options, assembly, solver, certifier, rescue
    )

    def take_block(step: int, order: Optional[int]) -> Tuple[np.ndarray, int]:
        # The steps from ``step`` on (whose budget is charged), up to
        # _FIXED_BLOCK of them while the order holds, as one block:
        # every step in one pass, the recorded ones written as one
        # slice.  Returns the last committed iterate and the steps.
        n = min(_FIXED_BLOCK, steps.stop - step)
        if multistep:  # up to the step the startup ramp lifts the order at
            for j in range(1, n):
                points = assembly.history_points_after(j)
                if method.usable_order(target, points) != order:
                    n = j
                    break
        exhausted = None
        if budget is not None:
            for j in range(1, n):
                exhausted = budget.charge()
                if exhausted is not None:
                    n = j
                    break
        times = [k * dt for k in range(step, step + n)]
        xs = assembly.propagate_block(times)[:, : assembly.size]
        solver.solves += n
        assembly.commit_block(n - 1)
        if multistep:
            order_histogram[order] = order_histogram.get(order, 0) + n
        first = -step % stride
        recorder.extend(times[first::stride], xs[first::stride])
        if exhausted is not None:
            raise abort(exhausted, step + n)
        return xs[n - 1].copy(), n

    step = steps.start
    while step < steps.stop:
        time = step * dt
        if budget is not None:
            exhausted = budget.charge()
            if exhausted is not None:
                raise abort(exhausted, step)
        order = None
        if multistep:
            order = method.usable_order(target, assembly.history_points)
            if order != assembly.order:
                assembly.set_dt(dt, order=order)
        if blocks and assembly.propagated:
            x, taken = take_block(step, order)
            step += taken
            continue
        if multistep:
            order_histogram[order] = order_histogram.get(order, 0) + 1
        rhs_lin = assembly.step_rhs(time, x)
        while True:
            try:
                x = solver.step(x, rhs_lin, time)
                break
            except ConvergenceError as exc:
                health_failure = getattr(exc, "phase", None) == "health"
                failed = getattr(exc, "failed_samples", None)
                if solver.quarantine_enabled and failed:
                    solver.quarantine(
                        failed, time, "health" if health_failure else "newton"
                    )
                    if solver.quarantined.all():
                        raise abort("all_quarantined", step, exc)
                    continue  # retry the same step with the survivors only
                if rescue is None:
                    if health_failure:
                        raise abort("health", step, exc)
                    raise
                if rescue.rescues >= options.max_rescues:
                    raise abort("max_rescues", step, exc)
                try:
                    x = rescue.rescue(x, rhs_lin, time)
                except ConvergenceError as rescue_exc:
                    raise abort(
                        "health" if health_failure else "newton", step, rescue_exc
                    )
                break
        if certifier is not None:
            certifier.check_step(x, rhs_lin, time)
        assembly.commit(x, time)
        solver.note_commit(time, x)
        if certifier is not None:
            certifier.check_state(x, time)
        if on_commit is not None:
            on_commit(x)
        if step % stride == 0:
            recorder.append(time, x)
        step += 1
    return x, loop_stats(steps.stop)


def _apply_phase(
    assembly: TransientAssembly,
    controller: StepController,
    phase: Phase,
) -> None:
    """Perform one live phase switch at an exact phase boundary.

    Switches the assembly's integration method (with a history
    bootstrap when the phase asks for one and the target is
    multistep), then rebinds the controller so LTE order, order
    targets, and streak state start fresh for the new phase.  When
    the history was bootstrapped the controller's target order seeds
    at the assembly's post-bootstrap order — full order immediately,
    no startup ramp.
    """
    new_method = phase.resolved_method()
    dt_hint = phase.dt if phase.dt is not None else controller.dt
    bootstrap_dt = (
        float(dt_hint)
        if phase.bootstrap and new_method.is_multistep
        else None
    )
    assembly.set_method(new_method, bootstrap_dt=bootstrap_dt)
    controller.rebind_method(
        new_method,
        dt=phase.dt,
        order=assembly.order if bootstrap_dt is not None else None,
    )


def _state_columns(assembly) -> np.ndarray:
    """0/1 mask of the node voltages the history LTE estimate reads.

    Those are the nodes of every component with integrator state
    (capacitors, inductors, generic reactive components), less the
    nodes an independent voltage source pins to ground: the engine
    reproduces a pinned node's stimulus exactly, and its curvature is
    no integration error.  Nonlinear device terminals count, pinned or
    not: a device that switches inside a step (a rectifier's charging
    pulse) leaves state error that the states' own history can miss,
    so the estimate keeps the device's drive resolved.

    Plain capacitors and inductors come from the assembly's
    :class:`~repro.circuits.elements.PlainElements` arrays, so only the
    generic and full-stamp components are visited one by one.  Lockstep
    batches share one topology, so sample 0's elements and device
    serve the batch.
    """
    plains = getattr(assembly, "plains", None)
    if plains is None:
        plain, full = assembly.plain, assembly.full
    else:
        plain = plains[0]
        full = [] if assembly.device is None else assembly.device.devices[:1]
    size = assembly.size
    reactive = [plain.c_nodes.ravel(), plain.l_nodes.ravel()]
    pinned: List[int] = []
    devices: List[int] = []
    stateless = Component.init_state
    for component in chain(plain.generic, full):
        if isinstance(component, VoltageSource):
            p, n = component._n
            if min(p, n) < 0:
                pinned.append(max(p, n))
        elif component.is_nonlinear():
            devices += component._n
        elif type(component).init_state is not stateless:
            reactive.append(np.asarray(component._n, dtype=np.intp))
    columns = np.zeros(size + 1)  # the extra slot absorbs ground (-1)
    columns[np.concatenate(reactive)] = 1.0
    columns[pinned] = 0.0
    columns[devices] = 1.0
    return columns[:size]


def _run_adaptive(
    circuits: Sequence[Circuit],
    options: TransientOptions,
    assembly,
    solver,
    x: np.ndarray,
    recorder: _RecordingBuffer,
    certifier=None,
    rescue: Optional[_StepRescue] = None,
    budget: Optional[_RunBudget] = None,
) -> Tuple[np.ndarray, Dict[str, object]]:
    """LTE-controlled stepping with step-doubling candidates.

    Each candidate step is taken as two half steps at ``dt/2``, and
    that solution is what the loop commits.  Its error estimate is step
    doubling's: the two half steps' summed LTE, which Richardson reads
    off a third solve at the full ``dt`` (the probe) as
    ``|x_full - x_half| / (2^p - 1)``.  The loop reads it from history
    instead (:class:`~repro.circuits.stepcontrol.LteHistory`: each half
    step's Milne estimate over its corrector and the last ``p + 1``
    committed states) and solves the probe only where history cannot
    stand in for it, counted in ``stats["lte_probes"]``:

    * ``"restart"``: fewer than ``p + 1`` committed points since the
      run start, a crossed breakpoint or a phase switch;
    * ``"retry"``: the candidate after a rejection, since the history
      behind a rejection may hold an undeclared jump.

    Either way :meth:`StepController.error_ratio` decides acceptance;
    for a lockstep ``(S, size)`` stack the test is the worst unfrozen
    sample's, so the shared grid is as fine as the most demanding
    sample requires.  Every step size lives in the assembly's dt cache,
    so a revisited size performs no assembly or factorization work.

    Forced step boundaries are the union over ``circuits`` of their
    stimulus discontinuities, ``options.breakpoints`` and the event
    times of ``options.breakpoint_sources``.  With ``options.phases``
    the schedule's onsets join them (exact landings) and every
    accepted step that crosses one triggers a live method switch
    (:func:`_apply_phase`).

    Newton failure shrinks the step; at ``dt_min`` it quarantines the
    failed samples (a quarantining solver), rescues the candidate as
    one full step (``rescue``), or ends the run.

    A run that takes blocks (:func:`_takes_blocks`) starts one at each
    candidate that needs no probe: the candidates from it on at its dt
    and order, up to the one that would land on a breakpoint, as many
    as :class:`_BlockLength` expects the stretch to last.  Their half
    steps run in one pass
    (:meth:`~repro.circuits.assembly.TransientAssembly.propagate_block`),
    their estimates and ratios at once
    (:meth:`~repro.circuits.stepcontrol.LteHistory.full_steps`), and
    the controller takes the ratios in order until one is rejected, dt
    or the order changes, or the budget runs out.  Only that prefix is
    committed, recorded and counted, with the rejected candidate's
    estimate rows, as the single-step loop would leave them.

    The caller records the initial point (and feeds it to the solver's
    predictor) first.  Returns the final iterate and the loop's stats.
    """
    method = assembly.method
    schedule = options.phases
    phase_log: List[Dict[str, object]] = []
    extra_breakpoints = tuple(options.breakpoints or ())
    dt_initial = options.dt
    if schedule is not None:
        first = schedule.restart()
        extra_breakpoints = extra_breakpoints + schedule.boundaries()
        if first.dt is not None:
            dt_initial = first.dt
    breakpoints = set()
    for circuit in circuits:
        breakpoints.update(
            collect_breakpoints(
                circuit,
                options.t_stop,
                extra_breakpoints,
                sources=options.breakpoint_sources or (),
            )
        )
    controller = _step_controller(
        options,
        method,
        dt_initial,
        sorted(breakpoints),
        options.resolved_order_control(method),
    )
    multistep = method.is_multistep
    n_nodes = assembly.n_nodes
    stride = options.record_stride
    methods = [method]
    if schedule is not None:
        methods += [phase.resolved_method() for phase in schedule.phases]
    history = LteHistory(
        x,
        max(m.lte_order(m.max_order) for m in methods),
        _state_columns(assembly),
    )
    lte_probes = {"restart": 0, "retry": 0}
    retry = False

    def loop_stats() -> Dict[str, object]:
        stats = controller.stats()
        stats["steps"] = controller.accepted
        stats["lte_probes"] = dict(lte_probes)
        stats["dt_cache_entries"] = assembly.n_dt_entries
        if schedule is not None:
            stats["phase_switches"] = len(phase_log)
            stats["phases"] = list(phase_log)
        return stats

    def abort(reason: str, error: Optional[BaseException] = None) -> _RunAbort:
        stats = loop_stats()
        stats["t_abort"] = controller.t
        return _RunAbort(reason, error=error, stats=stats)

    def accept_point(t_now: float, x_now: np.ndarray) -> None:
        # Bookkeeping after an accepted step.  Phase onsets are
        # registered as breakpoints, so accepted steps land exactly
        # on them; the crossed-breakpoint history reset runs first
        # (and restarts the Newton predictor and the LTE history,
        # phase switch or not), then the switch re-seeds (or
        # bootstraps) history for the incoming method.
        nonlocal multistep
        crossed = controller.crossed_breakpoint
        if multistep and crossed:
            # Interpolating across the discontinuity would poison
            # the BDF history; restart from the committed point.
            assembly.reset_history()
        if crossed:
            history.restart(x_now)
        solver.note_commit(t_now, x_now, restart=crossed)
        phase = None if schedule is None else schedule.advance_to(t_now)
        if phase is None:
            return
        _apply_phase(assembly, controller, phase)
        multistep = assembly.method.is_multistep
        phase_log.append(
            {
                "t": t_now,
                "phase": phase.label(),
                "method": assembly.method.name,
                "order": assembly.order,
                "dt": controller.dt,
                "bootstrapped": bool(
                    phase.bootstrap and assembly.method.is_multistep
                ),
            }
        )

    blocks = _takes_blocks(options, assembly, solver, certifier, rescue)
    block_length = _BlockLength()

    def take_block(
        x: np.ndarray, t: float, dt: float, order: Optional[int]
    ) -> Optional[Tuple[np.ndarray, bool]]:
        # The candidates from the proposed one on, while dt and the
        # order hold and no breakpoint is reached, as one block: every
        # half step in one pass, every estimate and ratio at once, then
        # the controller fed in order up to the first rejection, dt or
        # order change, or exhausted budget.  Only that prefix (and the
        # rejected candidate's estimate rows) is committed, and only
        # its candidates count.  Returns the committed iterate and
        # whether the block ended in a rejection, or None where the
        # proposed candidate cannot start a block.
        targets = controller.stretch(
            block_length.next((dt, order, assembly.method))
        )
        if not targets:
            return None
        half = 0.5 * dt
        times: List[float] = []
        for t_target in targets:
            times += (t + half, t_target)
            t = t_target
        assembly.set_dt(half, order=order)
        if not assembly.propagated:
            return None
        xs = assembly.propagate_block(times)[:, : assembly.size]
        x_full = history.full_steps(
            xs, half, controller.lte_order, controller.error_constant
        )
        ratios = controller.error_ratio_samples(x_full, xs[1::2], n_nodes).tolist()
        accepted = 0
        ended = rejected = False
        exhausted = None
        for k, ratio in enumerate(ratios):
            if k and budget is not None:
                exhausted = budget.charge()
                if exhausted is not None:
                    break
            solver.solves += 2
            if ratio > 1.0:
                ended = rejected = True
                break
            controller.accept(targets[k], dt, ratio)
            accepted += 1
            ended = controller.dt != dt or (
                multistep
                and order != controller.method.usable_order(
                    controller.order, assembly.history_points_after(2 * accepted)
                )
            )
            if ended:
                break
        block_length.done(accepted, ended)
        history.commit_block(xs, half, accepted + rejected, accepted)
        last = 2 * accepted - 1
        assembly.commit_block(last)
        if accepted:
            x = xs[last].copy()
            first = -(controller.accepted - accepted + 1) % stride
            recorder.extend(
                targets[first:accepted:stride], xs[2 * first + 1 : last + 1 : 2 * stride]
            )
        if exhausted is not None:
            raise abort(exhausted)
        if rejected:
            try:
                controller.reject(ratios[accepted])
            except SimulationError as exc:
                raise abort("step_underflow", error=exc)
        return x, rejected

    while not controller.finished:
        t = controller.t
        if budget is not None:
            exhausted = budget.charge()
            if exhausted is not None:
                raise abort(exhausted)
        t_target, dt = controller.propose()
        # The whole candidate (probe + both halves) integrates at one
        # order: the controller's target clamped by committed history.
        order = (
            controller.candidate_order(assembly.history_points)
            if multistep
            else None
        )
        # The full-step probe solve is the error reference only where
        # the committed history cannot stand in for it: too few points
        # since the last restart, or a retry after a rejection (the
        # history behind it may hold an undeclared jump).
        probe = retry or not history.covers(controller.lte_order)
        if blocks and not probe:
            taken = take_block(x, t, dt, order)
            if taken is not None:
                x, retry = taken
                continue
        if probe:
            lte_probes["retry" if retry else "restart"] += 1
        retry = True  # until the candidate is accepted
        # A breakpoint-truncated step has an arbitrary event-driven
        # size: keep it out of the quantized-grid LRU.
        ephemeral = dt != controller.dt
        snapshot = assembly.snapshot_state()
        freeze = solver.freeze
        half = 0.5 * dt
        t_mid = t + half
        try:
            if probe:
                assembly.set_dt(dt, ephemeral=ephemeral, order=order)
                rhs_lin = assembly.step_rhs(t_target, x)
                x_full = solver.step(x, rhs_lin, t_target)
            # Two half steps: the solution the engine keeps.
            assembly.set_dt(half, ephemeral=ephemeral, order=order)
            rhs_lin = assembly.step_rhs(t_mid, x)
            x_mid = solver.step(x, rhs_lin, t_mid)
            assembly.commit(x_mid, t_mid)
            rhs_lin = assembly.step_rhs(t_target, x_mid)
            x_half = solver.step(x_mid, rhs_lin, t_target)
        except ConvergenceError as exc:
            assembly.restore_state(snapshot)
            health_failure = getattr(exc, "phase", None) == "health"
            # A non-finite solution is not a step-size problem: the
            # same NaN/Inf reappears at any dt, so skip straight to
            # escalation instead of grinding down to dt_min.
            if not controller.at_dt_floor and not health_failure:
                controller.reject_nonconvergence()
                continue
            # Shrinking is exhausted.  Escalate: quarantine the failed
            # samples so the survivors keep going, or rescue the
            # candidate as a single full step at the proposed size (no
            # LTE test — the alternative is losing the run), or abort.
            failed = getattr(exc, "failed_samples", None)
            if solver.quarantine_enabled and failed:
                solver.quarantine(
                    failed, t, "health" if health_failure else "newton_dt_min"
                )
                controller.reset_floor_rejections()
                if solver.quarantined.all():
                    raise abort("all_quarantined", error=exc)
                continue
            if rescue is None:
                if health_failure:
                    raise abort("health", error=exc)
                raise
            if rescue.rescues >= options.max_rescues:
                raise abort("max_rescues", error=exc)
            try:
                assembly.set_dt(dt, ephemeral=ephemeral, order=order)
                rhs_lin = assembly.step_rhs(t_target, x)
                x_half = rescue.rescue(x, rhs_lin, t_target)
            except ConvergenceError as rescue_exc:
                assembly.restore_state(snapshot)
                raise abort(
                    "health" if health_failure else "newton_dt_min",
                    error=rescue_exc,
                )
            x_mid = None
            ratio = 1.0
        else:
            if not probe:
                x_full = history.full_step(
                    x_mid, x_half, half,
                    controller.lte_order, controller.error_constant,
                )
            mask = None if freeze is None else ~freeze
            ratio = controller.error_ratio(x_full, x_half, n_nodes, mask)
            if ratio > 1.0:
                assembly.restore_state(snapshot)
                try:
                    controller.reject(ratio)
                except SimulationError as exc:
                    # Controller underflow: LTE still failing at dt_min.
                    # A quarantining solver masks out the samples whose
                    # estimate is still over tolerance; the shared grid
                    # then answers only to the survivors.
                    if not solver.quarantine_enabled:
                        raise abort("step_underflow", error=exc)
                    ratios = controller.error_ratio_samples(x_full, x_half, n_nodes)
                    culprits = np.nonzero((ratios > 1.0) & ~solver.frozen)[0]
                    if culprits.size == 0:
                        raise abort("step_underflow", error=exc)
                    solver.quarantine(culprits, t, "lte_underflow")
                    controller.reset_floor_rejections()
                    if solver.quarantined.all():
                        raise abort("all_quarantined", error=exc)
                continue
        retry = False
        if certifier is not None:
            certifier.check_step(x_half, rhs_lin, t_target)
        assembly.commit(x_half, t_target)
        x = x_half
        if certifier is not None:
            certifier.check_state(x, t_target)
        if x_mid is None:  # rescued as one full step
            history.push(x, dt)
        elif probe:
            history.push(x_mid, half)
            history.push(x, half)
        else:
            history.advance()  # full_step already holds both halves
        controller.accept(t_target, dt, ratio)
        accept_point(t_target, x)
        if controller.accepted % stride == 0:
            recorder.append(t_target, x)
    return x, loop_stats()


def _setup(circuit: Circuit, options: TransientOptions):
    """Everything a per-sample run needs before its first step.

    Preflight, backend, initial state (DC operating point or zeros),
    assembly with seeded integrator state, solver and certifier.
    Returns ``(x, assembly, solver, certifier, preflight findings,
    Krylov counter base)``; the solver's ``health`` list is the run's.
    """
    size = circuit.prepare()
    preflight_diags = apply_preflight(
        circuit, options.preflight, options, analysis="tran"
    )
    backend = resolve_backend(options.backend, size)
    # Krylov iteration diagnostics cover this run only, even when the
    # caller shares one stateful backend instance across runs.
    krylov_base = (
        backend.counters() if isinstance(backend, KrylovBackend) else None
    )

    if options.use_dc_operating_point:
        op = solve_dc(circuit, options=options.newton, backend=backend)
        x = op.x.copy()
    else:
        x = np.zeros(circuit.size)

    method = options.resolved_method()
    assembly = TransientAssembly(
        circuit,
        options.dt,
        method,
        options.newton.gmin,
        backend=backend,
        jacobian=options.jacobian,
    )
    assembly.init_state(x)
    needs_history = method.is_multistep or (
        options.phases is not None
        and any(
            p.resolved_method().is_multistep for p in options.phases.phases
        )
    )
    if needs_history and assembly.states:
        # Generic integrator states are scalar (one previous point);
        # only the vectorized plain-capacitor/inductor path carries
        # the committed history a multistep formula needs.
        raise SimulationError(
            f"method={method.name!r} requires plain Capacitor/Inductor "
            "reactive elements; components "
            f"{sorted(assembly.states)} keep generic one-step integrator state"
        )

    health: List[HealthReport] = []
    solver = _StepSolver(
        assembly,
        options.newton,
        options.jacobian,
        guards=options.guards,
        health=health,
    )
    certifier = (
        _Certifier(assembly, options, health) if options.certify else None
    )
    return x, assembly, solver, certifier, preflight_diags, krylov_base


def _health_stats(
    options: TransientOptions, health: list, certifier, preflight_diags
) -> Dict[str, object]:
    """The stats keys of the opt-in health layers, for every engine."""
    stats: Dict[str, object] = {}
    if options.guards or options.certify:
        stats["health"] = health
        if certifier is not None:
            stats["certified_steps"] = certifier.checked
    if options.preflight != "off":
        stats["preflight"] = preflight_diags
    return stats


def _engine_stats(
    options: TransientOptions,
    assembly: TransientAssembly,
    solver: _StepSolver,
    certifier: Optional[_Certifier],
    preflight_diags: list,
    krylov_base: Optional[dict],
) -> Dict[str, object]:
    """A per-sample run's engine stats (what :func:`_setup` built)."""
    stats: Dict[str, object] = {
        "strategy": solver.strategy,
        "backend": assembly.backend.name,
        "step_control": options.step_control,
        "newton_iterations": solver.newton_iterations,
        "solves": solver.solves,
        "lu_refactorizations": solver.lu_refactorizations,
    }
    if krylov_base is not None:
        now = assembly.backend.counters()
        stats["krylov"] = {k: now[k] - krylov_base[k] for k in now}
    stats.update(_health_stats(options, solver.health, certifier, preflight_diags))
    return stats


def run_transient(circuit: Circuit, options: Optional[TransientOptions] = None) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop``.

    The initial condition is the DC operating point (sources evaluated
    at t = 0) unless ``use_dc_operating_point`` is False, in which case
    node voltages start at zero and component ``ic`` values are honored.

    Fault tolerance (all opt-in; the healthy path is bit-identical
    with or without them, and performs zero extra Newton solves):

    * ``rescue=True`` — a step whose Newton fails (fixed grid) or
      fails with the adaptive step already at ``dt_min`` escalates
      through the per-step gmin ramp and residual continuation of
      :class:`_StepRescue` before the run gives up; ``max_rescues``
      bounds the escalations per run.
    * ``max_steps`` / ``max_wall_time`` — hard budgets on attempted
      steps and wall-clock seconds.
    * ``on_abort="partial"`` — when the run cannot continue (Newton
      dead after rescue, LTE underflow, budget exhausted), return the
      waveform integrated so far instead of raising; the result's
      ``stats`` carry ``abort_reason`` (one of ``"newton"``,
      ``"newton_dt_min"``, ``"step_underflow"``, ``"max_rescues"``,
      ``"max_steps"``, ``"max_wall_time"``, ``"health"``), ``t_abort``,
      and ``completed=False``.

    Numerical health (also opt-in; see :mod:`~repro.circuits.health`):

    * ``preflight="warn" | "raise"`` — structural netlist lint before
      any solve; findings land in ``stats["preflight"]``.
    * ``guards=True`` — NaN/Inf screening of every accepted step plus
      one condition estimate per cached factorization; a non-finite
      step raises (or aborts with reason ``"health"``), conditioning
      findings are warnings in ``stats["health"]``.
    * ``certify=True`` — accepted steps are re-verified (residual,
      reactive state consistency, grid invariants); violations land in
      ``stats["health"]``.
    """
    options = options or TransientOptions()
    x, assembly, solver, certifier, preflight_diags, krylov_base = _setup(
        circuit, options
    )
    record_indices, recorded_nodes, n_columns = _resolve_recording(
        circuit, options
    )
    recorder = _RecordingBuffer(
        (n_columns,), _record_capacity(options), record_indices
    )
    rescue = _StepRescue(assembly, options) if options.rescue else None
    budget = _RunBudget.for_options(options)
    recorder.append(0.0, x)
    solver.note_commit(0.0, x)
    try:
        if options.step_control == "fixed":
            _, run_stats = _run_fixed(
                options, assembly, solver, x, recorder, certifier, rescue, budget
            )
        else:
            _, run_stats = _run_adaptive(
                [circuit], options, assembly, solver, x, recorder, certifier,
                rescue, budget,
            )
    except _RunAbort as abort:
        run_stats = abort.translate(options.on_abort)
    if rescue is not None:
        run_stats.update(rescue.stats())

    times, records = recorder.arrays()
    if certifier is not None:
        certifier.check_grid(times, options)
    stats = _engine_stats(
        options, assembly, solver, certifier, preflight_diags, krylov_base
    )
    stats.update(run_stats)
    return TransientResult(
        circuit=circuit,
        t=times,
        x=records,
        recorded_nodes=recorded_nodes,
        stats=stats,
    )
