"""Local-truncation-error step control for the transient engine.

The paper's headline transients are stiff-then-slow: a few hundred
fast carrier cycles of startup followed by long envelope settling
(Fig 16), or a supply-loss event followed by a slow amplitude decay
(Fig 17/18).  A fixed step sized for the fastest phase pays that cost
at every instant; :class:`StepController` lets the engine walk the
slow phases with steps orders of magnitude larger while bounding the
local truncation error (LTE) of every accepted step.

Design
------
* **LTE estimate by step doubling, from history.**  Each candidate
  step of size ``dt`` is taken as two half steps, the solution the
  engine keeps on acceptance.  For an integrator of order ``p``
  (trapezoidal: 2, backward Euler: 1, BDF at its active order) their
  error is ``|x_full - x_half| / (2^p - 1)`` to leading order, where
  ``x_full`` is the same step solved whole (Richardson).  Instead of
  that third solve, :class:`LteHistory` estimates each half step's LTE
  as ``C·h^{p+1}·(p+1)!`` times the divided difference over its
  corrector and the last ``p + 1`` committed states (Milne's estimate
  in the SPICE2 form; :func:`lte_weights`), and hands the controller
  the ``x_full`` that sum implies.  The engine solves the full step
  only where history cannot stand in: fewer than ``p + 1`` points
  since a restart (run start, breakpoint, phase switch), or the
  retry after a rejection.
* **Order control (variable-order Gear).**  When the integration
  method spans several orders and ``order_control`` is on, the
  controller also decides the *target order* of each candidate on the
  same step-doubling machinery: the per-order Richardson estimate at
  the order actually used drives accept/reject exactly as for a fixed
  method, a streak of comfortable accepts (ratio well under
  tolerance) raises the order, repeated rejections lower it, and a
  breakpoint crossing drops back to first order because the multistep
  history is meaningless across a discontinuity.  The *usable* order
  of a candidate is the target clamped by the committed history the
  engine actually has (the classic Gear startup ramp); per-order
  accepted/rejected counts are reported by :meth:`StepController.
  stats`.
* **Accept/reject with growth clamps.**  The error ratio (estimated
  LTE over tolerance) drives the classic controller
  ``dt_new = dt * safety * ratio^(-1/(p+1))``, clamped to at most
  ``max_growth`` per accepted step and halved-or-worse on rejection,
  and always confined to ``[dt_min, dt_max]``.
* **Quantized step sizes.**  Proposed steps snap *down* onto the grid
  ``dt_max / 2^k``.  The controller therefore revisits a handful of
  distinct step sizes over a whole run, which is what makes the
  per-``dt`` assembly/factorization cache of
  :class:`~repro.circuits.assembly.TransientAssembly` effective:
  halving a step lands exactly on another cached entry.
* **Breakpoint forcing.**  Source discontinuities (pulse edges, PWL
  corners, delayed sines — see :func:`~repro.circuits.sources.
  source_breakpoints`) and ``t_stop`` are hard step boundaries: a
  step is truncated so it *lands exactly on* the next breakpoint
  rather than integrating across it.  The working step carries over
  to the far side; only the history restarts there, so the first
  candidate solves its full step and is rejected if too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from .integration import IntegrationMethod, resolve_method

__all__ = [
    "LteHistory",
    "Phase",
    "PhaseSchedule",
    "StepController",
    "collect_breakpoints",
    "lte_weights",
    "stiffness_bins",
]

#: Relative slack when deciding that a step "reaches" a breakpoint.
_TIME_EPS = 1e-12

#: Order-raise policy: this many consecutive accepts, each with an
#: error ratio below the threshold, promote the target order one tier.
_ORDER_RAISE_ACCEPTS = 3
_ORDER_RAISE_RATIO = 0.25

#: Order-lower policy: this many consecutive rejections demote one tier
#: (the step size is already shrinking; a persistent rejection streak
#: says the high-order formula itself is misbehaving, e.g. BDF3 on an
#: oscillatory segment).
_ORDER_LOWER_REJECTS = 2


#: Step controller safety factor: a step grows or shrinks towards
#: ``LTE_SAFETY`` times the size its error estimate would allow.
LTE_SAFETY = 0.9


def collect_breakpoints(
    circuit,
    t_stop: float,
    extra: Iterable[float] = (),
    sources: Iterable[object] = (),
) -> Tuple[float, ...]:
    """Sorted, de-duplicated breakpoint times in ``(0, t_stop)``.

    Gathers stimulus discontinuities from every component exposing a
    ``breakpoints(t_stop)`` method (the independent sources), known
    event times from every object in ``sources`` exposing the same
    hook (the digital blocks: :class:`~repro.digital.events.
    EventScheduler` queues, :class:`~repro.digital.events.
    RecurringEvent` ticks, watchdog deadlines, POR release times —
    anything a mixed-signal scenario would otherwise hand-list), plus
    any caller-supplied ``extra`` times.
    """
    times: List[float] = []
    for component in circuit:
        generator = getattr(component, "breakpoints", None)
        if generator is not None:
            times.extend(generator(t_stop))
    for source in sources:
        generator = getattr(source, "breakpoints", None)
        if generator is None:
            raise SimulationError(
                f"breakpoint source {source!r} has no breakpoints(t_stop) hook"
            )
        times.extend(generator(t_stop))
    times.extend(extra)
    inside = sorted({float(t) for t in times if 0.0 < t < t_stop})
    return tuple(inside)


@dataclass(frozen=True)
class Phase:
    """One integration phase of a :class:`PhaseSchedule`.

    ``t_start`` is the phase's onset (the schedule's first phase must
    start at 0).  ``method`` is an integration-method name or instance
    — typically ``"trap"`` for carrier-resolved phases and ``"gear"``
    for decay/settle phases.  ``dt`` optionally suggests the working
    step size the controller should restart at on entering the phase
    (``None`` keeps whatever step the controller reached).
    ``max_order`` applies to ``"gear"`` only.  ``bootstrap`` asks the
    engine to synthesize a consistent multistep history at the phase
    boundary (:meth:`~repro.circuits.assembly.TransientAssembly.
    set_method` with a bootstrap spacing) so Gear phases entered
    mid-run start at full order instead of ramping.
    """

    t_start: float
    method: Union[str, IntegrationMethod] = "trap"
    dt: Optional[float] = None
    max_order: Optional[int] = None
    name: Optional[str] = None
    bootstrap: bool = True

    def resolved_method(self) -> IntegrationMethod:
        return resolve_method(self.method, max_order=self.max_order)

    def label(self) -> str:
        return self.name or self.resolved_method().name


class PhaseSchedule:
    """Partition of a transient run into per-phase integration setups.

    The paper's headline scenarios are stiff-then-slow: carrier-
    resolved stretches (startup kicks, fault edges) where trapezoidal
    at fine dt is the right tool, separated at stimulus breakpoints
    from long decay/settle stretches where a strongly damping Gear
    member at coarse dt strides through the quiet tail.  A schedule
    lists those stretches as :class:`Phase` entries; the adaptive
    engine forces exact step boundaries at every phase onset (they
    join the breakpoint list) and performs a live
    ``TransientAssembly.set_method`` switch — with controller rebind
    and history reset/bootstrap — each time a boundary is crossed.

    Phases must be sorted by ``t_start`` with the first at 0; times
    are absolute run times.
    """

    def __init__(self, phases: Sequence[Phase]):
        phases = tuple(phases)
        if not phases:
            raise SimulationError("PhaseSchedule needs at least one phase")
        if abs(phases[0].t_start) > _TIME_EPS:
            raise SimulationError(
                "the first phase must start at t=0, got "
                f"t_start={phases[0].t_start!r}"
            )
        for previous, current in zip(phases, phases[1:]):
            if current.t_start <= previous.t_start:
                raise SimulationError(
                    "phase onsets must be strictly increasing; "
                    f"{current.t_start!r} follows {previous.t_start!r}"
                )
        for phase in phases:
            phase.resolved_method()  # validate names/orders eagerly
            if phase.dt is not None and phase.dt <= 0:
                raise SimulationError("phase dt must be positive")
        self.phases = phases
        self._index = 0

    @classmethod
    def carrier_then_settle(
        cls,
        t_switch: float,
        carrier_dt: Optional[float] = None,
        settle_dt: Optional[float] = None,
        settle_method: Union[str, IntegrationMethod] = "gear",
        max_order: Optional[int] = None,
    ) -> "PhaseSchedule":
        """The canonical two-phase schedule: carrier-resolved trap
        until ``t_switch``, then a damped multistep settle phase."""
        if t_switch <= 0:
            raise SimulationError("t_switch must be positive")
        return cls(
            (
                Phase(0.0, "trap", dt=carrier_dt, name="carrier"),
                Phase(
                    t_switch,
                    settle_method,
                    dt=settle_dt,
                    max_order=max_order,
                    name="settle",
                ),
            )
        )

    @property
    def initial_phase(self) -> Phase:
        return self.phases[0]

    def boundaries(self) -> Tuple[float, ...]:
        """Interior phase onsets — forced step boundaries."""
        return tuple(p.t_start for p in self.phases[1:])

    def restart(self) -> Phase:
        """Reset the cursor to the first phase (run initialization)."""
        self._index = 0
        return self.phases[0]

    def phase_at(self, t: float) -> Phase:
        """The phase governing time ``t`` (stateless lookup)."""
        active = self.phases[0]
        for phase in self.phases[1:]:
            if t >= phase.t_start * (1.0 - _TIME_EPS):
                active = phase
            else:
                break
        return active

    def advance_to(self, t: float) -> Optional[Phase]:
        """Move the cursor to the phase governing ``t``.

        Returns the newly entered phase when ``t`` crossed one or more
        boundaries since the last call, ``None`` while the active
        phase is unchanged.  The engine calls this after every
        accepted step; onsets are exact step boundaries, so the cursor
        advances exactly at the landing step.
        """
        moved = None
        while self._index + 1 < len(self.phases):
            onset = self.phases[self._index + 1].t_start
            if t >= onset * (1.0 - _TIME_EPS):
                self._index += 1
                moved = self.phases[self._index]
            else:
                break
        return moved


def lte_weights(nodes: Sequence[float], order: int, constant: float) -> List[float]:
    """Milne's LTE estimate of one step, as weights on its states.

    ``nodes`` are ``order + 2`` times, newest first: the step's landing
    time ``t_new``, the time ``t_n`` it departs from, and ``order``
    older committed times.  An order-``p`` step of size
    ``h = t_new - t_n`` leaves the local truncation error
    ``C·h^{p+1}·x^{(p+1)}`` (``C`` is :meth:`~repro.circuits.
    integration.IntegrationMethod.error_constant`), and
    ``(p+1)!·x[t_new, t_n, ..., t_{n-p}]`` is the divided-difference
    estimate of the derivative (the SPICE2 form; L. W. Nagel, 1975).
    The return value ``w`` gives that LTE as ``sum(w[i] * x(nodes[i]))``.

    Scalar arithmetic on the shared step times: every sample of a
    lockstep batch gets the same weights, so the estimate does not
    depend on the batch it runs in.
    """
    t_new = nodes[0]
    h = t_new - nodes[1]
    scale = constant * math.factorial(order + 1)
    weights = []
    for i, t_i in enumerate(nodes):
        w = scale
        for j, t_j in enumerate(nodes):
            if j != i:
                w *= h / (t_i - t_j)
        weights.append(w)
    return weights


#: Bytes of cached weight tables per history.  A small system revisits
#: a handful of step patterns, where a cache hit saves most of the
#: estimate's cost; a large one keeps only a couple of tables, whose
#: rebuild costs little next to its solves.
_WEIGHT_CACHE_BYTES = 1 << 20


class LteHistory:
    """Committed states of an adaptive run, for the history LTE estimate.

    A ring of ``depth + 3`` state rows (one state, or a lockstep
    ``(S, size)`` stack, per row): ``depth + 1`` committed points, the
    most an order-``depth`` estimate reads, and two slots where a
    candidate's half steps land, so accepting it (:meth:`advance`)
    copies nothing.  Each slot also keeps the step that reached it;
    the estimate's node spacings are those steps, exactly as the
    integrator took them.  ``columns`` is a 0/1 mask over the state
    vector that selects the unknowns whose truncation error the
    estimate reads.

    A block of candidates (the adaptive loop's constant-dt blocks)
    needs no room in the ring: :meth:`full_steps` reads the block's
    half steps beside it, each candidate's estimate seeing the ring as
    its own :meth:`full_step` would, and :meth:`commit_block` writes
    the ring as the block's single steps would have left it, once the
    controller has decided how many of them to keep.
    """

    __slots__ = ("rows", "steps", "head", "points", "columns", "_tables")

    def __init__(self, x: np.ndarray, depth: int, columns: np.ndarray):
        n_rows = depth + 3
        # Zeros, not garbage: a slot the estimate weights by zero must
        # hold a finite value.
        self.rows = np.zeros((n_rows,) + x.shape)
        self.steps = [0.0] * n_rows
        self.columns = columns
        self._tables: Dict[tuple, np.ndarray] = {}
        self.restart(x)

    def restart(self, x: np.ndarray) -> None:
        """Forget every point but ``x``: the solution may jump here
        (run start, crossed breakpoint, phase switch)."""
        self.head = 0
        self.points = 0
        self.push(x, 0.0)

    def push(self, x: np.ndarray, step: float) -> None:
        """Commit one point, reached by a step of size ``step``."""
        self.head = head = (self.head + 1) % len(self.steps)
        self.rows[head] = x
        self.steps[head] = step
        self.points += 1

    def covers(self, order: int) -> bool:
        """Whether the committed points since the last restart carry
        an order-``order`` estimate: ``order + 1`` of them."""
        return self.points > order

    def full_step(
        self,
        x_mid: np.ndarray,
        x_new: np.ndarray,
        half: float,
        order: int,
        constant: float,
    ) -> np.ndarray:
        """The full-step solution that step doubling would compare the
        half steps ``x_mid``, ``x_new`` (each of size ``half``) against,
        from history.

        Each half step's LTE is :func:`lte_weights` over its corrector
        and the committed points before it.  Their sum estimates the
        two-half-step error that Richardson reads off
        ``(x_full - x_new) / (2^p - 1)``, so the return value is
        ``x_new + (2^p - 1)·(LTE_1 + LTE_2)`` in the ``columns`` and
        ``x_new`` elsewhere: one weighted sum over the ring, and
        :meth:`StepController.error_ratio` applies unchanged.  With
        only ``p + 1`` points since the last restart the first half
        step's estimate would read the restart point, which may sit
        off the new segment's trajectory (a source that steps there, or
        an initial state the sources contradict); the second half
        step's estimate then stands for both halves.
        """
        steps = self.steps
        n_rows = len(steps)
        head = self.head
        mid = (head + 1) % n_rows
        new = (head + 2) % n_rows
        rows = self.rows
        rows[mid] = x_mid
        rows[new] = x_new
        steps[mid] = steps[new] = half
        whole = self.points > order + 1  # the restart point is not read
        key = (constant, order, whole, head, *steps)
        table = self._tables.get(key)
        if table is None:
            table = self._table(key)
        return np.add.reduce(table * rows, axis=0)

    def _table(self, key: tuple) -> np.ndarray:
        """The weights of :meth:`full_step` for ``key``, per ring slot
        and state column, with the mask and ``x_new`` folded in."""
        constant, order, whole, head = key[:4]
        steps = key[4:]
        n_rows = len(steps)
        new = (head + 2) % n_rows
        slots = [new] + [(head + 1 - k) % n_rows for k in range(order + 2)]
        # Node times relative to the new point, newest first, from the
        # steps that reached each slot.
        times = [0.0]
        for k in slots[:-1]:
            times.append(times[-1] - steps[k])
        gain = float(2 ** order - 1)
        if whole:
            halves = (slice(1, None), slice(0, -1))
        else:  # the second half step's estimate stands for both
            halves = (slice(0, -1),)
            gain *= 2.0
        weights = [0.0] * n_rows
        for nodes in halves:
            for k, w in zip(slots[nodes], lte_weights(times[nodes], order, constant)):
                weights[k] += gain * w
        shape = (n_rows,) + (1,) * (self.rows.ndim - 1)
        table = np.reshape(weights, shape) * self.columns
        table[new] += 1.0
        if (len(self._tables) + 1) * table.nbytes > _WEIGHT_CACHE_BYTES:
            self._tables.clear()
        self._tables[key] = table
        return table

    def advance(self) -> None:
        """Commit the two half steps :meth:`full_step` last wrote."""
        self.head = (self.head + 2) % len(self.steps)
        self.points += 2

    def full_steps(
        self,
        xs: np.ndarray,
        half: float,
        order: int,
        constant: float,
    ) -> np.ndarray:
        """:meth:`full_step` of each candidate of a block, at once.

        ``xs`` holds the block's half-step solutions in order, two per
        candidate, each half step of size ``half``.  Candidate ``k``'s
        estimate reads the ring as :meth:`full_step` would after the
        ``k`` candidates before it were accepted: the same weights on
        the same rows, summed slot by slot in the ring's own slot
        order, so every row of the result has :meth:`full_step`'s bits.
        Nothing is written; :meth:`commit_block` settles the ring.
        """
        steps = list(self.steps)
        n_rows = len(steps)
        n = len(xs) // 2
        head, points = self.head, self.points
        # The row of ``rows`` each slot holds at candidate k: the
        # newest half step written to it, else its committed row.
        slots = np.arange(n_rows)
        last = 2 * np.arange(n)[:, None] + 1  # candidate k's newest half step
        written = last - (head + 1 + last - slots) % n_rows
        rows = np.concatenate((self.rows, xs))[
            np.where(written >= 0, n_rows + written, slots)
        ]
        # Once every slot holds a half step and the restart point is
        # no longer read, the key moves with the head only, which
        # comes round every ``cycle`` candidates.
        cycle = n_rows // math.gcd(2, n_rows)
        repeat = cycle + max((n_rows + 1) // 2, (order + 2 - points) // 2 + 1)
        tables = []
        for k in range(n):
            if k >= repeat:
                tables.append(tables[k - cycle])
                continue
            mid, new = (head + 1) % n_rows, (head + 2) % n_rows
            steps[mid] = steps[new] = half
            key = (constant, order, points > order + 1, head, *steps)
            table = self._tables.get(key)
            tables.append(self._table(key) if table is None else table)
            head, points = new, points + 2
        terms = np.stack(tables) * rows
        total = terms[:, 0].copy()
        for k in range(1, n_rows):
            total += terms[:, k]
        return total

    def commit_block(
        self, xs: np.ndarray, half: float, written: int, accepted: int
    ) -> None:
        """The ring after a block: as :meth:`full_step` for its first
        ``written`` candidates and :meth:`advance` for its first
        ``accepted`` (a rejected candidate is written, not advanced)
        would have left it."""
        n_rows = len(self.steps)
        rows, steps = self.rows, self.steps
        for k in range(max(0, written - n_rows), written):
            mid = (self.head + 2 * k + 1) % n_rows
            new = (mid + 1) % n_rows
            rows[mid] = xs[2 * k]
            rows[new] = xs[2 * k + 1]
            steps[mid] = steps[new] = half
        self.head = (self.head + 2 * accepted) % n_rows
        self.points += 2 * accepted


def stiffness_bins(
    ratios: Sequence[float],
    n_bins: int,
) -> List[np.ndarray]:
    """Cluster sample indices into quantile bins by stiffness ratio.

    ``ratios`` are per-sample first-step LTE ratios (see
    :meth:`StepController.error_ratio_samples` — larger means stiffer:
    the sample demands a smaller step to hold tolerance).  The samples
    are ranked by ratio and split into ``n_bins`` contiguous quantile
    groups, benign first, stiffest last.  The sharded campaign layer
    cuts its sub-batches *within* these bins so an adaptive shard's
    worst-sample grid answers to peers of similar stiffness instead of
    one outlier dragging a batch of benign samples to its dt.

    Deterministic by construction: ties rank by sample index (stable
    sort), each bin's indices come back ascending, and non-finite
    ratios (a failed probe step — maximally stiff) sort last.  Bins
    that would be empty (``n_bins > len(ratios)``) are dropped, so the
    returned list always partitions ``range(len(ratios))`` exactly.
    """
    ratios = np.asarray(ratios, dtype=float)
    if n_bins < 1:
        raise SimulationError("n_bins must be >= 1")
    n = len(ratios)
    if n == 0:
        return []
    # NaN/inf mark probe failures: rank them stiffest, not undefined.
    keys = np.where(np.isfinite(ratios), ratios, np.inf)
    order = np.argsort(keys, kind="stable")
    bins = [
        np.sort(chunk)
        for chunk in np.array_split(order, min(n_bins, n))
        if chunk.size
    ]
    return bins


class StepController:
    """Accept/reject step-size controller with breakpoint forcing.

    The engine drives it in a propose/attempt/report loop::

        while not controller.finished:
            t_target, dt = controller.propose()
            ...solve two half steps to t_target, and the full step
            (or its history equivalent, LteHistory.full_step)...
            ratio = controller.error_ratio(x_full, x_half, n_nodes)
            if ratio <= 1.0:
                controller.accept(t_target, dt, ratio)
            else:
                controller.reject(ratio)

    Newton convergence failures count as rejections too
    (:meth:`reject_nonconvergence`), which is how the controller walks
    the engine through sharp nonlinear transitions a fixed step would
    simply fail on.
    """

    def __init__(
        self,
        t_stop: float,
        dt_initial: float,
        dt_min: float,
        dt_max: float,
        method: Union[str, IntegrationMethod] = "trap",
        reltol: float = 1e-3,
        abstol: float = 1e-6,
        safety: float = LTE_SAFETY,
        max_growth: float = 2.0,
        breakpoints: Sequence[float] = (),
        order_control: bool = False,
    ):
        if not 0.0 < dt_min <= dt_max:
            raise SimulationError("require 0 < dt_min <= dt_max")
        if dt_max >= t_stop:
            dt_max = t_stop / 2.0
        if not dt_min <= dt_initial <= dt_max:
            dt_initial = min(max(dt_initial, dt_min), dt_max)
        if reltol <= 0.0 or abstol <= 0.0:
            raise SimulationError("lte tolerances must be positive")
        if not 0.0 < safety <= 1.0:
            raise SimulationError("safety must be in (0, 1]")
        if max_growth <= 1.0:
            raise SimulationError("max_growth must exceed 1")

        self.t_stop = float(t_stop)
        self.dt_max = float(dt_max)
        # Quantized grid: dt_max / 2^k down to (just below) dt_min.
        self._max_level = max(0, int(math.ceil(math.log2(dt_max / dt_min))))
        self.dt_min = dt_max / 2.0 ** self._max_level
        self.method = resolve_method(method)
        #: Order decisions only exist when the method spans several.
        self.order_control = (
            bool(order_control) and self.method.max_order > self.method.min_order
        )
        #: Target integration order; candidates may run below it while
        #: the committed history ramps up (see candidate_order).
        self.order = (
            self.method.min_order if self.order_control else self.method.max_order
        )
        self._order_used = self.order
        self._set_lte_order(self.order)
        self.reltol = float(reltol)
        self.abstol = float(abstol)
        self.safety = float(safety)
        self.max_growth = float(max_growth)

        self._breakpoints = list(breakpoints) + [self.t_stop]
        self._bp_index = 0
        self._landing_on_bp = False

        self.t = 0.0
        self.dt = self._quantize(dt_initial)
        self._dt_after_reject = None
        self._rejects_at_floor = 0

        # Diagnostics.
        self.accepted = 0
        self.rejected = 0
        self.breakpoints_hit = 0
        self.min_dt_taken = math.inf
        self.max_dt_taken = 0.0
        self.accepted_by_order: Dict[int, int] = {}
        self.rejected_by_order: Dict[int, int] = {}
        self.order_raises = 0
        self.order_lowers = 0
        #: Whether the last accepted step landed on (and consumed) a
        #: breakpoint — engines reset multistep history when it did.
        self.crossed_breakpoint = False
        self._good_accepts = 0
        self._reject_streak = 0

    # -- internals ------------------------------------------------------------

    def _set_lte_order(self, order: int) -> None:
        p = self.method.lte_order(order)
        #: The candidate's LTE order ``p`` and leading error constant,
        #: for the history estimate (:meth:`LteHistory.full_step`).
        self.lte_order = p
        self.error_constant = self.method.error_constant(order)
        self._err_div = float(2 ** p - 1)
        self._exponent = 1.0 / (p + 1)

    def candidate_order(self, history_points: int = 1) -> int:
        """The order the next candidate step should integrate at.

        The target order is clamped by the committed history actually
        available (``history_points`` counts committed states
        including the current one) — the classic Gear startup ramp.
        The returned order is also the one the subsequent
        :meth:`error_ratio` / :meth:`accept` / :meth:`reject` calls
        attribute the candidate to.
        """
        effective = self.method.usable_order(self.order, history_points)
        if effective != self._order_used:
            self._order_used = effective
            self._set_lte_order(effective)
        return effective

    def rebind_method(
        self,
        method: Union[str, IntegrationMethod],
        dt: Optional[float] = None,
        order: Optional[int] = None,
        order_control: Optional[bool] = None,
    ) -> None:
        """Point the controller at a new integration method mid-run.

        The phase-switching engine calls this when a
        :class:`PhaseSchedule` boundary is crossed: the LTE order, the
        order-control target, and the accept/reject streak state all
        belong to the outgoing method and must not leak into the new
        phase.  ``dt`` restarts the working step size (quantized onto
        the grid); ``order`` seeds the target order — pass the
        method's full order when the history ring was bootstrapped at
        the boundary, so an order-controlled Gear phase does not
        re-climb from first order.
        """
        self.method = resolve_method(method)
        if order_control is None:
            order_control = self.method.max_order > self.method.min_order
        self.order_control = (
            bool(order_control)
            and self.method.max_order > self.method.min_order
        )
        if order is None:
            order = (
                self.method.min_order
                if self.order_control
                else self.method.max_order
            )
        self.order = max(
            self.method.min_order, min(int(order), self.method.max_order)
        )
        self._order_used = self.order
        self._set_lte_order(self.order)
        self._good_accepts = 0
        self._reject_streak = 0
        self._rejects_at_floor = 0
        if dt is not None:
            self.dt = self._quantize(min(max(dt, self.dt_min), self.dt_max))

    def _quantize(self, dt: float) -> float:
        """Largest grid value ``dt_max / 2^k`` not exceeding ``dt``."""
        if dt >= self.dt_max:
            return self.dt_max
        level = int(math.ceil(math.log2(self.dt_max / dt) - 1e-9))
        return self.dt_max / 2.0 ** min(level, self._max_level)

    # -- the propose / report loop -------------------------------------------

    @property
    def finished(self) -> bool:
        return self.t >= self.t_stop * (1.0 - _TIME_EPS)

    @property
    def at_dt_floor(self) -> bool:
        """Whether the working step size sits on ``dt_min`` — the
        point where non-convergence can no longer be answered by
        shrinking and escalation (rescue, quarantine, abort) begins."""
        return self.dt <= self.dt_min * (1.0 + 1e-9)

    def reset_floor_rejections(self) -> None:
        """Forgive the accumulated at-floor rejections.

        The batched engine calls this after quarantining the samples
        responsible for an LTE underflow: the remaining samples get a
        fresh underflow allowance instead of inheriting the dead
        samples' strike count.
        """
        self._rejects_at_floor = 0

    @property
    def next_breakpoint(self) -> float:
        return self._breakpoints[self._bp_index]

    def propose(self) -> Tuple[float, float]:
        """``(t_target, dt)`` of the next candidate step.

        ``t_target`` is exact (the breakpoint itself when the step is
        truncated), so source evaluation and recording never suffer
        accumulated float drift at event times.
        """
        bp = self.next_breakpoint
        remaining = bp - self.t
        # Land when the step reaches bp within the module's time slack:
        # a step ending a rounding sliver short of bp would leave a
        # fixed-size remainder that no step shrinking can resolve.
        if self.t + self.dt >= bp * (1.0 - _TIME_EPS):
            self._landing_on_bp = True
            return bp, remaining
        self._landing_on_bp = False
        return self.t + self.dt, self.dt

    def stretch(self, n: int) -> List[float]:
        """Landing times of up to ``n`` candidates at the working step
        from ``t`` on, each accepted before the next: the ones
        :meth:`propose` would return while ``dt`` holds, up to (not
        including) the one it would truncate onto a breakpoint."""
        edge = self.next_breakpoint * (1.0 - _TIME_EPS)
        t, dt = self.t, self.dt
        targets: List[float] = []
        while len(targets) < n and t + dt < edge:
            t = t + dt
            targets.append(t)
        return targets

    def error_ratio(
        self,
        x_full: np.ndarray,
        x_half: np.ndarray,
        n_nodes: int,
        mask: Optional[np.ndarray] = None,
    ) -> float:
        """Estimated LTE over tolerance for one candidate step.

        ``x_full`` is the full-step solution, solved or implied by
        history (:meth:`LteHistory.full_step`).  Compares node voltages
        only (branch currents are linear consequences of the
        voltages); the tolerance is
        ``abstol + reltol * |x|_inf`` so it tracks the live signal
        scale — tiny startup seeds are not held to the tolerance of
        the settled amplitude.  Stacked ``(S, size)`` iterates give
        the worst ``mask``-selected sample's ratio
        (:meth:`error_ratio_many`).
        """
        if x_full.ndim == 2:
            return self.error_ratio_many(x_full, x_half, n_nodes, mask)
        diff = x_full[:n_nodes] - x_half[:n_nodes]
        if diff.size == 0:
            return 0.0
        err = float(np.abs(diff).max()) / self._err_div
        scale = float(np.abs(x_half[:n_nodes]).max())
        return err / (self.abstol + self.reltol * scale)

    def error_ratio_samples(
        self, x_full: np.ndarray, x_half: np.ndarray, n_nodes: int
    ) -> np.ndarray:
        """Per-sample LTE ratios of a lockstep batch, shape ``(S,)``.

        Each sample's ratio uses its own signal scale, exactly like
        :meth:`error_ratio` would; the batched engine uses the full
        vector to attribute an LTE underflow to the samples actually
        responsible before quarantining them.
        """
        diff = x_full[:, :n_nodes] - x_half[:, :n_nodes]
        if diff.size == 0:
            return np.zeros(len(x_full))
        err = np.abs(diff).max(axis=1) / self._err_div
        scale = np.abs(x_half[:, :n_nodes]).max(axis=1)
        return err / (self.abstol + self.reltol * scale)

    def error_ratio_many(
        self,
        x_full: np.ndarray,
        x_half: np.ndarray,
        n_nodes: int,
        mask: Optional[np.ndarray] = None,
    ) -> float:
        """Worst-sample LTE ratio of a lockstep batch.

        ``x_full``/``x_half`` are stacked ``(S, size)`` iterates.  The
        batched transient engine integrates every sample on one shared
        grid, so a candidate step is acceptable only when the *worst*
        sample meets tolerance.  ``mask`` (boolean, ``(S,)``) selects
        the samples that count — quarantined samples' frozen states
        must not veto the healthy ones' steps.
        """
        ratios = self.error_ratio_samples(x_full, x_half, n_nodes)
        if mask is not None:
            ratios = ratios[mask]
        if ratios.size == 0:
            return 0.0
        return float(ratios.max())

    def accept(self, t_taken: float, dt_taken: float, ratio: float) -> None:
        """Commit a step that met tolerance; grow the next step."""
        self.t = t_taken
        self.accepted += 1
        self._rejects_at_floor = 0
        self._reject_streak = 0
        self.min_dt_taken = min(self.min_dt_taken, dt_taken)
        self.max_dt_taken = max(self.max_dt_taken, dt_taken)
        order = self._order_used
        self.accepted_by_order[order] = self.accepted_by_order.get(order, 0) + 1
        self.crossed_breakpoint = False
        if self._landing_on_bp:
            if self._bp_index < len(self._breakpoints) - 1:
                self._bp_index += 1
                self.breakpoints_hit += 1
                self.crossed_breakpoint = True
                # The working step carries over: the truncated
                # (possibly sliver-sized) landing step never replaces
                # it.  The far side's first candidate solves its full
                # step (no usable history), so its estimate is a true
                # Richardson one and rejection shrinks the step if the
                # far side needs it.
                if self.order_control:
                    # Multistep history restarts on the far side.
                    self.order = self.method.min_order
                self._good_accepts = 0
            self._landing_on_bp = False
            return
        if self.order_control and self.order < self.method.max_order:
            # Raise the target order after a streak of comfortable
            # accepts at the (un-clamped) target — the per-order LTE
            # estimate says the formula has headroom to spend on
            # larger steps at higher order.
            if order == self.order and ratio < _ORDER_RAISE_RATIO:
                self._good_accepts += 1
                if self._good_accepts >= _ORDER_RAISE_ACCEPTS:
                    self.order += 1
                    self.order_raises += 1
                    self._good_accepts = 0
            else:
                self._good_accepts = 0
        if ratio <= 0.0:
            growth = self.max_growth
        else:
            growth = min(self.max_growth, self.safety * ratio ** (-self._exponent))
        if growth > 1.0:
            # Quantization rounds down, so the step only actually grows
            # when the controller clears the next grid level; a step
            # that merely passed (ratio near 1) keeps its size — on a
            # binary grid, shrinking an accepted step wastes work that
            # rejection handles anyway.
            self.dt = self._quantize(min(self.dt_max, self.dt * growth))

    def reject(self, ratio: float) -> None:
        """Shrink after a step that missed tolerance; raise on underflow."""
        self.rejected += 1
        self._landing_on_bp = False
        order = self._order_used
        self.rejected_by_order[order] = self.rejected_by_order.get(order, 0) + 1
        self._good_accepts = 0
        if self.order_control:
            self._reject_streak += 1
            if (
                self._reject_streak >= _ORDER_LOWER_REJECTS
                and self.order > self.method.min_order
            ):
                self.order -= 1
                self.order_lowers += 1
                self._reject_streak = 0
        if self.at_dt_floor:
            self._rejects_at_floor += 1
            if self._rejects_at_floor >= 3:
                raise SimulationError(
                    f"adaptive step control underflow at t={self.t:.4e}: "
                    f"LTE still {ratio:.3g}x over tolerance at dt_min="
                    f"{self.dt_min:.3e}; loosen lte_reltol/lte_abstol or "
                    "lower dt_min"
                )
            return
        shrink = self.safety * ratio ** (-self._exponent) if ratio > 0 else 0.5
        shrink = min(0.5, max(0.1, shrink))
        self.dt = self._quantize(max(self.dt_min, self.dt * shrink))

    def reject_nonconvergence(self) -> None:
        """Newton failed to converge: treat like a hard LTE rejection."""
        self.reject(ratio=32.0)

    # -- diagnostics ----------------------------------------------------------

    def stats(self) -> dict:
        # Order diagnostics: the histogram *is* the per-order accepted
        # count — published under both names so histogram consumers and
        # accepted/rejected-pair consumers read naturally, built once.
        accepted_by_order = dict(sorted(self.accepted_by_order.items()))
        stats = {
            "accepted_steps": self.accepted,
            "rejected_steps": self.rejected,
            "breakpoints_hit": self.breakpoints_hit,
            "min_dt": self.min_dt_taken if self.accepted else 0.0,
            "max_dt": self.max_dt_taken,
            "order_histogram": accepted_by_order,
            "accepted_by_order": accepted_by_order,
            "rejected_by_order": dict(sorted(self.rejected_by_order.items())),
            "final_order": self._order_used,
        }
        if self.order_control:
            stats["order_raises"] = self.order_raises
            stats["order_lowers"] = self.order_lowers
        return stats
