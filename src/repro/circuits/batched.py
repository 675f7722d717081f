"""Batched lockstep transient engine: one time loop for S netlists.

The paper's headline claims are statistical — mismatch Monte-Carlo
and corner campaigns over the startup / supply-loss scenarios — and a
campaign is the same small MNA system solved S times with slightly
different element values.  Running the per-sample engine S times pays
the whole Python interpreter cost S times: S time loops, S Newton
drivers, S companion-state updates per step, for systems with a dozen
unknowns where the arithmetic itself is nearly free.

This module stacks the campaign instead: the S per-sample systems
become arrays ``G_base[S, n, n]`` / ``rhs[S, n]`` and **one** lockstep
time loop advances every sample together,

* batched linear algebra — ``numpy.linalg.inv`` on the ``(S, n, n)``
  stack once per step size, then every step's solve is one batched
  mat-vec (the ``linear`` strategy's cached-LU path, S-wide);
* the per-sample engine's rank-1 Sherman–Morrison Newton fast path
  and, for k >= 2 nonlinear devices, a rank-k Woodbury Newton (where
  the per-sample engine runs general Newton), vectorized across the
  sample axis, over a **per-sample working set**: a full view of the
  batch while every sample iterates in step (no gathers at all), index
  arrays only once samples converge, freeze or split — ragged
  convergence costs only the stragglers;
* the per-sample engine's Newton predictor on ``(S,)`` arrays: every
  rank-1 step starts on the Sherman–Morrison line at the quadratic
  extrapolation of each sample's control voltage through the last
  three committed points, and from ``x_n`` after the run start
  or a crossed breakpoint, where the predictor restarts;
* vectorized companion-state updates: capacitor/inductor integrator
  state lives in the per-sample engine's own companion-state class,
  stacked to ``(S, m)`` rows, and one gather/scatter advances all
  samples;
* device linearization across samples in one call when the nonlinear
  devices declare a *batchable characteristic family*
  (``NonlinearVCCS.vector_pair`` — e.g. every Monte-Carlo instance of
  the tanh driver differs only in its ``(gm, IM)`` parameters).

Lockstep requires a shared time grid: fixed mode uses the common
``t_k = k*dt`` grid, adaptive mode drives one
:class:`~repro.circuits.stepcontrol.StepController` by the
**worst-sample** LTE (every sample meets tolerance on every accepted
step; the grid is simply as fine as the most demanding sample needs).
Both grids run the per-sample engine's own time loops
(:func:`~repro.circuits.transient._run_fixed`,
:func:`~repro.circuits.transient._run_adaptive`) on the stacked
assembly and solver.

The per-sample engine (:func:`~repro.circuits.transient.run_transient`)
stays the reference: :func:`run_transient_batched` mirrors its solve
formulas elementwise, and the equivalence tests pin the two paths to
each other at rtol 1e-9.  Netlists the lockstep engine cannot stack —
differing topologies, nonlinear devices other than
:class:`~repro.circuits.controlled.NonlinearVCCS`, the ``"full"``
Jacobian mode, a ``PhaseSchedule``, a backend that does not resolve to
dense — raise :class:`BatchIncompatible`,
which the campaign layer
(:mod:`repro.campaigns.vectorized`) catches to fall back to the
per-sample path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConvergenceError, SimulationError
from .assembly import DT_CACHE_SIZE, DtCache, _ReactiveCoeffs, _ReactiveSet
from .backend import resolve_backend
from .component import MNASystem, Component, StampContext, StampPattern, TripletSystem
from .controlled import NonlinearVCCS
from .dcop import NewtonOptions, OperatingPoint, solve_dc
from .elements import PlainElements
from .health import (
    CONDITION_LIMIT,
    HealthReport,
    check_grid_invariants,
    nonfinite_sample_rows,
)
from .integration import IntegrationMethod, resolve_method
from .linsolve import NewtonPredictor, solve_dense
from .netlist import Circuit
from .preflight import apply_preflight
from .sources import CurrentSource, VoltageSource
from .stepcontrol import collect_breakpoints
from .transient import (
    CERTIFY_RTOL,
    TransientOptions,
    TransientResult,
    _health_stats,
    _record_capacity,
    _RecordingBuffer,
    _resolve_recording,
    _run_adaptive,
    _run_fixed,
    _RunAbort,
    _RunBudget,
    _step_controller,
)

__all__ = [
    "BatchIncompatible",
    "BatchedTransientAssembly",
    "BatchedOperatingPoints",
    "probe_stiffness_ratios",
    "run_transient_batched",
    "solve_dc_batched",
]


class BatchIncompatible(SimulationError):
    """The netlists cannot be executed as one lockstep batch.

    Structural problems (topology mismatch, unsupported devices,
    non-``"auto"`` Jacobian, a phase schedule, a sparse or Krylov
    backend) raise during batched-assembly construction, before any
    stepping; a singular stacked base matrix raises when its step
    size's entry is built — at construction for
    the initial step size, but an *adaptive* run that walks onto a new
    step size whose system is singular raises mid-run.  The campaign
    layer catches either case and falls back to the per-sample engine
    (discarding any partial lockstep work)."""


def _bsolve(inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched ``x = G^-1 rhs``: ``(S, n, n) @ (S, n) -> (S, n)``."""
    return np.matmul(inv, rhs[..., np.newaxis])[..., 0]


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` for ``(S, n)``, ``n >= 1``: the same values, a
    few times faster for small ``n`` as maxima along the sample axis."""
    return np.maximum.reduce(np.ascontiguousarray(a.T))


#: Working-set selector for every sample: indexing with it gives views.
_ALL = slice(None)


def _subset(rows, mask: np.ndarray):
    """The members of a Newton working set (``_ALL`` or an index array)
    where ``mask`` holds: ``rows`` itself when it holds for all, ``None``
    for none, so an index array is only built for a ragged set."""
    k = np.count_nonzero(mask)
    if k == mask.size:
        return rows
    if k == 0:
        return None
    return np.flatnonzero(mask) if rows is _ALL else rows[mask]


# -- lockstep compatibility ---------------------------------------------------


def _check_lockstep(circuits: Sequence[Circuit]) -> None:
    """Validate that all samples share one MNA structure.

    Lockstep stacking requires identical topology: same components
    (names, types, node wiring, branch numbering) and same unknown
    ordering.  Element *values* are free to differ per sample — that
    is the whole point.
    """
    first = circuits[0]
    for s, circuit in enumerate(circuits[1:], start=1):
        if circuit.component_names != first.component_names:
            raise BatchIncompatible(
                f"sample {s} has different components than sample 0"
            )
        if circuit.node_names != first.node_names or circuit.size != first.size:
            raise BatchIncompatible(
                f"sample {s} has a different node space than sample 0"
            )
        for name in first.component_names:
            a, b = first[name], circuit[name]
            if type(a) is not type(b):
                raise BatchIncompatible(
                    f"component {name!r}: type differs between samples"
                )
            if a._n != b._n or a._b != b._b:
                raise BatchIncompatible(
                    f"component {name!r}: wiring differs between samples"
                )


class BatchedOperatingPoints:
    """DC operating points of S same-topology circuits, stacked.

    ``x`` is the ``(S, size)`` solution stack and ``iterations`` the
    per-sample Newton iteration counts — ragged, exactly as the
    per-sample :func:`~repro.circuits.dcop.solve_dc` calls they
    replace would report them.
    """

    def __init__(
        self,
        circuits: List[Circuit],
        x: np.ndarray,
        iterations: np.ndarray,
    ):
        self.circuits = circuits
        self.x = x
        self.iterations = iterations

    def __len__(self) -> int:
        return len(self.circuits)

    def op(self, s: int) -> OperatingPoint:
        """Sample ``s`` as a standard :class:`OperatingPoint`."""
        return OperatingPoint(
            self.circuits[s], self.x[s], int(self.iterations[s])
        )


def _bsolve_dc(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched dense solve with the scalar path's singular fallback.

    ``np.linalg.solve`` rejects the whole stack when any one matrix is
    singular; degrading to per-sample :func:`~repro.circuits.linsolve.
    solve_dense` keeps the scalar semantics — least-squares for the
    singular samples only.
    """
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.stack(
            [solve_dense(G[k], rhs[k]) for k in range(G.shape[0])]
        )


def solve_dc_batched(
    circuits: Sequence[Circuit],
    options: Optional[NewtonOptions] = None,
    x0: Optional[np.ndarray] = None,
    backend: object = "auto",
) -> BatchedOperatingPoints:
    """DC operating points of S same-topology circuits, stacked.

    The batched counterpart of :func:`~repro.circuits.dcop.solve_dc`:
    one Newton loop drives all S samples as ``(S, n, n)`` / ``(S, n)``
    stacks with a per-sample convergence mask, so the per-iteration
    work is the x-*dependent* stamps (the nonlinear devices) plus one
    batched linear solve — the x-independent stamps are assembled once
    per sample up front instead of on every iteration of every sample.

    Per-sample semantics are preserved exactly: each sample's damping,
    tolerance, and stopping decisions evaluate the same expressions as
    the scalar Newton, a converged sample's iterate freezes (its count
    is the iteration it converged on, ragged across the batch), and a
    sample that exhausts ``max_iterations`` falls back to the scalar
    :func:`solve_dc` continuation ladder from the original seed — so
    its ``(x, iterations)`` is the ladder's by construction.  Batches
    the lockstep vocabulary cannot stack (topology mismatch, nonlinear
    devices other than :class:`~repro.circuits.controlled.
    NonlinearVCCS`, sparse backends) degrade to per-sample
    :func:`solve_dc` calls wholesale.
    """
    options = options or NewtonOptions()
    circuits = list(circuits)
    if not circuits:
        raise SimulationError("solve_dc_batched requires at least one circuit")
    size = circuits[0].prepare()
    for circuit in circuits[1:]:
        circuit.prepare()
    resolved = resolve_backend(backend, size)
    S = len(circuits)

    def _seed(s: int) -> Optional[np.ndarray]:
        return None if x0 is None else np.asarray(x0[s], dtype=float)

    def _per_sample(indices) -> List[OperatingPoint]:
        return [
            solve_dc(
                circuits[s], options=options, x0=_seed(s), backend=backend
            )
            for s in indices
        ]

    nl_names: List[str] = []
    lockstep = resolved.is_dense
    if lockstep:
        try:
            _check_lockstep(circuits)
        except BatchIncompatible:
            lockstep = False
    if lockstep:
        nl_names = [
            name
            for name in circuits[0].component_names
            if circuits[0][name].is_nonlinear()
        ]
        if any(
            not isinstance(circuits[0][name], NonlinearVCCS)
            for name in nl_names
        ):
            lockstep = False
    if not lockstep:
        ops = _per_sample(range(S))
        return BatchedOperatingPoints(
            circuits,
            np.stack([op.x for op in ops]),
            np.array([op.iterations for op in ops], dtype=np.intp),
        )

    n_nodes = circuits[0].n_nodes
    nl_set = set(nl_names)
    lin_names = [
        name for name in circuits[0].component_names if name not in nl_set
    ]
    # The x-independent stamps: once per sample, not once per Newton
    # iteration.  The gmin diagonal is re-added per iteration *after*
    # the nonlinear stamps so the accumulation order tracks the
    # scalar path (components first, gmin last).
    G_lin = np.empty((S, size, size))
    rhs_lin = np.empty((S, size))
    x_probe = np.zeros(size)
    for s, circuit in enumerate(circuits):
        system = MNASystem(size)
        ctx = StampContext(system=system, x=x_probe, gmin=options.gmin)
        for name in lin_names:
            circuit[name].stamp(ctx)
        G_lin[s] = system.G
        rhs_lin[s] = system.rhs
    diag = np.arange(n_nodes)

    x = (
        np.array(x0, dtype=float, copy=True)
        if x0 is not None
        else np.zeros((S, size))
    )
    if x.shape != (S, size):
        raise SimulationError(
            f"x0 must have shape ({S}, {size}), got {x.shape}"
        )

    if not nl_names:
        G = G_lin.copy()
        G[:, diag, diag] += options.gmin
        solution = _bsolve_dc(G, rhs_lin)
        return BatchedOperatingPoints(
            circuits, solution, np.ones(S, dtype=np.intp)
        )

    # Per-device stacked linearization plans: vectorized across the
    # batch when every sample shares one characteristic family
    # (``vector_pair``), scalar per sample otherwise.
    plans = []
    for name in nl_names:
        devices = [circuit[name] for circuit in circuits]
        op_, on_, cp_, cn_ = devices[0]._n
        vp = devices[0].vector_pair
        if vp is not None and all(d.vector_pair is vp for d in devices):
            params = np.array([d.vector_params for d in devices])
            plans.append((op_, on_, cp_, cn_, vp, params, devices))
        else:
            plans.append((op_, on_, cp_, cn_, None, None, devices))

    iterations = np.zeros(S, dtype=np.intp)
    converged = np.zeros(S, dtype=bool)
    for it in range(options.max_iterations):
        idx = np.flatnonzero(~converged)
        if idx.size == 0:
            break
        G = G_lin[idx].copy()
        rhs = rhs_lin[idx].copy()
        xa = x[idx]
        for op_, on_, cp_, cn_, vp, params, devices in plans:
            v_ctrl = (xa[:, cp_] if cp_ >= 0 else 0.0) - (
                xa[:, cn_] if cn_ >= 0 else 0.0
            )
            if vp is not None:
                i_now, gm = vp(v_ctrl, *params[idx].T)
                gm = np.asarray(gm, dtype=float)
                i_eq = np.asarray(i_now, dtype=float) - gm * v_ctrl
            else:
                gm = np.empty(idx.size)
                i_eq = np.empty(idx.size)
                for k, s in enumerate(idx):
                    gm[k], i_eq[k] = devices[s].linearize(float(v_ctrl[k]))
            if op_ >= 0:
                if cp_ >= 0:
                    G[:, op_, cp_] += gm
                if cn_ >= 0:
                    G[:, op_, cn_] -= gm
                rhs[:, op_] -= i_eq
            if on_ >= 0:
                if cp_ >= 0:
                    G[:, on_, cp_] -= gm
                if cn_ >= 0:
                    G[:, on_, cn_] += gm
                rhs[:, on_] += i_eq
        G[:, diag, diag] += options.gmin
        x_new = _bsolve_dc(G, rhs)
        # Damping and convergence, vectorized but expression-for-
        # expression the scalar Newton's: scale by the largest node-
        # voltage move, compare against abstol + reltol * max|v|.
        delta = x_new - xa
        if n_nodes:
            max_delta = np.abs(delta[:, :n_nodes]).max(axis=1)
        else:
            max_delta = np.zeros(idx.size)
        over = max_delta > options.max_step
        if over.any():
            delta[over] *= (options.max_step / max_delta[over])[:, None]
            max_delta = np.minimum(max_delta, options.max_step)
        x[idx] = xa + delta
        tol = options.abstol_v + options.reltol * (
            np.abs(x[idx][:, :n_nodes]).max(axis=1)
            if n_nodes
            else np.zeros(idx.size)
        )
        done = max_delta < tol
        hit = idx[done]
        converged[hit] = True
        iterations[hit] = it + 1

    stuck = np.flatnonzero(~converged)
    if stuck.size:
        # The lockstep loop *is* the scalar plain-Newton attempt; a
        # sample that exhausted it gets the scalar continuation ladder
        # from its original seed, exactly as solve_dc would.
        for op_point, s in zip(_per_sample(stuck), stuck):
            x[s] = op_point.x
            iterations[s] = op_point.iterations
    return BatchedOperatingPoints(circuits, x, iterations)


class _SourceColumn:
    """One independent source, stacked across samples.

    Evaluates the per-sample stimulus values at a step time and
    scatters them into the stacked RHS.  When every sample shares the
    *same* value function object (common for fixed supplies), the
    stimulus is evaluated once and broadcast.
    """

    def __init__(self, components: List[object]):
        self.components = components
        first = components[0]
        self.is_voltage = isinstance(first, VoltageSource)
        if self.is_voltage:
            self.row = first._b[0]
        else:
            self.a, self.b = first._n[0], first._n[1]
        funcs = [c._func for c in components]
        self.shared = all(f is funcs[0] for f in funcs)
        #: Stacked values of a DC stimulus, hoisted out of the loop
        #: (``dc()`` annotates its functions with ``constant``).
        self.constant: Optional[np.ndarray] = None
        if all(hasattr(f, "constant") for f in funcs):
            self.constant = np.array([f.constant for f in funcs])

    def add_rhs(self, rhs: np.ndarray, time: float) -> None:
        if self.constant is not None:
            values: object = self.constant
        elif self.shared:
            values = self.components[0].value_at(time)
        else:
            values = np.array([c.value_at(time) for c in self.components])
        if self.is_voltage:
            rhs[:, self.row] += values
        else:
            if self.a >= 0:
                rhs[:, self.a] -= values
            if self.b >= 0:
                rhs[:, self.b] += values


class _DeviceColumn:
    """One :class:`NonlinearVCCS` position, stacked across samples.

    Linearizes the device at a vector of per-sample control voltages.
    When every sample's device declares the same batchable
    ``vector_pair`` family, one vectorized call covers the whole
    working set; otherwise a per-sample loop over ``linearize`` keeps
    arbitrary scalar characteristics correct (just slower).
    """

    def __init__(self, devices: List[NonlinearVCCS]):
        self.devices = devices
        first = devices[0]
        self.vectorized = first.vector_pair is not None and all(
            d.vector_pair == first.vector_pair
            and len(d.vector_params) == len(first.vector_params)
            for d in devices
        )
        if self.vectorized:
            self.family = first.vector_pair
            # One (S,) array per family parameter.
            self.params = tuple(
                np.array([d.vector_params[j] for d in devices])
                for j in range(len(first.vector_params))
            )

    def linearize(
        self, v_ctrl: np.ndarray, rows
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(gm, i_eq)`` arrays for the sample subset ``rows`` (``_ALL``
        or an index array)."""
        if self.vectorized:
            i_now, gm = self.family(v_ctrl, *(p[rows] for p in self.params))
            return np.asarray(gm, dtype=float), np.asarray(i_now - gm * v_ctrl)
        gm = np.empty(v_ctrl.size)
        ieq = np.empty(v_ctrl.size)
        for j, s in enumerate(np.arange(len(self.devices))[rows]):
            gm[j], ieq[j] = self.devices[s].linearize(float(v_ctrl[j]))
        return gm, ieq


class _BatchedDtEntry:
    """Everything cached for one quantized step size, stacked:
    ``G_base`` is the frozen ``(S, n, n)`` stack and ``inv`` its
    batched inverse."""

    __slots__ = ("dt", "G_base", "coeffs", "inv", "rank1", "woodbury", "cond")

    def __init__(
        self,
        dt: float,
        coeffs: _ReactiveCoeffs,
        G_base: np.ndarray,
        inv: np.ndarray,
    ):
        self.dt = dt
        self.coeffs = coeffs  # the stacked _ReactiveSet's, (S, m) rows
        self.G_base = G_base  # (S, n, n), frozen
        self.inv = inv  # (S, n, n)
        self.rank1: Optional[tuple] = None  # lazy (w[S,n], vw[S], w_vmax[S])
        self.woodbury: Optional[tuple] = None  # lazy (WU[S,n,k], VWU[S,k,k])
        self.cond: Optional[np.ndarray] = None  # lazy (S,) condition estimates


class BatchedTransientAssembly:
    """Stacked dense linear systems for one lockstep transient run.

    The batched counterpart of :class:`~repro.circuits.assembly.
    TransientAssembly`: the same assembly tiers (static once per step
    size, RHS once per step, nonlinear devices once per Newton
    iteration), with every product carrying a leading sample axis and
    the ``dt``-keyed products living in a small LRU of per-step-size
    entries.  Each sample's static stamps come from its own
    :class:`~repro.circuits.elements.PlainElements` stream, and the
    companion state of every sample lives in one stacked
    ``_ReactiveSet`` with ``(S, m)`` rows — the per-sample engine's
    own implementation, so a sample's companion arithmetic is its
    per-sample run's.  What is left here is the stacked solve (one
    batched inverse per step size), the source and device columns, and
    the ``freeze`` mask the step solver keeps current.

    The stack is dense only: a backend that does not resolve to dense
    for the per-sample unknown count (``"auto"`` at or above
    :data:`~repro.circuits.backend.SPARSE_AUTO_THRESHOLD`, or an
    explicit ``"sparse"``/``"krylov"``) raises
    :class:`BatchIncompatible`.  Lockstep pays off by sharing per-step
    Python work across samples, which at sparse sizes is small next to
    the factorizations; the campaign layer runs such netlists one by
    one instead.
    """

    def __init__(
        self,
        circuits: Sequence[Circuit],
        dt: float,
        method: object,
        gmin: float,
        max_dt_entries: int = DT_CACHE_SIZE,
        backend: object = "auto",
    ):
        circuits = list(circuits)
        if not circuits:
            raise SimulationError("batched run needs at least one circuit")
        for circuit in circuits:
            circuit.prepare()
        _check_lockstep(circuits)
        self.circuits = circuits
        self.n_samples = len(circuits)
        self.method = resolve_method(method)
        self.method_name = self.method.name
        self._order = self.method.usable_order(self.method.max_order, 1)
        self.gmin = gmin
        self.size = circuits[0].size
        self.n_nodes = circuits[0].n_nodes
        # Auto selection keys on the *per-sample* unknown count, like
        # the per-sample engine.
        self.backend = resolve_backend(backend, self.size)
        if not self.backend.is_dense:
            raise BatchIncompatible(
                f"backend {self.backend.name!r}: the lockstep engine "
                "stacks dense systems only; run the samples one by one"
            )
        #: Shared static-stamp structure (identical across samples by
        #: the lockstep topology check), captured on first build.
        self._pattern: Optional[StampPattern] = None
        self._layout = None

        split0, full0 = circuits[0].partition_components()
        full_names = [c.name for c in full0]
        for name in full_names:
            if type(circuits[0][name]) is not NonlinearVCCS:
                raise BatchIncompatible(
                    f"component {name!r} ({type(circuits[0][name]).__name__}) "
                    "is outside the lockstep engine's stamp vocabulary"
                )
        # One PlainElements per sample: each stamps its own static
        # stream, and together they stack the reactive state.
        self.plains = [PlainElements(split0)] + [
            PlainElements(c.partition_components()[0]) for c in circuits[1:]
        ]
        self.reactive = _ReactiveSet(self.plains, self.size)
        if self.method.is_multistep:
            self.reactive.enable_history(
                self.method.history_depth(self.method.max_order)
            )

        # Per-step RHS work: stacked source columns.  Anything else
        # with a dynamic stamp is outside the lockstep vocabulary.
        self.sources: List[_SourceColumn] = []
        for comp in self.plains[0].generic:
            if type(comp).stamp_dynamic is Component.stamp_dynamic:
                continue
            if not isinstance(comp, (VoltageSource, CurrentSource)):
                raise BatchIncompatible(
                    f"component {comp.name!r} has a dynamic stamp the "
                    "lockstep engine cannot vectorize"
                )
            self.sources.append(
                _SourceColumn([c[comp.name] for c in circuits])
            )

        # Nonlinear device columns + constant rank-k structure.
        self.devices: List[_DeviceColumn] = [
            _DeviceColumn([c[name] for c in circuits]) for name in full_names
        ]
        self.k = len(self.devices)
        if self.k:
            U = np.zeros((self.size, self.k))
            V = np.zeros((self.size, self.k))
            cp_idx = np.empty(self.k, dtype=np.intp)
            cn_idx = np.empty(self.k, dtype=np.intp)
            for j, name in enumerate(full_names):
                op, on, cp, cn = circuits[0][name]._n
                if op >= 0:
                    U[op, j] += 1.0
                if on >= 0:
                    U[on, j] -= 1.0
                if cp >= 0:
                    V[cp, j] += 1.0
                if cn >= 0:
                    V[cn, j] -= 1.0
                cp_idx[j], cn_idx[j] = cp, cn
            self.U, self.V = U, V
            self._cp_idx, self._cn_idx = cp_idx, cn_idx

        #: Boolean ``(S,)`` mask of the samples sitting this step out
        #: (quarantined or skipped), or ``None`` while none is; kept
        #: current by the step solver.  Their companion state stays
        #: frozen on commit.
        self.freeze: Optional[np.ndarray] = None

        self.n_factorizations = 0
        self._cache = DtCache(self._build_entry, max_entries=max_dt_entries)
        self._active: _BatchedDtEntry
        self.set_dt(dt)

    # -- dt-keyed cache -------------------------------------------------------

    def _build_entry(
        self, key: Tuple[float, IntegrationMethod, int]
    ) -> _BatchedDtEntry:
        dt, _method, order = key
        S, n = self.n_samples, self.size
        ctx = StampContext(
            system=None,  # a TripletSystem per sample
            x=np.zeros(n),
            time=0.0,
            dt=dt,
            method=self.method_name,
            gmin=self.gmin,
            coeffs=self.method.base_coeffs(order),
        )
        streams = []
        for plain in self.plains:
            ctx.system = TripletSystem(n)
            layout, values = plain.stream(ctx, self.n_nodes)
            if not streams and layout is not self._layout:
                # Sample 0's layout is every sample's (lockstep check).
                self._layout = layout
                self._pattern = StampPattern(n, layout.rows, layout.cols)
            streams.append(values)
        coeffs = self.reactive.coeffs(dt, self.method, order)
        G = np.empty((S, n, n))
        for s, values in enumerate(streams):
            G[s] = self._pattern.dense(values)
        G.setflags(write=False)
        # Invert eagerly: every strategy solves against this entry on
        # its first step anyway, and a singular sample then surfaces as
        # BatchIncompatible *here* — at construction for the initial
        # step size — rather than from inside the time loop.
        try:
            inv = np.linalg.inv(G)
        except np.linalg.LinAlgError as exc:
            raise BatchIncompatible(
                "singular base matrix in batch; the per-sample "
                "engine's least-squares fallback is required"
            ) from exc
        entry = _BatchedDtEntry(dt, coeffs, G, inv)
        self.n_factorizations += 1
        return entry

    def set_dt(
        self, dt: float, ephemeral: bool = False, order: Optional[int] = None
    ) -> None:
        """Make ``(dt, order)`` the active setup (the shared
        :class:`~repro.circuits.assembly.DtCache` policy, keyed by the
        full ``(dt, method, order)`` setup)."""
        if order is not None:
            self._order = int(order)
        # Method-object key, matching the per-sample assembly.
        key = (float(dt), self.method, self._order)
        self._active = self._cache.get(key, ephemeral=ephemeral)

    @property
    def order(self) -> int:
        """The active integration order."""
        return self._order

    @property
    def history_points(self) -> int:
        """Committed states available, including the current one."""
        return self.reactive.history_points

    def reset_history(self) -> None:
        """Invalidate multistep history (used across breakpoints)."""
        self.reactive.reset_history()

    @property
    def dt(self) -> float:
        return self._active.dt

    @property
    def n_dt_entries(self) -> int:
        return len(self._cache)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Base solve of a stacked ``(S, n)`` RHS: one batched mat-vec
        against the cached inverses.

        Mirrors the per-sample :class:`~repro.circuits.linsolve.
        ReusableLU` small-system strategy (explicit inverse, one
        LAPACK call for the whole stack), built eagerly with the entry.
        """
        return _bsolve(self._active.inv, rhs)

    def solve_columns(self, U: np.ndarray) -> np.ndarray:
        """Base solve of shared ``(n, k)`` columns -> ``(S, n, k)``
        (the lockstep topology check makes ``U`` every sample's)."""
        return np.matmul(self._active.inv, U)

    def base_dense(self, s: int) -> np.ndarray:
        """Sample ``s``'s base matrix (fallbacks only)."""
        return self._active.G_base[s]

    def condest_samples(self) -> np.ndarray:
        """Per-sample 1-norm condition numbers of the active entry.

        Exact ``||G||_1 * ||G^-1||_1`` from the cached batched inverse
        (one vectorized reduction, no new factorizations).  Cached on
        the entry; read-only.
        """
        entry = self._active
        if entry.cond is None:
            norm_g = np.abs(entry.G_base).sum(axis=-2).max(axis=-1)
            norm_inv = np.abs(entry.inv).sum(axis=-2).max(axis=-1)
            entry.cond = norm_g * norm_inv
        return entry.cond

    def residual_norms(
        self, x: np.ndarray, rhs_lin: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-sample residual data for post-step certification.

        Returns ``(res, norm_g, scale)``: the inf-norm residual of the
        full nonlinear system ``G_base x + U i_dev(x) - rhs_lin`` per
        sample, the inf-norm of each sample's base matrix, and the
        magnitude scale ``max(|G x|, |rhs|)`` the relative margin
        applies to.  Pure recomputation at the committed iterate.
        """
        G = self._active.G_base
        gx = np.matmul(G, x[..., None])[..., 0]
        norm_g = np.abs(G).sum(axis=-1).max(axis=-1)
        r = gx - rhs_lin
        if self.k:
            rows = np.arange(self.n_samples)
            v_ctrl = self.ctrl_project(x)
            i_now = np.empty((self.n_samples, self.k))
            for j, column in enumerate(self.devices):
                gm, ieq = column.linearize(v_ctrl[:, j], rows)
                i_now[:, j] = ieq + gm * v_ctrl[:, j]
            r = r + i_now @ self.U.T
        res = np.abs(r).max(axis=1) if r.size else np.zeros(self.n_samples)
        scale = np.maximum(
            np.abs(gx).max(axis=1) if gx.size else 0.0,
            np.abs(rhs_lin).max(axis=1) if rhs_lin.size else 0.0,
        )
        return res, norm_g, np.maximum(scale, 1e-30)

    # -- rank-k structure ------------------------------------------------------

    def ctrl_project(self, vec: np.ndarray) -> np.ndarray:
        """``V^T vec`` per sample: ``(S, size) -> (S, k)``."""
        cp, cn = self._cp_idx, self._cn_idx
        vp = np.where(cp >= 0, vec[:, np.maximum(cp, 0)], 0.0)
        vn = np.where(cn >= 0, vec[:, np.maximum(cn, 0)], 0.0)
        return vp - vn

    def rank1_data(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked Sherman–Morrison data ``(w[S,n], vw[S], w_vmax[S])``."""
        entry = self._active
        if entry.rank1 is None:
            w = self.solve_columns(self.U[:, :1])[..., 0]  # (S, n)
            vw = self.ctrl_project(w)[:, 0]
            w_v = w[:, : self.n_nodes]
            w_vmax = (
                np.abs(w_v).max(axis=1) if w_v.shape[1] else np.zeros(len(w))
            )
            entry.rank1 = (w, vw, w_vmax)
        return entry.rank1

    def woodbury_data(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked Woodbury data ``(WU[S,n,k], VWU[S,k,k])``."""
        entry = self._active
        if entry.woodbury is None:
            WU = self.solve_columns(self.U)  # (S, n, k)
            # VWU[s, j, l] = v_j^T W u_l, batched over samples.
            VWU = np.matmul(self.V.T[np.newaxis, :, :], WU)
            entry.woodbury = (WU, VWU)
        return entry.woodbury

    # -- state ----------------------------------------------------------------

    def init_state(self, x: np.ndarray) -> None:
        """Seed integrator state per sample (honours per-element ic)."""
        self.reactive.init_state(x)

    def snapshot_state(self) -> tuple:
        return self.reactive.snapshot()

    def restore_state(self, snapshot: tuple) -> None:
        self.reactive.restore(snapshot)

    # -- once per step ---------------------------------------------------------

    def step_rhs(self, time: float, x: np.ndarray) -> np.ndarray:
        """Stacked linear right-hand side for one step.

        ``x`` (the per-sample assembly's iterate argument) is unused:
        the stacked stamp vocabulary has no iterate-dependent RHS.
        """
        rhs = self.reactive.companion_rhs(self._active.coeffs)
        for source in self.sources:
            source.add_rhs(rhs, time)
        return rhs

    # -- after a converged step ------------------------------------------------

    def commit(self, x: np.ndarray, time: float) -> None:
        """Advance every sample's integrator state after one step;
        samples in ``freeze`` keep theirs exactly."""
        self.reactive.commit(self._active.coeffs, x, time, self.freeze)


class _BatchedStepSolver:
    """Per-run lockstep Newton driver with a sample convergence mask.

    Two masks with different lifetimes: the per-iteration ``active``
    working set (converged samples drop out of a step's Newton loop)
    and the per-run ``quarantined`` mask — samples the engine has
    given up on.  Quarantined samples never enter another Newton
    working set, their iterate rows stay frozen at the last converged
    step, and their companion state is frozen on commit; the rest of
    the batch integrates on untouched.
    """

    def __init__(
        self,
        assembly: BatchedTransientAssembly,
        options: NewtonOptions,
        quarantine: bool = False,
        guards: bool = False,
        health: Optional[list] = None,
    ):
        self.assembly = assembly
        self.options = options
        self.n_nodes = assembly.n_nodes
        S = assembly.n_samples
        #: Per-sample Newton-solve counters (ragged convergence shows
        #: up here: converged samples stop accumulating).
        self.newton_per_sample = np.zeros(S, dtype=np.int64)
        #: MNA solves: stacked ones count for every sample, dense
        #: fallbacks for their own sample only.
        self.stacked_solves = 0
        self.fallback_solves = np.zeros(S, dtype=np.int64)
        self.quarantine_enabled = bool(quarantine)
        self.quarantined = np.zeros(S, dtype=bool)
        #: Per-step *skip* mask (envelope campaigns): samples masked
        #: here sit this step out exactly like quarantined ones —
        #: frozen iterate, frozen companion state — but the mask is
        #: re-evaluated every step, so a sample in a skipped envelope
        #: phase coexists in the stack with carrier-resolved
        #: neighbours and resumes when its mask clears.
        self.skipped = np.zeros(S, dtype=bool)
        self.skipped_steps = np.zeros(S, dtype=np.int64)
        #: One record per quarantined sample: sample index, the time
        #: the sample died, and why.
        self.quarantine_records: List[Dict[str, object]] = []
        self.guards = bool(guards)
        self.health = health if health is not None else []
        self._cond_checked: set = set()
        if assembly.k == 0:
            self.strategy = "batched-linear"
        elif assembly.k == 1:
            self.strategy = "batched-rank1"
            self._cp = int(assembly._cp_idx[0])
            self._cn = int(assembly._cn_idx[0])
        else:
            self.strategy = "batched-woodbury"
        #: The per-sample engine's Newton predictor, on ``(S,)`` arrays.
        self.predictor = (
            NewtonPredictor() if self.strategy == "batched-rank1" else None
        )

    @property
    def freeze(self) -> Optional[np.ndarray]:
        """``frozen``, or ``None`` while no sample is frozen (kept
        current on the assembly by ``set_skipped`` and ``quarantine``)."""
        return self.assembly.freeze

    @property
    def frozen(self) -> np.ndarray:
        """Samples sitting this step out (quarantined or skipped)."""
        return self.quarantined if self.freeze is None else self.freeze

    def _refreeze(self) -> None:
        frozen = self.quarantined | self.skipped
        self.assembly.freeze = frozen if frozen.any() else None

    def set_skipped(self, mask: Optional[np.ndarray]) -> None:
        """Install this step's skip mask (``None`` clears it)."""
        if mask is None:
            self.skipped[:] = False
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self.skipped.shape:
                raise SimulationError(
                    f"skip mask shape {mask.shape} != ({len(self.skipped)},)"
                )
            np.copyto(self.skipped, mask)
        self._refreeze()

    def _ctrl1(self, vec: np.ndarray) -> np.ndarray:
        """k=1 control projection ``(S, size) -> (S,)`` without the
        generic gather machinery (this sits in the hot loop)."""
        cp, cn = self._cp, self._cn
        if cp >= 0 and cn >= 0:
            return vec[:, cp] - vec[:, cn]
        if cp >= 0:
            return vec[:, cp].copy()
        if cn >= 0:
            return -vec[:, cn]
        return np.zeros(len(vec))

    def note_commit(self, time: float, x: np.ndarray, restart: bool = False) -> None:
        """``_StepSolver.note_commit`` for the whole batch (frozen
        samples feed their frozen rows)."""
        predictor = self.predictor
        if predictor is not None:
            if restart:
                predictor.reset()
            predictor.push(time, self._ctrl1(x))

    # -- shared helpers -------------------------------------------------------

    def _tol(self, x: np.ndarray) -> np.ndarray:
        """Per-sample convergence tolerance from the node voltages."""
        options = self.options
        if self.n_nodes == 0:
            return np.full(len(x), options.abstol_v)
        return options.abstol_v + options.reltol * _row_max(
            np.abs(x[:, : self.n_nodes])
        )

    def _fail(self, time: float, active: np.ndarray) -> ConvergenceError:
        rows = np.nonzero(active)[0]
        # failed_samples names the still-unconverged samples: the
        # quarantine loops mask exactly these out, and the campaign
        # layer uses them to attribute a collective lockstep failure.
        return ConvergenceError(
            f"batched transient Newton failed at t={time:.4e} for "
            f"sample(s) {rows.tolist()}",
            iterations=self.options.max_iterations,
            time=time,
            dt=self.assembly.dt,
            phase="step",
            failed_samples=rows.tolist(),
        )

    def _fail_health(self, time: float, rows: np.ndarray, why: str) -> ConvergenceError:
        """A health-guard failure for specific samples.

        ``phase="health"`` routes it through the same quarantine loops
        as a Newton failure, but with the ``"health"`` reason and —
        in the adaptive loop — without pointless dt shrinking (the
        same NaN reappears at any step size).
        """
        rows = [int(s) for s in rows]
        return ConvergenceError(
            f"{why} at t={time:.4e} for sample(s) {rows}",
            time=time,
            dt=self.assembly.dt,
            phase="health",
            failed_samples=rows,
        )

    def _guard_conditioning(self, time: float) -> None:
        """One-time per-dt-entry condition screen of the batch.

        Ill-conditioned samples get a warning
        :class:`~repro.circuits.health.HealthReport`; when quarantine
        is enabled they are additionally masked out of the batch via a
        health-phase failure (their waveforms would be numerically
        meaningless).
        """
        entry = self.assembly._active
        key = id(entry)
        if key in self._cond_checked:
            return
        self._cond_checked.add(key)
        cond = self.assembly.condest_samples()
        bad = (~np.isfinite(cond) | (cond > CONDITION_LIMIT)) & (
            ~self.quarantined
        )
        rows = np.flatnonzero(bad)
        if rows.size == 0:
            return
        for s in rows:
            self.health.append(
                HealthReport(
                    "ill_conditioned",
                    f"sample {int(s)} condition estimate {cond[s]:.3e} "
                    f"exceeds limit {CONDITION_LIMIT:.1e} at "
                    f"t={time:.4e}",
                    severity="warning",
                    time=time,
                    sample=int(s),
                    value=float(cond[s]),
                )
            )
        if self.quarantine_enabled:
            raise self._fail_health(time, rows, "ill-conditioned factorization")

    def quarantine(self, rows, time: float, reason: str) -> None:
        """Mask samples out of the batch; record what died and why."""
        for s in rows:
            s = int(s)
            if not self.quarantined[s]:
                self.quarantined[s] = True
                self.quarantine_records.append(
                    {"sample": s, "time": float(time), "reason": reason}
                )
        self._refreeze()

    def _injected(self, time: float) -> Optional[np.ndarray]:
        """Fault-injection mask from the test-only fail hook."""
        hook = self.options.fail_hook
        if hook is None:
            return None
        circuits = self.assembly.circuits
        inject = np.array(
            [
                not self.quarantined[s] and bool(hook(time, "step", circuits[s]))
                for s in range(self.assembly.n_samples)
            ],
            dtype=bool,
        )
        return inject if inject.any() else None

    def _dense_fallback(
        self,
        s: int,
        x: np.ndarray,
        rhs_lin: np.ndarray,
        gms: np.ndarray,
        ieqs: np.ndarray,
    ) -> Tuple[np.ndarray, float]:
        """One damped dense Newton step for a single stuck sample.

        Mirrors the per-sample engine's singular-denominator escape:
        assemble the full Jacobian for this sample at its current
        linearization and take one damped dense-solve step.
        """
        asm = self.assembly
        self.fallback_solves[s] += 1
        G = asm.base_dense(s) + asm.U @ (gms[:, None] * asm.V.T)
        rhs = rhs_lin[s] - asm.U @ ieqs
        x_new = solve_dense(G, rhs)
        delta = x_new - x[s]
        v_delta = delta[: self.n_nodes]
        max_delta = float(np.abs(v_delta).max()) if v_delta.size else 0.0
        if max_delta > self.options.max_step:
            delta = delta * (self.options.max_step / max_delta)
            max_delta = self.options.max_step
        return x[s] + delta, max_delta

    # -- one lockstep time step ------------------------------------------------

    def step(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        inject = self._injected(time)
        if inject is not None:
            raise self._fail(time, inject)
        if self.guards:
            self._guard_conditioning(time)
            # Screen the stimulus before burning Newton iterations on
            # samples whose RHS is already poisoned.
            rows = nonfinite_sample_rows(rhs_lin, eligible=~self.frozen)
            if rows.size:
                self._record_nonfinite(rows, time, "non-finite step RHS")
                raise self._fail_health(time, rows, "non-finite step RHS")
        if self.strategy == "batched-linear":
            self.stacked_solves += 1
            x_new = self.assembly.solve(rhs_lin)
            if self.freeze is not None:
                x_new[self.freeze] = x[self.freeze]
        elif self.strategy == "batched-rank1":
            x_new = self._step_rank1(x, rhs_lin, time)
        else:
            x_new = self._step_woodbury(x, rhs_lin, time)
        if self.guards:
            rows = nonfinite_sample_rows(x_new, eligible=~self.frozen)
            if rows.size:
                self._record_nonfinite(rows, time, "non-finite step solution")
                raise self._fail_health(time, rows, "non-finite step solution")
        return x_new

    def _record_nonfinite(self, rows: np.ndarray, time: float, why: str) -> None:
        for s in rows:
            self.health.append(
                HealthReport(
                    "nonfinite",
                    f"{why} for sample {int(s)} at t={time:.4e}",
                    time=time,
                    sample=int(s),
                )
            )

    def _step_rank1(
        self, x: np.ndarray, rhs_lin: np.ndarray, time: float
    ) -> np.ndarray:
        """Vectorized mirror of the per-sample Sherman–Morrison step.

        Every sample runs exactly the scalarized iteration of
        ``_StepSolver._step_rank1`` — same on-the-line shortcut, same
        damping rule, same convergence estimate (``|c - q| * w_vmax``
        is the exact node-voltage delta on the line) — just stacked,
        with converged samples leaving the working set.

        The working set and each branch's share are full views while
        every sample is active and on one side of the line (the
        lockstep norm), index arrays only once the set is ragged:
        converged, frozen or skipped samples, mixed branches, a
        singular denominator.  Every formula is elementwise, so a
        sample's arithmetic is the same either way.

        Samples start on the line at the shared predictor's
        extrapolated control voltage, under the per-sample kernel's
        rule: from ``x_n`` with fewer than three committed points, and
        per sample where the prediction is a damped move away.
        """
        asm = self.assembly
        options = self.options
        device = asm.devices[0]
        w, vw, w_vmax = asm.rank1_data()
        n = self.n_nodes
        max_step = options.max_step
        S = asm.n_samples
        self.stacked_solves += 1
        z_lin = asm.solve(rhs_lin)
        zl_c = self._ctrl1(z_lin)
        x = x.copy()
        tol = self._tol(x)
        v_ctrl = self._ctrl1(x)
        on_line = np.zeros(S, dtype=bool)
        c = np.zeros(S)
        v_pred = self.predictor.predict(time)
        if v_pred is not None:
            on_line = np.abs(v_pred - v_ctrl) * w_vmax < max_step * np.abs(vw)
            if _subset(_ALL, on_line) is _ALL:  # the lockstep norm
                c = (zl_c - v_pred) / vw
                v_ctrl = zl_c - c * vw
            else:
                np.divide(zl_c - v_pred, vw, out=c, where=on_line)
                v_ctrl = np.where(on_line, zl_c - c * vw, v_ctrl)
        # Quarantined and skipped samples never enter the working set:
        # their rows of ``x`` stay frozen at the last converged iterate.
        active = ~self.frozen
        for _iteration in range(options.max_iterations):
            rows = _subset(_ALL, active)
            if rows is None:
                return x
            gm, ieq = device.linearize(v_ctrl[rows], rows)
            self.newton_per_sample[rows] += 1
            denom = 1.0 + gm * vw[rows]
            bad = np.abs(denom) < 1e-12
            if np.count_nonzero(bad):
                # Jacobian momentarily singular along the rank-1
                # direction for these samples: dense fallback step.
                rows = np.arange(S)[rows]
                for j in np.flatnonzero(bad):
                    s = rows[j]
                    if on_line[s]:
                        x[s] = z_lin[s] - c[s] * w[s]
                        on_line[s] = False
                    x[s], last = self._dense_fallback(
                        s, x, rhs_lin, np.array([gm[j]]), np.array([ieq[j]])
                    )
                    v_ctrl[s] = asm.ctrl_project(x[s : s + 1])[0, 0]
                    if last < tol[s]:
                        active[s] = False
                keep = ~bad
                rows, gm, ieq, denom = rows[keep], gm[keep], ieq[keep], denom[keep]
                if rows.size == 0:
                    continue
            q = ieq + gm * (zl_c[rows] - ieq * vw[rows]) / denom

            mask_on = on_line[rows]
            ro = _subset(rows, mask_on)
            rf = None if ro is rows else _subset(rows, ~mask_on)
            # -- samples already on the z_lin - c*w line: scalar update.
            if ro is not None:
                qo = q if ro is rows else q[mask_on]
                last = np.abs(c[ro] - qo) * w_vmax[ro]
                damped = last > max_step
                if np.count_nonzero(damped):
                    scale = np.where(
                        damped, max_step / np.where(damped, last, 1.0), 1.0
                    )
                    c[ro] = np.where(damped, c[ro] + scale * (qo - c[ro]), qo)
                    last = np.where(damped, max_step, last)
                else:
                    c[ro] = qo
                v_ctrl[ro] = zl_c[ro] - c[ro] * vw[ro]
                done = _subset(ro, last < tol[ro])
                if done is not None:
                    x[done] = z_lin[done] - c[done, None] * w[done]
                    active[done] = False
            # -- samples still off the line: full-vector damped update.
            if rf is not None:
                qf = q if rf is rows else q[~mask_on]
                x_new = z_lin[rf] - qf[:, None] * w[rf]
                delta = x_new - x[rf]
                v_delta = np.abs(delta[:, :n])
                maxd = _row_max(v_delta) if n else np.zeros(qf.size)
                hit = maxd >= max_step  # damped (or exactly at the cap):
                # stays off the line, like the per-sample branch.
                if np.count_nonzero(hit):
                    scale = np.where(
                        maxd > max_step,
                        max_step / np.where(maxd > 0, maxd, 1.0),
                        1.0,
                    )
                    x[rf] = np.where(
                        hit[:, None], x[rf] + delta * scale[:, None], x_new
                    )
                    maxd = np.minimum(maxd, max_step)
                    v_ctrl[rf] = np.where(
                        hit,
                        self._ctrl1(x[rf]),
                        zl_c[rf] - qf * vw[rf],
                    )
                else:
                    x[rf] = x_new
                    v_ctrl[rf] = zl_c[rf] - qf * vw[rf]
                # ``c`` is only read on the line, so the damped
                # samples' entries are don't-cares until they land.
                on_line[rf] = ~hit
                c[rf] = qf
                active[rf] = ~(maxd < tol[rf])
        if active.any():
            raise self._fail(time, active)
        return x

    def _step_woodbury(
        self, x: np.ndarray, rhs_lin: np.ndarray, time: float
    ) -> np.ndarray:
        """Rank-k Newton via the Woodbury identity around the step's
        one stacked solve (a ``k×k`` system per sample and iterate),
        with the rank-1 kernel's working-set selection."""
        asm = self.assembly
        options = self.options
        k = asm.k
        n = self.n_nodes
        eye_k = np.eye(k)
        WU, VWU = asm.woodbury_data()
        self.stacked_solves += 1
        z_lin = asm.solve(rhs_lin)
        x = x.copy()
        v_ctrl = asm.ctrl_project(x)
        active = ~self.frozen
        for _iteration in range(options.max_iterations):
            rows = _subset(_ALL, active)
            if rows is None:
                return x
            # Contiguous columns: a device family sees the same memory
            # layout whether the working set is a view or a gather.
            v_rows = np.ascontiguousarray(v_ctrl[rows].T)
            gms = np.empty((v_rows.shape[1], k))
            ieqs = np.empty_like(gms)
            for j, column in enumerate(asm.devices):
                gms[:, j], ieqs[:, j] = column.linearize(v_rows[j], rows)
            self.newton_per_sample[rows] += 1
            Wb = z_lin[rows] - np.matmul(WU[rows], ieqs[..., None])[..., 0]
            VWb = asm.ctrl_project(Wb)
            M = eye_k + VWU[rows] * gms[:, None, :]
            try:
                s_sol = np.linalg.solve(M, VWb[..., None])[..., 0]
                x_new = Wb - np.matmul(WU[rows], (gms * s_sol)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # A sample's small matrix is singular along the rank-k
                # directions: the batch re-solves sample by sample, and
                # only the singular samples take a fully assembled
                # dense solve.
                x_new = np.empty_like(Wb)
                for j, s in enumerate(np.arange(len(x))[rows]):
                    try:
                        sj = np.linalg.solve(M[j], VWb[j])
                        x_new[j] = Wb[j] - WU[s] @ (gms[j] * sj)
                    except np.linalg.LinAlgError:
                        self.fallback_solves[s] += 1
                        G = asm.base_dense(s) + asm.U @ (
                            gms[j][:, None] * asm.V.T
                        )
                        x_new[j] = solve_dense(G, rhs_lin[s] - asm.U @ ieqs[j])
            delta = x_new - x[rows]
            v_delta = np.abs(delta[:, :n])
            maxd = _row_max(v_delta) if n else np.zeros(len(gms))
            over = maxd > options.max_step
            scale = np.where(over, options.max_step / np.where(over, maxd, 1.0), 1.0)
            x[rows] += delta * scale[:, None]
            maxd = np.minimum(maxd, options.max_step)
            v_ctrl[rows] = asm.ctrl_project(x[rows])
            active[rows] = ~(maxd < self._tol(x[rows]))
        if active.any():
            raise self._fail(time, active)
        return x


class _BatchedCertifier:
    """Post-step certification, S samples wide.

    The lockstep counterpart of the per-sample engine's certifier:
    every accepted step's full nonlinear residual is recomputed at the
    committed iterate (base matrix product plus device currents) and
    checked per sample against the same Newton-tolerance-derived
    threshold, and the committed companion state is spot-checked
    against the committed iterate.  Frozen (quarantined or skipped)
    samples are exempt from both checks — their rows are frozen, not
    solved.  Pure recomputation; never mutates the run.
    """

    def __init__(
        self,
        assembly: BatchedTransientAssembly,
        options: TransientOptions,
        health: list,
    ):
        self.assembly = assembly
        self.newton = options.newton
        self.health = health
        self.checked = 0

    def check_step(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> None:
        self.checked += 1
        asm = self.assembly
        eligible = None if asm.freeze is None else ~asm.freeze
        res, norm_g, scale = asm.residual_norms(x, rhs_lin)
        n = asm.n_nodes
        if n:
            v_max = np.abs(x[:, :n]).max(axis=1)
        else:
            v_max = np.zeros(len(x))
        tol_v = self.newton.abstol_v + self.newton.reltol * v_max
        threshold = 10.0 * norm_g * tol_v + CERTIFY_RTOL * scale
        bad = ~np.isfinite(res) | (res > threshold)
        if eligible is not None:
            bad &= eligible
        for s in np.flatnonzero(bad):
            self.health.append(
                HealthReport(
                    "residual",
                    f"sample {int(s)} accepted-step residual "
                    f"{res[s]:.3e} exceeds the certification threshold "
                    f"{threshold[s]:.3e} at t={time:.4e}",
                    time=time,
                    sample=int(s),
                    value=float(res[s]),
                )
            )

    def check_state(self, x: np.ndarray, time: float) -> None:
        """Per-sample charge/flux spot-check of the committed state."""
        asm = self.assembly
        nonfinite, charge, flux = asm.reactive.state_faults(x)
        bad = nonfinite | charge | flux
        if asm.freeze is not None:
            bad &= ~asm.freeze
        for s in np.flatnonzero(bad):
            self.health.append(
                HealthReport(
                    "state",
                    f"sample {int(s)} reactive integrator state disagrees "
                    f"with its committed solution at t={time:.4e}",
                    time=time,
                    sample=int(s),
                )
            )

    def check_grid(self, times: np.ndarray, options: TransientOptions) -> None:
        check_grid_invariants(times, options.t_stop, self.health)


def run_transient_batched(
    circuits: Sequence[Circuit],
    options: Optional[TransientOptions] = None,
    skip_mask=None,
) -> List[TransientResult]:
    """Integrate S same-topology circuits in one lockstep time loop.

    Returns one :class:`~repro.circuits.transient.TransientResult` per
    input circuit, in order, equivalent to running
    :func:`~repro.circuits.transient.run_transient` per sample (the
    equivalence tests pin this at rtol 1e-9 for the strategies the
    lockstep engine covers).  ``step_control="adaptive"`` integrates
    every sample on one shared grid sized by the worst sample's LTE.

    Raises :class:`BatchIncompatible` when the netlists cannot be
    stacked: differing topology, nonlinear devices other than
    :class:`~repro.circuits.controlled.NonlinearVCCS`, a non-``"auto"``
    Jacobian mode, components outside the stamp split's vectorizable
    vocabulary, a backend that does not resolve to dense
    (``options.backend`` ``"sparse"`` or ``"krylov"``, or ``"auto"``
    at :data:`~repro.circuits.backend.SPARSE_AUTO_THRESHOLD` unknowns
    per sample or more), a singular stacked base matrix (see the
    exception's docstring for when each case fires), or a ``phases``
    schedule (the stacked assembly has no live method switch).

    Both grids run the per-sample engine's time loops, so every run
    option the lockstep engine supports behaves as in
    :func:`~repro.circuits.transient.run_transient`: ``breakpoints``
    and ``breakpoint_sources`` (adaptive), ``max_steps`` /
    ``max_wall_time`` budgets and ``on_abort`` ("raise" vs
    "partial"), ``preflight``, ``guards`` and ``certify``.  The one
    per-sample option it leaves to the caller is ``rescue``: the
    campaign layer reruns quarantined samples solo with the rescue
    ladder.  ``options.quarantine`` masks a sample whose Newton fails
    (fixed grid: on any step; adaptive: at the dt floor, or on LTE
    underflow) out of the lockstep batch — its iterate and companion
    state freeze at the last converged step, its stats gain
    ``quarantined=True`` and a ``quarantine`` record, and the
    survivors finish; an all-samples quarantine aborts with reason
    ``"all_quarantined"``.

    ``skip_mask(time) -> (S,) bool array or None`` is the per-sample
    envelope skip hook: samples masked at a step keep their iterate
    and companion state frozen for that step (exactly the quarantine
    freeze, but re-evaluated every step), so samples in skipped
    envelope phases coexist in one stack with carrier-resolved
    neighbours.  Per-sample ``stats["skipped_steps"]`` counts the
    steps each sample sat out.
    """
    options = options or TransientOptions()
    if options.jacobian != "auto":
        raise BatchIncompatible(
            f"jacobian={options.jacobian!r} has no lockstep equivalent"
        )
    if options.phases is not None:
        raise BatchIncompatible(
            "phases switch the integration method live, which the "
            "stacked assembly cannot; run the samples one by one"
        )
    # Lockstep batches share one topology; linting the first sample
    # covers the structural findings for all of them.  Empty batches
    # fall through to the assembly's own BatchIncompatible.
    preflight_diags = (
        apply_preflight(circuits[0], options.preflight, options, analysis="tran")
        if circuits
        else []
    )
    assembly = BatchedTransientAssembly(
        circuits,
        options.dt,
        options.resolved_method(),
        options.newton.gmin,
        backend=options.backend,
    )
    circuits = assembly.circuits
    S = assembly.n_samples
    size = assembly.size

    if options.use_dc_operating_point:
        x = solve_dc_batched(
            circuits, options=options.newton, backend=options.backend
        ).x
    else:
        x = np.zeros((S, size))
    assembly.init_state(x)

    health: List[HealthReport] = []
    solver = _BatchedStepSolver(
        assembly,
        options.newton,
        quarantine=options.quarantine,
        guards=options.guards,
        health=health,
    )
    certifier = (
        _BatchedCertifier(assembly, options, health)
        if options.certify
        else None
    )

    record_indices, recorded_nodes, n_columns = _resolve_recording(
        circuits[0], options
    )
    recorder = _RecordingBuffer(
        (S, n_columns), _record_capacity(options), record_indices
    )
    budget = _RunBudget.for_options(options)
    recorder.append(0.0, x)
    solver.note_commit(0.0, x)
    try:
        if options.step_control == "fixed":
            _, run_stats = _run_fixed(
                options, assembly, solver, x, recorder, certifier, None,
                budget, skip_mask=skip_mask,
            )
        else:
            _, run_stats = _run_adaptive(
                circuits, options, assembly, solver, x, recorder, certifier,
                None, budget, skip_mask,
            )
    except _RunAbort as abort:
        run_stats = abort.translate(options.on_abort)

    quarantine_by_sample: Dict[int, Dict[str, object]] = {}
    if solver.quarantine_enabled:
        run_stats["quarantined_samples"] = np.nonzero(solver.quarantined)[
            0
        ].tolist()
        quarantine_by_sample = {
            int(record["sample"]): record for record in solver.quarantine_records
        }

    times, records = recorder.arrays(copy_x=False)
    if certifier is not None:
        certifier.check_grid(times, options)
    results: List[TransientResult] = []
    for s, circuit in enumerate(circuits):
        stats: Dict[str, object] = {
            "strategy": solver.strategy,
            "backend": assembly.backend.name,
            "step_control": options.step_control,
            "newton_iterations": int(solver.newton_per_sample[s]),
            "solves": solver.stacked_solves + int(solver.fallback_solves[s]),
            "lu_refactorizations": assembly.n_factorizations,
            "batch_samples": S,
        }
        if skip_mask is not None:
            stats["skipped_steps"] = int(solver.skipped_steps[s])
        stats.update(run_stats)
        if solver.quarantine_enabled:
            stats["quarantined"] = bool(solver.quarantined[s])
            if s in quarantine_by_sample:
                stats["quarantine"] = quarantine_by_sample[s]
        stats.update(
            _health_stats(
                options,
                [r for r in health if r.sample in (None, s)],
                certifier,
                preflight_diags,
            )
        )
        results.append(
            TransientResult(
                circuit=circuit,
                t=times,
                x=records[:, s, :].copy(),
                recorded_nodes=recorded_nodes,
                stats=stats,
            )
        )
    return results


def probe_stiffness_ratios(
    circuits: Sequence[Circuit],
    options: Optional[TransientOptions] = None,
) -> Optional[np.ndarray]:
    """Rank samples by stiffness: per-sample probe-step LTE ratios.

    A lockstep probe — a full step of ``options.dt`` and the same
    step as two halves, both from the DC operating point — yields each
    sample's Richardson LTE estimate over tolerance
    (:meth:`~repro.circuits.stepcontrol.StepController.
    error_ratio_samples`).  A large ratio means the sample needs a
    small step to hold tolerance: it is *stiff* relative to its batch
    peers.  When the stimuli declare breakpoints (pulse/pwl sources),
    a second probe runs just past the *earliest* breakpoint and the
    rankings combine by elementwise max: a pulse-driven netlist is
    electrically inert at t=0, so a first-step-only probe would rank
    every sample identically and the clustering would be noise.  The
    sharded campaign layer feeds this ranking to
    :func:`~repro.circuits.stepcontrol.stiffness_bins` so sub-batches
    group samples of similar stiffness.

    The probe is advisory: any failure — netlists the lockstep engine
    cannot stack, a diverging DC or probe Newton solve — returns
    ``None`` and the caller proceeds unclustered.  Probe state is
    thrown away; the actual campaign re-runs from its own DC seed.
    """
    options = options or TransientOptions()
    if options.jacobian != "auto":
        return None
    try:
        assembly = BatchedTransientAssembly(
            circuits,
            options.dt,
            options.resolved_method(),
            options.newton.gmin,
            backend=options.backend,
        )
        S = assembly.n_samples
        if options.use_dc_operating_point:
            x = solve_dc_batched(
                assembly.circuits, options=options.newton, backend=options.backend
            ).x
        else:
            x = np.zeros((S, assembly.size))
        assembly.init_state(x)
        solver = _BatchedStepSolver(assembly, options.newton, quarantine=False)
        method = assembly.method
        controller = _step_controller(options, method, options.dt)
        dt = options.dt
        half = 0.5 * dt
        order = (
            controller.candidate_order(assembly.history_points)
            if method.is_multistep
            else None
        )

        def probe_at(t0: float) -> np.ndarray:
            """One full/half Richardson probe starting at ``t0``.

            Companion state is snapshotted and restored so probes are
            independent; every probe steps from the same DC iterate.
            """
            snapshot = assembly.snapshot_state()
            try:
                assembly.set_dt(dt, order=order)
                x_full = solver.step(x, assembly.step_rhs(t0 + dt, x), t0 + dt)
                assembly.set_dt(half, ephemeral=True, order=order)
                x_mid = solver.step(x, assembly.step_rhs(t0 + half, x), t0 + half)
                assembly.commit(x_mid, t0 + half)
                x_half = solver.step(
                    x_mid, assembly.step_rhs(t0 + dt, x_mid), t0 + dt
                )
            finally:
                assembly.restore_state(snapshot)
            return controller.error_ratio_samples(
                x_full, x_half, assembly.n_nodes
            )

        ratios = probe_at(0.0)
        bp: set = set()
        for circuit in circuits:
            bp.update(collect_breakpoints(circuit, options.t_stop))
        inside = sorted(t for t in bp if t + dt <= options.t_stop)
        if inside:
            ratios = np.maximum(ratios, probe_at(inside[0]))
    except (BatchIncompatible, ConvergenceError, SimulationError):
        return None
    return ratios
