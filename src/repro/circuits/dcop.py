"""DC operating point and DC sweep analyses.

The Newton solver uses update damping plus two homotopy fallbacks
(gmin stepping, then source stepping), which is enough for every
circuit in this library including the floating-supply output-stage
sweeps of Fig 17/18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..campaigns.runner import run_chain
from ..errors import ConvergenceError
from .backend import MatrixBackend, SparseBackend, resolve_backend
from .component import MNASystem, StampContext, TripletSystem
from .elements import PlainElements
from .linsolve import damp_voltage_delta, solve_dense
from .netlist import Circuit
from .sources import CurrentSource, VoltageSource

__all__ = [
    "NewtonOptions",
    "OperatingPoint",
    "continuation_ladder",
    "solve_dc",
    "dc_sweep",
    "SweepResult",
]


@dataclass
class NewtonOptions:
    """Tuning knobs for the Newton solve."""

    max_iterations: int = 200
    abstol_v: float = 1e-9
    reltol: float = 1e-6
    #: Largest per-iteration change applied to any unknown (damping).
    max_step: float = 0.5
    gmin: float = 1e-12
    #: Sequence of gmin values for gmin stepping (largest first).
    gmin_steps: Sequence[float] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12)
    #: Number of source-stepping points.
    source_steps: int = 20
    #: Test-only deterministic fault injection for the transient
    #: engines: ``fail_hook(time, phase, circuit) -> bool`` is
    #: consulted before each transient Newton step (``phase="step"``)
    #: and each rescue-ladder stage (``phase="rescue"``); returning
    #: True makes that solve fail as if Newton diverged.  The hook
    #: must be picklable (module-level) for process campaigns.  The
    #: DC solver ignores it.
    fail_hook: Optional[Callable[[float, str, object], bool]] = None


@dataclass
class OperatingPoint:
    """Converged DC solution with name-based access."""

    circuit: Circuit
    x: np.ndarray
    iterations: int

    def voltage(self, node: str) -> float:
        return self.circuit.voltage(self.x, node)

    def differential(self, node_p: str, node_n: str) -> float:
        return self.circuit.differential(self.x, node_p, node_n)

    def branch_current(self, component_name: str) -> float:
        """Branch current of a voltage source / inductor / VCVS."""
        component = self.circuit[component_name]
        branches = component.branch_indices
        if not branches:
            raise ConvergenceError(
                f"{component_name} has no branch current; "
                "only voltage-defined components do"
            )
        return float(self.x[branches[0]])

    def voltages(self) -> Dict[str, float]:
        return {node: self.voltage(node) for node in self.circuit.node_names}


def _assemble(circuit: Circuit, x: np.ndarray, gmin: float, source_scale: float) -> MNASystem:
    """The dense system: every component's full stamp, then the global
    gmin from every node to ground that keeps floating nets solvable."""
    system = MNASystem(circuit.size)
    ctx = StampContext(system=system, x=x, gmin=gmin, source_scale=source_scale)
    for component in circuit:
        component.stamp(ctx)
    for i in range(circuit.n_nodes):
        system.add_G(i, i, gmin)
    return system


def _stamp_system(
    circuit: Circuit,
    plain: PlainElements,
    x: np.ndarray,
    gmin: float,
    source_scale: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sparse DC stamp as ``(rows, cols, values, rhs)``.

    The same triplet stream as stamping every component of ``circuit``
    in order into a :class:`TripletSystem` and then adding ``gmin`` on
    every node's diagonal (the dense :func:`_assemble` sequence), with
    the type-exact R, C and L of ``plain`` (a
    :class:`~repro.circuits.elements.PlainElements` over the whole
    netlist) stamped from arrays by the DC rules: a resistor's
    conductance, a capacitor's ``gmin`` conductance, an inductor's
    short.  Every other component stamps itself.
    """
    tri = TripletSystem(circuit.size)
    ctx = StampContext(system=tri, x=x, gmin=gmin, source_scale=source_scale)
    layout, values = plain.stream(ctx, circuit.n_nodes, dc=True)
    return layout.rows, layout.cols, values, tri.rhs


def _solve_sparse(
    circuit: Circuit,
    plain: PlainElements,
    x: np.ndarray,
    gmin: float,
    source_scale: float,
    backend: MatrixBackend,
) -> np.ndarray:
    """One sparse linearized solve: triplet assembly, CSR, factor.

    The DC Newton restamps every component per iteration anyway, so
    the sparse path simply finalizes each iteration's triplet stream
    into a fresh CSR factorization — O(nnz)-ish for the near-banded
    distributed netlists this backend exists for, and far from the
    transient hot loop where factorization reuse matters.  With the
    Krylov backend this refactorization disappears on its own: each
    iteration's ``factor`` hands back a solver riding the backend's
    stale LU, so only the first iteration (and iteration-count-
    triggered refreshes) pays a factorization — the Jacobians of a
    converging Newton sequence are ideal stale-preconditioner fodder.
    """
    rows, cols, values, rhs = _stamp_system(circuit, plain, x, gmin, source_scale)
    matrix = SparseBackend.csr_from_coo(rows, cols, values, circuit.size)
    return backend.factor(matrix).solve(rhs)


def _newton(
    circuit: Circuit,
    x0: np.ndarray,
    options: NewtonOptions,
    gmin: float,
    source_scale: float,
    backend: MatrixBackend,
) -> Tuple[np.ndarray, int]:
    """One Newton solve; returns ``(solution, iterations_taken)``."""
    x = x0.copy()
    plain = None if backend.is_dense else PlainElements(list(circuit))

    def linearized_solve(x_at: np.ndarray) -> np.ndarray:
        if plain is None:
            system = _assemble(circuit, x_at, gmin, source_scale)
            return solve_dense(system.G, system.rhs)
        return _solve_sparse(circuit, plain, x_at, gmin, source_scale, backend)

    if not circuit.has_nonlinear():
        return linearized_solve(x), 1
    n_nodes = circuit.n_nodes
    last_delta = np.inf
    for iteration in range(options.max_iterations):
        x_new = linearized_solve(x)
        # Damping applies to node *voltages* only; branch currents are
        # linear consequences of the voltages and may legitimately move
        # by large amounts in one iteration.
        delta, last_delta = damp_voltage_delta(
            x_new - x, n_nodes, options.max_step
        )
        x = x + delta
        tol = options.abstol_v + options.reltol * float(np.max(np.abs(x[:n_nodes])))
        if last_delta < tol:
            return x, iteration + 1
    raise ConvergenceError(
        "Newton iteration did not converge",
        iterations=options.max_iterations,
        residual=last_delta,
    )


def continuation_ladder(
    solve: Callable[[float, np.ndarray], Tuple[np.ndarray, int]],
    stages: Sequence[float],
    x0: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Warm-started homotopy walk along a stage ladder.

    ``solve(stage, x_warm)`` performs one Newton solve of the
    ``stage``-parameterized system from the warm start ``x_warm`` and
    returns ``(solution, iterations_taken)``; each stage's solution
    seeds the next.  This is the shared skeleton of every homotopy in
    the library — DC gmin stepping (stages are descending gmin
    values), DC source stepping (stages are source scale factors),
    and the transient rescue ladder (stages are per-step extra-gmin
    rungs or residual-ramp waypoints).  Raises whatever ``solve``
    raises when a stage fails; the caller decides whether another
    ladder exists to fall back to.
    """
    x = x0
    total = 0
    for stage in stages:
        x, taken = solve(stage, x)
        total += taken
    return x, total


def solve_dc(
    circuit: Circuit,
    options: Optional[NewtonOptions] = None,
    x0: Optional[np.ndarray] = None,
    backend: object = "auto",
    preflight: str = "off",
) -> OperatingPoint:
    """Compute the DC operating point.

    Tries a plain Newton solve first, then gmin stepping, then source
    stepping.  Raises :class:`~repro.errors.ConvergenceError` if all
    fail.  ``backend`` selects the linear-algebra path (see
    :mod:`~repro.circuits.backend`): "auto" keeps small netlists on
    the historical dense solve and switches large ones to CSR + splu.
    ``preflight`` runs the structural netlist lint
    (:func:`~repro.circuits.preflight.check_netlist`) first:
    ``"warn"`` emits warnings, ``"raise"`` aborts on error-severity
    findings, ``"off"`` (default) skips it.
    """
    options = options or NewtonOptions()
    size = circuit.prepare()
    if preflight != "off":
        from .preflight import apply_preflight

        apply_preflight(circuit, preflight, analysis="dc")
    backend = resolve_backend(backend, size)
    x = x0.copy() if x0 is not None else np.zeros(circuit.size)

    try:
        solution, iterations = _newton(
            circuit, x, options, options.gmin, 1.0, backend
        )
        return OperatingPoint(circuit, solution, iterations=iterations)
    except ConvergenceError:
        pass

    # Gmin stepping: solve with huge gmin, tighten progressively.
    try:
        solution, total = continuation_ladder(
            lambda gmin, xw: _newton(circuit, xw, options, gmin, 1.0, backend),
            tuple(options.gmin_steps) + (options.gmin,),
            x.copy(),
        )
        return OperatingPoint(circuit, solution, iterations=total)
    except ConvergenceError:
        pass

    # Source stepping: ramp all independent sources from 0 to 100 %.
    solution, total = continuation_ladder(
        lambda scale, xw: _newton(circuit, xw, options, options.gmin, scale, backend),
        [k / options.source_steps for k in range(1, options.source_steps + 1)],
        np.zeros(circuit.size),
    )
    return OperatingPoint(circuit, solution, iterations=total)


@dataclass
class SweepResult:
    """Result of a DC sweep: swept values plus per-probe traces."""

    values: np.ndarray
    traces: Dict[str, np.ndarray]

    def trace(self, name: str) -> np.ndarray:
        return self.traces[name]


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float],
    probes: Dict[str, Callable[[OperatingPoint], float]],
    options: Optional[NewtonOptions] = None,
) -> SweepResult:
    """Sweep an independent source and record probe values.

    Each sweep point starts from the previous solution (continuation),
    which makes sweeps through device turn-on robust.

    Parameters
    ----------
    source_name:
        Name of a :class:`VoltageSource` or :class:`CurrentSource`.
    values:
        Sweep values applied to the source.
    probes:
        Mapping from output-trace name to a function of the operating
        point, e.g. ``{"i": lambda op: op.branch_current("Vsweep")}``.
    """
    source = circuit[source_name]
    if not isinstance(source, (VoltageSource, CurrentSource)):
        raise ConvergenceError(f"{source_name} is not an independent source")
    options = options or NewtonOptions()
    circuit.prepare()
    values_arr = np.asarray(list(values), dtype=float)
    original = source._func  # restored afterwards

    def solve_point(value, x_prev):
        """Campaign worker: previous solution warm-starts this point."""
        source.set_value(float(value))
        op = solve_dc(circuit, options=options, x0=x_prev)
        return {name: float(probe(op)) for name, probe in probes.items()}, op.x

    try:
        rows = run_chain(solve_point, values_arr)
    finally:
        source._func = original
    traces = {
        name: np.asarray([row[name] for row in rows]) for name in probes
    }
    return SweepResult(values=values_arr, traces=traces)
