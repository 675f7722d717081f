"""A small SPICE-like circuit simulator (MNA) used as the substrate for
all netlist-level experiments in the reproduction.

Public surface:

* :class:`Circuit` — the netlist container with factory helpers.
* Components: :class:`Resistor`, :class:`Capacitor`, :class:`Inductor`,
  :class:`Switch`, :class:`VoltageSource`, :class:`CurrentSource`,
  :class:`VCCS`, :class:`VCVS`, :class:`NonlinearVCCS`, :class:`Diode`,
  :class:`Mosfet` (+ :class:`MosfetParams`).
* Analyses: :func:`solve_dc`, :func:`dc_sweep`, :func:`run_transient`,
  :func:`run_ac`.
* Stimuli: :func:`dc`, :func:`sine`, :func:`pulse`, :func:`pwl`.

Solver internals (importable for tests/benchmarks):

* :mod:`~repro.circuits.linsolve` — shared dense solve, Newton
  damping, reusable LU factorizations.
* :mod:`~repro.circuits.backend` — pluggable dense/sparse linear-
  algebra backends (``backend="auto"|"dense"|"sparse"`` on every
  analysis): dense for the paper's lumped netlists, CSR + splu for
  distributed netlists with hundreds-to-thousands of unknowns.
* :mod:`~repro.circuits.assembly` — incremental transient stamping:
  linear stamps cached once per step size (small per-``dt`` LRU),
  nonlinear devices restamped per Newton iteration.
* :mod:`~repro.circuits.integration` — pluggable integration methods
  (``method="trap"|"be"|"bdf2"|"gear"`` on the transient engines):
  one-step trapezoidal/backward-Euler plus variable-order BDF (Gear,
  orders 1-3) with non-uniform-history companion coefficients.
* :mod:`~repro.circuits.stepcontrol` — LTE-based adaptive step
  control (step-doubling error estimate, breakpoint forcing, and
  order control for the variable-order methods) driving
  ``run_transient(step_control="adaptive")``.
* :mod:`~repro.circuits.reference` — the preserved seed transient
  engine (:func:`run_transient_reference`), golden baseline for the
  optimized engine.
* :mod:`~repro.circuits.preflight` / :mod:`~repro.circuits.health` —
  the numerical health layer: structural netlist lint before any
  solve (``preflight="warn"|"raise"`` on every analysis), NaN /
  conditioning guards and post-step certification during transients
  (``TransientOptions(guards=True, certify=True)``), with structured
  :class:`HealthReport` records in ``stats["health"]``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".ac": ("ACResult", "run_ac"),
    ".backend": ("DenseBackend", "MatrixBackend", "SparseBackend", "resolve_backend"),
    ".batched": ("BatchIncompatible", "BatchedOperatingPoints",
                 "probe_stiffness_ratios", "run_transient_batched", "solve_dc_batched"),
    ".corners": ("FAST_COLD", "FAST_HOT", "SLOW_COLD", "SLOW_HOT", "TYPICAL",
                 "ProcessCorner"),
    ".component": ("Component", "MNASystem", "StampContext"),
    ".controlled": ("VCCS", "VCVS", "NonlinearVCCS"),
    ".dcop": ("NewtonOptions", "OperatingPoint", "SweepResult", "dc_sweep", "solve_dc"),
    ".diode": ("Diode", "junction_iv"),
    ".elements": ("Capacitor", "Inductor", "Resistor", "Switch"),
    ".integration": ("BDF2", "BackwardEuler", "Gear", "IntegrationMethod",
                     "StepCoeffs", "Trapezoidal", "resolve_method"),
    ".health": ("CONDITION_LIMIT", "HealthReport"),
    ".mosfet": ("Mosfet", "MosfetParams", "NMOS_DEFAULT", "PMOS_DEFAULT"),
    ".netlist": ("Circuit",),
    ".preflight": ("Diagnostic", "PreflightWarning", "check_netlist"),
    ".noise": ("NoiseResult", "run_noise"),
    ".subcircuit": ("CellBuilder", "SubcircuitDefinition"),
    ".reference": ("run_transient_reference",),
    ".envelope_transient": ("EnvelopeOptions", "run_transient_envelope"),
    ".sources": ("CurrentSource", "VoltageSource", "dc", "pulse", "pwl", "sine",
                 "source_breakpoints"),
    ".stepcontrol": ("Phase", "PhaseSchedule", "StepController",
                     "collect_breakpoints", "stiffness_bins"),
    ".transient": ("TransientOptions", "TransientResult", "run_transient"),
})
