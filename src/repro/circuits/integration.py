r"""Pluggable integration methods for the transient engines.

Historically the integrator was two string literals: ``"trap"`` and
``"be"`` were compared all over the stack — in every companion
formula (:meth:`Capacitor.companion_conductance`), in the vectorized
coefficient builder (:class:`~repro.circuits.assembly._ReactiveSet`),
in the step controller's LTE order, and in both transient engines.
Adding a method meant touching every one of those sites, which is why
the reproduction was capped at second order.

This module extracts the integrator into one layer.  An
:class:`IntegrationMethod` describes everything the rest of the stack
needs to integrate ``i = C dv/dt`` / ``v = L di/dt`` companion models:

* the **leading coefficient** of the discretization — the part that
  lands in the system *matrix* (``geq = lead * C / dt``,
  ``req = lead * L / dt``) and therefore keys the per-step-size
  assembly/factorization cache ``(dt, method, order)``;
* the **history weights** — the part that lands in the *RHS* as the
  companion current, as a function of the committed state history
  (values, derivatives, and their times, newest first);
* the **required history depth**, **LTE order** and **error
  constant** per order, and the **startup policy** (which order is
  usable given how many committed points exist).

Companion model convention
--------------------------
Writing ``y`` for the element's natural state (capacitor voltage,
inductor current) and ``yd`` for its scaled derivative (capacitor
current ``C y'``, inductor voltage ``L y'``), every method here is a
rule

.. math::

    E\,y'(t_{n+1}) \approx \frac{\mathrm{lead}\cdot E}{dt}\, y_{n+1}
        + \sum_k w^v_k\,\frac{\mathrm{lead}\cdot E}{dt}\, y_{n-k}
        + \sum_k w^d_k\, yd_{n-k}

with ``E = C`` or ``L``.  The value weights ``wv`` are expressed in
units of the companion conductance (``geq``/``req``), so the
trapezoidal/backward-Euler weights are exactly the ``-geq*v - i`` /
``-geq*v`` companion formulas the seed engine stamped — the golden
fixed-grid results are reproduced bit-for-bit through this layer.

Variable-step BDF (fixed leading coefficient)
---------------------------------------------
The BDF members keep the *uniform-grid* leading coefficient (3/2 for
BDF2, 11/6 for BDF3) regardless of how non-uniform the committed
history is, and absorb the non-uniformity entirely into the history
weights: the uniform-grid formula needs values at ``t_{n+1} - k*dt``,
and where no committed point lands exactly there the value is read
off the Lagrange interpolant through the actual history points.
Because the matrix-side coefficient never depends on the history
spacing, a ``(dt, method, order)`` cache entry stays valid across
arbitrary step-size sequences — the per-``dt`` LRU is never thrashed
by history effects — while the RHS weights are recomputed per step
from the history times (a handful of scalar operations).  The
interpolation is exact on the polynomials the order demands, so the
composite formula keeps the method's order on non-uniform grids; on a
uniform grid the interpolation nodes coincide with the uniform
offsets and the classic BDF weights fall out exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError

__all__ = [
    "StepCoeffs",
    "IntegrationMethod",
    "Trapezoidal",
    "BackwardEuler",
    "BDF2",
    "Gear",
    "resolve_method",
    "KNOWN_METHODS",
]


class StepCoeffs:
    """Per-step companion coefficients handed to components.

    ``lead`` is the matrix-side coefficient (``geq = lead * C / dt``).
    ``wv0``/``wd0`` are the newest history point's value/derivative
    weights — the only ones a *one-step* method has, and the only ones
    the generic single-component stamp path (``stamp_dynamic`` /
    ``update_state`` on a scalar integrator state) can honour.
    Multistep coefficients set ``one_step=False``; components on the
    generic path refuse them loudly instead of silently dropping the
    deeper history (the vectorized assembly path carries it).
    """

    __slots__ = ("lead", "wv0", "wd0", "one_step")

    def __init__(self, lead: float, wv0: float, wd0: float, one_step: bool = True):
        self.lead = lead
        self.wv0 = wv0
        self.wd0 = wd0
        self.one_step = one_step

    def require_one_step(self, where: str) -> "StepCoeffs":
        if not self.one_step:
            raise SimulationError(
                f"{where}: multistep integration coefficients reached the "
                "generic one-step companion path; multistep methods need "
                "the vectorized reactive-state path"
            )
        return self


class IntegrationMethod:
    """Base class / protocol for integration methods.

    Subclasses define the class attributes and the two coefficient
    hooks; everything else (startup policy, depth bookkeeping) is
    shared.  ``min_order``/``max_order`` bound the *target* order an
    order controller may pick; the startup ramp below them is handled
    by :meth:`usable_order`, which clamps any target to what the
    available committed history supports.
    """

    #: Canonical name; the assembly cache key and ``stats()`` use it.
    name: str = ""
    min_order: int = 1
    max_order: int = 1

    # -- order / history bookkeeping ---------------------------------------

    def lte_order(self, order: int) -> int:
        """Local-truncation-error order ``p`` (LTE is ``O(dt^{p+1})``)."""
        raise NotImplementedError

    def error_constant(self, order: int) -> float:
        """Leading LTE constant ``C_{p+1}``: a step of size ``h`` leaves
        ``C·h^{p+1}·x^{(p+1)}``.  The adaptive loop's history estimate
        (:func:`~repro.circuits.stepcontrol.lte_weights`) scales its
        divided differences by it."""
        raise NotImplementedError

    def history_depth(self, order: int) -> int:
        """Committed history points needed *beyond* the current state
        to run at ``order`` on an arbitrary non-uniform grid."""
        raise NotImplementedError

    def usable_order(self, order: int, points: int) -> int:
        """Startup policy: the order actually usable right now.

        ``points`` counts committed states including the current one
        (a fresh run has 1: the initial condition).  An order-``o``
        formula references ``o`` committed values, so the usable order
        is clamped to ``min(order, points)`` and into the method's
        supported range.
        """
        order = max(self.min_order, min(order, self.max_order))
        return max(1, min(order, points))

    @property
    def is_multistep(self) -> bool:
        """Whether any supported order needs history beyond one point."""
        return self.history_depth(self.max_order) > 1

    # -- coefficients -------------------------------------------------------

    def base_coeffs(self, order: int) -> StepCoeffs:
        """The dt-independent coefficient bundle for one order.

        Carries the leading coefficient (all the matrix side needs)
        plus the uniform-grid newest-point weights for the generic
        one-step companion path.
        """
        raise NotImplementedError

    def step_weights(
        self, dt: float, order: int, times: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """History weights ``(wv, wd)`` for one step of size ``dt``.

        ``times`` are the committed state times, newest first
        (``times[0]`` is the time the step departs from; the step
        lands on ``times[0] + dt``).  ``wv[k]`` weights the value
        history in units of ``geq``/``req``; ``wd[k]`` weights the
        derivative history dimensionlessly.  Both are plain float
        sequences with one entry per history point actually used (at
        most ``len(times)``) — scalar types keep the per-step weight
        computation off numpy's small-array overhead.
        """
        raise NotImplementedError


class _OneStep(IntegrationMethod):
    """Shared body of the classic one-step methods.

    The weights are spacing-independent, so :meth:`step_weights` is a
    constant — the whole per-``(dt, method)`` coefficient product can
    live in the assembly's cache entry, exactly as it always has.
    """

    _lead: float
    _wv0: float
    _wd0: float
    _lte: int
    _err_const: float

    def lte_order(self, order: int) -> int:
        return self._lte

    def error_constant(self, order: int) -> float:
        return self._err_const

    def history_depth(self, order: int) -> int:
        return 1

    def usable_order(self, order: int, points: int) -> int:
        return self.min_order  # fixed-order methods have no ramp

    def base_coeffs(self, order: int) -> StepCoeffs:
        return StepCoeffs(self._lead, self._wv0, self._wd0, one_step=True)

    def step_weights(self, dt, order, times):
        return (self._wv0,), (self._wd0,)


class Trapezoidal(_OneStep):
    """Second-order trapezoidal rule (the seed engine's default).

    ``y'_{n+1} = (2/dt)(y_{n+1} - y_n) - y'_n`` — A-stable but not
    L-stable: on the imaginary axis ``|R| = 1``, so residual ringing
    never damps, which is what caps its step size on quiet stiff
    tails.
    """

    name = "trap"
    min_order = max_order = 2
    _lead = 2.0
    _wv0 = -1.0
    _wd0 = -1.0
    _lte = 2
    _err_const = -1.0 / 12.0


class BackwardEuler(_OneStep):
    """First-order backward Euler (``"be"``): L-stable workhorse."""

    name = "be"
    min_order = max_order = 1
    _lead = 1.0
    _wv0 = -1.0
    _wd0 = 0.0
    _lte = 1
    _err_const = 0.5


#: Uniform-grid BDF tableaus, per order: leading coefficient and the
#: weights on y(t_{n+1} - k*dt), k = 1..order (all divided by dt).
_BDF_LEAD = {1: 1.0, 2: 1.5, 3: 11.0 / 6.0}
_BDF_PAST = {
    1: (-1.0,),
    2: (-2.0, 0.5),
    3: (-3.0, 1.5, -1.0 / 3.0),
}
#: Leading LTE constants C_{p+1} of the uniform BDF formulas.
_BDF_ERR_CONST = {1: 0.5, 2: -2.0 / 9.0, 3: -3.0 / 22.0}


def _lagrange_weights(tau: float, nodes: Sequence[float]) -> list:
    """Lagrange basis values at ``tau`` for the given nodes.

    Exact selection when ``tau`` coincides with a node (the numerator
    factor is exactly zero / the self-term cancels exactly), so on a
    uniform grid the classic BDF weights are recovered bit-for-bit.
    Pure scalar arithmetic: this sits on the per-step path of every
    multistep run, where small-array numpy overhead dominates.
    """
    n = len(nodes)
    L = [1.0] * n
    for i in range(n):
        li = 1.0
        ti = nodes[i]
        for j in range(n):
            if i != j:
                li *= (tau - nodes[j]) / (ti - nodes[j])
        L[i] = li
    return L


class Gear(IntegrationMethod):
    """Variable-order BDF (Gear) family, orders 1 through ``max_order``.

    Order 1 is backward Euler; order 2/3 are the BDF2/BDF3 formulas
    with a **fixed leading coefficient**: the uniform-grid value
    enters the matrix, and non-uniform history is handled by reading
    the formula's uniform-offset values off the Lagrange interpolant
    through the committed points (see the module docstring).  BDF1/2
    are A-stable (BDF2 L-stable), BDF3 is stiffly stable — strongly
    damping on the negative real axis, which is exactly what the
    supply-loss quiet tails want and trapezoidal cannot provide.
    """

    min_order = 1

    def __init__(self, max_order: int = 2, name: Optional[str] = None):
        if not 1 <= max_order <= 3:
            raise SimulationError(
                f"gear max_order must be 1..3, got {max_order}"
            )
        self.max_order = int(max_order)
        self.name = name if name is not None else "gear"

    def lte_order(self, order: int) -> int:
        return order

    def error_constant(self, order: int) -> float:
        return _BDF_ERR_CONST[order]

    def history_depth(self, order: int) -> int:
        # order committed values in the formula, plus one spare point
        # so the uniform-offset interpolation stays at the formula's
        # degree on non-uniform grids.
        return order + 1 if order > 1 else 1

    def base_coeffs(self, order: int) -> StepCoeffs:
        past = _BDF_PAST[order]
        lead = _BDF_LEAD[order]
        return StepCoeffs(
            lead, past[0] / lead, 0.0, one_step=(order == 1)
        )

    def step_weights(self, dt, order, times):
        npts = len(times)
        if npts < order:
            raise SimulationError(
                f"gear order {order} needs {order} committed points, "
                f"have {npts} (the engine's usable_order clamp was bypassed)"
            )
        past = _BDF_PAST[order]
        lead = _BDF_LEAD[order]
        if order == 1:
            return (past[0] / lead,), (0.0,)
        # Interpolation nodes: up to order+1 newest committed points.
        n_nodes = min(order + 1, npts)
        nodes = [float(t) for t in times[:n_nodes]]
        wv = [0.0] * n_nodes
        wv[0] = past[0]
        t0 = nodes[0]
        for k in range(2, order + 1):
            tau = t0 - (k - 1) * dt
            # times[0] is exactly t_{n+1} - dt (the step departs from
            # it), so only the k >= 2 offsets ever need interpolating.
            L = _lagrange_weights(tau, nodes)
            pk = past[k - 1]
            for i in range(n_nodes):
                wv[i] += pk * L[i]
        return tuple(w / lead for w in wv), (0.0,) * n_nodes


class BDF2(Gear):
    """Fixed second-order BDF (Gear at order 2, no order control)."""

    min_order = 2

    def __init__(self):
        super().__init__(max_order=2, name="bdf2")


#: Method registry: the spellings ``TransientOptions.method`` accepts.
KNOWN_METHODS = ("trap", "be", "bdf2", "gear")

_ONE_STEP = {"trap": Trapezoidal(), "be": BackwardEuler()}


def resolve_method(
    method: Union[str, IntegrationMethod, None],
    max_order: Optional[int] = None,
) -> IntegrationMethod:
    """An :class:`IntegrationMethod` instance for a name or instance.

    ``max_order`` applies to ``"gear"`` only (default 2; 3 opts into
    the stiffly-stable but not A-stable BDF3 tier).
    """
    if isinstance(method, IntegrationMethod):
        return method
    if method in _ONE_STEP:
        return _ONE_STEP[method]
    if method == "bdf2":
        return BDF2()
    if method == "gear":
        return Gear(max_order=2 if max_order is None else max_order)
    raise SimulationError(
        f"unknown method {method!r}; known: {', '.join(KNOWN_METHODS)}"
    )
