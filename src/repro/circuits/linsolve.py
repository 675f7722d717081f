"""Shared dense linear-solve and Newton-damping utilities.

Both analyses (:mod:`~repro.circuits.dcop` and
:mod:`~repro.circuits.transient`) solve ``G @ x = rhs`` systems and
damp Newton updates the same way; this module is the single home for
that logic so the two engines cannot drift apart again.

Four layers:

* :func:`solve_dense` — one-shot solve with a least-squares fallback
  for singular systems (floating nodes under fault injection).
* :func:`damp_voltage_delta` — the update-damping rule: clamp the
  per-iteration change of the *node voltages* only.  Branch currents
  are linear consequences of the voltages and may legitimately jump
  by large amounts in one iteration, so they are never the limiting
  unknowns (this was historically inconsistent between the DC and
  transient Newton loops).
* :class:`NewtonPredictor` — where a rank-1 Newton step starts: the
  quadratic extrapolation of the device's control voltage through the
  last three committed points, one implementation for the per-sample
  and the lockstep engine so their iterates cannot drift apart.
* :class:`ReusableLU` — a factorization cached across many solves
  with the same matrix: LU (``scipy.linalg.lu_factor``/``lu_solve``)
  for large systems, an explicit inverse for small ones where the
  LAPACK call overhead dominates the arithmetic.  Used by the
  transient engine for fully linear circuits (one factorization for
  the whole run) and as the frozen Jacobian of the chord-Newton mode.

scipy is an optional accelerator and loads late: ``scipy.linalg`` is
imported by the first factorization of a system of
:data:`_SMALL_SYSTEM` unknowns or more, and never by a process whose
systems are all smaller (the paper's 5- and 6-unknown netlists).
Without scipy, or when its import fails, large systems are inverted
with numpy like small ones.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._lazy import LazyModule

_linalg = LazyModule("scipy.linalg")

__all__ = ["solve_dense", "damp_voltage_delta", "NewtonPredictor", "ReusableLU"]

#: Below this system size an explicit inverse plus ``dot`` beats the
#: per-call overhead of LAPACK's triangular solves by a wide margin.
_SMALL_SYSTEM = 64


def lu_factor_for(n: int):
    """``scipy.linalg.lu_factor`` if a system of ``n`` unknowns is
    factored by LU, importing ``scipy.linalg`` on first use; None when
    it is inverted instead (below :data:`_SMALL_SYSTEM`, or no scipy)."""
    if n < _SMALL_SYSTEM:
        return None
    try:
        return _linalg.lu_factor
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None


def solve_dense(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``G @ x = rhs`` with a least-squares fallback.

    The fallback keeps pathological (singular) systems — floating
    nodes mid fault-injection, fully open switches — from aborting an
    analysis; the minimum-norm solution is the physically sensible
    answer there.
    """
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(G, rhs, rcond=None)
        return solution


def damp_voltage_delta(
    delta: np.ndarray, n_nodes: int, max_step: float
) -> Tuple[np.ndarray, float]:
    """Clamp a Newton update by its largest node-voltage component.

    Returns ``(damped_delta, max_v_delta)`` where ``max_v_delta`` is
    the largest absolute node-voltage change *after* damping (the
    quantity the convergence test monitors).  The whole vector is
    scaled uniformly so the search direction is preserved.
    """
    v_delta = delta[:n_nodes]
    max_delta = float(np.abs(v_delta).max()) if v_delta.size else 0.0
    if max_delta > max_step:
        delta = delta * (max_step / max_delta)
        max_delta = max_step
    return delta, max_delta


class NewtonPredictor:
    """Quadratic predictor of a Newton step's control voltage.

    Holds the last three committed ``(t, v)`` points and returns their
    Lagrange extrapolation at the next target time (the Newton
    predictor of SPICE3; T. Quarles, PhD thesis, UC Berkeley, 1989).
    ``v`` is a float in the per-sample engine and an ``(S,)`` array in
    the lockstep engine: the weights depend only on the times and
    every operation on ``v`` is elementwise, so each sample of a batch
    gets exactly the arithmetic of its own per-sample run.
    """

    __slots__ = ("_t", "_v")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every point: the integrator history restarted."""
        self._t: tuple = ()
        self._v: tuple = ()

    def push(self, t: float, v) -> None:
        """Record a committed point (keeps the newest three)."""
        self._t = self._t[-2:] + (t,)
        self._v = self._v[-2:] + (v,)

    @property
    def last(self):
        """The newest committed ``v``, or ``None`` with no points."""
        return self._v[-1] if self._v else None

    def predict(self, t: float):
        """Extrapolated control voltage at ``t``, or ``None`` with
        fewer than three points (the step then starts from ``x_n``)."""
        ts, vs = self._t, self._v
        if len(ts) < 3:
            return None
        t0, t1, t2 = ts
        v0, v1, v2 = vs
        a, b, c = t - t0, t - t1, t - t2
        return (
            (b * c / ((t0 - t1) * (t0 - t2))) * v0
            + (a * c / ((t1 - t0) * (t1 - t2))) * v1
            + (a * b / ((t2 - t0) * (t2 - t1))) * v2
        )


class ReusableLU:
    """A cached factorization of a dense MNA matrix.

    ``factor(G)`` captures the matrix; ``solve(rhs)`` reuses the
    factorization for any number of right-hand sides.  Singular
    matrices degrade to the least-squares fallback transparently so
    callers never need their own error handling.

    Strategy by size: small systems (< ``_SMALL_SYSTEM`` unknowns) are
    inverted explicitly once — a 6x6 ``inv`` costs one LAPACK call and
    each subsequent solve is a sub-microsecond ``dot`` — while larger
    systems use partial-pivoting LU, which is the numerically careful
    choice when conditioning matters more than call overhead.
    """

    def __init__(self, G: Optional[np.ndarray] = None):
        self._inv: Optional[np.ndarray] = None
        self._lu = None
        self._g: Optional[np.ndarray] = None
        self._singular = False
        self._condest: Optional[float] = None
        self.n_factorizations = 0
        if G is not None:
            self.factor(G)

    def factor(self, G: np.ndarray) -> None:
        """(Re)factorize; counts factorizations for diagnostics."""
        self._g = np.array(G, dtype=float, copy=True)
        self._inv = None
        self._lu = None
        self._singular = False
        self._condest = None
        self.n_factorizations += 1
        lu_factor = lu_factor_for(G.shape[0])
        try:
            if lu_factor is None:
                self._inv = np.linalg.inv(self._g)
            else:
                self._lu = lu_factor(self._g, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            self._singular = True

    @property
    def is_factored(self) -> bool:
        return self._g is not None

    @property
    def is_singular(self) -> bool:
        return self._singular

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the captured matrix for one right-hand side."""
        if self._g is None:
            raise ValueError("ReusableLU.solve() before factor()")
        if self._singular:
            solution, *_ = np.linalg.lstsq(self._g, rhs, rcond=None)
            return solution
        if self._inv is not None:
            solution = self._inv.dot(rhs)
        else:
            solution = _linalg.lu_solve(self._lu, rhs, check_finite=False)
        if not np.isfinite(solution).all() and np.isfinite(rhs).all():
            # A zero/denormal pivot slipped through factorization
            # (partial-pivoting LU of an exactly singular matrix does
            # not raise; it just produces Inf/NaN at solve time).
            # Degrade to the minimum-norm answer, permanently, like
            # the factor-time singular path.
            self._singular = True
            self._condest = None
            try:
                solution, *_ = np.linalg.lstsq(self._g, rhs, rcond=None)
            except np.linalg.LinAlgError:  # pragma: no cover - defensive
                self._singular = False
        return solution

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``G.T @ x = rhs`` against the same factorization.

        Used only by the 1-norm condition estimator; singular systems
        fall back to least squares on the transpose.
        """
        if self._g is None:
            raise ValueError("ReusableLU.solve_transposed() before factor()")
        if self._singular:
            solution, *_ = np.linalg.lstsq(self._g.T, rhs, rcond=None)
            return solution
        if self._inv is not None:
            return self._inv.T.dot(rhs)
        return _linalg.lu_solve(self._lu, rhs, trans=1, check_finite=False)

    def condest(self) -> float:
        """Estimated 1-norm condition number of the captured matrix.

        Exact when the explicit inverse is cached (small systems);
        otherwise a Hager-style estimate costing a few triangular
        solves.  ``inf`` for singular (degraded) factorizations.
        Cached per factorization; read-only with respect to solver
        state, so arming it never changes results.
        """
        if self._condest is not None:
            return self._condest
        if self._g is None:
            raise ValueError("ReusableLU.condest() before factor()")
        if self._singular:
            self._condest = float("inf")
            return self._condest
        norm_g = float(np.abs(self._g).sum(axis=0).max()) if self._g.size else 0.0
        if not np.isfinite(norm_g):
            self._condest = float("inf")
            return self._condest
        if self._inv is not None:
            norm_inv = float(np.abs(self._inv).sum(axis=0).max())
            estimate = norm_g * norm_inv
        else:
            from .health import condest_from_solves

            estimate = condest_from_solves(
                norm_g, self.solve, self.solve_transposed, self._g.shape[0]
            )
        self._condest = float(estimate) if np.isfinite(estimate) else float("inf")
        return self._condest
