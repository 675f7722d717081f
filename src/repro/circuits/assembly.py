"""Incremental MNA assembly for the transient engine.

The seed engine rebuilt the full dense system with a Python loop over
every component at every Newton iteration of every step.  For the
circuits this library simulates — the Fig 1 oscillator is one
nonlinear VCCS among six components — that loop is ~85 % redundant:
linear stamps never change during a run.

:class:`TransientAssembly` exploits the component stamp split (see
:class:`~repro.circuits.component.Component`) to assemble each part of
the system exactly as often as it can change:

* **once per step size** — the base matrix ``G_base``: all linear
  matrix stamps (R, switches, L/C companion conductances, source
  branch rows, VCVS/VCCS) plus the global ``gmin`` diagonal, as a COO
  triplet stream — the type-exact R, C and L stamps built from arrays
  read once per run (:class:`~repro.circuits.elements.PlainElements`),
  bit-identical to stamping each component, every other component
  stamped by its own ``stamp_static`` — and finalized by the run's
  :class:`~repro.circuits.backend.MatrixBackend` — dense (frozen
  ndarray + :class:`~repro.circuits.linsolve.ReusableLU`) or CSR
  (``splu``), with the stream's sparsity pattern computed once per
  netlist and shared by every step size.  Every setup-dependent
  product — the base matrix, its cached factorization, the vectorized
  companion coefficients, the rank-1 solve data — lives in a cache
  entry keyed by the full ``(dt, method, order)`` integration setup;
  a small LRU of those entries lets the adaptive step/order
  controller revisit its few quantized setups without refactorizing
  anything (:meth:`TransientAssembly.set_dt`).  A fixed-step run
  simply never leaves its first entry.  Multistep (BDF/Gear) methods
  additionally keep a committed-state history ring whose
  spacing-dependent weights are recomputed per step — deliberately
  *outside* the cache entries, so non-uniform history never thrashes
  the LRU.
* **once per step** — the linear right-hand side: source values at the
  step time plus the reactive companion currents, evaluated from the
  integrator state with vectorized numpy instead of per-component
  Python (plain :class:`~repro.circuits.elements.Capacitor` and
  :class:`~repro.circuits.elements.Inductor` states live in the arrays
  of one ``_ReactiveSet``, the companion-state implementation the
  lockstep :class:`~repro.circuits.batched.BatchedTransientAssembly`
  uses too, with one row per sample).  A linear netlist on the dense
  backend skips even that: below the LU threshold its factorization
  is an explicit inverse, so the step solution is a fixed linear map
  of the integrator state and the source stamps, and the committed
  state another fixed linear map of the same inputs.  Each cache
  entry builds both maps once, stacked into one matrix
  (:meth:`_ReactiveSet.propagator`, the history-source split of EMTP:
  Dommel, IEEE Trans. PAS-88, 1969), and a step is then one small
  matrix product in place of the companion scatter, the solve and the
  commit's gathers (:meth:`TransientAssembly.linear_solve`); the
  commit installs the product's state rows.  Multistep methods feed
  it their companion term as a vector, the ring's weighted
  contraction, since its weights change with the step pattern; the
  sparse and Krylov backends keep scatter + solve.  A run of steps at
  one setup whose sources read only the time can go as one block
  (:meth:`TransientAssembly.propagate_block`): the sources of every
  step stamped first, the products back to back, and the state of any
  one step installed afterwards (:meth:`TransientAssembly.commit_block`),
  the rest dropped.  The rank-1 case
  below shares the propagator, and the lockstep assembly builds its
  ``(S, r, k)`` stack from the same method;
* **once per Newton iteration** — only the nonlinear (or split-
  incapable) components, restamped onto copies of the cached parts.

The assembly also recognizes the **rank-1 Jacobian** special case:
when the only full-stamp component is one :class:`~repro.circuits.
controlled.NonlinearVCCS`, the Jacobian is the cached base matrix plus
a rank-1 update ``gm * u v^T`` with constant ``u, v``, so each Newton
solve collapses to a Sherman–Morrison update around one cached
factorization — no matrix assembly or LAPACK factorization at all in
the inner loop.  With a propagator this is EMTP's compensation split
(Dommel, IEEE Trans. PAS-90, 1971): the linear network's step
``z_lin`` is the propagator's product, the nonlinear branch a
correction along one column ``wout = src u`` (:meth:`TransientAssembly.
rank1_data`), and a Newton step that ends on the line ``z_lin - c w``
ends at ``out - c wout``, whose state rows the commit installs
(:meth:`_ReactiveSet.slide`).  A step that ends off the line — damped,
through the dense fallback, or rescued — gathers its commit.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import MatrixBackend, resolve_backend, triplet_scatter
from .component import (
    Component,
    MNASystem,
    StampContext,
    StampPattern,
    TripletSystem,
)
from .controlled import NonlinearVCCS
from .elements import PlainElements
from .integration import IntegrationMethod, resolve_method
from .linsolve import solve_dense
from .netlist import Circuit
from .sources import CurrentSource, VoltageSource

__all__ = ["DtCache", "TransientAssembly"]

#: Per-dt assembly/factorization cache entries an assembly keeps
#: alive.  The adaptive grid between dt_min and dt_max has
#: log2(dt_max/dt_min) levels (12 at the defaults); the cache is deeper
#: than the levels a run visits, so a level revisited after a
#: rejection finds its entry instead of rebuilding it.
DT_CACHE_SIZE = 16

#: System size from which the companion-RHS scatter switches from a
#: dense mat-vec to a CSR product.  The dense product is O(size * m)
#: with m reactive elements — on a distributed ladder that is O(n^2)
#: per step, dwarfing the sparse solve it feeds.  Kept well above
#: every lumped netlist so the small-circuit hot path (and its
#: bit-pinned goldens) is untouched.
_SPARSE_SCATTER_MIN = 128

#: Per-step stamps that read the step's time and nothing else (the
#: independent sources), so a block stamps them ahead of its steps.
_TIME_STAMPS = (VoltageSource.stamp_dynamic, CurrentSource.stamp_dynamic)


class _ReactiveCoeffs:
    """Per-``(dt, method, order)`` companion coefficients of a
    :class:`_ReactiveSet`.

    The integrator *state* (previous voltage/current of every plain
    cap and inductor) is step-size independent; these vectors are the
    only part of the vectorized companion model that changes when the
    step controller picks a new ``dt`` (or the order controller a new
    order).  One-step methods cache the full weight vectors
    (``alpha``/``beta``) because their weights are spacing-
    independent; multistep (BDF/Gear) entries cache only the
    spacing-independent half — ``gcol``, the per-element companion
    conductances/resistances — and the history weights are recomputed
    per step from the committed-time ring buffer (see
    :meth:`IntegrationMethod.step_weights`), which is exactly what
    keeps non-uniform-history coefficient changes out of the
    per-``dt`` LRU.
    """

    __slots__ = (
        "alpha", "beta", "upd_g", "upd_m", "gcol", "method", "dt", "order"
    )

    def __init__(
        self,
        alpha: Optional[np.ndarray],
        beta: Optional[np.ndarray],
        upd_g: Optional[np.ndarray],
        upd_m: float,
        gcol: Optional[np.ndarray] = None,
        method: Optional[IntegrationMethod] = None,
        dt: float = 0.0,
        order: int = 0,
    ):
        self.alpha = alpha
        self.beta = beta
        self.upd_g = upd_g
        self.upd_m = upd_m
        self.gcol = gcol
        self.method = method
        self.dt = dt
        self.order = order


class _HistoryRing:
    """Committed-state ring + weight memo for one multistep integrator.

    Owned by a :class:`_ReactiveSet`, whose state rows it mirrors:
    ``(m,)`` for one netlist, ``(S, m)`` for a lockstep stack that
    shares one time grid.  Every operation indexes the element axis
    with ``...``, so both layouts run the exact same code.  History is
    stored newest-first in *formula* form (``val`` holds each element's
    natural state — cap voltage, inductor current — and ``der`` its
    conjugate derivative), so the per-step companion term is one
    weighted accumulation.

    Row 0 is written in one of two ways after a commit: from the new
    ``(v, i)`` by :meth:`set_current`, or — on the dense propagator's
    commit, which hands over the product's ``[v'; i']`` — by one
    gather into ``rows[:, 0]`` (:meth:`_ReactiveSet.commit`); both
    copy the same floats.

    The ring also owns the spacing-dependent weight memo.  Weights
    depend only on ``(dt, order)`` and the history spacing *relative*
    to the current time — Lagrange interpolation is translation
    invariant — so the memo keys on the relative offsets and the
    method is handed times shifted to ``t_now = 0``.  On the
    quantized adaptive grid the same ``(dt, offsets)`` products recur
    constantly (every uniform stretch is one key), which is what keeps
    multistep runs from re-deriving their interpolation weights on
    every single step.
    """

    __slots__ = (
        "state_shape", "depth", "rows", "fv", "fd", "t", "fill", "t_now",
        "_w_cache",
    )

    def __init__(self, state_shape: Tuple[int, ...]):
        self.state_shape = tuple(state_shape)
        self.depth = 0
        #: Formula-form buffers with the *current* state in row 0 and
        #: the committed history in rows 1..fill — the companion term
        #: is then a single weighted contraction over the leading axis.
        #: ``fv`` and ``fd`` are the two halves of one ``rows`` array,
        #: so a push shifts both in one copy.
        self.rows: Optional[np.ndarray] = None
        self.fv: Optional[np.ndarray] = None
        self.fd: Optional[np.ndarray] = None
        self.t: Optional[np.ndarray] = None
        self.fill = 0
        #: Time of the current committed state (weights and pushes
        #: read it; one-step methods just carry it).
        self.t_now = 0.0
        self._w_cache: Dict[tuple, tuple] = {}

    @property
    def val(self) -> Optional[np.ndarray]:
        """History values, newest first (``val[0]`` is one step back)."""
        return None if self.fv is None else self.fv[1:]

    @property
    def der(self) -> Optional[np.ndarray]:
        """History derivatives, newest first."""
        return None if self.fd is None else self.fd[1:]

    def enable(self, depth: int) -> None:
        """Allocate ring buffers for ``depth`` committed points total
        (current state + ``depth - 1`` older entries).

        Growing a live ring (a mid-run ``set_method`` to a deeper
        method) copies the surviving entries over, so the committed
        history stays valid rather than silently pointing the fill
        level at freshly zeroed rows.
        """
        extra = depth - 1
        if extra <= 0 or extra <= self.depth:
            return
        old = (self.rows, self.t, self.fill)
        self.depth = extra
        self.rows = np.zeros((2, extra + 1) + self.state_shape)
        self.fv, self.fd = self.rows
        self.t = np.zeros(extra)
        if old[0] is not None:
            keep = old[2]
            self.rows[:, : keep + 1] = old[0][:, : keep + 1]
            self.t[:keep] = old[1][:keep]

    @property
    def points(self) -> int:
        """Committed states available, including the current one."""
        return 1 + self.fill

    def times(self) -> tuple:
        """Committed-state times, newest first (``[0]`` is current)."""
        return (self.t_now,) + tuple(float(t) for t in self.t[: self.fill])

    def reset(self) -> None:
        """Drop the older entries (the current state stays valid);
        used across breakpoints, where interpolating through a
        discontinuity would poison the multistep formula."""
        self.fill = 0

    def restart(self) -> None:
        """Back to an empty ring at t=0 (run (re)initialization)."""
        self.fill = 0
        self.t_now = 0.0
        self._w_cache.clear()

    def clear_weights(self) -> None:
        """Invalidate memoized weights (method switch on a live run)."""
        self._w_cache.clear()

    def set_current(self, v: np.ndarray, i: np.ndarray, nc: int) -> None:
        """Refresh row 0 from the live state arrays (after a commit,
        a restore, or an init; no-op semantics require depth > 0)."""
        self.fv[0][..., :nc] = v[..., :nc]
        self.fv[0][..., nc:] = i[..., nc:]
        self.fd[0][..., :nc] = i[..., :nc]
        self.fd[0][..., nc:] = v[..., nc:]

    def push(self) -> None:
        """Ring-push the current state (row 0) into the history; the
        caller refreshes row 0 via :meth:`set_current` afterwards."""
        if not self.depth:
            return
        self.rows[:, 1:] = self.rows[:, :-1]
        self.t[1:] = self.t[:-1]
        self.t[0] = self.t_now
        if self.fill < self.depth:
            self.fill += 1

    def companion_term(
        self,
        wv: np.ndarray,
        wd: Optional[np.ndarray],
        gcol: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``gcol * sum_k wv[k]*val_k + sum_k wd[k]*der_k`` over the
        current state (row 0) and the committed history, as a single
        weighted contraction per buffer (shape-agnostic: the leading
        row axis is flattened into one gemv regardless of whether the
        state rows are ``(m,)`` or ``(S, m)``; ``(m,)`` rows are that
        gemv's operand already, and ``dot`` calls it with less overhead
        than ``@``).  ``wd`` is None when every derivative
        weight is zero (:meth:`step_weights`).  ``rows`` stands in for
        the ring's own ``[fv; fd]`` (a block's window,
        :meth:`_ReactiveSet.propagate_block`)."""
        fv, fd = (self.fv, self.fd) if rows is None else rows
        rows = fv[: len(wv)]
        if rows.ndim == 2:
            term = gcol * wv.dot(rows)
        else:
            term = gcol * (wv @ rows.reshape(len(wv), -1)).reshape(rows.shape[1:])
        if wd is not None:
            rows = fd[: len(wd)]
            term += (wd @ rows.reshape(len(wd), -1)).reshape(rows.shape[1:])
        return term

    def step_weights(self, co, offsets: Optional[np.ndarray] = None) -> tuple:
        """Memoized ``(wv, wd)`` weight arrays for the active setup
        and history; ``wd`` is None when every derivative weight is
        zero (the shipped BDF members), so the companion term skips
        the derivative ring.  ``offsets`` (the current time less each
        history time, newest first) stand in for the ring's own.

        Keyed by the *relative* history offsets, so every uniform
        stretch of a run — regardless of where on the time axis it
        sits — resolves to one cached entry.
        """
        if offsets is None:
            offsets = self.t_now - self.t[: self.fill]
        key = (co.dt, co.order, offsets.tobytes())
        w = self._w_cache.get(key)
        if w is None:
            times = (0.0,) + tuple(-float(off) for off in offsets)
            wv, wd = co.method.step_weights(co.dt, co.order, times)
            wd = np.asarray(wd, dtype=float)
            w = (np.asarray(wv, dtype=float), wd if wd.any() else None)
            if len(self._w_cache) > 64:
                self._w_cache.clear()
            self._w_cache[key] = w
        return w

    def bootstrap(self, dt: float, derivative: np.ndarray) -> int:
        """Synthesize a full committed history behind the current state.

        Fills every history row with the first-order backward
        extrapolation ``val(t_now - k*dt) = val(t_now) - k*dt*val'`` —
        the same accuracy class as one trapezoidal startup step, which
        is why a multistep phase entered mid-run through this bootstrap
        starts at its full order instead of ramping through the
        ``usable_order`` history clamp.  ``derivative`` is the
        per-element time derivative of the formula-form value (cap
        ``dv/dt``, inductor ``di/dt``); the derivative rows are held
        constant (exact for the linear-in-time states the
        extrapolation itself assumes).  Returns the number of history
        rows synthesized (0 when the ring has no depth).
        """
        if not self.depth:
            return 0
        for k in range(1, self.depth + 1):
            self.fv[k] = self.fv[0] - (k * dt) * derivative
            self.fd[k] = self.fd[0]
            self.t[k - 1] = self.t_now - k * dt
        self.fill = self.depth
        return self.depth

    def snapshot(self) -> tuple:
        """Capture ``(t_now, history)`` so a trial step can be undone."""
        if not self.depth:
            return (self.t_now, None)
        return (
            self.t_now,
            (
                self.val[: self.fill].copy(),
                self.der[: self.fill].copy(),
                self.t[: self.fill].copy(),
                self.fill,
            ),
        )

    def restore(self, snap: tuple) -> None:
        """Undo every ring change since the matching snapshot."""
        t_now, hist = snap
        self.t_now = t_now
        if hist is not None:
            val, der, t, fill = hist
            self.val[:fill] = val
            self.der[:fill] = der
            self.t[:fill] = t
            self.fill = fill


class _ReactiveSet:
    """Vectorized companion-model state for plain capacitors/inductors.

    Stores the (previous voltage, previous current) integrator state of
    every plain :class:`Capacitor` and :class:`Inductor` in numpy
    arrays, with a scatter matrix so that the per-step companion RHS
    and the post-step state update are a handful of vector operations
    instead of a Python loop over components.  The ``(dt, method)``-
    dependent coefficient vectors are built by :meth:`coeffs` and owned
    by the per-``dt`` cache entries of the assembly.

    One implementation serves both engines.  Built from one
    :class:`PlainElements`, the state rows have shape ``(m,)``
    (:class:`TransientAssembly`); built from a list of them, one per
    lockstep sample, they are ``(S, m)`` stacks
    (:class:`~repro.circuits.batched.BatchedTransientAssembly`).  The
    topology comes from the first sample — the lockstep check requires
    identical types and wiring — and the element values and initial
    conditions are stacked per sample.  Every formula is elementwise,
    so a stacked row gets its own netlist's arithmetic bit for bit;
    only the scatter into the right-hand side differs by shape (see
    :meth:`companion_rhs`).
    """

    def __init__(
        self, plain: Union[PlainElements, Sequence[PlainElements]], size: int
    ):
        stacked = not isinstance(plain, PlainElements)
        samples = list(plain) if stacked else [plain]
        plain = samples[0]
        caps, inds = plain.caps, plain.inds
        self.caps = caps
        self.inds = inds
        self.size = size
        n = len(caps) + len(inds)
        self.n = n
        self.n_caps = nc = len(caps)
        # Gather indices; ground (-1) redirects to a padded zero slot.
        nodes = np.concatenate((plain.c_nodes, plain.l_nodes))
        self.a_idx = np.where(nodes[:, 0] >= 0, nodes[:, 0], size)
        self.b_idx = np.where(nodes[:, 1] >= 0, nodes[:, 1], size)
        self.br_idx = plain.l_branch

        def rows(name):
            if stacked:
                return np.stack([getattr(p, name) for p in samples])
            return getattr(plain, name)

        #: Element values (C per cap, then L per inductor), read from
        #: the components by ``plain`` only: :meth:`coeffs` scales them
        #: into companion conductances and :meth:`bootstrap_history`
        #: turns the conjugate-derivative row into state derivatives.
        self.values = rows("lc_values")
        #: Per element: whether it has an ``ic``, and its value.
        self.has_ic = rows("has_ic")
        self.ic = rows("ic")
        lead = self.values.shape[:-1]
        # Element-axis indexers: ``[idx]`` on a row, ``[:, idx]`` on a
        # stack (an ``[..., idx]`` gather costs several times ``[idx]``
        # on the scalar engine's small rows).
        axis = (slice(None),) * len(lead)
        self._at_a = axis + (self.a_idx,)
        self._at_b = axis + (self.b_idx,)
        self._at_br = axis + (self.br_idx,)
        self._at_caps = axis + (slice(None, nc),)
        self._at_inds = axis + (slice(nc, None),)
        self._at_x = axis + (slice(None, size),)
        # The state rows of a propagator's product ``[z; v'; i']``.
        self._at_out_v = axis + (slice(size, size + n),)
        self._at_out_i = axis + (slice(size + n, None),)
        self._stacked = bool(lead)
        #: Padded iterate: the trailing slot stays 0.0 so ground
        #: indices gather zero.
        self._xp = np.zeros(lead + (size + 1,))
        if lead:
            # A stack gathers its element columns by ``take``, about
            # twice as fast as ``[:, idx]``; a row keeps ``[idx]``.
            self._grounded = size in self.a_idx or size in self.b_idx
            self._terminal_v = self._stack_terminal_v

        # Scatter matrix: rhs += S @ term.  A cap's ieq flows a->b
        # (rhs[a] -= ieq, rhs[b] += ieq); an inductor's term lands on
        # its own branch row.
        ca, cb = plain.c_nodes.T
        j = np.arange(nc)
        rows = np.concatenate((ca[ca >= 0], cb[cb >= 0], self.br_idx))
        s_cols = np.concatenate((j[ca >= 0], j[cb >= 0], np.arange(nc, n)))
        s_vals = np.concatenate((
            np.full(int((ca >= 0).sum()), -1.0),
            np.ones(int((cb >= 0).sum()) + len(inds)),
        ))
        #: CSR scatter for large (distributed) systems, where the
        #: dense mat-vec is O(size * m) of mostly zeros — built
        #: straight from the triplets, because the dense operator
        #: itself is a multi-gigabyte intermediate at mesh scale.
        self.scatter_csr = (
            triplet_scatter(rows, s_cols, s_vals, (size, n))
            if n and size >= _SPARSE_SCATTER_MIN
            else None
        )
        if self.scatter_csr is None:
            S = np.zeros((size, n))
            np.add.at(S, (rows, s_cols), s_vals)
            self.scatter = S
        else:
            # Never materialized; every consumer goes through the CSR.
            self.scatter = None

        #: Where row 0 of the history ring, ``[fv; fd]``, sits in a
        #: product's ``[z; v'; i']`` (cap value ``v``, inductor value
        #: ``i``).
        j = size + np.arange(n)
        self._ring_order = np.concatenate(
            (j[:nc], n + j[nc:], n + j[:nc], j[nc:])
        ).reshape(2, n)

        # State arrays, filled by init_state().
        self.v = np.zeros(self.values.shape)
        self.i = np.zeros(self.values.shape)

        # Multistep history ring (older committed states, newest
        # first), allocated by enable_history() only when the run's
        # integration method needs depth > 1; the one-step hot path
        # never touches it.  A stack shares one ring of ``(S, m)``
        # rows: the lockstep grid is one time grid for every sample.
        # The shipped BDF members weight values only (wd == 0); the
        # derivative ring is the extension point for
        # derivative-feedback multistep members (Adams-Moulton, a
        # trapezoidal history bootstrap) and costs one small copy per
        # commit.
        self.ring = _HistoryRing(self.values.shape)
        #: ``(z, out, off)`` of the last :meth:`propagate` (moved by
        #: :meth:`slide`), until :meth:`commit` consumes it or a state
        #: change drops it; ``off`` masks the stack rows whose step
        #: ended off the product, or is None.
        self.pending: Optional[tuple] = None
        #: The last :meth:`propagate_block`'s buffers, until
        #: :meth:`commit_block` installs one of its steps.
        self.block: Optional[tuple] = None

    # -- multistep history ------------------------------------------------

    def enable_history(self, depth: int) -> None:
        """Allocate ring buffers for ``depth`` committed points total
        (current state + ``depth - 1`` older entries)."""
        self.ring.enable(depth)
        if self.ring.depth:
            self.ring.set_current(self.v, self.i, self.n_caps)

    # Read views of the ring for diagnostics and white-box tests; all
    # mutation goes through the ring itself.
    @property
    def h_depth(self) -> int:
        return self.ring.depth

    @property
    def h_val(self) -> Optional[np.ndarray]:
        return self.ring.val

    @property
    def h_der(self) -> Optional[np.ndarray]:
        return self.ring.der

    @property
    def h_t(self) -> Optional[np.ndarray]:
        return self.ring.t

    @property
    def h_len(self) -> int:
        return self.ring.fill

    @property
    def t_now(self) -> float:
        return self.ring.t_now

    @property
    def history_points(self) -> int:
        """Committed states available, including the current one."""
        return self.ring.points

    def history_times(self) -> tuple:
        """Committed-state times, newest first (``[0]`` is current)."""
        return self.ring.times()

    def history_points_after(self, commits: int) -> int:
        """:attr:`history_points` after ``commits`` more commits (a set
        with no elements pushes none)."""
        if not self.n:
            return self.ring.points
        return min(self.ring.points + commits, self.ring.depth + 1)

    def reset_history(self) -> None:
        """Drop the older entries (the current state stays valid);
        used across breakpoints, where interpolating through a
        discontinuity would poison the multistep formula."""
        self.ring.reset()

    def bootstrap_history(self, dt: float) -> int:
        """One-step trap bootstrap of the multistep history ring.

        The conjugate-derivative row the ring already carries (cap
        current ``i = C v'``, inductor voltage ``v = L i'``) *is* the
        state derivative up to the element value, so a consistent
        uniform history at spacing ``dt`` can be synthesized from the
        current committed state alone — no extra solves.  A Gear phase
        entered mid-run at order >= 2 then starts from this history at
        its full target order instead of the classic startup ramp.
        Returns the number of history rows synthesized.
        """
        if not self.ring.depth or not self.n:
            return 0
        self.ring.set_current(self.v, self.i, self.n_caps)
        filled = self.ring.bootstrap(dt, self.ring.fd[0] / self.values)
        self.pending = None
        return filled

    def clear_weights(self) -> None:
        """Drop the memoized step weights (a method switch on a live
        run)."""
        self.ring.clear_weights()
        self.pending = None

    # -- coefficients -------------------------------------------------------

    def coeffs(
        self, dt: float, method: IntegrationMethod, order: int
    ) -> _ReactiveCoeffs:
        """Companion coefficients for one ``(dt, method, order)``."""
        base = method.base_coeffs(order)
        # Cap geq and inductor req, lead*value/dt evaluated in the
        # order Capacitor.companion_conductance and
        # Inductor.companion_resistance use, so the vectorized and
        # stamped values agree bit for bit.
        gcol = base.lead * self.values / dt
        caps, inds = self._at_caps, self._at_inds
        geq, req = gcol[caps], gcol[inds]
        if method.is_multistep:
            # Spacing-dependent weights are per-step products; only
            # the companion conductances belong to the cache entry.
            return _ReactiveCoeffs(
                None, None, None, 0.0,
                gcol=gcol, method=method, dt=dt, order=order,
            )
        wv0, wd0 = base.wv0, base.wd0
        # Companion RHS term per element: alpha*v_state + beta*i_state.
        #   cap:  ieq = wv0*geq*v + wd0*i
        #   ind:  rhs = wv0*req*i + wd0*v
        alpha = np.concatenate([wv0 * geq, np.full(req.shape, wd0)], axis=-1)
        beta = np.concatenate([np.full(geq.shape, wd0), wv0 * req], axis=-1)
        # State-update coefficients: i' = upd_g*(v'-v) - upd_m*i for
        # caps (upd_g is lead*C/dt); inductor slots are placeholders,
        # overwritten by their branch currents.
        upd_g = np.concatenate([geq, np.zeros(req.shape)], axis=-1)
        return _ReactiveCoeffs(alpha, beta, upd_g, float(-wd0))

    def _terminal_v(self, x: np.ndarray) -> np.ndarray:
        """Every element's terminal voltage at the iterate ``x``."""
        xp = self._xp
        xp[self._at_x] = x
        return xp[self._at_a] - xp[self._at_b]

    def _stack_terminal_v(self, x: np.ndarray) -> np.ndarray:
        """:meth:`_terminal_v` of a stack, by ``take``: through the
        padded iterate only when some terminal is grounded."""
        if self._grounded:
            self._xp[:, : self.size] = x
            x = self._xp
        return x.take(self.a_idx, axis=1) - x.take(self.b_idx, axis=1)

    def init_state(self, x: np.ndarray) -> None:
        """Seed integrator state from a converged starting point.

        The array form of :meth:`Capacitor.init_state` and
        :meth:`Inductor.init_state`: a cap starts at its ``ic`` or its
        terminal voltage with zero current, an inductor at its ``ic``
        or its branch current with zero voltage.
        """
        caps, inds = self._at_caps, self._at_inds
        v = np.zeros(self.values.shape)
        i = np.zeros(self.values.shape)
        v[caps] = np.where(self.has_ic[caps], self.ic[caps], self._terminal_v(x)[caps])
        i[inds] = np.where(self.has_ic[inds], self.ic[inds], x[self._at_br])
        self.v, self.i = v, i
        self.ring.restart()
        if self.ring.depth:
            self.ring.set_current(v, i, self.n_caps)
        self.pending = None

    def step_weights(self, co: _ReactiveCoeffs) -> tuple:
        """Memoized ``(wv, wd)`` for the active setup and history
        (the :class:`_HistoryRing` relative-offset memo)."""
        return self.ring.step_weights(co)

    def _companion_term(self, co: _ReactiveCoeffs) -> np.ndarray:
        """Per-element multistep companion term (cap ``ieq`` / inductor
        branch RHS): the ring's weighted contraction."""
        ring = self.ring
        return ring.companion_term(*ring.step_weights(co), co.gcol)

    def companion_rhs(self, co: _ReactiveCoeffs) -> np.ndarray:
        """The companion RHS of the current state: a fresh ``(size,)``
        vector, or ``(S, size)`` on a stack."""
        if not self.n:
            return np.zeros(self.v.shape[:-1] + (self.size,))
        if co.gcol is None:
            term = co.alpha * self.v + co.beta * self.i
        else:
            term = self._companion_term(co)
        # Each shape keeps its own product: a row-by-row ``S.dot(row)``
        # and the stacked ``term @ S.T`` differ in the last bit.
        if term.ndim == 1:
            if self.scatter_csr is not None:
                return self.scatter_csr.dot(term)
            return self.scatter.dot(term)
        if self.scatter_csr is not None:
            return np.ascontiguousarray(self.scatter_csr.dot(term.T).T)
        return term @ self.scatter.T

    # -- dense propagator (below the sparse scatter) --------------------------

    def propagator(self, co: _ReactiveCoeffs, inv: np.ndarray) -> np.ndarray:
        """The linear step against the base matrix's inverse ``inv``,
        as one matrix that maps the step's inputs straight to ``out =
        [z; v'; i']``: the step solution ``z = inv (scatter term + b)``,
        ``b`` being every other RHS stamp, and the state :meth:`commit`
        installs for it.

        For a one-step method the inputs are ``[v; i; b]``: the
        companion term ``alpha v + beta i`` and the cap update ``i' =
        upd_g (v' - v) - upd_m i`` fold in.  For a multistep method
        they are ``[term; b]``, the term being the ring's weighted
        contraction (:meth:`_HistoryRing.companion_term`), whose weights
        change with the step pattern, and the cap rows hold ``i' = gcol
        v' + term``.  Inductor rows take ``i'`` from their branch
        currents, and ``v'`` is every element's terminal voltage.

        The ``z`` rows are the inverse applied to the scattered term
        and the sources, as a solve would; the term itself is not
        folded into per-pattern matrices, since summing the history
        rows after the inverse (not before) lost up to 4x in backward
        error on stiff Gear entries.  The last ``size`` columns, ``src
        = [inv; gather inv; x_to_i inv]``, map any RHS vector to its
        solution and that solution's state part, so ``src u`` is the
        rank-1 step's Sherman–Morrison column
        (:meth:`TransientAssembly.rank1_data`).

        Shape-generic: a stack's ``(S, size, size)`` inverse and
        ``(S, m)`` coefficients give one ``(S, r, k)`` matrix per
        sample, through the same broadcast products.
        """
        m, size, nc = self.n, self.size, self.n_caps
        if not m:
            return inv
        rows = np.arange(m)
        gather = np.zeros((m, size + 1))
        np.add.at(gather, (rows, self.a_idx), 1.0)
        np.add.at(gather, (rows, self.b_idx), -1.0)
        gather = gather[:, :size]
        caps = np.zeros(m)
        caps[:nc] = 1.0
        cap_gain = co.upd_g if co.gcol is None else co.gcol * caps
        x_to_i = cap_gain[..., None] * gather
        x_to_i[..., rows[nc:], self.br_idx] = 1.0
        # out = src b + term_map term (+ the one-step cap update).
        src = np.concatenate((inv, gather @ inv, x_to_i @ inv), axis=-2)
        term_map = src @ self.scatter
        # The state rows' own diagonal: i' from the term or the state.
        diag = (..., size + m + rows, rows)
        if co.gcol is not None:
            term_map[diag] += caps
            return np.concatenate((term_map, src), axis=-1)
        v_map = term_map * co.alpha[..., None, :]
        v_map[diag] -= co.upd_g
        i_map = term_map * co.beta[..., None, :]
        i_map[diag] -= co.upd_m * caps
        return np.concatenate((v_map, i_map, src), axis=-1)

    def propagate(
        self, co: _ReactiveCoeffs, prop: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """The step solution ``z`` for the sources ``b``: one product
        with the propagator ``prop`` (see :meth:`propagator`), per
        stack row on a stack.

        The whole product ``[z; v'; i']`` stays pending for
        :meth:`commit`, which installs its state rows when it is handed
        this very ``z`` (or the one :meth:`slide` moved it to); a
        restore, a reseat, a bootstrap, a method switch, a dt change
        (:meth:`TransientAssembly.set_dt`) or the commit itself drops
        it.
        """
        if not self.n:
            inputs = b
        elif co.gcol is None:
            inputs = np.concatenate((self.v, self.i, b), axis=-1)
        else:
            inputs = np.concatenate((self._companion_term(co), b), axis=-1)
        if self._stacked:
            out = np.matmul(prop, inputs[..., np.newaxis])[..., 0]
        else:
            out = prop.dot(inputs)
        z = out[self._at_x]
        self.pending = (z, out, None)
        return z

    def propagate_block(
        self,
        co: _ReactiveCoeffs,
        prop: np.ndarray,
        b: np.ndarray,
        times: Sequence[float],
    ) -> np.ndarray:
        """Steps landing at each of ``times`` in turn, each departing
        from the state the one before it would commit: row ``j`` of the
        returned ``(len(times), r)`` array is step ``j``'s product
        ``[z; v'; i']`` for the sources ``b[j]``.  The same product on
        the same inputs as :meth:`propagate` and :meth:`commit` give,
        step by step, but nothing is committed: :meth:`commit_block`
        installs the state after any one step, and a block cut short
        drops the rest.

        The multistep ring runs over the block as one newest-first
        buffer: each step writes its row just ahead of the window it
        departs from, so every step's ring is a window of the buffer
        (the shift of :meth:`_HistoryRing.push` without a copy), and
        the window after any step is that step's committed ring.
        One netlist only (no stack).
        """
        n, m, size = len(times), self.n, self.size
        ring = self.ring
        depth = ring.depth
        multistep = co.gcol is not None
        width = m if multistep else 2 * m
        inputs = np.empty((n, width + size))
        inputs[:, width:] = b
        out = np.empty((n, len(prop)))
        rows = t = None
        if depth:
            # Committed times and ring rows, newest first: step j
            # departs from window n - j and writes the row before it.
            t = np.empty(n + depth + 1)
            t[:n] = times[::-1]
            t[n] = ring.t_now
            t[n + 1 :] = ring.t
            rows = np.empty((2, n + depth + 1, m))
            rows[:, n:] = ring.rows
        if multistep and m:
            self._multistep_block(co, prop, inputs, out, rows, t)
        else:
            inputs[0, :m] = self.v
            inputs[0, m:width] = self.i
            for j in range(n - 1):
                np.dot(prop, inputs[j], out=out[j])
                inputs[j + 1, :width] = out[j, size:]
            np.dot(prop, inputs[n - 1], out=out[n - 1])
            if depth:
                rows[:, :n] = np.moveaxis(out[::-1][:, self._ring_order], 1, 0)
        self.block = (out, rows, t, times)
        self.pending = None
        return out

    def _multistep_block(
        self,
        co: _ReactiveCoeffs,
        prop: np.ndarray,
        inputs: np.ndarray,
        out: np.ndarray,
        rows: np.ndarray,
        t: np.ndarray,
    ) -> None:
        """The step loop of :meth:`propagate_block` for a multistep
        method: each step's companion term is the ring's weighted
        contraction over its window (:meth:`_HistoryRing.companion_term`,
        inlined where no derivative weights are used).  Every step's
        history offsets are known ahead, so they are taken at once, and
        their weights looked up before the loop."""
        n, m = len(out), self.n
        ring = self.ring
        depth = ring.depth
        departs = np.arange(n, 0, -1)[:, None]
        offsets = t[departs] - t[departs + np.arange(1, depth + 1)]
        fill = ring.fill
        weights = [
            ring.step_weights(co, offsets[j, : min(depth, fill + j)])
            for j in range(n)
        ]
        gcol = co.gcol
        order = self._ring_order
        values = rows[0]
        term = inputs[:, :m]
        for j, (wv, wd) in enumerate(weights):
            s = n - j
            if wd is None:
                np.multiply(gcol, wv.dot(values[s : s + len(wv)]), out=term[j])
            else:
                term[j] = ring.companion_term(wv, wd, gcol, rows[:, s:])
            np.dot(prop, inputs[j], out=out[j])
            rows[:, s - 1] = out[j, order]

    def commit_block(self, j: int) -> None:
        """Install the state after step ``j`` of the last
        :meth:`propagate_block`, as committing its steps ``0..j`` one
        by one would; its later steps are dropped (all of them for
        ``j = -1``)."""
        out, rows, t, times = self.block
        self.block = None
        self.pending = None
        if j < 0:
            return
        state = out[j, self.size :]
        self.v = state[: self.n].copy()
        self.i = state[self.n :].copy()
        ring = self.ring
        if self.n and ring.depth:  # as commit, which pushes no empty state
            s = len(times) - 1 - j
            ring.rows[...] = rows[:, s : s + ring.depth + 1]
            ring.t[:] = t[s + 1 : s + 1 + ring.depth]
            ring.fill = min(ring.depth, ring.fill + j + 1)
        ring.t_now = times[j]

    def slide(
        self,
        c,
        wout: np.ndarray,
        x: Optional[np.ndarray] = None,
        line: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The rank-1 step's solution ``z - c w`` on the line through
        the pending product, and the state it commits: ``out - c wout``
        (``wout = src u``, see :meth:`propagator`), pending in place of
        the product.  ``c`` is a float, or a stack's ``(S, 1)`` column.

        On a stack, ``line`` masks the rows whose step ended on the
        line; every other row takes its row of ``x`` and gathers its
        commit, as its own netlist's run would.
        """
        _z, out, _off = self.pending
        out = out - c * wout
        z = out[self._at_x]
        off = None
        if line is not None and np.count_nonzero(line) < line.size:
            off = ~line
            z[off] = x[off]
        self.pending = (z, out, off)
        return z

    def _gathered(self, co: _ReactiveCoeffs, x: np.ndarray) -> tuple:
        """``(v', i')`` of the commit of ``x`` by the companion
        formulas: the terminal voltages, and the integration formula's
        derivative state."""
        v_new = self._terminal_v(x)
        if co.gcol is None:
            i_new = co.upd_g * (v_new - self.v)
            if co.upd_m:
                i_new -= self.i
        else:
            # Derivative state from the integration formula itself:
            # i_{n+1} = geq*v_{n+1} + ieq (cap slots; inductor slots
            # are overwritten from the branch currents below).
            i_new = co.gcol * v_new + self._companion_term(co)
        if len(self.inds):
            i_new[self._at_inds] = x[self._at_br]
        return v_new, i_new

    def commit(
        self,
        co: _ReactiveCoeffs,
        x: np.ndarray,
        time: float,
        freeze: Optional[np.ndarray],
    ) -> None:
        """Advance the integrator state after a converged step.

        Handed the very array :meth:`propagate` or :meth:`slide`
        returned (``x is z``, and nothing has dropped the product
        since), the state is the product's pending rows ``[v'; i']``:
        identity, not equality, is the contract, so a caller that
        changes ``z`` in place before the commit must commit a copy.
        Every other ``x`` — a step that ended off the rank-1 line, a
        rescued step, a commit after a restored snapshot or a method
        switch, any step of the sparse backend — gathers the terminal
        voltages and applies the companion formulas (:meth:`_gathered`);
        the two agree to rounding.  So do the stack rows the pending
        product marks ``off``.

        ``freeze`` is a stack's boolean ``(S,)`` mask of the samples
        sitting this step out, or ``None``: their ``v`` and ``i`` stay
        exactly where their last converged step left them, since
        recomputing them from their frozen iterate rows through the
        companion formulas would drift them.
        """
        pending = self.pending
        self.pending = None
        if not self.n:
            self.ring.t_now = time
            return
        if pending is not None and x is pending[0]:
            _z, out, off = pending
            v_new, i_new = out[self._at_out_v], out[self._at_out_i]
            if off is not None:
                v_off, i_off = self._gathered(co, x)
                v_new[off] = v_off[off]
                i_new[off] = i_off[off]
        else:
            out = None
            v_new, i_new = self._gathered(co, x)
        if freeze is not None:
            v_new[freeze] = self.v[freeze]
            i_new[freeze] = self.i[freeze]
        ring = self.ring
        ring.push()
        self.v = v_new
        self.i = i_new
        if ring.depth:
            if out is None:
                ring.set_current(v_new, i_new, self.n_caps)
            elif self._stacked:
                ring.rows[:, 0] = np.moveaxis(out[:, self._ring_order], 1, 0)
            else:
                # Row 0 gathered straight from the product's [v'; i'].
                ring.rows[:, 0] = out[self._ring_order]
        ring.t_now = time

    # -- whole-state access ---------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture the state and history so a trial step can be undone."""
        return (self.v.copy(), self.i.copy(), self.ring.snapshot())

    def restore(self, snap: tuple) -> None:
        """Undo every state change since the matching :meth:`snapshot`."""
        v, i, ring_snap = snap
        self.v = v.copy()
        self.i = i.copy()
        self.pending = None
        self.ring.restore(ring_snap)
        if self.ring.depth:
            self.ring.set_current(self.v, self.i, self.n_caps)

    def reseat(self, v: np.ndarray, i: np.ndarray, time: float) -> None:
        """Replace the state by ``(v, i)`` committed at ``time``; the
        multistep history restarts there."""
        self.v = v
        self.i = i
        ring = self.ring
        ring.reset()
        ring.t_now = time
        if ring.depth:
            ring.set_current(v, i, self.n_caps)
        self.pending = None

    def state_faults(self, x: np.ndarray) -> tuple:
        """Where the committed state disagrees with the committed
        solution ``x``: ``(nonfinite, charge, flux)`` boolean masks,
        one entry per row (0-d for a single netlist).

        ``nonfinite`` flags a non-finite ``v`` or ``i``; ``charge`` a
        ``v`` off its terminal voltage and ``flux`` an inductor ``i``
        off its branch current, each by more than ``1e-12 * (1 +`` the
        row's largest expected value ``)``.
        """
        v_expected = self._terminal_v(x)
        tol = 1e-12 * (1.0 + np.abs(v_expected).max(axis=-1, initial=0.0))
        nonfinite = ~(np.isfinite(self.v).all(axis=-1) & np.isfinite(self.i).all(axis=-1))
        charge = np.abs(self.v - v_expected).max(axis=-1, initial=0.0) > tol
        i_br = x[self._at_br]
        itol = 1e-12 * (1.0 + np.abs(i_br).max(axis=-1, initial=0.0))
        flux = np.abs(self.i[self._at_inds] - i_br).max(axis=-1, initial=0.0) > itol
        return nonfinite, charge, flux


class DtCache:
    """Setup-keyed LRU with a two-slot *ephemeral* side cache.

    The policy both transient assemblies (per-sample and batched
    lockstep) share.  Keys are opaque hashables — the assemblies key
    every entry by the full integration setup ``(dt, method, order)``
    rather than ``dt`` alone, so switching method or order on a live
    assembly can never reuse a stale entry whose build closure baked
    in a different integrator.  Quantized step sizes live in an LRU
    of at most ``max_entries`` cache entries; breakpoint-truncated
    one-shot step sizes — arbitrary event-driven floats that will not
    recur — are served from a two-slot scratch area (a truncated
    candidate step solves at ``dt`` *and* ``dt/2``, and a
    Newton-reject retry revisits the same pair) so they never evict
    the controller's quantized grid entries.

    ``build(key)`` constructs a missing entry; the optional
    ``retire(entry)`` hook runs when an entry leaves the cache
    (eviction or ephemeral turnover), which is how the per-sample
    assembly keeps its factorization counters honest.
    """

    def __init__(self, build, retire=None, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError("max_dt_entries must be >= 1")
        self._build = build
        self._retire = retire
        self.max_entries = max_entries
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._ephemeral: Dict[object, object] = {}

    def get(self, key, ephemeral: bool = False):
        """The entry for ``key``, built on demand."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        elif ephemeral:
            entry = self._ephemeral.get(key)
            if entry is None:
                if len(self._ephemeral) >= 2:
                    # A new truncated step: the previous pair is done.
                    if self._retire is not None:
                        for old in self._ephemeral.values():
                            self._retire(old)
                    self._ephemeral.clear()
                entry = self._build(key)
                self._ephemeral[key] = entry
        else:
            entry = self._build(key)
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                if self._retire is not None:
                    self._retire(evicted)
        return entry

    def __len__(self) -> int:
        """Number of quantized-grid (non-ephemeral) entries alive."""
        return len(self._entries)

    def live_entries(self) -> List[object]:
        """Every entry currently held (grid + ephemeral)."""
        return list(self._entries.values()) + list(self._ephemeral.values())


class _DtEntry:
    """Everything the engine caches for one quantized step size.

    ``G_base`` is whatever the active backend finalizes — a frozen
    dense ndarray or a CSR matrix — and ``lu`` the matching
    factorization object; every consumer goes through the backend-
    agnostic ``solve`` interface.
    """

    __slots__ = ("dt", "G_base", "coeffs", "lu", "rank1", "delta", "prop")

    def __init__(
        self, dt: float, G_base, coeffs: _ReactiveCoeffs, propagates: bool
    ):
        self.dt = dt
        self.G_base = G_base
        self.coeffs = coeffs
        self.lu = None  # lazy backend factorization
        self.rank1: Optional[tuple] = None  # lazy (w, vw, w_vmax, wout)
        #: Sparse general-Newton data: (pattern_version, W = G_base^-1 U)
        #: for the nonlinear components' touched-row selector U (lazy).
        self.delta: Optional[tuple] = None
        #: Dense step propagator: ``None`` until the first step builds
        #: it, then :meth:`_ReactiveSet.propagator`'s matrix, or
        #: ``False`` where there is none (not a dense ``linear`` or
        #: ``rank1`` run, or no finite inverse).
        self.prop = None if propagates else False


class TransientAssembly:
    """Cached linear system(s) for one transient run.

    Built once per :func:`~repro.circuits.transient.run_transient`
    call for a fixed ``(method, gmin)``; exposes the assembly tiers
    described in the module docstring.  The ``dt``-dependent products
    live in a small LRU of per-step-size cache entries; switch the
    active entry with :meth:`set_dt` (a fixed-step run stays on its
    initial entry forever).  Every entry is stamped exactly, on every
    backend: an entry rebuilt after an eviction is bit-identical to
    the one it replaces.
    """

    def __init__(
        self,
        circuit: Circuit,
        dt: float,
        method: Union[str, IntegrationMethod],
        gmin: float,
        max_dt_entries: int = DT_CACHE_SIZE,
        backend: Union[str, MatrixBackend, None] = "auto",
        jacobian: str = "auto",
    ):
        circuit.prepare()
        self.circuit = circuit
        self.method = resolve_method(method)
        self.method_name = self.method.name
        self.gmin = gmin
        self.size = circuit.size
        self.n_nodes = circuit.n_nodes
        self.backend = resolve_backend(backend, self.size)

        split, full = circuit.partition_components()
        self.full: List[Component] = full
        #: Whether dt entries build a propagator: the dense backend's
        #: ``linear`` and ``rank1`` strategies (``jacobian="full"``
        #: takes ``general`` Newton, which restamps instead).
        self.propagates = self.backend.is_dense and (
            self.is_linear
            or (jacobian == "auto" and self.rank1_device() is not None)
        )

        # Type-exact R, C and L are read once into arrays: they stamp
        # the static stream from them, and plain reactive elements get
        # the vectorized state path.  Every other split component (and
        # any subclass) stamps through its own methods.
        self.plain = PlainElements(split)
        #: Generic integrator state of every other component, by name
        #: (filled by :meth:`init_state`; one dict for the whole run).
        self.states: Dict[str, object] = {}
        self.reactive = _ReactiveSet(self.plain, self.size)
        if self.method.is_multistep:
            self.reactive.enable_history(
                self.method.history_depth(self.method.max_order)
            )
        #: Active integration order (the startup ramp and the order
        #: controller move it; one-step methods never do).
        self._order = self.method.usable_order(self.method.max_order, 1)
        # Split components with per-step RHS work (sources, reactive
        # subclasses) — skip ones whose stamp_dynamic is the base
        # no-op so large resistive networks pay nothing per step.
        self.dynamic: List[Component] = [
            c
            for c in self.plain.generic
            if type(c).stamp_dynamic is not Component.stamp_dynamic
        ]

        # Scratch system and context reused by per-step/per-iteration
        # stamping so the hot loop constructs no MNASystem or
        # StampContext objects.  ``_ctx.dt`` tracks the active entry.
        self._scratch = MNASystem(self.size)
        self._ctx = StampContext(
            system=self._scratch,
            x=np.zeros(self.size),
            time=0.0,
            dt=dt,
            method=self.method_name,
            gmin=gmin,
            coeffs=self.method.base_coeffs(self._order),
            states=self.states,
        )
        #: Structure of the static stamp stream, captured on the first
        #: entry build and reused while the stream's layout holds
        #: (structure/value split: only the values depend on dt).
        self._pattern: Optional[StampPattern] = None
        self._layout = None
        self._static_ctx = StampContext(
            system=None,  # a TripletSystem per build
            x=np.zeros(self.size),
            time=0.0,
            dt=dt,
            method=self.method_name,
            gmin=gmin,
            coeffs=self.method.base_coeffs(self._order),
        )
        # Sparse general-Newton scratch: the nonlinear components'
        # per-iteration stamps recorded as a (tiny) triplet stream and
        # applied against the base LU as a low-rank update.
        self._delta_scratch = TripletSystem(self.size)
        self._delta_rows: List[int] = []
        self._delta_cols: List[int] = []
        self._delta_row_pos: Dict[int, int] = {}
        self._delta_col_pos: Dict[int, int] = {}
        self._delta_version = 0
        # Matrix guard handed to the RHS scratch in sparse mode: any
        # stamp_dynamic that (incorrectly) writes matrix entries hits
        # an empty array and fails loudly.
        self._guard_G = np.zeros((0, 0))

        #: Factorizations performed inside entries that were later
        #: evicted from the LRU (kept so diagnostics never undercount).
        self.retired_factorizations = 0
        self._cache = DtCache(
            self._build_entry, self._retire, max_entries=max_dt_entries
        )
        self._active: _DtEntry
        self.set_dt(dt)

    # -- (dt, method, order)-keyed cache --------------------------------------

    def _build_entry(self, key: Tuple[float, IntegrationMethod, int]) -> _DtEntry:
        """Stamp and finalize the base matrix of one integration setup
        (the :class:`DtCache` build callback).  The stamp pattern is
        recomputed only when the stream's layout changes, i.e. when a
        generic component stamps a different structure."""
        dt, _method, order = key
        ctx = self._static_ctx
        ctx.system = TripletSystem(self.size)
        ctx.dt = dt
        ctx.coeffs = self.method.base_coeffs(order)
        layout, values = self.plain.stream(ctx, self.n_nodes)
        if layout is not self._layout:
            self._layout = layout
            self._pattern = StampPattern(self.size, layout.rows, layout.cols)
        G = self.backend.finalize(self._pattern, values)
        return _DtEntry(
            dt,
            G,
            self.reactive.coeffs(dt, self.method, order),
            self.propagates,
        )

    def set_dt(
        self, dt: float, ephemeral: bool = False, order: Optional[int] = None
    ) -> None:
        """Make ``(dt, order)`` the active integration setup, building
        or reusing its cache entry (:class:`DtCache` policy: LRU
        eviction beyond ``max_dt_entries``, two ephemeral scratch
        slots for breakpoint-truncated one-shot step sizes).  Entries
        are keyed by the full ``(dt, method, order)`` setup, never by
        ``dt`` alone.
        """
        dt = float(dt)
        if order is not None and order != self._order:
            self._order = int(order)
            self._ctx.coeffs = self.method.base_coeffs(self._order)
        # Keyed by the method *object*, not its name: the built-in
        # names resolve to singletons (so trap -> be -> trap reuses
        # entries), while a custom method that happens to share a name
        # can never be served another method's matrices.
        key = (dt, self.method, self._order)
        self._active = self._cache.get(key, ephemeral=ephemeral)
        self._ctx.dt = dt
        self.reactive.pending = None

    def set_method(
        self,
        method: Union[str, IntegrationMethod],
        order: Optional[int] = None,
        bootstrap_dt: Optional[float] = None,
    ) -> None:
        """Switch the integration method on a live assembly.

        The cache key includes the method name and order, so entries
        built for the previous method can never be served again; they
        age out of the LRU normally.

        ``bootstrap_dt`` (multistep targets only) discards whatever
        committed history survives the switch and synthesizes a fresh
        uniform one at that spacing from the current state and its
        derivative (:meth:`_ReactiveSet.bootstrap_history`), so a
        phase switch into Gear starts at full order immediately
        instead of ramping.
        """
        self.method = resolve_method(method)
        self.method_name = self.method.name
        if self.method.is_multistep:
            self.reactive.enable_history(
                self.method.history_depth(self.method.max_order)
            )
        # The step-weights memo is keyed by (dt, order, history) only;
        # weights (and companion terms) computed by the previous
        # method must not survive.
        self.reactive.clear_weights()
        if bootstrap_dt is not None and self.method.is_multistep:
            self.reactive.reset_history()
            self.reactive.bootstrap_history(float(bootstrap_dt))
        if order is None:
            order = self.method.usable_order(
                self.method.max_order, self.reactive.history_points
            )
        self._order = int(order)
        self._ctx.method = self.method_name
        self._static_ctx.method = self.method_name
        self._ctx.coeffs = self.method.base_coeffs(self._order)
        self.set_dt(self.dt)

    @property
    def order(self) -> int:
        """The active integration order."""
        return self._order

    @property
    def history_points(self) -> int:
        """Committed states available to a multistep formula."""
        return self.reactive.history_points

    def reset_history(self) -> None:
        """Invalidate multistep history (used across breakpoints)."""
        self.reactive.reset_history()

    def history_points_after(self, commits: int) -> int:
        """:attr:`history_points` after ``commits`` more steps."""
        return self.reactive.history_points_after(commits)

    def _retire(self, entry: Optional[_DtEntry]) -> None:
        """Count, then release, an evicted entry's factorizations.

        Dropping the references (rather than letting the evicted entry
        keep them alive through stray aliases) is what bounds the
        memory of a long adaptive run: a sparse LU of a large ladder
        is far bigger than the CSR matrix it factors.
        """
        if entry is None:
            return
        if entry.lu is not None:
            self.retired_factorizations += entry.lu.n_factorizations
            entry.lu = None
        entry.rank1 = None
        entry.delta = None

    @property
    def dt(self) -> float:
        """The active step size."""
        return self._active.dt

    @property
    def G_base(self):
        """The cached base matrix of the active step size (a frozen
        dense ndarray or a CSR matrix, per the backend)."""
        return self._active.G_base

    @property
    def n_dt_entries(self) -> int:
        return len(self._cache)

    def lu(self):
        """Cached backend factorization of the active base matrix
        (lazy): :class:`~repro.circuits.linsolve.ReusableLU` dense,
        :class:`~repro.circuits.backend.SparseLU` sparse."""
        entry = self._active
        if entry.lu is None:
            entry.lu = self.backend.factor(entry.G_base)
        return entry.lu

    @property
    def lu_factorizations(self) -> int:
        """Total factorizations across all (live + evicted) entries."""
        live = sum(
            e.lu.n_factorizations
            for e in self._cache.live_entries()
            if e.lu is not None
        )
        return live + self.retired_factorizations

    # -- strategy discovery ---------------------------------------------------

    @property
    def is_linear(self) -> bool:
        """No per-iteration restamping needed at all."""
        return not self.full

    def rank1_device(self) -> Optional[NonlinearVCCS]:
        """The single nonlinear VCCS, if that is the *only* full-stamp
        component — the cached-Jacobian (Sherman–Morrison) case."""
        if len(self.full) == 1 and type(self.full[0]) is NonlinearVCCS:
            return self.full[0]
        return None

    def rank1_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, v)`` with the device stamp ``G = G_base + gm*u@v.T``
        and RHS contribution ``-i_eq*u``."""
        device = self.rank1_device()
        op, on, cp, cn = device._n
        u = np.zeros(self.size)
        if op >= 0:
            u[op] += 1.0
        if on >= 0:
            u[on] -= 1.0
        v = np.zeros(self.size)
        if cp >= 0:
            v[cp] += 1.0
        if cn >= 0:
            v[cn] -= 1.0
        return u, v

    def rank1_data(self) -> Tuple[np.ndarray, float, float, Optional[np.ndarray]]:
        """``(w, vw, w_vmax, wout)`` of the Sherman–Morrison fast path
        for the active step size: ``w = G_base^-1 u``, its control-space
        projection, the largest node-voltage magnitude of ``w``, and,
        where the entry has a propagator, ``wout = src u = [w; gather
        w; x_to_i w]`` (:meth:`_ReactiveSet.propagator`), whose first
        rows ``w`` views; ``None`` elsewhere."""
        entry = self._active
        if entry.rank1 is None:
            device = self.rank1_device()
            op, on, cp, cn = device._n
            u, _v = self.rank1_vectors()
            prop = self._propagator()
            if prop is False:
                wout = None
                w = self.lu().solve(u)
            else:
                wout = prop[:, -self.size :].dot(u)
                w = wout[: self.size]
            vw = (w[cp] if cp >= 0 else 0.0) - (w[cn] if cn >= 0 else 0.0)
            w_v = w[: self.n_nodes]
            w_vmax = float(np.abs(w_v).max()) if w_v.size else 0.0
            entry.rank1 = (w, float(vw), w_vmax, wout)
        return entry.rank1

    # -- adaptive-step state management --------------------------------------

    def init_state(self, x: np.ndarray) -> None:
        """Seed every integrator state from the initial solution ``x``
        (honours per-element ``ic``)."""
        self.reactive.init_state(x)
        self.states.clear()
        # Only these can hold generic state: plain R, C and L never do.
        for component in chain(self.plain.generic, self.full):
            state = component.init_state(x)
            if state is not None:
                self.states[component.name] = state

    def snapshot_state(self) -> tuple:
        """Capture all integrator state so a trial step can be undone.

        Includes the multistep history ring (values, derivatives,
        times, fill level) so a rejected BDF/Gear trial step restores
        the history *exactly* — not just the newest state.  Generic
        component states are snapshotted by reference: the engine's
        ``update_state`` implementations return fresh state objects
        rather than mutating, so a shallow dict copy is a true
        snapshot.
        """
        return (self.reactive.snapshot(), dict(self.states))

    def restore_state(self, snapshot: tuple) -> None:
        """Undo every state change since the matching snapshot."""
        reactive, generic = snapshot
        self.reactive.restore(reactive)
        self.states.clear()
        self.states.update(generic)

    # -- once per step --------------------------------------------------------

    def _propagator(self):
        """The active entry's propagator, built on first use (from the
        explicit inverse :class:`~repro.circuits.linsolve.ReusableLU`
        holds below its LU threshold), or ``False``."""
        entry = self._active
        if entry.prop is None:
            inv = self.lu().inverse
            entry.prop = (
                False
                if inv is None
                else self.reactive.propagator(entry.coeffs, inv)
            )
        return entry.prop

    def step_rhs(self, time: float, x: np.ndarray) -> np.ndarray:
        """Linear right-hand side for one step (iterate-independent).

        Where the active entry has a propagator (a linear netlist on
        the dense backend), the companion part is left out: the
        returned vector holds the sources' and every other dynamic
        stamp only, :meth:`linear_solve` applies the propagator to it
        and the state, and :meth:`assemble_dense` adds the companion
        part back for the rescue ladder and the certifier.
        """
        prop = self._active.prop
        if prop is None:
            prop = self._propagator()
        if prop is not False:
            rhs = np.zeros(self.size)
        else:
            rhs = self.reactive.companion_rhs(self._active.coeffs)
        if self.dynamic:
            ctx = self._ctx
            # Not written by stamp_dynamic: the frozen dense base, or
            # an empty guard in sparse mode — either fails loudly.
            self._scratch.G = (
                self.G_base if self.backend.is_dense else self._guard_G
            )
            self._scratch.rhs = rhs
            ctx.x = x
            ctx.time = time
            for component in self.dynamic:
                component.stamp_dynamic(ctx)
        return rhs

    @property
    def blocks(self) -> bool:
        """Whether steps can run as blocks (:meth:`propagate_block`): a
        linear netlist whose entries build propagators, with no generic
        integrator state, whose every per-step stamp is an independent
        source's."""
        return (
            self.propagates
            and self.is_linear
            and not self.states
            and all(type(c).stamp_dynamic in _TIME_STAMPS for c in self.dynamic)
        )

    def block_sources(self, times: Sequence[float]) -> np.ndarray:
        """:meth:`step_rhs` of a propagated entry at each of ``times``,
        one row each, where :attr:`blocks` holds: the sources' stamps,
        each source's values taken one time after another."""
        rhs = np.zeros((len(times), self.size))
        scale = self._ctx.source_scale
        for component in self.dynamic:
            component.stamp_times(rhs, times, scale)
        return rhs

    @property
    def propagated(self) -> bool:
        """Whether the active entry has a propagator (built on first
        use), so its steps can run as :meth:`propagate_block`."""
        return self._propagator() is not False

    def propagate_block(self, times: Sequence[float]) -> np.ndarray:
        """The steps of the active setup landing at each of ``times``
        in turn, as :meth:`_ReactiveSet.propagate_block` products (the
        solutions are each row's first ``size`` entries), committing
        nothing.  The active entry must be :attr:`propagated`."""
        return self.reactive.propagate_block(
            self._active.coeffs,
            self._propagator(),
            self.block_sources(times),
            times,
        )

    def commit_block(self, j: int) -> None:
        """Commit steps ``0..j`` of the last :meth:`propagate_block`
        and drop the rest."""
        self.reactive.commit_block(j)

    def linear_solve(self, rhs_lin: np.ndarray) -> np.ndarray:
        """The step solution of the linear part for :meth:`step_rhs`'s
        right-hand side (the whole step of a linear netlist, a rank-1
        step's ``z_lin``): one product with the active propagator, which
        also yields the state :meth:`commit` installs for this very
        array (or for the point :meth:`_ReactiveSet.slide` moves it
        to), or a solve against the cached factorization where there
        is none."""
        prop = self._active.prop
        if prop is None:
            prop = self._propagator()
        if prop is not False:
            return self.reactive.propagate(self._active.coeffs, prop, rhs_lin)
        return self.lu().solve(rhs_lin)

    # -- once per Newton iteration --------------------------------------------

    def full_rhs(self, rhs_lin: np.ndarray) -> np.ndarray:
        """:meth:`step_rhs`'s right-hand side with the companion part a
        propagated step leaves out added back (``rhs_lin`` itself where
        the entry has no propagator)."""
        if self._propagator() is False:
            return rhs_lin
        return rhs_lin + self.reactive.companion_rhs(self._active.coeffs)

    def assemble_dense(
        self,
        x: np.ndarray,
        rhs_lin: np.ndarray,
        time: float,
        extra_gmin: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fully-stamped *dense* ``(G, rhs)`` at iterate ``x``, on any
        backend, with an optional extra node-to-ground conductance.

        On the dense backend this is the full Newton system (copies of
        the cached parts, restamped by the full-stamp components).  The
        rescue ladder builds its systems here too: a per-step gmin
        ramp needs the Jacobian with ``extra_gmin`` added on every
        node's diagonal, and a residual-continuation stage needs the
        raw ``(G, rhs)`` pair to offset.  Rescue only runs after a
        Newton failure, so materializing the sparse base as dense here
        is fine.  A propagated step's ``rhs_lin`` gets its companion
        part back here.
        """
        rhs_lin = self.full_rhs(rhs_lin)
        if self.backend.is_dense:
            G = self.G_base.copy()
            rhs = rhs_lin.copy()
            if self.full:
                ctx = self._ctx
                self._scratch.G = G
                self._scratch.rhs = rhs
                ctx.x = x
                ctx.time = time
                for component in self.full:
                    component.stamp(ctx)
        else:
            tri = self._record_full(x, time)
            G = self._dense_with(tri)
            rhs = rhs_lin + tri.rhs
        if extra_gmin:
            idx = np.arange(self.n_nodes)
            G[idx, idx] += extra_gmin
        return G, rhs

    # -- sparse/Krylov general Newton: base solver + low-rank delta -----------

    def _record_full(self, x: np.ndarray, time: float) -> TripletSystem:
        """The full-stamp components' stamps at iterate ``x``, recorded
        as a triplet stream into the reused ``_delta_scratch``."""
        tri = self._delta_scratch
        tri.clear()
        ctx = self._ctx
        ctx.system = tri
        ctx.x = x
        ctx.time = time
        for component in self.full:
            component.stamp(ctx)
        ctx.system = self._scratch
        return tri

    def _dense_with(self, tri: TripletSystem) -> np.ndarray:
        """Dense ``G_base`` plus a recorded triplet stream."""
        G = self.G_base.toarray()
        if tri.rows:
            np.add.at(G, (tri.rows, tri.cols), tri.vals)
        return G

    def _delta_map(self, indices: List[int], positions: Dict[int, int], order: List[int]) -> np.ndarray:
        """Local slots of global indices, extending the union pattern."""
        local = np.empty(len(indices), dtype=np.intp)
        for j, idx in enumerate(indices):
            slot = positions.get(idx)
            if slot is None:
                slot = len(order)
                positions[idx] = slot
                order.append(idx)
                self._delta_version += 1
            local[j] = slot
        return local

    def _delta_W(self) -> np.ndarray:
        """``G_base^-1 U`` for the touched-row selector ``U``, cached
        per dt entry and invalidated when the touched-position union
        grows (a nonlinear device stamping a new position)."""
        entry = self._active
        if entry.delta is None or entry.delta[0] != self._delta_version:
            U = np.zeros((self.size, len(self._delta_rows)))
            U[self._delta_rows, np.arange(len(self._delta_rows))] = 1.0
            entry.delta = (self._delta_version, self.lu().solve(U))
        return entry.delta[1]

    def delta_solve(
        self,
        x: np.ndarray,
        rhs_lin: np.ndarray,
        time: float,
    ) -> np.ndarray:
        """Solve the fully-stamped system against the base solver.

        The sparse and Krylov backends' replacement for ``assemble_dense`` +
        dense solve: the nonlinear (or split-incapable) components' stamps
        are recorded as a tiny triplet stream, viewed as the low-rank
        update ``G = G_base + U M V^T`` — ``U``/``V`` select the
        touched rows/columns (a fixed, small set per netlist), ``M``
        is the dense submatrix of this iteration's stamp values — and
        folded into the solution by the generalized Woodbury identity
        around the cached per-``dt`` solver (a sparse LU, or the Krylov
        backend's stale-LU-preconditioned solver).  No refactorization,
        no dense assembly, exact to rounding (to the iteration
        tolerance on Krylov): the Newton iterates match the dense path
        at solver tolerance.
        """
        tri = self._record_full(x, time)
        b = rhs_lin + tri.rhs
        z = self.lu().solve(b)
        if not tri.rows:
            return z
        r_loc = self._delta_map(tri.rows, self._delta_row_pos, self._delta_rows)
        c_loc = self._delta_map(tri.cols, self._delta_col_pos, self._delta_cols)
        W = self._delta_W()
        M = np.zeros((len(self._delta_rows), len(self._delta_cols)))
        np.add.at(M, (r_loc, c_loc), tri.vals)
        cols = np.asarray(self._delta_cols, dtype=np.intp)
        S = np.eye(len(cols)) + W[cols, :].dot(M)
        try:
            s = np.linalg.solve(S, z[cols])
        except np.linalg.LinAlgError:
            # Momentarily singular along the update directions: fall
            # back to one dense solve (rare, never the steady path).
            return solve_dense(self._dense_with(tri), b)
        return z - W.dot(M.dot(s))

    # -- after a converged step ----------------------------------------------

    def commit(self, x: np.ndarray, time: float) -> None:
        """Advance all integrator states after a converged step.

        Handed the very array :meth:`linear_solve` returned (identity,
        not equality), the plain reactive state comes from that step's
        product; any other ``x`` (a rescued step, say) gathers it from
        ``x`` (:meth:`_ReactiveSet.commit`).
        """
        self.reactive.commit(self._active.coeffs, x, time, None)
        if self.states:
            ctx = self._ctx
            ctx.x = x
            ctx.time = time
            for name in list(self.states):
                self.states[name] = self.circuit[name].update_state(ctx)
