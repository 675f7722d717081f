"""Pluggable dense/sparse linear-algebra backends for the MNA engines.

Every analysis in :mod:`repro.circuits` reduces to the same three
operations on the assembled MNA system: *finalize* a recorded stamp
stream into a matrix, *factor* that matrix, and *solve* against the
factorization for many right-hand sides.  This module makes the
storage behind those operations pluggable so the engines scale past
the paper's hand-built netlists:

* :class:`DenseBackend` — the historical path, bit-pinned to the
  pre-refactor results: dense ``(n, n)`` matrices finalized with
  stream-order accumulation (:meth:`~repro.circuits.component.
  StampPattern.dense`) and factored by :class:`~repro.circuits.
  linsolve.ReusableLU` (explicit inverse below 64 unknowns, partial-
  pivoting LU above, least-squares degradation for singular systems).
  Right for the few-node lumped netlists where LAPACK call overhead
  dominates arithmetic.
* :class:`SparseBackend` — CSR matrices finalized from the same stamp
  stream (:meth:`~repro.circuits.component.StampPattern.csr_arrays`)
  and factored once per step size by :class:`SparseLU`:
  ``scipy.sparse.linalg.splu`` in SuperLU's symmetric mode, which on a
  matrix made mostly of isolated one- and two-unknown blocks (a coil
  mesh's series branches) factors only the Schur complement left
  after eliminating those blocks exactly, and refines each solve once;
  the factorization is reused for every solve at that step size, and
  the engines' Newton updates (Sherman–Morrison for one nonlinear
  device, the low-rank Woodbury update of general Newton otherwise) are
  applied *against* the per-step-size solver — this LU, or a
  :class:`KrylovSolver` on the Krylov backend, through the same
  ``TransientAssembly.delta_solve`` — so nonlinear steps never
  re-factorize.  Right for distributed netlists (coil ladders,
  segmented rails) with hundreds-to-thousands of unknowns, where the
  MNA matrix is overwhelmingly empty.
* :class:`KrylovBackend` — iterative solves (iterative refinement
  escalating to GMRES/BiCGStab) preconditioned by a *stale* LU that
  is shared across dt-cache entries and Newton iterations and
  refreshed only when iteration counts degrade past a threshold.
  Past ~10k unknowns even the per-``dt`` ``splu`` refactorizations of
  the sparse backend dominate an adaptive transient's wall clock
  (breakpoint-truncated one-shot step sizes, LRU evictions, DC Newton
  re-factorization); the Krylov backend pays one factorization and
  amortizes every other matrix in the run against it.  The 2-D
  ``coil_mesh`` workloads (10k–100k unknowns) are its territory.

Selection
---------
Callers pass ``backend="auto" | "dense" | "sparse" | "krylov"`` (or an
instance).  ``"auto"`` picks dense below
:data:`SPARSE_AUTO_THRESHOLD` unknowns, sparse at or above it, and
Krylov at or above :data:`KRYLOV_AUTO_THRESHOLD` — the crossovers
measured on the ladder/mesh workloads of ``benchmarks/run_perf.py``.
Explicit names override for tests and benchmarks.

Statefulness: the dense and sparse backends are stateless strategy
objects (dense is a module singleton); a :class:`KrylovBackend`
*instance* owns the stale preconditioner, so :func:`resolve_backend`
constructs a fresh one per resolution — one engine run (which resolves
once and threads the instance through its DC seed and transient loop)
shares one preconditioner, while unrelated runs never share state
unless the caller passes one instance to both on purpose.

scipy degradation
-----------------
scipy is an optional accelerator everywhere in this library.  Without
it, ``"auto"`` silently resolves to :class:`DenseBackend` — correct on
every netlist, merely slower on large ones — while an *explicit*
``backend="sparse"`` or ``"krylov"`` request raises
:class:`~repro.errors.SimulationError` immediately with instructions,
rather than failing deep inside an engine.  :data:`_HAVE_SCIPY` asks
only whether scipy is installed (``importlib.util.find_spec``, which
imports nothing); a scipy that is installed but fails to import
degrades the same way at the point of first use.

Which scipy subpackages load, and when: none at import.  This module
imports ``scipy.sparse`` and ``scipy.sparse.linalg`` (CSR operators,
``splu``, the Krylov solvers; the second loads ``scipy.linalg`` too)
when :func:`resolve_backend` picks sparse or Krylov, when a
:class:`SparseLU` is built directly, and when an assembly of
``assembly._SPARSE_SCATTER_MIN`` (128) unknowns or more builds its CSR
scatter.  :mod:`~repro.circuits.linsolve` imports ``scipy.linalg`` on
the first dense factorization of 64 unknowns or more.  A process whose
systems are all small and dense — every lumped netlist of the paper,
and the lockstep engine, which inverts with numpy — loads none of
them.  Outside this package only ``scipy.integrate`` loads, on the
first :meth:`repro.envelope.EnvelopeModel.simulate`; the envelope
engine's predictor needs no scipy.  All of them go through one
accessor, :class:`repro._lazy.LazyModule`, which imports on the first
attribute read and caches every name it hands out, so hot paths pay a
plain attribute lookup.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import List, Optional, Tuple, Union

import numpy as np

from .._lazy import LazyModule
from ..errors import SimulationError
from .component import StampPattern
from .linsolve import ReusableLU, lu_factor_for

#: Whether scipy is installed (tests patch this to exercise the
#: scipy-less paths).  Imports nothing; see "scipy degradation".
_HAVE_SCIPY = find_spec("scipy") is not None
_sparse = LazyModule("scipy.sparse")
_spla = LazyModule("scipy.sparse.linalg")


def _splu(*args, **kwargs):
    """``scipy.sparse.linalg.splu``, looked up here on every call so a
    tool can wrap it (``benchmarks/solver_accuracy.py``)."""
    return _spla.splu(*args, **kwargs)


def _load_sparse() -> bool:
    """Import ``scipy.sparse`` and ``scipy.sparse.linalg`` now; False
    when scipy is missing or fails to import."""
    if not _HAVE_SCIPY:
        return False
    try:
        _sparse.csr_matrix, _spla.splu
    except ImportError:
        return False
    return True

__all__ = [
    "MatrixBackend",
    "DenseBackend",
    "SparseBackend",
    "KrylovBackend",
    "SparseLU",
    "KrylovSolver",
    "resolve_backend",
    "triplet_scatter",
    "SPARSE_AUTO_THRESHOLD",
    "KRYLOV_AUTO_THRESHOLD",
]


def triplet_scatter(rows, cols, vals, shape):
    """CSR scatter operator built directly from triplets, or None
    sans scipy.

    The vectorized companion-state machinery multiplies by a
    ``(size, m)`` scatter operator with at most two entries per
    column; on distributed netlists the dense product is the biggest
    per-step cost, so large assemblies use this CSR form instead.  It
    is built from the triplets without materializing the dense
    operator — at mesh scale (1e5 unknowns, several 1e4 reactive
    elements) that is a multi-gigabyte intermediate — and
    canonicalized (sorted indices, summed duplicates).
    """
    if not _load_sparse():
        return None
    out = _sparse.coo_matrix(
        (np.asarray(vals, dtype=float),
         (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))),
        shape=shape,
    ).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out

#: Unknown count at which ``backend="auto"`` switches from dense to
#: sparse.  Below it the dense solve is a single cache-friendly BLAS
#: call; above it the O(n^2) dense triangular solves (and the O(n^3)
#: factorizations behind them) lose to the near-linear sparse path.
#: Measured on the ladder workloads of ``benchmarks/run_perf.py``:
#: dense still wins at ~60 unknowns, sparse wins ~1.6x at ~120 and
#: the gap widens to >10x by ~1200.
SPARSE_AUTO_THRESHOLD = 100

#: Unknown count at which ``backend="auto"`` promotes from sparse
#: direct to the stale-LU-preconditioned Krylov backend.  Below it a
#: per-``dt`` splu is cheap enough that paying it per cache entry is
#: fine; above it one factorization costs tens of direct solves (2-D
#: mesh fill-in grows superlinearly) and an adaptive run's entry
#: churn — breakpoint-truncated one-shot step sizes, LRU evictions,
#: order switches — makes refactorization the dominant cost.  Kept
#: well above every pre-existing workload, so below it ``"auto"``
#: picks the same backend as earlier releases: dense results are
#: bit-identical to them, sparse results agree to rounding (the
#: symmetric-mode factorization of :class:`SparseLU` pivots in a
#: different order).
KRYLOV_AUTO_THRESHOLD = 20_000


class MatrixBackend:
    """Protocol for a linear-algebra storage/factorization strategy.

    A backend turns the *value* half of a stamp stream into a matrix
    object (dense ndarray or CSR) and factors such matrices into
    objects exposing ``solve(rhs)`` (vector or multi-column) plus an
    ``n_factorizations`` counter for the engine diagnostics.
    """

    name: str = "abstract"
    #: Whether matrices produced by this backend are dense ndarrays
    #: (the engines use this to gate dense-only strategies like the
    #: chord Jacobian and per-iteration full restamping).
    is_dense: bool = False

    def finalize(self, pattern: StampPattern, values: np.ndarray):
        """Materialize one assembly's matrix from its value stream."""
        raise NotImplementedError

    def factor(self, matrix):
        """Factor a finalized matrix; returns a solver object."""
        raise NotImplementedError


class DenseBackend(MatrixBackend):
    """The historical dense path, bit-pinned to pre-backend results."""

    name = "dense"
    is_dense = True

    def finalize(self, pattern: StampPattern, values: np.ndarray) -> np.ndarray:
        G = pattern.dense(values)
        # Freeze: cached base matrices are shared by reference; a stamp
        # that (incorrectly) writes one must fail loudly.
        G.setflags(write=False)
        return G

    def factor(self, matrix: np.ndarray) -> ReusableLU:
        return ReusableLU(matrix)


#: Condense a matrix only when its plan eliminates at least this
#: fraction of the unknowns.  The refinement step doubles the cost of
#: a condensed solve, which pays only when the reduced LU is much
#: cheaper than the full one; below the threshold :class:`SparseLU`
#: is a plain ``splu`` factorization.
CONDENSE_MIN_FRACTION = 0.5

#: A pivot block fails when ``|det| <= tol * (|a11 a22| + |a12 a21|)``;
#: one failed block sends its matrix to plain ``splu``.
_BLOCK_PIVOT_TOL = 1e-8

#: SuperLU column ordering of the Schur complement.  On the coil
#: mesh's grid system minimum degree on ``A^T + A`` leaves about 72k
#: entries in L and U against 117k under the default ``COLAMD``.
_SCHUR_ORDERING = "MMD_AT_PLUS_A"

#: Condensation plans kept, most recently used last.  One run sees a
#: handful of patterns (its DC and companion matrices); the 12.3k-
#: unknown coil mesh's plan takes 2.4 MB.
_PLAN_CACHE_SIZE = 4
_plans: list = []


class _CondensePlan:
    """Which unknowns of one sparsity pattern :class:`SparseLU`
    eliminates before SuperLU, and the gather maps that condense a
    matrix of that pattern.

    An unknown with at most two structural neighbours (on the
    symmetrized pattern) is a candidate; candidates are eliminated in
    isolated blocks of one or two.  On a coil mesh each block is an
    edge's mid node plus its inductor branch, and what remains is the
    grid.  With ``I`` the eliminated unknowns, ``R`` the rest and ``B``
    the block-diagonal ``A_II``, the plan fixes the patterns of

    * ``S = A_RR - A_RI B^-1 A_IR``, the Schur complement SuperLU factors;
    * ``G = [-A_RI B^-1, 1]`` (``r x n``), so ``G b = b_R - A_RI B^-1 b_I``;
    * ``K = [-B^-1 A_IR; 1]`` (``n x r``) and ``H``, ``B^-1`` on ``I``,

    so that ``A^-1 = H + K S^-1 G``.  ``I`` is ordered first members
    (pairs, then singles: ``nb`` of them) then second members (``np``
    pairs), and ``B^-1`` is the flat elementwise array ``[d11 (nb),
    d12, d21, d22 (np each)]``.
    """

    def __init__(self, n, rows, cols, keys, p, q, s):
        nnz = keys.shape[0]
        self.n_pairs = np_ = p.shape[0]
        self.n_blocks = nb = np_ + s.shape[0]
        elim = np.concatenate((p, s, q))
        m = elim.shape[0]
        keep_mask = np.ones(n, dtype=bool)
        keep_mask[elim] = False
        keep = np.flatnonzero(keep_mask)
        self.r = r = keep.shape[0]
        loc = np.full(n, -1, dtype=np.intp)
        loc[elim] = np.arange(m)
        rloc = np.full(n, -1, dtype=np.intp)
        rloc[keep] = np.arange(r)
        pos = np.argsort(keys, kind="stable")
        keys = keys[pos]

        def lookup(i, j):
            # Data positions of entries (i, j); a structurally absent
            # entry maps to ``nnz``, the zero appended to the gather.
            k = i * n + j
            at = np.minimum(np.searchsorted(keys, k), nnz - 1)
            return np.where(keys[at] == k, pos[at], nnz)

        first = elim[:nb]
        self.pos_blocks = np.concatenate(
            (lookup(first, first), lookup(p, q), lookup(q, p), lookup(q, q))
        )

        def members(li):
            # Each local eliminated index against every member of its
            # block: (entry, block, own slot, other slot).
            block = np.where(li < nb, li, li - nb)
            reps = 1 + (block < np_)
            e = np.repeat(np.arange(li.shape[0]), reps)
            return e, block[e], (li >= nb)[e].astype(np.intp), _within(reps)

        def coef(block, si, sj):
            # Offset of the block's inverse entry (si, sj) in the flat array.
            return np.where(si | sj, nb + (2 * si + sj - 1) * np_ + block, block)

        r_row, r_col, i_row, i_col = rloc[rows], rloc[cols], loc[rows], loc[cols]
        ri = np.flatnonzero((r_row >= 0) & (i_col >= 0))
        ir = np.flatnonzero((i_row >= 0) & (r_col >= 0))
        rr = np.flatnonzero((r_row >= 0) & (r_col >= 0))
        unit = np.arange(r)

        # G: -A[u, i] Binv[i, j] at (u, j), i and j in one block.
        e, block, si, sj = members(i_col[ri])
        g_row, g_local = r_row[ri[e]], block + sj * nb
        self.g_pos, self.g_coef = ri[e], coef(block, si, sj)
        self.g = _Layout(
            np.concatenate((g_row, unit)), np.concatenate((elim[g_local], keep)), (r, n)
        )
        # [H, K]: Binv[i, j] at (i, j), then -Binv[i, j] A[j, v] at (i, n + v).
        h, block, si, sj = members(np.arange(m))
        h_rows, h_cols, self.h_coef = elim[h], elim[block + sj * nb], coef(block, si, sj)
        f, block, sj, si = members(i_row[ir])
        self.k_pos, self.k_coef = ir[f], coef(block, si, sj)
        self.hk = _Layout(
            np.concatenate((h_rows, elim[block + si * nb], keep)),
            np.concatenate((h_cols, n + r_col[ir[f]], n + unit)),
            (n, n + r),
        )

        # S = A_RR + (each G entry (u, j)) x (each A_IR entry (j, v)).
        ir_row = i_row[ir]
        count = np.bincount(ir_row, minlength=m)
        reps = count[g_local]
        t_g = np.repeat(np.arange(g_local.shape[0]), reps)
        t_right = ir[
            np.argsort(ir_row, kind="stable")[
                np.repeat(np.cumsum(count)[g_local] - reps, reps) + _within(reps)
            ]
        ]
        key = np.concatenate(
            (r_col[rr] * r + r_row[rr], r_col[t_right] * r + g_row[t_g])
        )
        uniq, dest = np.unique(key, return_inverse=True)
        self.s_indices = (uniq % r).astype(np.int32)
        self.s_indptr = _indptr(uniq // r, r)
        self.pos_rr, self.dest_rr = rr, dest[: rr.shape[0]]
        dest_t = dest[rr.shape[0]:]
        order = np.argsort(dest_t, kind="stable")
        dest_t = dest_t[order]
        self.t_g, self.t_right = t_g[order], t_right[order]
        self.t_starts = np.flatnonzero(np.diff(dest_t, prepend=-1))
        self.t_dest = dest_t[self.t_starts]

    @classmethod
    def build(cls, matrix) -> Optional["_CondensePlan"]:
        """Plan for ``matrix``'s pattern, or None when it would
        eliminate less than :data:`CONDENSE_MIN_FRACTION` of it."""
        n = matrix.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(matrix.indptr))
        cols = matrix.indices.astype(np.intp)
        keys = rows * n + cols
        if np.unique(keys).shape[0] < keys.shape[0]:
            return None  # duplicate entries: not a canonical CSR
        off = rows != cols
        has_diag = np.zeros(n, dtype=bool)
        has_diag[rows[~off]] = True
        edges = np.unique(
            np.minimum(rows[off], cols[off]) * n + np.maximum(rows[off], cols[off])
        )
        lo, hi = edges // n, edges % n
        degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        candidate = degree <= 2
        both = candidate[lo] & candidate[hi]
        lo, hi = lo[both], hi[both]
        links = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        pair = (links[lo] == 1) & (links[hi] == 1)
        p, q = lo[pair], hi[pair]
        # A lone unknown without a diagonal entry always fails the
        # pivot guard: leave it to SuperLU.
        s = np.flatnonzero(candidate & (links == 0) & has_diag)
        m = 2 * p.shape[0] + s.shape[0]
        if m < CONDENSE_MIN_FRACTION * n or m == n:
            return None
        return cls(n, rows, cols, keys, p, q, s)

    def factor(self, matrix) -> Optional["_CondensedLU"]:
        """Eliminate the blocks and factor the Schur complement; None
        when a pivot block fails the guard."""
        data = matrix.data
        nb, np_ = self.n_blocks, self.n_pairs
        blocks = np.concatenate((data, np.zeros(1, dtype=data.dtype)))[self.pos_blocks]
        a11, (a12, a21, a22) = blocks[:nb], blocks[nb:].reshape(3, np_)
        # Singles are 1x1 blocks: a22 = 1 and a12 = a21 = 0.
        det = a11.copy()
        det[:np_] = a11[:np_] * a22 - a12 * a21
        ref = np.abs(a11)
        ref[:np_] = np.abs(a11[:np_] * a22) + np.abs(a12 * a21)
        if not (np.abs(det) > _BLOCK_PIVOT_TOL * ref).all():
            return None
        d = det[:np_]
        d11 = 1.0 / det
        d11[:np_] = a22 / d
        inv = np.concatenate((d11, -a12 / d, -a21 / d, a11[:np_] / d))

        g_vals = -data[self.g_pos] * inv[self.g_coef]
        s_data = np.zeros(self.s_indices.shape[0], dtype=g_vals.dtype)
        s_data[self.dest_rr] = data[self.pos_rr]
        if self.t_dest.size:
            s_data[self.t_dest] += np.add.reduceat(
                g_vals[self.t_g] * data[self.t_right], self.t_starts
            )
        schur = _sparse.csc_matrix(
            (s_data, self.s_indices, self.s_indptr), shape=(self.r, self.r)
        )
        lu = _splu(schur, permc_spec=_SCHUR_ORDERING, options=dict(SymmetricMode=True))
        unit = np.ones(self.r, dtype=g_vals.dtype)
        return _CondensedLU(
            matrix,
            lu,
            self.g.fill(np.concatenate((g_vals, unit))),
            self.hk.fill(
                np.concatenate((inv[self.h_coef], -inv[self.k_coef] * data[self.k_pos], unit))
            ),
        )


def _within(reps: np.ndarray) -> np.ndarray:
    """Index of each element within its group, for groups of ``reps``."""
    return np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)


def _indptr(sorted_rows: np.ndarray, n: int) -> np.ndarray:
    """CSR/CSC pointer array of entries grouped by ascending row."""
    out = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(sorted_rows, minlength=n), out=out[1:])
    return out


class _Layout:
    """A fixed CSR pattern, filled per factorization from values given
    in entry order (duplicate entries are summed by the products)."""

    __slots__ = ("order", "indices", "indptr", "shape")

    def __init__(self, rows, cols, shape):
        self.order = np.argsort(rows, kind="stable")
        self.indices = cols[self.order].astype(np.int32)
        self.indptr = _indptr(rows[self.order], shape[0])
        self.shape = shape

    def fill(self, values):
        return _sparse.csr_matrix(
            (values[self.order], self.indices, self.indptr), shape=self.shape
        )


def _plan_for(matrix) -> Optional[_CondensePlan]:
    """The cached plan of ``matrix``'s pattern (built on first sight).

    Matrices finalized from one stamp pattern share its index arrays,
    so a lookup is an identity check, and a value check otherwise."""
    indptr, indices = matrix.indptr, matrix.indices

    def same(entry):
        return (entry[0] is indptr and entry[1] is indices) or (
            entry[0].shape == indptr.shape
            and entry[1].shape == indices.shape
            and np.array_equal(entry[0], indptr)
            and np.array_equal(entry[1], indices)
        )

    hit = next((k for k in reversed(range(len(_plans))) if same(_plans[k])), None)
    if hit is None:
        entry = (indptr, indices, _CondensePlan.build(matrix))
    else:
        entry = _plans.pop(hit)
    _plans.append(entry)
    del _plans[:-_PLAN_CACHE_SIZE]
    return entry[2]


class _CondensedLU:
    """``A^-1 = H + K S^-1 G`` (see :class:`_CondensePlan`), with the
    ``solve(rhs, trans)`` interface of scipy's ``SuperLU`` object.

    Each solve refines once against the full matrix, ``x += solve(b -
    A x)``.  The refinement is needed: a grid node's Schur diagonal is
    the difference of two nearly equal conductances (about 2450 S
    minus 2447.5 S on the coil mesh), and unrefined forward errors
    reach 1.1e-7, 40 times plain ``splu``'s on the same system.
    """

    __slots__ = ("matrix", "lu", "g", "hk")

    def __init__(self, matrix, lu, g, hk):
        self.matrix = matrix
        self.lu = lu
        self.g = g
        self.hk = hk

    def _eliminate(self, b: np.ndarray, trans: str) -> np.ndarray:
        if trans == "T":
            # A^-T = H^T + G^T S^-T K^T, with [H, K]^T b = [H^T b; K^T b].
            n = b.shape[0]
            w = self.hk.T @ b
            return w[:n] + self.g.T @ self.lu.solve(w[n:], trans="T")
        return self.hk @ np.concatenate((b, self.lu.solve(self.g @ b)))

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        a = self.matrix.T if trans == "T" else self.matrix
        x = self._eliminate(rhs, trans)
        x += self._eliminate(rhs - a @ x, trans)
        return x


class SparseLU:
    """A cached ``scipy.sparse.linalg.splu`` factorization.

    The sparse counterpart of :class:`~repro.circuits.linsolve.
    ReusableLU`: factor once, solve any number of (possibly multi-
    column) right-hand sides, degrade to a dense least-squares solve
    when the matrix is singular (floating nodes under fault injection)
    so callers never need their own error handling.

    Factored in SuperLU's ``SymmetricMode`` (SuperLU Users' Guide),
    meant for structurally symmetric matrices, which MNA matrices are
    up to the couplings of controlled sources.  The pivot threshold
    stays at the default 1.0, i.e. ordinary partial pivoting.  A
    relaxed threshold (0.1 or 0.01) factors and solves faster, but
    moved the coil mesh's answer up to 3.2e-6 from its reference,
    past the 1e-6 tolerance.

    Condensation.  When the pattern's plan (:class:`_CondensePlan`)
    eliminates at least :data:`CONDENSE_MIN_FRACTION` of the unknowns,
    the isolated one- and two-unknown blocks are eliminated exactly
    (closed-form 2x2 inverses) and SuperLU, with the same options and
    the :data:`_SCHUR_ORDERING` column ordering, factors only the Schur
    complement of the rest; each solve is then refined once against
    the full matrix (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 12).  A block whose determinant fails
    :data:`_BLOCK_PIVOT_TOL` sends the matrix to plain ``splu``, and a
    pattern below the threshold (the ``DistributedCoil`` ladder, small
    netlists) is factored by the plain ``splu`` call, bit for bit.  On
    the 12,301-unknown coil mesh the plan eliminates 9,789 unknowns
    (4,894 edge pairs and the drive pin); the 2,512-unknown grid
    system's LU holds about 72k entries (116.6k under ``COLAMD``)
    against 460k for the full matrix, and the DC system's 78.3k
    (117.2k).  A factorization takes about 8.4 ms (10.2 ms under
    ``COLAMD``, 38 ms for the full matrix) and a refined solve about
    0.86 ms (1.03 ms, 1.31 ms) on a 2-vCPU shared host.  On the
    workload's transient systems for seeds 1-3
    (``benchmarks/solver_accuracy.py``) the forward error against a
    long-double-refined solution is 5.3e-11 to 3.4e-9, against 9.3e-10
    to 4.9e-8 for plain ``splu``; unrefined it reaches 1.7e-7.
    """

    def __init__(self, matrix):
        self._matrix = matrix
        self._lu = None
        self._dense: Optional[np.ndarray] = None
        self._condest: Optional[float] = None
        self.n_factorizations = 1
        try:
            csr = matrix.tocsr()
            plan = _plan_for(csr)
            if plan is not None:
                self._lu = plan.factor(csr)
            if self._lu is None:
                self._lu = _splu(matrix.tocsc(), options=dict(SymmetricMode=True))
        except (RuntimeError, ValueError):
            # Exactly singular: remember the densified matrix for the
            # minimum-norm fallback (rare, never the hot path).
            self._dense = matrix.toarray()

    @property
    def is_singular(self) -> bool:
        return self._lu is None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            solution = self._lu.solve(np.ascontiguousarray(rhs))
            if np.isfinite(solution).all() or not np.isfinite(rhs).all():
                return solution
            # splu accepted the factorization but a (near-)zero pivot
            # produced Inf/NaN at solve time: degrade to the dense
            # minimum-norm path, permanently.
            self._lu = None
            self._condest = None
            self._dense = self._matrix.toarray()
        solution, *_ = np.linalg.lstsq(self._dense, rhs, rcond=None)
        return solution

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A.T @ x = rhs`` (condition-estimator support)."""
        if self._lu is not None:
            return self._lu.solve(np.ascontiguousarray(rhs), trans="T")
        if self._dense is None:  # pragma: no cover - defensive
            self._dense = self._matrix.toarray()
        solution, *_ = np.linalg.lstsq(self._dense.T, rhs, rcond=None)
        return solution

    def condest(self) -> float:
        """Estimated 1-norm condition number (Hager; cached).

        ``inf`` for singular/degraded factorizations.  Costs a few
        triangular solves against the existing LU and mutates nothing,
        so arming it never changes results.
        """
        if self._condest is not None:
            return self._condest
        if self._lu is None:
            self._condest = float("inf")
            return self._condest
        from .health import condest_from_solves

        norm_a = float(np.max(np.abs(self._matrix).sum(axis=0)))
        estimate = condest_from_solves(
            norm_a, self.solve, self.solve_transposed, self._matrix.shape[0]
        )
        self._condest = float(estimate) if np.isfinite(estimate) else float("inf")
        return self._condest


class SparseBackend(MatrixBackend):
    """CSR storage with splu factorization reuse.

    Construction fails fast with :class:`~repro.errors.
    SimulationError` when scipy is unavailable; use
    :func:`resolve_backend` with ``"auto"`` for the silent dense
    fallback instead.
    """

    name = "sparse"
    is_dense = False

    def __init__(self):
        if not _load_sparse():
            raise SimulationError(
                "backend='sparse' requires scipy (scipy.sparse.linalg.splu); "
                "install scipy or use backend='auto'/'dense', which run "
                "every netlist on the dense path"
            )

    def finalize(self, pattern: StampPattern, values: np.ndarray):
        data, indices, indptr = pattern.csr_arrays(values)
        return _sparse.csr_matrix(
            (data, indices, indptr), shape=(pattern.size, pattern.size)
        )

    def factor(self, matrix) -> SparseLU:
        return SparseLU(matrix)

    @staticmethod
    def csr_from_coo(
        rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int
    ):
        """One-shot CSR from raw triplets (duplicates summed).

        Used by the analyses that re-assemble per solve (DC Newton
        iterations, AC frequency points) where caching a
        :class:`~repro.circuits.component.StampPattern` buys nothing.
        """
        return _sparse.coo_matrix(
            (vals, (rows, cols)), shape=(size, size)
        ).tocsr()


class KrylovSolver:
    """Iterative 'factorization' of one finalized CSR matrix.

    Returned by :meth:`KrylovBackend.factor`; satisfies the same
    contract as :class:`SparseLU` (``solve`` for vector or
    multi-column right-hand sides, an ``n_factorizations`` counter)
    but performs no factorization of its own.  Solves run iterative
    refinement escalating to GMRES/BiCGStab, preconditioned by the
    owning backend's *stale* LU — one factorization shared by every
    solver the backend has handed out, across dt-cache entries and
    Newton iterations.  ``n_factorizations`` counts the preconditioner
    refreshes this solver triggered, so the engines' factorization
    diagnostics stay honest when summed across solvers.  General
    Newton's multi-column ``solve`` (the assembly's Woodbury ``W``)
    rides the same path column by column.

    Deliberately exposes no ``condest``: there is no factorization of
    *this* matrix to estimate against, and the health guards skip
    condition estimation (keeping NaN/Inf screening) when the solver
    cannot provide one.
    """

    __slots__ = (
        "_matrix", "_backend", "n_factorizations", "_last_applies", "_scale"
    )

    def __init__(self, matrix, backend: "KrylovBackend"):
        self._matrix = matrix
        self._backend = backend
        self.n_factorizations = 0
        #: Preconditioner applies the previous solve of this matrix
        #: needed — the proactive-refresh trigger reads it.
        self._last_applies = 0
        #: Lazy anchor-selection proxy (see :meth:`_scale_proxy`).
        self._scale: Optional[float] = None

    @property
    def matrix(self):
        return self._matrix

    def _scale_proxy(self):
        """Scalar fingerprint used to pick the nearest anchor: the
        matrix's value stream projected onto a fixed random vector.

        Companion matrices of one assembly share a sparsity pattern
        and differ affinely in the reciprocal step size (``data =
        c + s/dt``), so the projection is *linear* in ``1/dt`` — the
        fingerprint is a coordinate along the step-size axis, and
        nearest-fingerprint is nearest-``dt``.  A plain entry-mass sum
        cannot do this job: the reactive companion terms that actually
        move between entries are orders of magnitude below the static
        conductances, so every entry's mass looks identical.
        """
        s = self._scale
        if s is None:
            data = self._matrix.data
            s = np.dot(data, self._backend._sketch_for(data.shape[0]))
            self._scale = s
        return s

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.ndim == 1:
            return self._solve_one(rhs)
        dtype = np.result_type(self._matrix.dtype, rhs.dtype, np.float64)
        out = np.empty(rhs.shape, dtype=dtype)
        for k in range(rhs.shape[1]):
            out[:, k] = self._solve_one(rhs[:, k])
        return out

    def _solve_one(self, b: np.ndarray) -> np.ndarray:
        backend = self._backend
        if not backend._anchors:
            backend._refresh(self)
        anchor = backend._anchor_for(self._matrix, self._scale_proxy())
        if anchor.matrix is self._matrix:
            # An anchor's LU *is* this matrix's LU: a plain direct
            # solve, bit-matching what SparseBackend would produce.
            # Once the dt ladder's hot matrices are anchored, an
            # adaptive run's solves are nearly all this path.
            backend.n_solves += 1
            return backend._apply_precond(b, anchor)
        if backend._cooldown > 0:
            backend._cooldown -= 1
        elif self._last_applies > backend.refresh_iterations:
            # The previous solve of *this* matrix was expensive and
            # the refresh cooldown has passed: re-anchor an LU on it
            # before paying the iterations again.  The evidence is
            # deliberately per-matrix — a one-shot matrix (an adaptive
            # cascade passing through) is cheaper to iterate once than
            # to factor, and anchoring it would evict a hot slot.
            backend._refresh(self)
            backend.n_solves += 1
            self._last_applies = 0
            return backend._apply_precond(b)
        x, applies, converged = backend._iterate(self._matrix, b, anchor)
        backend.n_solves += 1
        backend.n_iterations += applies
        self._last_applies = applies
        if converged:
            return x
        # Non-convergence forces a refresh: factor this matrix and
        # answer from the fresh LU (which also serves future solves).
        backend._refresh(self)
        self._last_applies = 0
        return backend._apply_precond(b)


class _Anchor:
    """One slot of a :class:`KrylovBackend` stale-preconditioner pool:
    a factored matrix plus the sketch fingerprint nearest-anchor
    selection compares against (see
    :meth:`KrylovSolver._scale_proxy`)."""

    __slots__ = ("matrix", "lu", "scale")

    def __init__(self, matrix, fingerprint):
        self.matrix = matrix
        self.lu = SparseLU(matrix)
        self.scale = fingerprint


class KrylovBackend(MatrixBackend):
    """Iterative solves preconditioned by a shared stale LU.

    Stateful: the instance owns a pool of stale LUs that every solver
    it hands out shares.  :func:`resolve_backend` therefore constructs
    a fresh instance per resolution — an engine run resolves once and
    reuses the instance through its DC seed, transient loop, and every
    dt-cache entry, which is exactly the reuse that pays for itself.

    The preconditioner is a pool of up to ``pool_size`` stale LUs:
    an adaptive run's working set is the half-step matrices of the
    quantized dt ladder's hot levels plus the full-step matrices its
    restart and retry probes solve — roughly the dt-cache size — and
    any pool narrower than that set thrashes,
    evicting a hot anchor to admit the next one in rotation.  Each
    solve picks the anchor whose matrix it is (direct-solve fast
    path) or, failing that, the nearest by a sketch fingerprint of
    the value stream (linear in ``1/dt`` across one assembly's
    entries, so nearest-fingerprint is nearest-``dt``);
    refreshes evict the least-recently-used slot.

    Refresh policy (the stale-preconditioner knobs):

    * the iteration budget (``max_refine`` refinement applies, then
      GMRES capped at ``max_iterations``) is sized at roughly one
      factorization's cost — a matrix too far from every anchor (a DC
      system meeting its first companion matrix, a step size jumping
      decades) burns at most that budget once before the forced
      refresh anchors it;
    * a solve whose previous run against the same matrix needed more
      than ``refresh_iterations`` preconditioner applies re-anchors
      the LU on that matrix up front (unless a refresh happened within
      the last ``refresh_cooldown`` solves — optional hysteresis for
      pools narrower than the working set).  The evidence is
      deliberately per-matrix: one-shot matrices — breakpoint-
      truncated step sizes passing through — are cheaper to iterate
      than to factor, and must not claim a slot;
    * a solve that fails to converge at all forces a refresh
      unconditionally and answers from the fresh LU;
    * everything else rides the nearest stale LU: iterative
      refinement first (1 apply when the matrix equals an anchor's,
      a few when it is near), escalating to restarted GMRES (or
      BiCGStab with ``method="bicgstab"``) when refinement stalls.
      A dt-cache entry rebuilt after an eviction is bit-identical to
      the matrix its old anchor factored, so it is adopted by that
      anchor and answered directly — entry churn costs no
      factorization.

    ``tol`` is the relative residual of the iterative solves, measured
    in the *preconditioned* norm against the largest entry of the
    preconditioned right-hand side, ``||M^-1 (b - A x)||_2 <= tol *
    max|M^-1 b|`` — companion matrices mix nH inductor branches with nF
    capacitor nodes, so the raw residual norm is dominated by rounding
    long before the iterate stops improving.  The max-norm reference
    bounds every unknown's correction by ``tol`` times the largest
    unknown whatever the system size; against ``||M^-1 b||_2`` the
    bound per unknown would loosen as the square root of the unknown
    count (about 100x on a 12k-unknown mesh), and an adaptive run
    commits half steps on a fresh step size straight from these
    iterations.  The default 1e-8 keeps transient waveforms equivalent
    to the direct sparse path well past the 1e-6 level the mesh
    benches assert; tightening it mostly buys refresh churn, not
    accuracy.
    """

    name = "krylov"
    is_dense = False

    def __init__(
        self,
        method: str = "gmres",
        tol: float = 1e-8,
        refresh_iterations: int = 4,
        refresh_cooldown: int = 0,
        max_refine: int = 5,
        restart: int = 40,
        max_iterations: int = 40,
        pool_size: int = 12,
    ):
        if not _load_sparse():
            raise SimulationError(
                "backend='krylov' requires scipy (scipy.sparse.linalg); "
                "install scipy or use backend='auto'/'dense', which run "
                "every netlist on the dense path"
            )
        if method not in ("gmres", "bicgstab"):
            raise SimulationError(
                f"unknown Krylov method {method!r}; expected 'gmres' or 'bicgstab'"
            )
        self.method = method
        self.tol = float(tol)
        self.refresh_iterations = int(refresh_iterations)
        self.refresh_cooldown = int(refresh_cooldown)
        self.max_refine = int(max_refine)
        self.restart = int(restart)
        self.max_iterations = int(max_iterations)
        if pool_size < 1:
            raise SimulationError("pool_size must be >= 1")
        self.pool_size = int(pool_size)
        # Shared stale-preconditioner pool (single-system engines),
        # least-recently-used first.
        self._anchors: List[_Anchor] = []
        # Fixed projection vectors for the sketch fingerprints,
        # cached per value-stream length.
        self._sketches: dict = {}
        self._cooldown = 0
        # Run diagnostics, stamped into transient stats.
        self.n_solves = 0
        self.n_iterations = 0
        self.n_refreshes = 0

    def finalize(self, pattern: StampPattern, values: np.ndarray):
        data, indices, indptr = pattern.csr_arrays(values)
        return _sparse.csr_matrix(
            (data, indices, indptr), shape=(pattern.size, pattern.size)
        )

    def factor(self, matrix) -> KrylovSolver:
        return KrylovSolver(matrix, self)

    def counters(self) -> dict:
        """Snapshot of the iteration/refresh diagnostics."""
        return {
            "solves": self.n_solves,
            "iterations": self.n_iterations,
            "refreshes": self.n_refreshes,
            # Always 0 (no solve falls back to a one-shot LU); kept
            # because the perf harnesses read it.
            "fallbacks": 0,
        }

    # -- stale-preconditioner internals --------------------------------------

    @property
    def _precond_matrix(self):
        """Most recently used/refreshed anchor's matrix (diagnostics)."""
        return self._anchors[-1].matrix if self._anchors else None

    def _sketch_for(self, n: int) -> np.ndarray:
        """Fixed random projection vector for value streams of length
        ``n`` (deterministically seeded, cached per length)."""
        r = self._sketches.get(n)
        if r is None:
            r = np.random.default_rng(0x5EED ^ n).standard_normal(n)
            self._sketches[n] = r
        return r

    def _anchor_for(self, matrix, scale) -> _Anchor:
        """The pool anchor serving ``matrix``: its own slot when one
        exists, else the nearest by sketch fingerprint.  Fingerprints
        are only comparable between same-pattern matrices, so anchors
        with a matching value-stream length are preferred; a foreign-
        pattern anchor (the DC system, an AC matrix) is only chosen
        when nothing comparable is pooled.  The chosen slot moves to
        the most-recently-used end, which refresh eviction keys on."""
        anchors = self._anchors
        best = None
        for a in anchors:
            if a.matrix is matrix:
                best = a
                break
        if best is None:
            nnz = matrix.data.shape[0]
            same = [a for a in anchors if a.matrix.data.shape[0] == nnz]
            best = min(same or anchors, key=lambda a: abs(a.scale - scale))
            # A dt-cache entry rebuilt after an eviction is a new
            # object holding the matrix an anchor already factored, bit
            # for bit (a genuinely different dt sits >=1e-6 away).
            # Adopt the new object so this solve — and every later one
            # — answers directly from the anchor's LU instead of paying
            # a two-apply iteration; the O(nnz) comparisons are gated
            # by the near-equal fingerprint.
            bm = best.matrix
            if (
                bm.data.shape[0] == nnz
                and bm.dtype == matrix.dtype
                and abs(best.scale - scale) <= 1e-9 * (abs(scale) + 1e-300)
            ):
                dscale = float(np.abs(matrix.data).max() or 1.0)
                if (
                    float(np.abs(bm.data - matrix.data).max())
                    <= 1e-12 * dscale
                    and np.array_equal(bm.indices, matrix.indices)
                    and np.array_equal(bm.indptr, matrix.indptr)
                ):
                    best.matrix = matrix
        if anchors[-1] is not best:
            anchors.remove(best)
            anchors.append(best)
        return best

    def _refresh(self, solver) -> None:
        """Anchor a fresh LU on ``solver``'s matrix, evicting the
        least-recently-used pool slot when the pool is full."""
        anchors = self._anchors
        for a in anchors:
            if a.matrix is solver._matrix:
                anchors.remove(a)
                break
        else:
            while len(anchors) >= self.pool_size:
                anchors.pop(0)
        anchors.append(_Anchor(solver._matrix, solver._scale_proxy()))
        self._cooldown = self.refresh_cooldown
        self.n_refreshes += 1
        solver.n_factorizations += 1

    def _apply_precond(
        self, rhs: np.ndarray, anchor: Optional[_Anchor] = None
    ) -> np.ndarray:
        if anchor is None:
            anchor = self._anchors[-1]
        lu = anchor.lu
        if np.iscomplexobj(rhs) and anchor.matrix.dtype.kind != "c":
            # Real LU against a complex RHS: two real solves.
            return lu.solve(np.ascontiguousarray(rhs.real)) + 1j * lu.solve(
                np.ascontiguousarray(rhs.imag)
            )
        return lu.solve(np.ascontiguousarray(rhs))

    def _iterate(
        self, A, b: np.ndarray, anchor: _Anchor
    ) -> Tuple[np.ndarray, int, bool]:
        """Solve ``A x = b`` iteratively, preconditioned by ``anchor``'s LU.

        Returns ``(x, applies, converged)`` where ``applies`` counts
        preconditioner applications (the unit the refresh threshold is
        expressed in).  Stationary refinement runs first — when the
        stale LU is at (or near) the matrix it converges in 1–2
        applies with no Krylov call overhead — and hands over to
        GMRES/BiCGStab as soon as it stalls, since refinement only
        contracts when the preconditioned spectrum stays inside the
        unit disk around 1.

        Convergence is measured on the *preconditioned* residual
        ``||M^-1 (b - A x)||_2 <= tol * max|M^-1 b|`` — the norm
        scipy's solvers monitor, against the largest unknown (see the
        class docstring).  MNA companion matrices mix nH
        inductor branches with nF capacitor nodes, so their raw
        condition numbers put ``tol * ||b||`` in the true-residual
        norm below what double precision can reach at all; the
        preconditioned system is well-conditioned whenever the stale
        LU is usable, which makes the tolerance both attainable and a
        genuine forward-error bound.  The refinement update *is* the
        preconditioned residual, so the norm costs no extra applies.
        """
        matvec = A.dot
        dtype = np.result_type(A.dtype, b.dtype, np.float64)

        def precond(rhs):
            return self._apply_precond(rhs, anchor)

        nb = float(np.linalg.norm(b))
        n = b.shape[0]
        if nb == 0.0 or not np.isfinite(nb):
            return np.zeros(n, dtype=dtype), 0, nb == 0.0
        tol = self.tol
        x = np.asarray(precond(b), dtype=dtype)
        npb = float(np.linalg.norm(x))  # = ||M^-1 b||
        if npb == 0.0 or not np.isfinite(npb):
            return np.zeros(n, dtype=dtype), 1, npb == 0.0
        limit = tol * float(np.abs(x).max())
        pr = np.asarray(precond(b - matvec(x)), dtype=dtype)
        applies = 2
        rn = float(np.linalg.norm(pr))
        prev = np.inf
        while rn > limit and rn < 0.5 * prev and applies <= self.max_refine:
            x += pr
            prev = rn
            pr = np.asarray(precond(b - matvec(x)), dtype=dtype)
            applies += 1
            rn = float(np.linalg.norm(pr))
        if rn <= limit and np.isfinite(rn):
            return x, applies, True
        op = _spla.LinearOperator((n, n), matvec=matvec, dtype=dtype)
        prec_op = _spla.LinearOperator((n, n), matvec=precond, dtype=dtype)
        count = [0]
        if not np.isfinite(x).all():
            x = None  # poisoned refinement iterate: let Krylov start cold
        if self.method == "bicgstab":
            xk, info = _spla.bicgstab(
                op,
                b,
                x0=x,
                M=prec_op,
                rtol=limit / npb,
                atol=0.0,
                maxiter=self.max_iterations,
                callback=lambda _xk: count.__setitem__(0, count[0] + 1),
            )
            applies += 2 * count[0]
        else:
            restart = min(self.restart, n)
            xk, info = _spla.gmres(
                op,
                b,
                x0=x,
                M=prec_op,
                rtol=limit / npb,
                atol=0.0,
                restart=restart,
                maxiter=max(1, self.max_iterations // restart),
                callback=lambda _pr: count.__setitem__(0, count[0] + 1),
                callback_type="pr_norm",
            )
            applies += count[0]
        # scipy's `info` reflects a *raw*-residual success test whose
        # tol*||b|| floor sits below double precision for badly scaled
        # MNA systems (its inner iterations target the preconditioned
        # norm, so the iterate is typically fine while info says
        # otherwise).  Judge convergence ourselves, in the same
        # preconditioned norm as the refinement loop.
        if np.isfinite(xk).all():
            prk = precond(b - matvec(xk))
            applies += 1
            rnk = float(np.linalg.norm(prk))
            if rnk <= limit and np.isfinite(rnk):
                return np.asarray(xk, dtype=dtype), applies, True
            fallback = xk
        else:
            fallback = np.zeros(n, dtype=dtype)
        return np.asarray(fallback, dtype=dtype), applies, False


#: Singleton instance — the dense backend is a stateless strategy
#: object.  Sparse gets a fresh (still stateless) instance per
#: resolution; Krylov *must* be constructed per resolution because the
#: instance owns the stale preconditioner.
_DENSE = DenseBackend()


def resolve_backend(
    backend: Union[str, MatrixBackend, None], size: int
) -> MatrixBackend:
    """Resolve a backend spec to a strategy instance.

    ``"auto"`` (or ``None``) picks :class:`DenseBackend` below
    :data:`SPARSE_AUTO_THRESHOLD` unknowns — or always, when scipy is
    missing — :class:`SparseBackend` at or above that threshold, and
    :class:`KrylovBackend` at or above :data:`KRYLOV_AUTO_THRESHOLD`.
    ``"dense"``/``"sparse"``/``"krylov"`` force the choice (the scipy-
    backed ones raising a clear :class:`~repro.errors.SimulationError`
    without scipy); an already-constructed :class:`MatrixBackend`
    passes through untouched — including a caller-owned
    :class:`KrylovBackend` whose stale preconditioner then spans every
    run it is handed to.
    """
    if isinstance(backend, MatrixBackend):
        return backend
    if backend is None:
        backend = "auto"
    if backend == "auto":
        if size < SPARSE_AUTO_THRESHOLD or not _load_sparse():
            return _DENSE
        if size >= KRYLOV_AUTO_THRESHOLD:
            return KrylovBackend()
        return SparseBackend()
    if backend == "dense":
        return _DENSE
    if backend == "sparse":
        return SparseBackend()
    if backend == "krylov":
        return KrylovBackend()
    raise SimulationError(
        f"unknown backend {backend!r}; expected 'auto', 'dense', "
        "'sparse', or 'krylov'"
    )


def preload_scipy(backend: Union[str, MatrixBackend, None], size: int) -> None:
    """Import now the scipy subpackages a run of ``size`` unknowns on
    ``backend`` would import on its first solve: ``scipy.sparse`` and
    ``scipy.sparse.linalg`` for sparse or Krylov, ``scipy.linalg`` for
    a dense LU (64 unknowns or more), nothing for a small dense run.

    A campaign calls it before it forks its pool workers, which then
    inherit the modules instead of each importing them.  A spec the
    run would reject, or a scipy that fails to import, is left to the
    run itself to report.
    """
    try:
        chosen = resolve_backend(backend, size)
    except SimulationError:
        return
    if chosen.is_dense:
        lu_factor_for(size)
