"""Accuracy of the sparse LU on the coil mesh's own linear systems.

Run from the repository root::

    python benchmarks/solver_accuracy.py --seeds 1,2,3
    make solver-accuracy SEEDS=1,2,3    # same

For each seed, builds the ``coil_mesh`` benchmark workload's 50x50
pulse-driven mesh, runs it on the sparse backend for ``--periods``
carrier periods and records, for each factored matrix, the first
non-zero right-hand side solved against it.  The system factored by the
DC operating point is labelled ``dc``; its right-hand side is zero (the
pulse drive starts at zero), so a seeded random one stands in.  For every recorded system it
prints, for plain ``splu`` (SuperLU in symmetric mode, as ``SparseLU``
factors a matrix it does not condense), for the condensed ``SparseLU``
and for the condensed elimination without its refinement step:

* the normwise backward error ``|b - A x| / (|A| |x| + |b|)`` (max
  norms, residual in long double);
* the forward error ``max|x - x*| / max|x*|`` against ``x*``, the plain
  solution refined three times with long-double residuals.

The fill columns are the entries of L and U: of the full matrix for
plain ``splu``, and of the Schur complement for the condensed LU, both
under the column ordering ``SparseLU`` uses for it (named in the
``ordering`` column) and under SuperLU's default ``COLAMD``.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from scipy.sparse.linalg import splu  # noqa: E402

from repro.circuits import backend, dcop, run_transient  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1",
                        help="comma-separated workload seeds")
    parser.add_argument("--periods", type=float, default=8.0,
                        help="carrier periods of the sparse run")
    parser.add_argument("--systems", type=int, default=12,
                        help="most systems recorded")
    return parser.parse_args(argv)


def capture(seed: int, periods: float, limit: int) -> list:
    """``(label, matrix, rhs)`` per factored matrix of the workload's
    sparse run; the DC operating point's system is labelled ``dc``."""
    workload = WORKLOADS["coil_mesh"](seed)
    systems, seen = [], set()
    solve, solve_sparse = backend.SparseLU.solve, dcop._solve_sparse
    in_dc = []

    def recording_solve(self, rhs):
        if id(self) not in seen and len(systems) < limit and (in_dc or np.any(rhs)):
            seen.add(id(self))
            b = np.array(rhs, dtype=float)
            if not b.any():
                # The pulse drive starts at zero: a zero DC right-hand
                # side has the exact answer 0, so measure a random one.
                b = np.random.default_rng(seed).standard_normal(b.shape[0])
            label = "dc" if in_dc else str(len(systems))
            systems.append((label, self._matrix, b))
        return solve(self, rhs)

    def dc_solve(*args, **kwargs):
        in_dc.append(True)
        try:
            return solve_sparse(*args, **kwargs)
        finally:
            in_dc.pop()

    backend.SparseLU.solve = recording_solve
    dcop._solve_sparse = dc_solve
    try:
        run_transient(workload.circuit, workload._options("sparse", periods))
    finally:
        backend.SparseLU.solve = solve
        dcop._solve_sparse = solve_sparse
    return systems


def condensed_lu(matrix):
    """``SparseLU(matrix)`` and the Schur complement it factored."""
    factored, splu_ = [], backend._splu

    def spy(a, *args, **kwargs):
        factored.append(a)
        return splu_(a, *args, **kwargs)

    backend._splu = spy
    try:
        lu = backend.SparseLU(matrix)
    finally:
        backend._splu = splu_
    return lu, factored[0]


def residual(matrix, x, b) -> np.ndarray:
    """``b - A x`` accumulated in long double."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    r = b.astype(np.longdouble)
    np.subtract.at(
        r, rows,
        matrix.data.astype(np.longdouble) * x.astype(np.longdouble)[matrix.indices],
    )
    return r


def report(seed: int, periods: float, limit: int) -> np.ndarray:
    """Print one seed's table; returns its worst forward errors."""
    systems = capture(seed, periods, limit)
    print(f"coil_mesh seed {seed}: {len(systems)} systems from "
          f"{periods:g} periods of the sparse run")
    header = ("sys", "ordering", "fill splu", "fill cond", "fill colamd",
              "bwd splu", "bwd cond", "fwd splu", "fwd cond", "fwd unrefined")
    print("".join(f"{h:>14}" for h in header))
    worst = np.zeros(3)
    for label, matrix, b in systems:
        plain = splu(matrix.tocsc(), options=dict(SymmetricMode=True))
        condensed, schur = condensed_lu(matrix)
        inner = condensed._lu
        if not isinstance(inner, backend._CondensedLU):
            print(f"{label:>14}  not condensed")
            continue
        colamd = splu(schur, options=dict(SymmetricMode=True))
        exact = plain.solve(b)
        for _ in range(3):
            exact = exact + plain.solve(residual(matrix, exact, b).astype(float))
        scale = np.abs(exact).max()
        norm_a = float(abs(matrix).sum(axis=1).max())
        solutions = (plain.solve(b), condensed.solve(b), inner._eliminate(b, "N"))
        bwd = [
            float(np.abs(residual(matrix, x, b)).max())
            / (norm_a * np.abs(x).max() + np.abs(b).max())
            for x in solutions[:2]
        ]
        fwd = [np.abs(x - exact).max() / scale for x in solutions]
        worst = np.maximum(worst, fwd)
        fill = (plain.L.nnz + plain.U.nnz, inner.lu.L.nnz + inner.lu.U.nnz,
                colamd.L.nnz + colamd.U.nnz)
        print(f"{label:>14}{backend._SCHUR_ORDERING:>14}"
              + "".join(f"{f:>14,}" for f in fill)
              + "".join(f"{e:>14.2e}" for e in bwd + fwd))
    print("seed {} worst forward error: splu {:.2e}, condensed {:.2e}, "
          "unrefined {:.2e}".format(seed, *worst))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    worst = np.zeros(3)
    for seed in seeds:
        worst = np.maximum(worst, report(seed, args.periods, args.systems))
        print()
    print("worst forward error over seeds {}: splu {:.2e}, condensed {:.2e}, "
          "unrefined {:.2e}".format(args.seeds, *worst))
    return 0


if __name__ == "__main__":
    sys.exit(main())
