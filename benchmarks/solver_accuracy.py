"""Accuracy of the sparse LU on the coil mesh's own linear systems.

Run from the repository root::

    python benchmarks/solver_accuracy.py --seed 1
    make solver-accuracy SEED=1    # same

Builds the ``coil_mesh`` benchmark workload's 50x50 pulse-driven mesh
for the seed, runs it on the sparse backend for ``--periods`` carrier
periods and records, for each factored matrix, the first non-zero
right-hand side solved against it.  For every recorded system it
prints, for plain ``splu`` (SuperLU in symmetric mode, as
``SparseLU`` factors a matrix it does not condense), for the condensed
``SparseLU`` and for the condensed elimination without its refinement
step:

* the normwise backward error ``|b - A x| / (|A| |x| + |b|)`` (max
  norms, residual in long double);
* the forward error ``max|x - x*| / max|x*|`` against ``x*``, the plain
  solution refined three times with long-double residuals.

The fill columns are the entries of L and U: of the full matrix for
plain ``splu``, of the Schur complement for the condensed LU.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from scipy.sparse.linalg import splu  # noqa: E402

from repro.circuits import backend, run_transient  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--periods", type=float, default=8.0,
                        help="carrier periods of the sparse run")
    parser.add_argument("--systems", type=int, default=12,
                        help="most systems recorded")
    return parser.parse_args(argv)


def capture(seed: int, periods: float, limit: int) -> list:
    """``(matrix, rhs)`` per factored matrix of the workload's sparse run."""
    workload = WORKLOADS["coil_mesh"](seed)
    systems, seen = [], set()
    solve = backend.SparseLU.solve

    def recording_solve(self, rhs):
        if id(self) not in seen and len(systems) < limit and np.any(rhs):
            seen.add(id(self))
            systems.append((self._matrix, np.array(rhs, dtype=float)))
        return solve(self, rhs)

    backend.SparseLU.solve = recording_solve
    try:
        run_transient(workload.circuit, workload._options("sparse", periods))
    finally:
        backend.SparseLU.solve = solve
    return systems


def residual(matrix, x, b) -> np.ndarray:
    """``b - A x`` accumulated in long double."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    r = b.astype(np.longdouble)
    np.subtract.at(
        r, rows,
        matrix.data.astype(np.longdouble) * x.astype(np.longdouble)[matrix.indices],
    )
    return r


def main(argv=None) -> int:
    args = parse_args(argv)
    systems = capture(args.seed, args.periods, args.systems)
    print(f"coil_mesh seed {args.seed}: {len(systems)} systems from "
          f"{args.periods:g} periods of the sparse run")
    header = ("sys", "fill splu", "fill cond", "bwd splu", "bwd cond",
              "fwd splu", "fwd cond", "fwd unrefined")
    print("".join(f"{h:>14}" for h in header))
    worst = np.zeros(3)
    for k, (matrix, b) in enumerate(systems):
        plain = splu(matrix.tocsc(), options=dict(SymmetricMode=True))
        condensed = backend.SparseLU(matrix)
        inner = condensed._lu
        if not isinstance(inner, backend._CondensedLU):
            print(f"{k:>14}  not condensed")
            continue
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
        fill = (plain.L.nnz + plain.U.nnz, inner.lu.L.nnz + inner.lu.U.nnz)
        print(f"{k:>14}" + "".join(f"{f:>14,}" for f in fill)
              + "".join(f"{e:>14.2e}" for e in bwd + fwd))
    print("worst forward error: splu {:.2e}, condensed {:.2e}, "
          "unrefined {:.2e}".format(*worst))
    return 0


if __name__ == "__main__":
    sys.exit(main())
