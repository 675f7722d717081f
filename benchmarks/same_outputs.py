"""Check that a change leaves the benchmark workloads' outputs bit-identical.

Run from the repository root::

    python benchmarks/same_outputs.py --base HEAD --workload mc_lockstep --seeds 1,2
    make same-outputs BASE=HEAD WORKLOAD=all SEEDS=1,2    # every workload

``BASE`` is checked out into a temporary ``git worktree`` (see
``perf_pairs.py``).  For every workload and seed, one pass of the
workload's jobs (``perfbench/workloads.py``) runs in a fresh process
from that worktree and one from the working tree, uncommitted changes
included.  Every result's ``t``, ``x`` and ``stats`` are then compared
exactly: arrays with ``np.array_equal``, everything else with ``==``
(NaN equals NaN).  The first differing job and key of each workload
and seed is printed; the exit status is 1 on any difference or failed
pass.
"""

import argparse
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from perf_pairs import ROOT, base_worktree, git


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", default="mc_lockstep",
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seeds", default="1,2", help="comma-separated workload seeds")
    parser.add_argument("--dump", nargs=4, metavar=("ROOT", "WORKLOAD", "SEED", "OUT"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def plain(value):
    """``value`` as builtins and numpy arrays only, so the comparing
    process can load it without importing either checkout's package."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, BaseException) or not hasattr(value, "__dict__"):
        return {"__class__": type(value).__name__, "repr": repr(value)}
    return {"__class__": type(value).__name__, **plain(vars(value))}


def dump(root: str, workload: str, seed: int, out: str) -> None:
    """One pass of ``workload``'s jobs from checkout ``root``, pickled as
    one ``{"job", "t", "x", "stats"}`` (or ``{"job", "failure"}``) record
    per result."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import workloads

    bench = workloads.WORKLOADS[workload](seed)
    records = []
    for job, run in enumerate(bench.jobs(workloads.build_oscillator)):
        for result in run():
            if hasattr(result, "x"):
                record = {"t": result.t, "x": result.x, "stats": plain(result.stats)}
            else:
                record = {"failure": plain(result)}
            records.append({"job": job, **record})
    with open(out, "wb") as fh:
        pickle.dump(records, fh)


def first_difference(a, b, path: str):
    """The path of the first difference between two ``plain`` values,
    or ``None`` when they are identical."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        nan = a.dtype.kind in "fc" and b.dtype.kind in "fc"
        same = a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=nan)
        return None if same else path
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        if list(a) != list(b):
            return f"{path} (keys)"
        for key in a:
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path} (length)"
        for i, (u, v) in enumerate(zip(a, b)):
            diff = first_difference(u, v, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if isinstance(a, float) and math.isnan(a) and math.isnan(b):
        return None
    return None if a == b else path


def run_pass(root: Path, workload: str, seed: int, tmp: str):
    """The records of one pass from checkout ``root``, or ``None`` if the
    pass failed."""
    out = Path(tmp) / "records.pkl"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # One BLAS thread per process, as in perfbench/run.py.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--dump",
         str(root), workload, str(seed), str(out)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return None
    with open(out, "rb") as fh:
        return pickle.load(fh)


def compare(base: list, change: list):
    """``(identical, message)`` for two passes' records."""
    if len(base) != len(change):
        return False, f"{len(base)} results vs {len(change)}"
    for i, (b, c) in enumerate(zip(base, change)):
        diff = first_difference(b, c, "result")
        if diff is not None:
            return False, f"job {b['job']}, result {i}: {diff} differs"
    return True, f"{len(base)} results identical"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.dump:
        root, workload, seed, out = args.dump
        dump(root, workload, int(seed), out)
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    workloads = names if args.workload == "all" else [args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    print(f"base {base_rev[:12]} vs working tree")
    differ = 0
    with base_worktree(base_rev) as worktree:
        for workload in workloads:
            for seed in seeds:
                with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
                    base = run_pass(worktree, workload, seed, tmp)
                    change = run_pass(ROOT, workload, seed, tmp)
                if base is None or change is None:
                    same, message = False, "a pass failed"
                else:
                    same, message = compare(base, change)
                differ += not same
                print(f"{workload:<15} seed {seed}: {'same' if same else 'DIFFERENT'}: {message}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
