"""Check that a change leaves the benchmark workloads' outputs bit-identical.

Run from the repository root::

    python benchmarks/same_outputs.py --base HEAD --workload mc_lockstep --seeds 1,2
    make same-outputs BASE=HEAD WORKLOAD=all SEEDS=1,2    # every workload
    make same-outputs BASE=HEAD WORKLOAD=all RTOL=1e-9    # within rounding

``BASE`` is checked out into a temporary ``git worktree`` (see
``perf_pairs.py``).  For every workload and seed, one pass of the
workload's jobs (``perfbench/workloads.py``) runs in a fresh process
from that worktree and one from the working tree, uncommitted changes
included.  Every result's ``t``, ``x`` and ``stats`` are then compared
exactly: arrays with ``np.array_equal``, everything else with ``==``
(NaN equals NaN).  The first differing job and key of each workload
and seed is printed; the exit status is 1 on any difference or failed
pass.

``--rtol R`` is for a change that moves results within rounding (a
different Newton start, say): a result's ``t`` and ``x`` then pass
when ``max|a - b| <= R * max|a|`` (``a`` the base), and the worst such
relative deviation of each workload and seed is printed.  ``stats``
may differ; every differing key is listed once, base -> change, with
how many results it differs in.
"""

import argparse
import json
import math
import os
import pickle
import re
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
    parser.add_argument("--rtol", type=float, default=None,
                        help="compare t and x to this relative tolerance, "
                             "list differing stats (default: all bitwise)")
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


def differences(a, b, path: str):
    """Every ``(path, a, b)`` where two ``plain`` values differ, in
    order; nothing when they are identical."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        nan = a.dtype.kind in "fc" and b.dtype.kind in "fc"
        if not (a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=nan)):
            yield path, a, b
    elif type(a) is not type(b):
        yield path, a, b
    elif isinstance(a, dict):
        if list(a) != list(b):
            yield f"{path} (keys)", list(a), list(b)
        else:
            for key in a:
                yield from differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path} (length)", len(a), len(b)
        else:
            for i, (u, v) in enumerate(zip(a, b)):
                yield from differences(u, v, f"{path}[{i}]")
    elif not (a == b or isinstance(a, float) and math.isnan(a) and math.isnan(b)):
        yield path, a, b


def first_difference(a, b, path: str):
    """The path of the first difference between two ``plain`` values,
    or ``None`` when they are identical."""
    return next((where for where, _, _ in differences(a, b, path)), None)


def relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """``max|a - b| / max|a|`` over the finite entries (0 for equal
    arrays; inf for a shape mismatch, non-finite entries that differ,
    or a deviation from an all-zero ``a``)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    finite = np.isfinite(a)
    if not (np.array_equal(finite, np.isfinite(b))
            and np.array_equal(a[~finite], b[~finite], equal_nan=True)):
        return math.inf
    worst = float(np.abs(a[finite] - b[finite]).max(initial=0.0))
    if worst == 0.0:
        return 0.0
    scale = float(np.abs(a[finite]).max())
    return worst / scale if scale > 0.0 else math.inf


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


def compare_rtol(base: list, change: list, rtol: float):
    """``(within, message, stats_lines)`` for two passes' records:
    ``t`` and ``x`` to ``rtol`` relative to the base's largest value,
    ``stats`` listed key by key (index positions collapsed to ``[*]``)
    with the first differing pair and the number of results."""
    if len(base) != len(change):
        return False, f"{len(base)} results vs {len(change)}", []
    worst, worst_at, bad = 0.0, "", None
    keys: dict = {}
    for i, (b, c) in enumerate(zip(base, change)):
        if ("failure" in b) != ("failure" in c):
            return False, f"job {b['job']}, result {i}: failure differs", []
        for key in ("t", "x"):
            if key not in b:
                continue
            dev = relative_deviation(b[key], c[key])
            if dev > worst:
                worst, worst_at = dev, f"job {b['job']}, result {i}: {key}"
            if dev > rtol and bad is None:
                bad = f"job {b['job']}, result {i}: {key} deviates {dev:.3g} > {rtol:g}"
        rest = {k: v for k, v in b.items() if k not in ("t", "x")}
        rest_c = {k: v for k, v in c.items() if k not in ("t", "x")}
        seen = set()
        for where, u, v in differences(rest, rest_c, "result"):
            where = re.sub(r"\[\d+\]", "[*]", where)
            if where not in seen:
                seen.add(where)
                first, count = keys.get(where, ((u, v), 0))
                keys[where] = (first, count + 1)
    lines = [
        f"    {where}: {short(u)} -> {short(v)} ({count} result{'s' * (count > 1)})"
        for where, ((u, v), count) in keys.items()
    ]
    worst_text = f"worst t/x deviation {worst:.3g}" + (f" ({worst_at})" if worst else "")
    if bad is not None:
        return False, f"{bad}; {worst_text}", lines
    return True, f"{len(base)} results within rtol {rtol:g}, {worst_text}", lines


def short(value, width: int = 40) -> str:
    text = repr(value.tolist() if isinstance(value, np.ndarray) else value)
    return text if len(text) <= width else text[: width - 3] + "..."


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
                lines = []
                if base is None or change is None:
                    same, message = False, "a pass failed"
                elif args.rtol is None:
                    same, message = compare(base, change)
                else:
                    same, message, lines = compare_rtol(base, change, args.rtol)
                differ += not same
                verdict = "same" if same else "DIFFERENT"
                if args.rtol is not None:
                    verdict = "within" if same else "OUTSIDE"
                print(f"{workload:<15} seed {seed}: {verdict}: {message}")
                if lines:
                    print("  stats differing (base -> change):")
                    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
