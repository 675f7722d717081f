"""Alternating base/change runs of one repository-benchmark workload.

Run from the repository root::

    python benchmarks/perf_pairs.py --base HEAD --workload envelope_mc --pairs 10
    make perf-pairs BASE=HEAD WORKLOAD=envelope_mc PAIRS=10    # same
    make perf-pairs BASE=HEAD WORKLOAD=all PAIRS=10            # every workload

``BASE`` is checked out into a temporary ``git worktree``; pair ``i``
runs ``perfbench/run.py --trace 0 --seed i+1`` once from that worktree
and once from the working tree (uncommitted changes included), the
base first in pairs 1, 3, 5, ... and the change first in the others,
so a drift in host speed does not favour one side.  ``--workload all``
runs the pairs of every workload in ``BENCHMARK.json``, one workload
after another.  The worktree is removed on every way out.

For every workload and every end-to-end metric in ``BENCHMARK.json``
the report gives one row: each side's median and quartiles, the
change's ratio to the base median, the pairs the change won, and the verdict of the gain rule: a
gain needs at least 9 wins in 10 pairs and a median gap larger than
the base's interquartile distance.  A metric whose median is worse than
the base's by more than its ``bound`` is flagged ``REGRESSION``.  Exit
status is 1 if any run fails or reports ``correct: false``.
"""

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", default="envelope_mc",
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


@contextlib.contextmanager
def base_worktree(rev: str):
    """A temporary detached ``git worktree`` of ``rev``, removed on every
    way out."""
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        worktree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(worktree), rev)
        try:
            yield worktree
        finally:
            git("worktree", "remove", "--force", str(worktree))
            git("worktree", "prune")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its final JSON line,
    plus the stamp's ``ref_err``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode or "metrics" not in result:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    result["ref_err"] = json.loads(lines[-2])["stamp"]["ref_err"]
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def judge(spec: dict, base: list, change: list) -> dict:
    """Medians, quartiles, wins and verdicts of one metric over the pairs."""
    higher = spec["better"] == "higher"
    b_med, b_q1, b_q3 = quartiles(base)
    c_med, c_q1, c_q3 = quartiles(change)
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    gap = (c_med - b_med) if higher else (b_med - c_med)
    needed = math.ceil(WIN_SHARE * len(base))
    worse = -gap / abs(b_med) if b_med else 0.0
    return {
        "base": (b_med, b_q1, b_q3),
        "change": (c_med, c_q1, c_q3),
        "ratio": c_med / b_med if b_med else math.nan,
        "wins": wins,
        "gain": wins >= needed and gap > b_q3 - b_q1,
        "regression": worse > spec["bound"],
    }


def report(base_rev: str, specs: list, runs: dict) -> None:
    """One row per workload and end-to-end metric; ``runs`` maps each
    workload to its ``{"base": [...], "change": [...]}`` results."""
    pairs = len(next(iter(runs.values()))["base"])
    print(f"{pairs} pairs per workload, base {base_rev[:12]} vs working tree")
    print(f"{'workload':<15}{'metric':<18}{'base median [q1, q3]':<34}"
          f"{'change median [q1, q3]':<34}{'ratio':>7}{'won':>8}  verdict")
    for workload, sides in runs.items():
        for spec in specs:
            name = spec["name"]
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            v = judge(spec, base, change)
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*v[side]) for side in ("base", "change")]
            verdict = "gain" if v["gain"] else "no gain"
            if v["regression"]:
                verdict += f", REGRESSION beyond bound {spec['bound']:g}"
            print(f"{workload:<15}{name:<18}{cells[0]:<34}{cells[1]:<34}{v['ratio']:>6.3f}x"
                  f"{v['wins']:>5}/{pairs:<2}  {verdict}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    workloads = names if args.workload == "all" else [args.workload]
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    runs = {w: {"base": [], "change": []} for w in workloads}
    failed = 0
    with base_worktree(base_rev) as worktree:
        roots = {"base": worktree, "change": ROOT}
        for workload in workloads:
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    result = run_once(roots[side], workload, i + 1, bench["run_seconds"])
                    failed += not result.get("correct")
                    runs[workload][side].append(result)
                    values = " ".join(
                        f"{spec['name']} {result['metrics'].get(spec['name'], {}).get('value')}"
                        for spec in bench["end_to_end"]
                    )
                    print(f"{workload} pair {i + 1} {side}: {values} "
                          f"ref_err {result.get('ref_err')}", file=sys.stderr)
    if failed:
        print(f"{failed} run(s) failed or reported correct: false", file=sys.stderr)
        return 1
    report(base_rev, bench["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
