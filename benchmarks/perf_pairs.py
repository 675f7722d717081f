"""Alternating base/change runs of one repository-benchmark workload.

Run from the repository root::

    python benchmarks/perf_pairs.py --base HEAD --workload envelope_mc --pairs 10
    make perf-pairs BASE=HEAD WORKLOAD=envelope_mc PAIRS=10    # same

``BASE`` is checked out into a temporary ``git worktree``; pair ``i``
runs ``perfbench/run.py --trace 0 --seed i+1`` once from that worktree
and once from the working tree (uncommitted changes included), the
base first in pairs 1, 3, 5, ... and the change first in the others,
so a drift in host speed does not favour one side.  The worktree is
removed on every way out.

For every end-to-end metric in ``BENCHMARK.json`` the report gives
each side's median and quartiles, the change's ratio to the base
median, the pairs the change won, and the verdict of the gain rule: a
gain needs at least 9 wins in 10 pairs and a median gap larger than
the base's interquartile distance.  A metric whose median is worse than
the base's by more than its ``bound`` is flagged ``REGRESSION``.  Exit
status is 1 if any run fails or reports ``correct: false``.
"""

import argparse
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
    parser.add_argument("--workload", default="envelope_mc")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its final JSON line."""
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


def report(workload: str, base_rev: str, specs: list, runs: dict) -> None:
    pairs = len(runs["base"])
    print(f"{workload}: {pairs} pairs, base {base_rev[:12]} vs working tree")
    print(f"{'metric':<18}{'base median [q1, q3]':<34}{'change median [q1, q3]':<34}"
          f"{'ratio':>7}{'won':>8}  verdict")
    for spec in specs:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        v = judge(spec, base, change)
        sides = ["{:.4g} [{:.4g}, {:.4g}]".format(*v[side]) for side in ("base", "change")]
        verdict = "gain" if v["gain"] else "no gain"
        if v["regression"]:
            verdict += f", REGRESSION beyond bound {spec['bound']:g}"
        print(f"{name:<18}{sides[0]:<34}{sides[1]:<34}{v['ratio']:>6.3f}x"
              f"{v['wins']:>5}/{pairs:<2}  {verdict}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    runs = {"base": [], "change": []}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        worktree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(worktree), base_rev)
        try:
            roots = {"base": worktree, "change": ROOT}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    result = run_once(roots[side], args.workload, i + 1, bench["run_seconds"])
                    failed += not result.get("correct")
                    runs[side].append(result)
                    value = result["metrics"].get("sim_cycles_per_s", {}).get("value")
                    print(f"pair {i + 1} {side}: sim_cycles_per_s {value}", file=sys.stderr)
        finally:
            git("worktree", "remove", "--force", str(worktree))
            git("worktree", "prune")
    if failed:
        print(f"{failed} run(s) failed or reported correct: false", file=sys.stderr)
        return 1
    report(args.workload, base_rev, bench["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
