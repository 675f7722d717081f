"""Where a repository-benchmark workload's set-up spends its import time.

Run from the repository root::

    python benchmarks/importtime.py --workload supply_loss_q
    make importtime WORKLOAD=supply_loss_q    # same

Runs ``perfbench/run.py --workload W --seed 1 --setup-only`` under
``python -X importtime`` (imports, input generation and the warm-up,
nothing timed) and prints the 25 largest cumulative import entries,
then how many ``repro`` and ``scipy`` modules the set-up loaded.  The
interpreter's own environment is kept, so with
``PYTHONDONTWRITEBYTECODE=1`` the times include compiling every
imported module from source.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="supply_loss_q",
                        help="a workload of BENCHMARK.json")
    return parser.parse_args(argv)


def import_entries(stderr: str) -> list:
    """``(cumulative_us, self_us, module)`` per ``-X importtime`` line."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():  # the column header
            continue
        entries.append((int(cumulative_us), int(self_us), module.strip()))
    return entries


def count(entries: list, package: str) -> int:
    """Distinct modules of ``package``: an import cycle can report one twice."""
    return len({module for *_, module in entries
                if module == package or module.startswith(package + ".")})


def main(argv=None) -> int:
    args = parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "perfbench/run.py",
         "--workload", args.workload, "--seed", "1", "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return proc.returncode
    entries = import_entries(proc.stderr)
    print(f"{args.workload}: {proc.stdout.strip().splitlines()[-1]}")
    print(f"{'cumulative ms':>14} {'self ms':>9}  module")
    for cumulative_us, self_us, module in sorted(entries, reverse=True)[:TOP]:
        print(f"{cumulative_us / 1e3:14.1f} {self_us / 1e3:9.1f}  {module}")
    print(f"modules loaded: repro {count(entries, 'repro')}, "
          f"scipy {count(entries, 'scipy')}, all {len({m for *_, m in entries})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
