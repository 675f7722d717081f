"""Where a repository-benchmark workload's set-up spends its import time.

Run from the repository root::

    python benchmarks/importtime.py --workload supply_loss_q
    python benchmarks/importtime.py --workload all
    make importtime WORKLOAD=supply_loss_q    # same; WORKLOAD=all too

Runs ``perfbench/run.py --workload W --seed 1 --setup-only`` under
``python -X importtime`` (imports, input generation and the warm-up,
nothing timed) in the checkout the script lives in, whose path and
``git rev-parse --short HEAD`` it prints first (a script copied from
another checkout measures that one's tree), and prints the set-up
time, the 25 largest cumulative
import entries, how many ``repro`` and ``scipy`` modules the set-up
loaded, the names of the scipy subpackages among them, and the set-up
process's peak resident memory.
``--workload all`` does this for every workload of ``BENCHMARK.json``,
one after another.  The interpreter's own environment is kept, so with
``PYTHONDONTWRITEBYTECODE=1`` the times include compiling every
imported module from source.

``perfbench/run.py`` runs through ``runpy`` inside the ``-X
importtime`` process, which on exit prints ``sorted(sys.modules)`` on
one stderr line marked :data:`MODULES_MARK` and its peak resident
memory (``ru_maxrss``) on one marked :data:`RSS_MARK`.  The module
counts and subpackage names come from that list, and the peak RSS is
printed in MB, as ``peak_rss_mb`` counts it, beside the set-up time,
so a change to what loads shows its memory effect too.  ``-X
importtime`` reports only modules loaded by the import statement, not
those loaded through ``importlib.import_module`` (scipy loads its
submodules that way), so counting its entries would miss them and
could move when only the way a module is imported changes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 25
MODULES_MARK = "importtime.py sys.modules:"
RSS_MARK = "importtime.py ru_maxrss:"
#: ``python -c`` program: run the benchmark script as ``__main__`` with
#: this process's arguments, then report every module it loaded and its
#: peak resident memory.
RUNNER = f"""\
import resource, runpy, sys
sys.argv = ["perfbench/run.py"] + sys.argv[1:]
try:
    runpy.run_path("perfbench/run.py", run_name="__main__")
finally:
    sys.stderr.write({MODULES_MARK!r} + " " + " ".join(sorted(sys.modules)) + "\\n")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write({RSS_MARK!r} + " " + str(rss) + "\\n")
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="supply_loss_q",
                        help="a workload of BENCHMARK.json, or 'all'")
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


def marked(stderr: str, mark: str) -> str:
    """The rest of the run's stderr line that starts with ``mark``."""
    for line in stderr.splitlines():
        if line.startswith(mark):
            return line[len(mark):]
    raise ValueError(f"no {mark!r} line in the run's stderr")


def loaded_modules(stderr: str) -> list:
    """The sorted ``sys.modules`` names of the :data:`MODULES_MARK` line."""
    return marked(stderr, MODULES_MARK).split()


def peak_rss_mb(stderr: str) -> float:
    """The :data:`RSS_MARK` line's ``ru_maxrss`` (KiB on Linux) in MB,
    the unit of the benchmark's ``peak_rss_mb``."""
    return int(marked(stderr, RSS_MARK)) / 1024.0


def count(modules: list, package: str) -> int:
    """Modules of ``package`` among the loaded ``modules``."""
    return sum(1 for module in modules
               if module == package or module.startswith(package + "."))


def subpackages(modules: list, package: str) -> list:
    """``package``'s public subpackages among the loaded modules: the
    names with a loaded module below them (so a plain module such as
    ``scipy.version`` is not one) and no private component."""
    names = {module for module in modules if module.startswith(package + ".")}
    parents = {name.rsplit(".", 1)[0] for name in names}
    return sorted(
        name for name in names & parents
        if not any(part.startswith("_") for part in name.split("."))
    )


def checkout() -> str:
    """:data:`ROOT` and its ``git rev-parse --short HEAD``, marked when
    the tree has uncommitted changes."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True
        )

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return f"{ROOT} (not a git checkout)"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    suffix = " with uncommitted changes" if dirty else ""
    return f"{ROOT} at {head.stdout.strip()}{suffix}"


def report(workload: str) -> int:
    """Print one workload's set-up import profile; the run's exit code."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", RUNNER,
         "--workload", workload, "--seed", "1", "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return proc.returncode
    entries = import_entries(proc.stderr)
    modules = loaded_modules(proc.stderr)
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    print(f"{workload}: setup_s {setup_s:.3f}, peak RSS "
          f"{peak_rss_mb(proc.stderr):.1f} MB")
    print(f"{'cumulative ms':>14} {'self ms':>9}  module")
    for cumulative_us, self_us, module in sorted(entries, reverse=True)[:TOP]:
        print(f"{cumulative_us / 1e3:14.1f} {self_us / 1e3:9.1f}  {module}")
    print(f"modules loaded: repro {count(modules, 'repro')}, "
          f"scipy {count(modules, 'scipy')}, all {len(modules)}")
    print("scipy subpackages: " + (", ".join(subpackages(modules, "scipy")) or "none"))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    workloads = names if args.workload == "all" else [args.workload]
    print(f"checkout: {checkout()}")
    for k, workload in enumerate(workloads):
        if k:
            print()
        code = report(workload)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
