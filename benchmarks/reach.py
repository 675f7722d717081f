"""Which ``src/`` functions the repository's drivers reach.

Run from the repository root::

    python benchmarks/reach.py    # or: make reach

The drivers are the repository's own consumers of the library:

* ``perfbench:<workload>`` — one pass of each workload's jobs at seed 1,
  from ``perfbench/workloads.py`` (imported, not edited; the workload
  names are read from its ``WORKLOADS``);
* ``example:<file>`` — every ``examples/*.py``, run as ``__main__``;
* ``bench:<file>`` — every ``benchmarks/bench_*.py`` under pytest, from
  a temporary copy of ``benchmarks/`` so the result files the benches
  write stay out of the working tree;
* ``run_perf --check`` — the bench regression gate (its gate verdicts
  under the profiler are meaningless and are ignored).

A driver still running after ``DRIVER_TIMEOUT_S`` seconds is stopped,
together with its pool workers, and marked in the report.

Each driver runs in a fresh process under ``sys.setprofile`` (and
``threading.setprofile``).  The first call of every function code object
under ``src/`` appends one line to ``<record dir>/<pid>.txt``.  A hook
from ``os.register_at_fork(after_in_child=...)`` switches a forked child
to its own file, so the campaign layer's fork-started process pools are
counted too (a pool started with ``spawn`` or ``forkserver`` would not
be).  Lines are written as they are found, so a pool worker that is
killed rather than shut down still leaves its record.

The parent merges every file and compares the union against the
functions ``ast`` finds in ``src/`` (methods and nested functions
included, lambdas not).  It prints how many functions each driver
reached and, per module, the functions and function lines no driver
reached, then the unreached functions themselves.  A line counts for
the innermost function that contains it, so nested functions are not
counted twice.  Exit status is 0 even when a driver fails; a failed
driver is marked in the report.
"""

import argparse
import ast
import os
import runpy
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRIVER_TIMEOUT_S = 1800.0


def perfbench_workloads():
    """``perfbench/workloads.py``, imported with ``src/`` on the path."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import workloads

    return workloads


def drivers():
    """Every driver name, in run order."""
    names = [f"perfbench:{w}" for w in perfbench_workloads().WORKLOADS]
    names += [f"example:{p.name}" for p in sorted((ROOT / "examples").glob("*.py"))]
    names += [f"bench:{p.name}" for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))]
    names.append("run_perf --check")
    return names


# -- the traced side (one driver per process) ---------------------------------


def record_calls(record_dir: str) -> None:
    """Record the first call of every ``src/`` code object from now on,
    in this process and in every child forked from it."""
    prefix = str(SRC) + os.sep
    seen = {}  # id(code) -> code; the reference keeps the id unique
    state = {}

    def open_record():
        path = os.path.join(record_dir, f"{os.getpid()}.txt")
        state["fd"] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        if code.co_filename.startswith(prefix):
            line = f"{code.co_filename[len(prefix):]}\t{code.co_firstlineno}\n"
            os.write(state["fd"], line.encode())

    open_record()
    os.register_at_fork(after_in_child=open_record)
    threading.setprofile(profile)
    sys.setprofile(profile)


def run_driver(name: str, work_dir: str) -> int:
    """Run one driver in this process; its exit status."""
    kind, _, arg = name.partition(":")
    if kind == "perfbench":
        workloads = perfbench_workloads()
        bench = workloads.WORKLOADS[arg](1)
        for run in bench.jobs(workloads.build_oscillator):
            run()
        return 0
    if kind == "example":
        path = ROOT / "examples" / arg
        sys.argv = [str(path)]
        sys.path.insert(0, str(path.parent))
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        return 0
    if kind == "bench":
        import pytest

        copy = Path(work_dir) / "benchmarks"
        shutil.copytree(
            ROOT / "benchmarks", copy, ignore=shutil.ignore_patterns("results", "__pycache__")
        )
        os.chdir(copy)
        sys.path.insert(0, str(copy))
        return int(pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable", arg]))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run_perf

    return run_perf.main(["--check"])


# -- the census side ----------------------------------------------------------


class Function(NamedTuple):
    module: str
    qualname: str
    first: int  # co_firstlineno: the first decorator's line
    start: int
    end: int


def src_functions():
    """Every function and method ``ast`` finds under ``src/``."""
    found = []

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(module, qualname, first, child.lineno, child.end_lineno))
                walk(child, module, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        walk(ast.parse(path.read_text(), str(path)), module, "")
    return found


def read_records(record_dir: Path):
    """The ``(module, co_firstlineno)`` keys every process recorded."""
    keys = set()
    for path in record_dir.glob("*.txt"):
        for line in path.read_text().splitlines():
            module, _, first = line.partition("\t")
            if first:
                keys.add((module, int(first)))
    return keys


def owned_lines(functions):
    """``{(module, line): function}``: each line of a function body
    belongs to the innermost function that contains it."""
    owner = {}
    for fn in sorted(functions, key=lambda f: (f.module, f.start, -f.end)):
        for line in range(fn.start, fn.end + 1):
            owner[(fn.module, line)] = fn
    return owner


def run_all(names):
    """Run each driver in its own traced process; ``(name, status,
    seconds, keys)`` per driver."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for k, name in enumerate(names):
            record_dir = Path(tmp) / f"records{k}"
            work_dir = Path(tmp) / f"work{k}"
            record_dir.mkdir()
            work_dir.mkdir()
            cmd = [sys.executable, __file__, "--driver", name,
                   "--record-dir", str(record_dir), "--work-dir", str(work_dir)]
            start = time.perf_counter()
            # Its own session, so a timeout also stops its pool workers.
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
            try:
                _, err = proc.communicate(timeout=DRIVER_TIMEOUT_S)
                status = f"exit {proc.returncode}" if proc.returncode else "ok"
                tail = err.strip().splitlines()[-1:]
                if proc.returncode and tail:
                    status += f" ({tail[0][:60]})"
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                status = f"timeout after {DRIVER_TIMEOUT_S:.0f} s"
            seconds = time.perf_counter() - start
            print(f"  {name:44s} {seconds:6.1f} s  {status}", file=sys.stderr, flush=True)
            out.append((name, status, seconds, read_records(record_dir)))
    return out


def report(functions, runs) -> None:
    by_key = {(f.module, f.first): f for f in functions}
    reached = set()
    print(f"{'driver':44s} {'reached':>8s}  status")
    for name, status, _, keys in runs:
        hits = keys & by_key.keys()
        reached |= hits
        print(f"{name:44s} {len(hits):8d}  {status}")
    unreached = [f for f in functions if (f.module, f.first) not in reached]
    dead = set(unreached)

    total_fn = defaultdict(int)
    dead_fn = defaultdict(int)
    total_lines = defaultdict(int)
    dead_lines = defaultdict(int)
    for fn in functions:
        total_fn[fn.module] += 1
        dead_fn[fn.module] += fn in dead
    for (module, _), fn in owned_lines(functions).items():
        total_lines[module] += 1
        dead_lines[module] += fn in dead

    print("\nunreached by every driver, per module")
    print(f"{'module':40s} {'functions':>14s} {'lines':>16s}")
    for module in sorted(total_fn):
        if dead_fn[module]:
            print(f"{module:40s} {dead_fn[module]:5d} of {total_fn[module]:5d} "
                  f"{dead_lines[module]:6d} of {total_lines[module]:6d}")
    print(f"{'total':40s} {sum(dead_fn.values()):5d} of {sum(total_fn.values()):5d} "
          f"{sum(dead_lines.values()):6d} of {sum(total_lines.values()):6d}")

    print("\nunreached functions (lines)")
    module = None
    for fn in unreached:
        if fn.module != module:
            module = fn.module
            print(module)
        print(f"  {fn.qualname} ({fn.end - fn.start + 1})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--driver", help=argparse.SUPPRESS)
    parser.add_argument("--record-dir", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.driver:
        record_calls(args.record_dir)
        return run_driver(args.driver, args.work_dir)
    runs = run_all(drivers())
    report(src_functions(), runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
