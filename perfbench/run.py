"""Repo benchmark: one workload, timed end to end, optionally traced.

Run from the repository root::

    python3 perfbench/run.py --workload supply_loss_q --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``sim_cycles_per_s`` — carrier cycles simulated per host second,
  summed over samples; the median over timed passes.
* ``setup_s`` — imports, input generation and warm-up before the first
  timed pass; the median of this process and four fresh processes
  that repeat the same set-up.
* ``peak_rss_mb`` — peak resident memory of the benchmark process
  plus, for pool workloads, workers x the largest worker's peak (an
  upper bound, since forked workers share pages).

Every run checks each output against its reference, computed outside
the timed runs; ``correct`` is false when any sample misses its
tolerance.  The worst relative deviation, ``ref_err``, depends on the
generated inputs (rounding level on ``mc_lockstep``, 1e-8 to 1e-6 on
``coil_mesh``), so it is reported in the stamp line and as the
per-layer ``check.ref_err`` rather than as a bounded metric.

``--trace 1`` times half the budget untraced, then half with every
layer entry point wrapped (see ``tracing.py``), and reports per-layer
counts and self times per pass, the tracing overhead and the traced
wall time no layer span covers.  Each wrapper count is reconciled with
the engine's own counter; a mismatch, a lost span or a patch that
misses a binding fails the run.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread per process: OpenBLAS otherwise starts nproc
# threads in the benchmark and in every shard worker it forks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
    sys.exit(f"repro imported from {repro.__file__}, not from this checkout")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples behind the reported ``setup_s`` median.
SETUP_SAMPLES = 5

#: ``ref_err`` reported when a sample produced no finite output.
FAILED_REF_ERR = 1e9

#: Share of traced wall time the layer spans must cover.
MIN_COVERAGE = 0.9

#: prctl(2) option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36


class Phase:
    """Timed passes over a workload: per-pass job walls, outputs, stats."""

    def __init__(self, workload, first_outputs=None):
        self.workload = workload
        self.walls = []  # [pass][job] seconds
        self.probes = []  # [pass][job] calibration-loop seconds around the job
        self.stats = []
        #: Outputs of the first pass; later passes are compared, not kept.
        self.outputs = first_outputs
        self.reproducible = True
        self.error = None

    def add(self, walls, probes, results) -> None:
        outputs = self.workload.outputs(results)
        if self.outputs is None:
            self.outputs = outputs
        elif not self.workload.same_outputs(self.outputs, outputs):
            self.reproducible = False
        self.walls.append(walls)
        self.probes.append(probes)
        self.stats.append(workloads.result_stats(results))

    @property
    def passes(self) -> int:
        return len(self.walls)

    @property
    def wall_s(self) -> float:
        return sum(map(sum, self.walls))

    def pass_s(self) -> float:
        """Pass time at the reference host speed: each job's wall time
        scaled by the calibration loop around it, median over repeats."""
        scaled = np.array(self.walls) * (hostspeed.REFERENCE_S / np.array(self.probes))
        return float(np.sum(np.median(scaled, axis=0)))

    def raw_pass_s(self) -> float:
        """Unscaled pass time: each job's median wall time."""
        return float(np.sum(np.median(np.array(self.walls), axis=0)))


def timed_passes(workload, seconds, build, tracer=None, first_outputs=None) -> Phase:
    """Repeat passes until ``seconds`` have elapsed (the last one finishes).

    Every pass must reproduce ``first_outputs`` (default: the first
    pass's).  A job that raises ends the phase with its traceback as
    ``error``.
    """
    phase = Phase(workload, first_outputs)
    jobs = workload.jobs(build)
    start = time.perf_counter()
    while True:
        walls, probes, results = [], [], []
        for job in jobs:
            if tracer is not None:
                tracer.job = phase.passes * len(jobs) + len(walls)
            before = hostspeed.probe_s()
            t0 = time.perf_counter()
            try:
                results += job()
            except Exception:  # noqa: BLE001 - a failed job is a reported outcome
                phase.error = traceback.format_exc()
                return phase
            walls.append(time.perf_counter() - t0)
            probes.append(0.5 * (before + hostspeed.probe_s()))
            # The engines leave reference cycles behind; collected here,
            # outside the timed job, they neither inflate the next job's
            # peak memory nor charge it a full collection.
            gc.collect()
            if tracer is not None:
                tracer.collect_workers()
        phase.add(walls, probes, results)
        del results
        if time.perf_counter() - start >= seconds:
            return phase


def peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def setup_samples(args, count: int) -> list:
    """Set-up time of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- per-layer metrics ---------------------------------------------------------


def stats_counts(stats: list, campaign: bool) -> dict:
    """Per-pass layer counters read from ``result.stats``."""
    scalar = [s for s in stats if "batch_samples" not in s]
    batched = [s for s in stats if "batch_samples" in s]
    envelope = [s["envelope"] for s in scalar if isinstance(s.get("envelope"), dict)]
    krylov = [s["krylov"] for s in scalar if "krylov" in s]
    shard_steps = {s.get("shard", 0): s["steps"] for s in batched}
    warm = [e.get("warm_start") for e in envelope]
    warm_tried = warm.count("accepted") + warm.count("rejected")
    n_shards = max((s.get("n_shards", 0) for s in stats), default=0)
    workers = max((s.get("shard_workers", 1) for s in stats), default=1)
    return {
        "transient.steps": sum(s.get("steps", 0) for s in scalar),
        "transient.newton_iterations": sum(s.get("newton_iterations", 0) for s in scalar),
        "batched.steps": sum(shard_steps.values()),
        "batched.newton_iterations": sum(s.get("newton_iterations", 0) for s in batched),
        "batched.quarantined": sum(bool(s.get("quarantined")) for s in batched),
        "envelope.resolved_cycles": sum(e["resolved_cycles"] for e in envelope),
        "envelope.skipped_cycles": sum(e["skipped_cycles"] for e in envelope),
        "envelope.warm_accept_ratio": warm.count("accepted") / warm_tried if warm_tried else 0.0,
        "backend.krylov_iterations": sum(k["iterations"] for k in krylov),
        "backend.krylov_refreshes": sum(k["refreshes"] for k in krylov),
        "backend.krylov_fallbacks": sum(k["fallbacks"] for k in krylov),
        "campaign.workers": workers if campaign else 0,
        "campaign.shards": n_shards,
    }


def reconcile(table, stats_per_pass: list) -> list:
    """Wrapper call counts against the engines' own counters.

    Returns the mismatches as messages.  Factorizations are compared on
    the scalar engines outside the DC operating point: the engines count
    the LUs of their dt-cache entries, while a DC solve on the Krylov
    backend anchors one more stale LU that no transient counter sees.
    """
    stats = [s for pass_stats in stats_per_pass for s in pass_stats]
    scalar = [s for s in stats if "batch_samples" not in s]
    # An unsharded lockstep batch counts as one shard.
    shard_counts = [
        max((s.get("n_shards", 1) for s in pass_stats if "batch_samples" in s), default=0)
        for pass_stats in stats_per_pass
    ]
    shard_accepts = {}
    for p, pass_stats in enumerate(stats_per_pass):
        for s in pass_stats:
            if "batch_samples" in s:
                shard_accepts[(p, s.get("shard", 0))] = s.get("accepted_steps", 0)
    engines = table.mask("transient.run", "envelope.run")
    factor_in_engines = (
        table.mask("backend.factor") & table.under("transient.run", "envelope.run")
        & ~table.under("dcop.solve") & ~table.under("batched.run")
    )
    pairs = [
        ("stepcontrol.accept calls", table.count("stepcontrol.accept"),
         "accepted_steps", sum(s.get("accepted_steps", 0) for s in scalar)
         + sum(shard_accepts.values())),
        ("backend.factor calls in scalar engines (DC excluded)",
         int(np.sum(factor_in_engines)),
         "lu_refactorizations", sum(s.get("lu_refactorizations", 0) for s in scalar)),
        ("envelope.predict calls", table.count("envelope.predict"),
         "2 x skips", 2 * sum(len(s["envelope"].get("skip_history", ()))
                              for s in scalar if isinstance(s.get("envelope"), dict))),
        ("batched.run spans", table.count("batched.run"),
         "n_shards", sum(shard_counts)),
        ("scalar engine spans", int(np.sum(engines & ~table.under("batched.run"))),
         "scalar results", len(scalar)),
    ]
    return [
        f"{a} = {x} but {b} = {y}" for a, x, b, y in pairs if x != y
    ]


def layer_metrics(table, passes: int, counts: dict, campaign: bool) -> dict:
    """Per-pass per-layer metrics from the traced run and the stats counts."""
    per = 1.0 / passes
    accepted = table.count("stepcontrol.accept") * per
    rejected = table.count("stepcontrol.reject") * per
    solves = float(np.sum(table.top_level("backend.solve"))) * per
    engines = ("transient.run", "batched.run", "envelope.run")
    engine_roots = table.top_level(*engines) & table.under("campaign.run")
    busy = float(np.sum(table.dur[engine_roots])) * per
    wall = float(np.sum(table.dur[table.mask("campaign.run") & table.main])) * per
    workers = counts["campaign.workers"]
    m = {
        "transient.steps": counts["transient.steps"],
        "transient.newton_iterations": counts["transient.newton_iterations"],
        "transient.self_s": table.self_s("transient.run") * per,
        "assembly.rhs_calls": table.count("assembly.rhs") * per,
        "assembly.rhs_s": table.self_s("assembly.rhs") * per,
        "assembly.commit_calls": table.count("assembly.commit") * per,
        "assembly.commit_s": table.self_s("assembly.commit") * per,
        "assembly.dt_builds": table.count("assembly.dt_build") * per,
        "assembly.dt_build_s": table.self_s("assembly.dt_build") * per,
        "assembly.dt_lookup_s": table.self_s("assembly.dt_lookup") * per,
        "backend.factorizations": table.count("backend.factor") * per,
        "backend.factor_s": table.self_s("backend.factor", "backend.dispatch") * per,
        "backend.solves": solves,
        "backend.solve_s": table.self_s("backend.solve") * per,
        "backend.krylov_iterations": counts["backend.krylov_iterations"],
        "backend.krylov_refreshes": counts["backend.krylov_refreshes"],
        "backend.krylov_fallbacks": counts["backend.krylov_fallbacks"],
        "stepcontrol.accepted": accepted,
        "stepcontrol.rejected": rejected,
        "stepcontrol.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "stepcontrol.lte_s": table.self_s("stepcontrol.lte") * per,
        "stepcontrol.control_s": table.self_s(
            "stepcontrol.accept", "stepcontrol.reject", "stepcontrol.propose") * per,
        "stepcontrol.solves_per_accepted": solves / accepted if accepted else 0.0,
        "dcop.solve_s": table.self_s("dcop.solve") * per,
        "batched.steps": counts["batched.steps"],
        "batched.newton_iterations": counts["batched.newton_iterations"],
        "batched.quarantined": counts["batched.quarantined"],
        "batched.self_s": table.self_s("batched.run") * per,
        "envelope.resolved_cycles": counts["envelope.resolved_cycles"],
        "envelope.skipped_cycles": counts["envelope.skipped_cycles"],
        "envelope.predict_calls": table.count("envelope.predict") * per,
        "envelope.predict_s": table.self_s("envelope.predict") * per,
        "envelope.warm_accept_ratio": counts["envelope.warm_accept_ratio"],
        "envelope.self_s": table.self_s("envelope.run") * per,
        "campaign.workers": workers,
        "campaign.shards": counts["campaign.shards"],
        "campaign.build_s": table.self_s("campaign.build") * per,
        "campaign.engine_busy_s": busy,
        "campaign.overhead_s": wall - busy / workers if campaign else 0.0,
        "campaign.parallel_efficiency": busy / (workers * wall) if campaign and wall else 0.0,
    }
    return m


# -- main ------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    build = workloads.build_oscillator
    workload.warm_up(build)
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    campaign = workload.campaign
    phase_s = args.seconds if not args.trace else args.seconds / 2
    plain = timed_passes(workload, phase_s, build)
    counts = stats_counts(plain.stats[0], campaign) if plain.stats else {}
    workers = counts.get("campaign.workers", 0)
    rss = peak_rss_mb(workers)

    problems = []
    traced = spans = None
    if plain.error is None and args.trace:
        tracer = tracing.Tracer(OUT / f"spool-{os.getpid()}")
        try:
            tracer.install(extra_modules=[workloads])
            traced = timed_passes(
                workload, phase_s, tracer.wrap("campaign.build", build), tracer,
                first_outputs=plain.outputs,
            )
            # Names bound lazily while the run was going count too.
            tracer.check_bindings()
        except tracing.TraceError as exc:
            problems.append(f"trace: {exc}")
        finally:
            tracer.uninstall()
        try:
            tracer.close()
        except tracing.TraceError as exc:
            problems.append(f"trace: {exc}")
        spans = tracer.spans()
        tracing.save_spans(OUT / f"trace-{args.workload}.npz", spans)

    setups = [setup_s]
    if not args.trace and plain.error is None:
        setups += setup_samples(args, SETUP_SAMPLES - 1)

    phases = [p for p in (plain, traced) if p is not None]
    attempted = workload.samples * max(sum(p.passes for p in phases), 1)
    failed_samples = set()
    ref_err = float("inf")
    errors = [p.error for p in phases if p.error is not None]
    if errors:
        problems += errors
        failed_samples.update(range(workload.samples))
    else:
        if not all(p.reproducible for p in phases):
            problems.append("passes disagree: outputs are not reproducible")
        try:
            deviation = workload.reference_errors(plain.outputs)
        except Exception:  # noqa: BLE001 - a failed reference fails every sample
            problems.append(traceback.format_exc())
            deviation = np.full(workload.samples, np.nan)
        bad = ~(deviation <= workload.tolerance)
        failed_samples.update(int(i) for i in np.flatnonzero(bad))
        ref_err = float(np.max(np.where(np.isnan(deviation), np.inf, deviation)))
        for pass_stats in plain.stats:
            failed_samples.update(
                i for i, s in enumerate(pass_stats) if s.get("quarantined")
            )
    # Every pass reproduces the first, so a failed sample fails in each.
    failed = len(failed_samples) * max(sum(p.passes for p in phases), 1)

    throughput = workload.cycles / plain.pass_s() if plain.passes else 0.0
    if args.trace:
        metrics = {}
        table = None
        if traced is not None and traced.error is None:
            try:
                table = tracing.SpanTable(spans, os.getpid())
            except tracing.TraceError as exc:
                problems.append(f"trace: {exc}")
        if table is not None:
            problems += [f"trace reconcile: {m}" for m in reconcile(table, traced.stats)]
            covered = table.main_roots_s() / traced.wall_s
            if covered < MIN_COVERAGE:
                problems.append(f"layer spans cover only {covered:.1%} of traced wall time")
            layer = layer_metrics(table, traced.passes, counts, campaign)
            layer["trace.untraced_cycles_per_s"] = throughput
            layer["trace.traced_cycles_per_s"] = workload.cycles / traced.pass_s()
            layer["trace.overhead_frac"] = 1.0 - plain.pass_s() / traced.pass_s()
            layer["trace.unattributed_frac"] = 1.0 - covered
            layer["trace.unattributed_s"] = (traced.wall_s - table.main_roots_s()) / traced.passes
            layer["trace.spans"] = len(spans) / traced.passes
            layer["run.failed_frac"] = failed / attempted
            layer["check.ref_err"] = min(ref_err, FAILED_REF_ERR)
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
            metrics = {k: metric(v, units[k]) for k, v in layer.items()}
    else:
        metrics = {
            "sim_cycles_per_s": metric(throughput, "cycles/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "shards": counts.get("campaign.shards", 0),
        "passes": plain.passes,
        "raw_cycles_per_s": workload.cycles / plain.raw_pass_s() if plain.passes else 0.0,
        "probe_ms": [[round(1e3 * p, 3) for p in probes] for probes in plain.probes],
        "job_s": [[round(w, 4) for w in walls] for walls in plain.walls],
        "traced_job_s": [[round(w, 4) for w in walls] for walls in traced.walls] if traced else [],
        "setup_samples_s": [round(s, 4) for s in setups],
        # A failed check has no finite deviation; JSON has no inf.
        "ref_err": min(ref_err, FAILED_REF_ERR),
        "inputs": workload.summary(),
    }
    print(json.dumps({"stamp": stamp}))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not failed_samples,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- child processes -------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`reap_children` can wait for
    helpers that outlive the set-up process that started them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _child_pids() -> list:
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(stat.parent.name))
    return pids


def reap_children(grace_s: float = 10.0) -> None:
    """Stop and wait for every child this process still has.

    Shared-memory campaigns start multiprocessing's resource tracker,
    which otherwise outlives the benchmark until it notices the exit.
    Stopping it closes its pipe and waits for it; any other child gets
    ``grace_s`` to end by itself and is then killed.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid in _child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = float("inf")


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
