"""Outside-in layer tracing for the repo benchmark.

The simulator has no timing hooks of its own, so the traced run wraps
the public entry points of each layer at class or module level (see
``LAYER_FUNCTIONS`` and ``LAYER_METHODS``) and records one span per
call: span id, layer name, start, end, parent span and job id.  Spans
live in flat in-memory arrays and are written out once, when the run
ends.

Campaign pool workers are forked from the traced process, so they
inherit the patched classes.  A worker flushes its spans to a spool
file each time one of its root spans closes (its parent then lives in
the benchmark process); the benchmark merges the spool files after
every job.  A spool record that cannot be parsed, or a span whose
parent is missing, is an error, never a silent zero.

Wrapping is checked twice: every loaded ``repro`` module attribute that
still *is* an original (a name bound at import time that the patch
missed) and every subclass override left unwrapped fails the run.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

#: Module-level functions: (module, attribute, span name).
LAYER_FUNCTIONS = (
    ("repro.circuits.transient", "run_transient", "transient.run"),
    ("repro.circuits.batched", "run_transient_batched", "batched.run"),
    ("repro.circuits.envelope_transient", "run_transient_envelope", "envelope.run"),
    ("repro.circuits.dcop", "solve_dc", "dcop.solve"),
    ("repro.campaigns.vectorized", "run_transient_campaign", "campaign.run"),
    ("repro.campaigns.vectorized", "run_envelope_campaign", "campaign.run"),
)

#: Methods: (module, class, method, span name).  ``factor`` is wrapped on
#: every :class:`MatrixBackend` subclass that defines it.
LAYER_METHODS = (
    ("repro.circuits.assembly", "TransientAssembly", "step_rhs", "assembly.rhs"),
    ("repro.circuits.assembly", "TransientAssembly", "commit", "assembly.commit"),
    ("repro.circuits.assembly", "DtCache", "get", "assembly.dt_lookup"),
    ("repro.circuits.linsolve", "ReusableLU", "factor", "backend.factor"),
    ("repro.circuits.linsolve", "ReusableLU", "solve", "backend.solve"),
    ("repro.circuits.backend", "SparseLU", "__init__", "backend.factor"),
    ("repro.circuits.backend", "SparseLU", "solve", "backend.solve"),
    ("repro.circuits.backend", "KrylovSolver", "solve", "backend.solve"),
    ("repro.circuits.backend", "MatrixBackend", "factor", "backend.dispatch"),
    ("repro.circuits.stepcontrol", "StepController", "error_ratio", "stepcontrol.lte"),
    ("repro.circuits.stepcontrol", "StepController", "accept", "stepcontrol.accept"),
    ("repro.circuits.stepcontrol", "StepController", "reject", "stepcontrol.reject"),
    ("repro.circuits.stepcontrol", "StepController", "propose", "stepcontrol.propose"),
    ("repro.envelope.dynamics", "EnvelopeModel", "advance", "envelope.predict"),
)

#: Span names (index = name id in the span arrays).  ``assembly.dt_build``
#: wraps the build callback each ``DtCache`` is constructed with;
#: ``campaign.build`` wraps the benchmark's own task build callbacks.
SPAN_NAMES = (
    "transient.run",
    "batched.run",
    "envelope.run",
    "dcop.solve",
    "campaign.run",
    "assembly.rhs",
    "assembly.commit",
    "assembly.dt_lookup",
    "assembly.dt_build",
    "backend.factor",
    "backend.solve",
    "backend.dispatch",
    "stepcontrol.lte",
    "stepcontrol.accept",
    "stepcontrol.reject",
    "stepcontrol.propose",
    "envelope.predict",
    "campaign.build",
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

#: One span record: pid, id, name id, start, end, parent pid, parent id, job.
_FIELDS = 8


class TraceError(RuntimeError):
    """The trace is incomplete or disagrees with the engine counters."""


class Tracer:
    """Span recorder installed over the simulator's layer entry points."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.owner = self.pid
        self.job = -1
        self._buf = array("d")
        self._stack: List[Tuple[int, int]] = []
        self._next = 0
        self._merged: List[np.ndarray] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._original_ids: set = set()
        self._wrappers: set = set()
        self._extra: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        nid = float(NAME_ID[name])
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            ppid, pidx = stack[-1] if stack else (-1, -1)
            idx = tracer._next
            tracer._next = idx + 1
            pid = tracer.pid
            stack.append((pid, idx))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._buf.extend((pid, idx, nid, t0, t1, ppid, pidx, tracer.job))
                if pid != tracer.owner and ppid != pid:
                    tracer._flush_child()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        self._wrappers.add(traced)
        return traced

    def _after_fork(self) -> None:
        # The child starts with the parent's stack (its open spans become
        # the parents of the child's roots) but none of its records.
        self.pid = os.getpid()
        self._buf = array("d")

    def _flush_child(self) -> None:
        path = self.spool_dir / f"{self.pid}.spans"
        with open(path, "ab") as handle:
            handle.write(self._buf.tobytes())
        self._buf = array("d")

    def collect_workers(self) -> None:
        """Merge every spool file the pool workers wrote, then delete it."""
        for path in sorted(self.spool_dir.glob("*.spans")):
            raw = path.read_bytes()
            path.unlink()
            if len(raw) % (8 * _FIELDS):
                raise TraceError(f"truncated span spool {path.name}")
            self._merged.append(np.frombuffer(raw, dtype=np.float64).reshape(-1, _FIELDS))

    def close(self) -> None:
        """Remove the spool directory; unmerged spool files are lost spans."""
        leftover = list(self.spool_dir.glob("*.spans"))
        for path in leftover:
            path.unlink()
        self.spool_dir.rmdir()
        if leftover:
            raise TraceError(f"{len(leftover)} worker span spools were never merged")

    def spans(self) -> np.ndarray:
        """All spans recorded so far, shape ``(n, 8)``."""
        own = np.frombuffer(self._buf, dtype=np.float64).reshape(-1, _FIELDS)
        return np.concatenate([own.copy()] + self._merged) if self._merged else own.copy()

    # -- installation --------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Patch every layer entry point; fail on any binding the patch misses.

        ``extra_modules`` are the caller's own modules: their import-time
        bindings of the layer functions are patched and checked too.
        """
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._extra = list(extra_modules)
        modules = _load_repro_modules() + self._extra
        for module_name, attr, name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            self._original_ids.add(id(original))
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for module_name, cls_name, method, name in LAYER_METHODS:
            base = getattr(importlib.import_module(module_name), cls_name)
            for cls in [base] + _subclasses(base):
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                self._original_ids.add(id(original))
                self._patch(cls, method, self.wrap(name, original))
        dt_cache = importlib.import_module("repro.circuits.assembly").DtCache
        original_init = dt_cache.__init__
        self._original_ids.add(id(original_init))
        tracer = self

        def dt_cache_init(cache, build, *args, **kwargs):
            original_init(cache, tracer.wrap("assembly.dt_build", build), *args, **kwargs)

        self._patch(dt_cache, "__init__", dt_cache_init)
        os.register_at_fork(after_in_child=self._after_fork)
        self.check_bindings()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def check_bindings(self) -> None:
        """Fail when a loaded module or class still reaches an original.

        Covers names bound at import time (``from x import f``), module-
        level containers holding the function, and subclass overrides
        the class-level patch does not reach.
        """
        missed = []
        for module in _load_repro_modules() + self._extra:
            for key, value in vars(module).items():
                for item in _flatten(value):
                    if id(item) in self._original_ids:
                        missed.append(f"{module.__name__}.{key}")
        for module_name, cls_name, method, _name in LAYER_METHODS:
            base = getattr(importlib.import_module(module_name), cls_name)
            for cls in [base] + _subclasses(base):
                fn = cls.__dict__.get(method)
                if fn is not None and fn not in self._wrappers:
                    missed.append(f"{cls.__qualname__}.{method}")
        if missed:
            raise TraceError(f"trace patch missed: {sorted(set(missed))}")


def _load_repro_modules() -> list:
    """Import every ``repro`` submodule so import-time bindings exist."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _flatten(value) -> list:
    """A module attribute plus, for plain containers, its members."""
    if isinstance(value, dict):
        return [value, *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [value, *value]
    return [value]


# -- analysis -----------------------------------------------------------------


class SpanTable:
    """Column view of a span array with parent links and self times."""

    def __init__(self, spans: np.ndarray, main_pid: int):
        self.spans = spans
        pid = spans[:, 0].astype(np.int64)
        idx = spans[:, 1].astype(np.int64)
        self.name = spans[:, 2].astype(np.int64)
        self.t0 = spans[:, 3]
        self.t1 = spans[:, 4]
        self.dur = self.t1 - self.t0
        self.job = spans[:, 7].astype(np.int64)
        self.main = pid == main_pid
        ppid = spans[:, 5].astype(np.int64)
        pidx = spans[:, 6].astype(np.int64)
        key = (pid << 32) | idx
        order = np.argsort(key)
        sorted_keys = key[order]
        if np.any(np.diff(sorted_keys) == 0):
            raise TraceError("duplicate span ids")
        self.parent = np.full(len(spans), -1, dtype=np.int64)
        has_parent = ppid >= 0
        pkey = (ppid[has_parent] << 32) | pidx[has_parent]
        pos = np.searchsorted(sorted_keys, pkey)
        pos = np.minimum(pos, max(len(sorted_keys) - 1, 0))
        found = sorted_keys[pos] == pkey if len(sorted_keys) else np.zeros(0, bool)
        if not np.all(found):
            raise TraceError(f"{int(np.sum(~found))} spans lost their parent span")
        self.parent[has_parent] = order[pos]
        # Self time: the span minus the part of it that same-process child
        # spans cover.  A pool worker's root runs beside its parent, not
        # inside its interval, so it is not subtracted.
        same = has_parent.copy()
        same[has_parent] = ppid[has_parent] == pid[has_parent]
        covered = np.bincount(self.parent[same], weights=self.dur[same], minlength=len(spans))
        self.self_time = self.dur - covered

    def mask(self, *names: str) -> np.ndarray:
        ids = [NAME_ID[n] for n in names]
        return np.isin(self.name, ids)

    def count(self, *names: str) -> int:
        return int(np.sum(self.mask(*names)))

    def self_s(self, *names: str) -> float:
        return float(np.sum(self.self_time[self.mask(*names)]))

    def under(self, *names: str) -> np.ndarray:
        """Spans with an ancestor named one of ``names``."""
        target = self.mask(*names)
        inside = np.zeros(len(self.spans), dtype=bool)
        node = self.parent.copy()
        while np.any(node >= 0):
            live = node >= 0
            inside[live] |= target[node[live]]
            node[live] = self.parent[node[live]]
        return inside

    def top_level(self, *names: str) -> np.ndarray:
        """Spans named ``names`` whose parent is not one of them."""
        m = self.mask(*names)
        parent_in = np.zeros(len(self.spans), dtype=bool)
        has = self.parent >= 0
        parent_in[has] = m[self.parent[has]]
        return m & ~parent_in

    def main_roots_s(self) -> float:
        """Wall time the benchmark process spent inside any span."""
        roots = self.main & (self.parent < 0)
        return float(np.sum(self.dur[roots]))


def save_spans(path: Path, spans: np.ndarray) -> None:
    """Write the run's spans (columns as in ``SpanTable``) and span names."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, spans=spans, names=np.array(SPAN_NAMES))
