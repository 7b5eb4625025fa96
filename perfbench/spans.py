"""In-memory span recorder and the layer wrappers of a traced run.

A traced run replaces a fixed list of the program's public functions
with thin wrappers that record one span per call: name, start, end,
parent span, op id, process id and an optional tag or count.  Nothing
under ``src/`` changes; :func:`install` patches module and class
attributes from outside and :func:`uninstall` puts every original object
back.  An untraced run never calls :func:`install`, so it executes the
program exactly as shipped.

Spans are kept in memory and only turned into layer metrics after the
run.  Sweep workers are forked from the benchmark process and inherit
the wrappers; each worker drops the parent's inherited spans on its
first record and appends its own spans to a per-process file in
``spill_dir`` after every task, which :meth:`Recorder.absorb_spills`
merges once the sweep has ended.

Self time of a span is its duration minus the time covered by its
direct children.  Children of one span run on one thread and never
overlap, so the covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One recorded call."""

    name: str
    start: float
    end: float
    parent: int | None       # index into the recorder's span list
    op: str | None
    pid: int
    tag: str | None = None   # e.g. the fast engine's refusal reason
    count: int = 0           # work done by this call (edges, accesses, ...)
    size: int = 0            # the input it was done over, for ratios


@dataclass
class Recorder:
    """Spans of one process, plus the per-process spill directory."""

    spill_dir: Path | None = None
    spans: list = field(default_factory=list)
    owner: int = field(default_factory=os.getpid)   # never spills
    #: ``fastpath.PHASE_PROFILE`` seconds: replay, fault_service, accounting.
    phases: dict = field(default_factory=dict)
    op: str | None = None
    _pid: int = field(default_factory=os.getpid)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list:
        if self._pid != os.getpid():
            # First record in a forked worker: the inherited spans belong
            # to the parent, which keeps its own copy.
            self._pid = os.getpid()
            self.spans = []
            self.phases.clear()
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op, self._pid))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, *, tag: str | None = None, count: int = 0,
            size: int = 0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.tag, span.count, span.size = tag, count, size
        self._stack().pop()

    def spill(self) -> None:
        """Append this (worker) process's finished spans to its file."""
        if self.spill_dir is None or self._pid == self.owner:
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        base = getattr(self._local, "spilled", 0)
        with open(path, "a") as handle:
            for offset, span in enumerate(self.spans):
                row = dict(span.__dict__)
                row["index"] = base + offset
                if span.parent is not None:
                    row["parent"] = base + span.parent
                handle.write(json.dumps(row) + "\n")
            if self.phases:
                handle.write(json.dumps({"phases": self.phases}) + "\n")
        self._local.spilled = base + len(self.spans)
        self.spans = []
        self.phases.clear()

    def absorb_spills(self) -> None:
        """Merge every worker's spilled spans (and phase seconds)."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            rows = []
            for line in path.read_text().splitlines():
                row = json.loads(line)
                if "phases" not in row:
                    rows.append(row)
                    continue
                for key, seconds in row["phases"].items():
                    self.phases[key] = self.phases.get(key, 0.0) + seconds
            base = len(self.spans)
            remap = {row["index"]: base + i for i, row in enumerate(rows)}
            for row in rows:
                parent = row["parent"]
                self.spans.append(Span(
                    row["name"], row["start"], row["end"],
                    remap.get(parent) if parent is not None else None,
                    row["op"], row["pid"], row["tag"], row["count"],
                    row["size"]))
            path.unlink()


#: The active recorder, or ``None`` (wrappers then call straight through).
RECORDER: Recorder | None = None


# -- self time ----------------------------------------------------------------

def child_times(spans: list) -> list[float]:
    """Time covered by each span's direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return child


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    return [span.end - span.start - covered
            for span, covered in zip(spans, child_times(spans))]


# -- wrappers -----------------------------------------------------------------

def _timed(fn, name: str, measure=None):
    """``fn`` recording one span per call; ``measure(result, args)``
    returns the span's ``(tag, count, size)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = RECORDER
        if recorder is None:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        tag, count, size = None, 0, 0
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                tag, count, size = measure(result, args)
            return result
        finally:
            recorder.end(index, tag=tag, count=count, size=size)

    return wrapper


def _graph_edges(result, _args):
    graph = result[0] if isinstance(result, tuple) else result
    return None, int(graph.num_edges), 0


def _trace_accesses(result, _args):
    return None, len(result.trace), 0


def _outcome(result, args):
    """Accepted or the refusal reason; page runs over accesses.  Runs are
    read only where the engine already built them (not for ``ideal``)."""
    iommu, batch = args[0], args[1]
    if not result:
        return result.reason or "unknown", 0, 0
    if iommu.config.mech == "ideal":
        return "accepted", 0, 0
    return "accepted", batch.num_runs, batch.num_accesses


def _one(_result, _args):
    return None, 1, 0


@contextlib.contextmanager
def op_span(name: str):
    """The benchmark's own span around one op; sets the op id."""
    recorder = RECORDER
    if recorder is None:
        yield
        return
    recorder.op = name
    index = recorder.begin("op")
    try:
        yield
    finally:
        recorder.end(index)
        recorder.op = None


def _worker_task(fn):
    """A sweep executor that spills the worker's spans after each task."""

    @functools.wraps(fn)
    def wrapper(runner_spec, payload):
        recorder = RECORDER
        if recorder is None:
            return fn(runner_spec, payload)
        recorder._stack()        # drop inherited parent spans first
        recorder.op = f"{payload.get('workload')}/{payload.get('dataset')}"
        index = recorder.begin("sweep.task")
        try:
            return fn(runner_spec, payload)
        finally:
            recorder.end(index)
            recorder.spill()

    return wrapper


def targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, measure)`` for every wrapped call.

    ``owner`` is a module or class; a function bound under the same name
    in other ``repro`` modules (``from x import f``) is patched there too.
    """
    from repro.accel import algorithms, trace
    from repro.common import integrity
    from repro.graphs import csr, datasets, rmat
    from repro.hw import fault_queue, iommu, walker
    from repro.kernel import fault
    from repro.sim import _native, fastpath, system
    from repro.sweep import journal, tracestore

    return [
        (datasets, "load", "graphs.load", _graph_edges),
        (rmat, "rmat_edges", "graphs.rmat", None),
        (csr.CSRGraph, "from_edges", "graphs.csr", None),
        (algorithms, "run_workload", "accel.trace", _trace_accesses),
        (system.HeterogeneousSystem, "__init__", "sim.system.build", _one),
        (system.HeterogeneousSystem, "load_graph", "sim.system.load_graph",
         None),
        (system.HeterogeneousSystem, "run", "sim.system.run", None),
        (system.HeterogeneousSystem, "apply_reclaim_pressure",
         "kernel.reclaim", None),
        (fastpath, "batch_for", "sim.fastpath.batch", None),
        (fastpath, "run_batch", "sim.fastpath.run_batch", _outcome),
        (walker.PageTableWalker, "info_for", "hw.walker.info_for", _one),
        (iommu.IOMMU, "_run_ideal", "hw.iommu.run_trace", None),
        (iommu.IOMMU, "_run_conventional", "hw.iommu.run_trace", None),
        (iommu.IOMMU, "_run_bitmap", "hw.iommu.run_trace", None),
        (iommu.IOMMU, "_run_dav", "hw.iommu.run_trace", None),
        (fault_queue.FaultPath, "deliver", "hw.fault_path.deliver", _one),
        (fault.FaultHandler, "service", "kernel.fault.service", _one),
        (_native, "lru_sim", "sim._native.lru", _one),
        (_native, "lru_walk", "sim._native.lru", _one),
        (tracestore, "open_trace", "sweep.tracestore.open", None),
        (tracestore, "publish", "sweep.tracestore.publish", None),
        (trace.SymbolicTrace, "save", "sweep.npz.save", None),
        (journal.SweepJournal, "append", "sweep.journal.record", _one),
        (integrity, "write_json_atomic", "common.integrity.write", _one),
        (integrity, "write_sidecar", "common.integrity.write", _one),
    ]


@dataclass
class Installation:
    """What :func:`install` replaced, so :func:`uninstall` can restore it."""

    patched: list = field(default_factory=list)   # (owner, attr, original)
    phase_profile: object = None


def _bindings(original) -> list[tuple[object, str]]:
    """Every loaded ``repro`` module attribute bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


def install(recorder: Recorder) -> Installation:
    """Wrap every target and activate ``recorder``."""
    global RECORDER
    from repro.sim import fastpath
    from repro.sweep import tasks

    done = Installation(phase_profile=fastpath.PHASE_PROFILE)
    for owner, attr, name, measure in targets():
        raw = vars(owner)[attr]
        is_static = isinstance(raw, (classmethod, staticmethod))
        original = raw.__func__ if is_static else raw
        wrapper = _timed(original, name, measure)
        if isinstance(owner, type):
            done.patched.append((owner, attr, raw))
            setattr(owner, attr, type(raw)(wrapper) if is_static else wrapper)
            continue
        for module, bound in _bindings(original):
            done.patched.append((module, bound, original))
            setattr(module, bound, wrapper)
    original = tasks.EXECUTORS["pair"]
    done.patched.append((tasks.EXECUTORS, "pair", original))
    tasks.EXECUTORS["pair"] = _worker_task(original)
    fastpath.PHASE_PROFILE = recorder.phases
    RECORDER = recorder
    return done


def uninstall(done: Installation) -> None:
    """Restore every original object :func:`install` replaced."""
    global RECORDER
    from repro.sim import fastpath

    RECORDER = None
    fastpath.PHASE_PROFILE = done.phase_profile
    for owner, attr, original in reversed(done.patched):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
    done.patched.clear()


def snapshot_targets() -> dict:
    """Identity of every wrappable object, for the restore self-test."""
    from repro.sweep import tasks

    found = {}
    for owner, attr, _name, _measure in targets():
        raw = vars(owner)[attr]
        found[(id(owner), attr)] = raw
        original = raw.__func__ if isinstance(
            raw, (classmethod, staticmethod)) else raw
        if not isinstance(owner, type):
            for module, bound in _bindings(original):
                found[(id(module), bound)] = vars(module)[bound]
    found[("executors", "pair")] = tasks.EXECUTORS["pair"]
    return found
