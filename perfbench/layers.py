"""Per-layer metrics of a traced run, derived from its spans.

Every ``*_s`` metric is self time in seconds per traced rep: the time a
layer's spans lasted minus the time their child spans (other layers)
covered.  Counts are per traced rep as well; ``*_frac`` and
``runs_per_access`` are ratios over the whole traced run.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from spans import self_times

#: Refusal reasons of ``fastpath.run_batch`` (``EngineOutcome.reason``).
REFUSALS = ("chaos", "tlb_l2", "budget", "legacy_fault_path",
            "walk_set_pressure", "fault_segments_disabled")

#: Span name -> the self-time metric it feeds.  Several spans may feed
#: one metric (system construction and graph placement are both build).
SELF_TIME = {
    "graphs.load": "graphs.load_s",
    "graphs.rmat": "graphs.rmat_s",
    "graphs.csr": "graphs.csr_s",
    "accel.trace": "accel.trace_s",
    "sim.system.build": "sim.system.build_s",
    "sim.system.load_graph": "sim.system.build_s",
    "sim.system.run": "sim.system.run_s",
    "kernel.reclaim": "kernel.reclaim_s",
    "sim.fastpath.batch": "sim.fastpath.batch_s",
    "sim.fastpath.run_batch": "sim.fastpath.run_batch_s",
    "hw.walker.info_for": "hw.walker.info_for_s",
    "hw.iommu.run_trace": "hw.iommu.run_trace_s",
    "hw.fault_path.deliver": "hw.fault_path.deliver_s",
    "kernel.fault.service": "kernel.fault.service_s",
    "sim._native.lru": "sim._native.lru_s",
    "sweep.tracestore.open": "sweep.tracestore.open_s",
    "sweep.tracestore.publish": "sweep.tracestore.publish_s",
    "sweep.npz.save": "sweep.npz.save_s",
    "sweep.journal.record": "sweep.journal.record_s",
    "common.integrity.write": "common.integrity.write_s",
    "sweep.task": "sweep.task_s",
}

#: Span name -> the count metric its spans' ``count`` fields sum into.
COUNTS = {
    "graphs.load": "graphs.edges",
    "accel.trace": "accel.accesses",
    "sim.system.build": "sim.system.builds",
    "hw.walker.info_for": "hw.walker.info_for_calls",
    "hw.fault_path.deliver": "hw.fault_path.deliveries",
    "kernel.fault.service": "kernel.fault.services",
    "sim._native.lru": "sim._native.lru_calls",
    "sweep.journal.record": "sweep.journal.records",
    "common.integrity.write": "common.integrity.writes",
}

#: ``--trace 1`` metrics in report order: (name, unit, better).
PER_LAYER = (
    [(metric, "s", "lower") for metric in dict.fromkeys(SELF_TIME.values())]
    + [(metric, "count", "lower") for metric in COUNTS.values()]
    + [("sim.fastpath.phase.replay_s", "s", "lower"),
       ("sim.fastpath.phase.fault_service_s", "s", "lower"),
       ("sim.fastpath.phase.accounting_s", "s", "lower"),
       ("sim.fastpath.accepted_frac", "ratio", "higher"),
       ("sim.fastpath.runs_per_access", "ratio", "lower")]
    + [(f"sim.fastpath.refused.{reason}", "count", "lower")
       for reason in REFUSALS]
    + [("sim._native.available", "bool", "higher"),
       ("sweep.worker_busy_s", "s", "lower"),
       ("sweep.pair_p50_s", "s", "lower"),
       ("sweep.idle_s", "s", "lower"),
       ("sweep.steals", "count", "lower"),
       ("sweep.hedges", "count", "lower"),
       ("sweep.retries", "count", "lower"),
       ("sweep.domain_rebuilds", "count", "lower"),
       ("sweep.duplicate_results", "count", "lower"),
       ("trace.coverage_frac", "ratio", "higher"),
       ("trace.overhead_frac", "ratio", "lower")]
)

#: ResilienceReport counter behind each sweep mechanism metric.
MECHANISM_METRICS = {"sweep.steals": "steals", "sweep.hedges": "hedges",
                     "sweep.retries": "retries",
                     "sweep.domain_rebuilds": "pool_rebuilds",
                     "sweep.duplicate_results": "duplicate_results"}


def layer_metrics(spans: list, traced: list, untraced: list,
                  phases: dict, native: bool) -> dict:
    """Every per-layer metric, per traced rep, from a traced run."""
    reps = max(len(traced), 1)
    values = defaultdict(float)
    covered = 0.0
    outcomes = defaultdict(int)
    runs = accesses = 0
    tasks = []              # each sweep task's duration in its worker
    for span, own in zip(spans, self_times(spans)):
        metric = SELF_TIME.get(span.name)
        if metric is not None:
            values[metric] += own
            covered += own
        if span.name in COUNTS:
            values[COUNTS[span.name]] += span.count
        if span.name == "sim.fastpath.run_batch":
            outcomes[span.tag] += 1
            runs += span.count
            accesses += span.size
        if span.name == "sweep.task":
            tasks.append(span.end - span.start)
    out = {name: values[name] / reps for name, unit, _ in PER_LAYER
           if unit in ("s", "count") and name in values}
    for key in ("replay", "fault_service", "accounting"):
        out[f"sim.fastpath.phase.{key}_s"] = phases.get(key, 0.0) / reps
    attempts = sum(outcomes.values())
    out["sim.fastpath.accepted_frac"] = (outcomes["accepted"] / attempts
                                         if attempts else 0.0)
    out["sim.fastpath.runs_per_access"] = runs / accesses if accesses else 0.0
    for reason in REFUSALS:
        out[f"sim.fastpath.refused.{reason}"] = outcomes[reason] / reps
    out["sim._native.available"] = 1.0 if native else 0.0
    busy = sum(tasks)
    slots = sum(rep.workers * rep.wall for rep in traced)
    out["sweep.worker_busy_s"] = busy / reps
    out["sweep.pair_p50_s"] = median(tasks) if tasks else 0.0
    out["sweep.idle_s"] = max(slots - busy, 0.0) / reps
    for metric, counter in MECHANISM_METRICS.items():
        out[metric] = sum(rep.mechanisms.get(counter, 0)
                          for rep in traced) / reps
    traced_wall = sum(rep.wall for rep in traced)
    out["trace.coverage_frac"] = covered / traced_wall if traced_wall else 0.0
    out["trace.overhead_frac"] = _overhead(traced, untraced)
    return {name: out.get(name, 0.0) for name, _unit, _ in PER_LAYER}


def _overhead(traced: list, untraced: list) -> float:
    if not traced or not untraced:
        return 0.0
    base = median(rep.wall for rep in untraced)
    return (median(rep.wall for rep in traced) - base) / base
