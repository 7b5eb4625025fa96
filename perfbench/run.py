"""Figure 8 sweep benchmark: end-to-end metrics, or a per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8_cold --seed 0 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) for about
``--seconds`` seconds of timed reps (at least the workload's
``min_reps``), checks every op's simulated output against
``expected/seed-<n>.json`` and prints a report.  ``--seed`` selects
the simulated kernel's ASLR seed (``SystemParams.seed``) ``n``, which
is ``--seed`` modulo the 32 seeds with expected values (see
``expected.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced reps, so
the tracing overhead is measured in the same process.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload names, duplicated from ``workloads.py`` so the argument
#: parser can run before the program is imported.
WORKLOAD_NAMES = ("fig8_cold", "fig8_rerun", "faults_replay", "sweep_bench")

#: ``--trace 0`` metrics in report order: (name, unit).
END_TO_END = (("wall_s", "s"), ("sim_maccess_per_s", "M/s"),
              ("op_s_p50", "s"), ("op_s_tail", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

#: Import and native-kernel load timed in fresh interpreters; their
#: median is the set-up's import share.  The probes run after the timed
#: reps, so their memory is not counted as the workload's.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.sim.runner, repro.sweep.tasks, repro.core.config; "
    "from repro.sim import _native; _native.available(); "
    "print(time.perf_counter() - t)")
IMPORT_SAMPLES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> list[float]:
    """Import + kernel-load time in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, or the maximum (percentile 100) when that
    percentile would lie below the median (fewer than 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def peak_rss_mb(workers: bool) -> float:
    """Peak RSS of this process, plus that of its largest reaped child
    when the workload forks workers (the only children it starts)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (kids if workers else 0)) / 1024.0


def verdict(checked: bool, failed: list) -> bool:
    """The JSON ``correct``: ``True`` only when the outputs were checked
    against expected values and no op failed."""
    return checked and not failed


def end_to_end(reps: list, peak_rss: float,
               setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metric values, plus how each was taken."""
    latencies = [s for rep in reps for s in rep.latencies]
    tail_value, tail_pct = tail(latencies)
    values = {
        "wall_s": statistics.median(rep.wall for rep in reps),
        "sim_maccess_per_s": statistics.median(
            rep.accesses / rep.wall / 1e6 for rep in reps),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail_value,
        "cpu_s": statistics.median(rep.cpu for rep in reps),
        "peak_rss_mb": peak_rss,
        "setup_s": setup_s,
    }
    how = {"wall_s": f"median of {len(reps)} reps",
           "sim_maccess_per_s": f"median of {len(reps)} reps",
           "op_s_p50": f"median of {len(latencies)} ops",
           "op_s_tail": (f"p{tail_pct:.1f} of {len(latencies)} ops"
                         if tail_pct < 100 else
                         f"max of {len(latencies)} ops (fewer than 20)"),
           "cpu_s": f"median of {len(reps)} reps, self + children",
           "peak_rss_mb": ("self + largest worker" if reps[0].workers
                           else "self"),
           "setup_s": (f"median of {IMPORT_SAMPLES} fresh-interpreter "
                       "imports + workload set-up")}
    return values, how


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import expected
    import host
    import layers
    import spans
    from repro.sim import _native
    from workloads import WORKLOADS

    native = _native.available()
    fingerprint = host.fingerprint(ROOT)
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    seed = expected.aslr_seed(args.seed)
    want = expected.load(seed)
    workload = WORKLOADS[args.workload](seed, work_dir, want)
    recorder = spans.Recorder(spill_dir=work_dir / "spans")
    recorder.spill_dir.mkdir()
    untraced, traced = [], []
    try:
        start = time.perf_counter()
        workload.setup()
        workload_setup_s = time.perf_counter() - start
        budget = time.perf_counter()
        durations = []
        while True:
            tracing = bool(args.trace) and len(durations) % 2 == 1
            rep_start = time.perf_counter()
            if tracing:
                installed = spans.install(recorder)
                try:
                    rep = workload.rep()
                finally:
                    spans.uninstall(installed)
                recorder.absorb_spills()
                traced.append(rep)
            else:
                rep = workload.rep()
                untraced.append(rep)
            durations.append(time.perf_counter() - rep_start)
            elapsed = time.perf_counter() - budget
            if (len(durations) >= workload.min_reps
                    and elapsed + statistics.median(durations) > args.seconds):
                break
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()     # only when no other run uses it
        except OSError:
            pass
    reps = untraced + traced
    peak_rss = peak_rss_mb(workers=any(rep.workers for rep in reps))
    setup_s = statistics.median(import_seconds()) + workload_setup_s
    checks = [check for rep in reps for check in rep.checks]
    failed = [check for check in checks if not check.ok]
    fingerprint["loadavg_end"] = list(os.getloadavg())

    print(f"perfbench {args.workload} seed={args.seed} (ASLR seed {seed}) "
          f"trace={args.trace} "
          f"reps={len(reps)} ({len(traced)} traced)")
    print("host: " + json.dumps(fingerprint, sort_keys=True))
    if want is None:
        print(f"expected values: UNCHECKED (no {expected.path_for(seed).name}"
              "); the JSON line reports correct as false")
    else:
        outcome = "passed" if not failed else "FAILED"
        print(f"expected values: {outcome} ({len(checks) - len(failed)}/"
              f"{len(checks)} ops match {expected.path_for(seed).name})")
    for check in failed[:10]:
        print(f"  failed op {check.name}: {check.detail}")
    mechanisms = {}
    for rep in reps:
        for key, value in rep.mechanisms.items():
            mechanisms[key] = mechanisms.get(key, 0) + value
    if mechanisms:
        print("sweep mechanisms (all reps): " + json.dumps(mechanisms))

    if args.trace:
        values = layers.layer_metrics(recorder.spans, traced, untraced,
                                      recorder.phases, native)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        outcomes = {}
        for span in recorder.spans:
            if span.name == "sim.fastpath.run_batch":
                outcomes[span.tag] = outcomes.get(span.tag, 0) + 1
        print("fastpath.run_batch outcomes (traced reps): "
              + json.dumps(outcomes, sort_keys=True))
        for name, value in values.items():
            print(f"{name:<36} {value:14.6f} {units[name]}")
    else:
        values, how = end_to_end(untraced, peak_rss, setup_s)
        units = dict(END_TO_END)
        for name, value in values.items():
            print(f"{name:<36} {value:14.6f} {units[name]}  {how[name]}")
        print(f"{'failed_ops_frac':<36} {len(failed) / len(checks):14.6f} "
              f"ratio  {len(failed)} of {len(checks)} ops")
    result = {
        "correct": verdict(want is not None, failed),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
