"""The benchmark's four workloads, driven through the program's public API.

Each workload is a closed loop: the benchmark process issues one op,
waits for it to finish, then issues the next.  A *rep* is one pass over
a workload's ops (one cold figure regeneration of its pairs, one pass
over its fault modes, one whole sweep); the runner repeats reps until
its time budget is spent.

Every op's simulated output is compared with the expected values for
the run's seed (see ``expected.py``); an op that raises, whose pair is
quarantined, or whose output differs in any field counts as failed.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.accel.algorithms import prop_bytes_for
from repro.core.config import demand_faulting_config
from repro.graphs.datasets import WORKLOAD_PAIRS
from repro.sim.runner import ExperimentRunner
from repro.sim.system import HeterogeneousSystem, SystemParams

import spans

#: Sweep workers for ``sweep_bench``: ``nproc`` on the 2-core reference host.
SWEEP_WORKERS = 2

#: Full-profile pairs of the figure workloads: the smallest social and
#: bipartite graphs of the full profile (5.1M and 7.9M accesses).  The
#: largest pairs (bfs/S24, cf/Bip2) take ~26 s a rep and ~4.6 GB, which
#: leaves no room for repeated reps within a run's budget.
FIG8_PAIRS = (("bfs", "FR"), ("cf", "NF"))

#: Full-profile pairs replayed under both fault modes.
FAULT_PAIRS = (("bfs", "FR"), ("sssp", "FR"), ("pagerank", "FR"))

#: Fault modes, as in the Section 4.3 fault-model study: demand-faulting
#: conv_4k, and dvm_pe after the OS reclaimed half the heap.
FAULT_MODES = ("demand", "swap")
SWAP_FRACTION = 0.5


@dataclass
class OpCheck:
    """One op's verdict against the expected values."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Rep:
    """One pass over a workload's ops."""

    wall: float                       # timed region, host seconds
    cpu: float                        # user + system, self and children
    accesses: int                     # simulated accesses timed
    latencies: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    workers: int = 0                  # sweep workers, 0 for in-process reps
    mechanisms: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timing_dict(timing) -> dict:
    """Every ``TimingStats`` field, energy as its event counts."""
    out = {f.name: getattr(timing, f.name)
           for f in dataclasses.fields(timing) if f.name != "energy"}
    out["energy_events"] = dict(sorted(timing.energy.events.items()))
    return out


#: ``Workload.want`` for an op that the run's expected file lacks.
MISSING = object()


def compare(name: str, got, want) -> OpCheck:
    """Field-by-field comparison; ``want is None`` means unchecked, and
    an op missing from an existing expected file fails."""
    if want is None:
        return OpCheck(name, True, "unchecked")
    if want is MISSING:
        return OpCheck(name, False, "no expected value for this op")
    if got == want:
        return OpCheck(name, True)
    return OpCheck(name, False, "differs: " + _first_difference(got, want))


def _first_difference(got, want, path: str = "") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            if got.get(key) != want.get(key):
                return _first_difference(got.get(key), want.get(key),
                                         f"{path}/{key}")
    return f"{path or '/'} got {got!r} expected {want!r}"


def fault_system(configs: dict, params: SystemParams, prepared,
                 mode: str) -> HeterogeneousSystem:
    """A fresh system for one fault mode, with the pair's graph placed."""
    if mode == "demand":
        config = demand_faulting_config(configs["conv_4k"])
    else:
        config = configs["dvm_pe"]
    system = HeterogeneousSystem(config, params)
    system.load_graph(prepared.graph,
                      prop_bytes=prop_bytes_for(prepared.workload))
    if mode == "swap":
        system.apply_reclaim_pressure(SWAP_FRACTION)
    return system


def raised(exc: Exception) -> str:
    """An op's exception as its failure detail; traceback to stderr."""
    traceback.print_exception(exc, file=sys.stderr)
    return f"raised {exc!r}"


def pair_name(pair) -> str:
    return f"{pair[0]}/{pair[1]}"


class Workload:
    """Set-up once, then reps until the budget is spent."""

    name = ""
    #: Reps every run makes, whatever its time budget.
    min_reps = 2

    def __init__(self, seed: int, work_dir: Path, expected: dict | None):
        self.seed = seed
        self.params = SystemParams(seed=seed)
        self.work_dir = work_dir
        self.expected = expected

    def want(self, section: str, key: str):
        """The op's expected output; ``None`` when the seed is unchecked,
        ``MISSING`` when the seed's file has no entry for the op."""
        if self.expected is None:
            return None
        return self.expected.get(section, {}).get(key, MISSING)

    def setup(self) -> None:
        """Work done once before the first timed op."""

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up built."""


class _Fig8(Workload):
    """Both figure pairs through all 7 configs, one op per pair."""

    def runner(self) -> ExperimentRunner:
        raise NotImplementedError

    def rep(self) -> Rep:
        runner = self.runner()
        rep = Rep(wall=0.0, cpu=0.0, accesses=0)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for pair in FIG8_PAIRS:
            op_start = time.perf_counter()
            try:
                with spans.op_span(pair_name(pair)):
                    out = runner.run_pairs(pairs=[pair])
                error = None
            except Exception as exc:  # an op that raises is a failed op
                out, error = {}, raised(exc)
            rep.latencies.append(time.perf_counter() - op_start)
            got = {key[2]: m.to_dict() for key, m in out.items()}
            rep.accesses += sum(m.accesses for m in out.values())
            rep.checks.append(self._check(pair, got, error, runner))
        rep.wall = time.perf_counter() - start
        rep.cpu = cpu_seconds() - cpu0
        return rep

    def _check(self, pair, got, error, runner) -> OpCheck:
        name = pair_name(pair)
        if error is not None:
            return OpCheck(name, False, error)
        if runner.resilience.guest_violations or len(got) != 7:
            return OpCheck(name, False, "quarantined")
        return compare(name, got, self.want("fig8", name))


class Fig8Cold(_Fig8):
    name = "fig8_cold"

    def runner(self) -> ExperimentRunner:
        # A fresh in-process runner with no cache dir: what a cold
        # ``python -m repro figure8`` pays per pair.
        return ExperimentRunner(profile="full", engine="fast",
                                params=self.params)


class Fig8Rerun(_Fig8):
    name = "fig8_rerun"

    def setup(self) -> None:
        # The populate pass publishes each pair's trace (memmapped column
        # store + npz) and metrics into the cache dir; its write cost is
        # part of set-up.
        self.cache_dir = self.work_dir / "fig8-cache"
        self.runner().run_pairs(pairs=list(FIG8_PAIRS))

    def runner(self) -> ExperimentRunner:
        return ExperimentRunner(profile="full", engine="fast",
                                params=self.params,
                                cache_dir=str(self.cache_dir))

    def rep(self) -> Rep:
        for path in self.cache_dir.rglob("metrics-*.json"):
            path.unlink()
        return super().rep()


class FaultsReplay(Workload):
    name = "faults_replay"
    # 36 ops or more a run.  The six ops of a rep differ in length, so
    # sorted latencies form six clusters; from 6 to 10 reps the tail
    # rank (ten ops from the top) always lies in the fifth cluster, so
    # the tail does not jump between op kinds with the rep count.
    min_reps = 6

    def setup(self) -> None:
        runner = ExperimentRunner(profile="full", engine="fast",
                                  params=self.params)
        self.configs = runner.configs()
        self.prepared = {}
        self.batches = {}
        for pair in FAULT_PAIRS:
            self.prepared[pair] = runner.prepare(*pair)
            self.batches[pair] = {}
            # Warm-up: fills the pair's shared page-run batch, which the
            # figure sweep shares across configs the same way.
            for mode in FAULT_MODES:
                self._system(pair, mode).run_trace(
                    self.prepared[pair].result.trace, engine="fast",
                    batch_cache=self.batches[pair])

    def _system(self, pair, mode) -> HeterogeneousSystem:
        return fault_system(self.configs, self.params, self.prepared[pair],
                            mode)

    def rep(self) -> Rep:
        rep = Rep(wall=0.0, cpu=0.0, accesses=0)
        for pair in FAULT_PAIRS:
            trace = self.prepared[pair].result.trace
            for mode in FAULT_MODES:
                name = f"{pair_name(pair)}/{mode}"
                # Each op runs on a fresh system built outside the timer.
                system = self._system(pair, mode)
                cpu0 = cpu_seconds()
                start = time.perf_counter()
                try:
                    with spans.op_span(name):
                        timing = system.run_trace(
                            trace, engine="fast",
                            batch_cache=self.batches[pair])
                    error = None
                except Exception as exc:  # an op that raises is a failed op
                    timing, error = None, raised(exc)
                seconds = time.perf_counter() - start
                rep.cpu += cpu_seconds() - cpu0
                rep.wall += seconds
                rep.latencies.append(seconds)
                rep.accesses += len(trace)
                if error is not None:
                    rep.checks.append(OpCheck(name, False, error))
                else:
                    rep.checks.append(compare(name, timing_dict(timing),
                                              self.want("faults", name)))
        return rep

    def close(self) -> None:
        self.prepared.clear()
        self.batches.clear()


#: Resilience counters a sweep_bench rep reports: how often each sweep
#: mechanism fired.
MECHANISMS = ("steals", "hedges", "retries", "pool_rebuilds",
              "duplicate_results", "hung_workers", "serial_degradations")


class SweepBench(Workload):
    name = "sweep_bench"

    def setup(self) -> None:
        self.reps = 0

    def rep(self) -> Rep:
        self.reps += 1
        cache_dir = self.work_dir / f"sweep-{self.reps}"
        runner = ExperimentRunner(profile="bench", engine="fast",
                                  params=self.params,
                                  cache_dir=str(cache_dir))
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with spans.op_span("sweep"):
                out = runner.run_pairs(workers=SWEEP_WORKERS)
            error = None
        except Exception as exc:  # a failed sweep fails every op in it
            out, error = {}, raised(exc)
        wall = time.perf_counter() - start
        rep = Rep(wall=wall, cpu=cpu_seconds() - cpu0,
                  accesses=sum(m.accesses for m in out.values()))
        # The client's op is the sweep call; the pairs run inside the
        # workers, where the traced run times each task (``sweep.task``).
        rep.latencies = [wall]
        rep.workers = SWEEP_WORKERS
        rep.mechanisms = {name: getattr(runner.resilience, name)
                          for name in MECHANISMS}
        quarantined = {(v["workload"], v["dataset"])
                       for v in runner.resilience.violations}
        for pair in WORKLOAD_PAIRS:
            name = pair_name(pair)
            got = {key[2]: m.to_dict() for key, m in out.items()
                   if key[:2] == pair}
            if error is not None:
                rep.checks.append(OpCheck(name, False, error))
            elif pair in quarantined or len(got) != 7:
                rep.checks.append(OpCheck(name, False, "quarantined"))
            else:
                rep.checks.append(compare(name, got,
                                          self.want("sweep", name)))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return rep


WORKLOADS = {cls.name: cls
             for cls in (Fig8Cold, Fig8Rerun, FaultsReplay, SweepBench)}
