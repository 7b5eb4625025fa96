"""Sweep-service chaos: every scheduler fault site recovers bit-identically.

Two scales: 220-probe sweeps hammer the scheduler itself (kills, races,
stalls, torn journal appends) against an exactly-computable expectation,
and bench-profile pair sweeps prove the same invariants — torn-tail
resume, a parallel abort resumed serially — hold on the real
``run_pairs`` path with its cache and journal wiring.
"""

from __future__ import annotations

import pytest

from repro.common import faults
from repro.common.errors import InjectedFault
from repro.core.config import HardwareScale
from repro.sim.resilience import ResilienceReport, RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sweep.cli import merged_digest, run_probe_sweep
from repro.sweep.tasks import _execute_probe

PAIRS = [("bfs", "FR"), ("pagerank", "FR"), ("sssp", "FR")]
FAST_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)
PROBES = 220
PAIR_TIMEOUT = 30.0

#: One spec per parent- or worker-side scheduler fault site (the
#: journal's ``checkpoint_torn`` has its own crash-and-resume test).
SCHEDULER_SITES = [
    "worker_hang:0.02:2",
    "worker_exit:0.02:2",
    "worker_crash:0.05:4",
    "scheduler_stall:0.01:2",
]


@pytest.fixture(autouse=True)
def chaos_env(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.05")
    monkeypatch.setenv("REPRO_HANG_SECONDS", "2.0")


def bench_runner(**kw):
    kw.setdefault("retry", FAST_RETRY)
    return ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                            **kw)


@pytest.fixture(scope="module")
def probe_reference():
    """The fault-free expectation, computed without any scheduler."""
    results = {seed: _execute_probe({}, dict(seed=seed, spin=200))
               [0][0][1]["value"] for seed in range(PROBES)}
    return merged_digest(results)


@pytest.fixture(scope="module")
def bench_baseline(tmp_path_factory):
    """Fault-free serial reference: merged metrics + cold-cache misses."""
    faults.reset()
    runner = bench_runner(
        cache_dir=str(tmp_path_factory.mktemp("baseline-cache")))
    out = runner.run_pairs(pairs=PAIRS)
    return ({key: m.to_dict() for key, m in out.items()},
            runner.resilience.cache_misses)


class TestProbeScale:
    @pytest.mark.parametrize("spec", SCHEDULER_SITES,
                             ids=lambda s: s.split(":")[0])
    def test_fault_site_recovers_bit_identically(self, spec,
                                                 probe_reference):
        faults.configure(spec, seed=7)
        results, service = run_probe_sweep(PROBES, workers=4,
                                           pair_timeout=PAIR_TIMEOUT)
        assert len(results) == PROBES
        assert merged_digest(results) == probe_reference

    def test_torn_journal_append_crashes_then_resumes(self, tmp_path,
                                                      probe_reference):
        journal_path = tmp_path / "sweep.ckpt.jsonl"
        faults.configure("checkpoint_torn:0.05:1", seed=7)
        with pytest.raises(InjectedFault):
            run_probe_sweep(PROBES, workers=4, journal_path=journal_path,
                            pair_timeout=PAIR_TIMEOUT)
        faults.reset()
        report = ResilienceReport()
        results, _service = run_probe_sweep(PROBES, workers=4,
                                            journal_path=journal_path,
                                            report=report,
                                            pair_timeout=PAIR_TIMEOUT)
        assert merged_digest(results) == probe_reference
        assert report.torn_records == 1
        assert report.resumed_pairs >= 1


class TestRunnerTornCheckpoint:
    def test_resume_truncates_torn_tail_bit_identically(self, tmp_path,
                                                        bench_baseline):
        """Regression: resume must *detect* a torn trailing record, not
        trust the tail (the pre-journal checkpoint replayed whatever
        parsed, silently dropping the torn pair from the resumed set)."""
        metrics_want, _misses = bench_baseline
        # Seed 4 tears the *second* pair's append: one durable record
        # survives for resume, one torn tail must be truncated away.
        faults.configure("checkpoint_torn:0.5:1", seed=4)
        crashed = bench_runner(cache_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            crashed.run_pairs(pairs=PAIRS)
        faults.reset()
        fresh = bench_runner(cache_dir=str(tmp_path))
        out = fresh.run_pairs(pairs=PAIRS)
        assert {k: m.to_dict() for k, m in out.items()} == metrics_want
        assert fresh.resilience.torn_records == 1
        assert fresh.resilience.resumed_pairs == 1


class TestAbortAcrossWorkerCounts:
    def test_parallel_abort_resumes_serially_bit_identically(
            self, tmp_path, bench_baseline):
        """A ``workers=2`` sweep killed by ``sweep_abort`` after
        journaling some pairs resumes from that journal under
        ``workers=1``: the journal, not the worker count, carries the
        sweep, and both tiers merge to the same bits."""
        metrics_want, _misses = bench_baseline
        faults.configure("sweep_abort:1.0:1", seed=0)
        crashed = bench_runner(cache_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            crashed.run_pairs(pairs=PAIRS, workers=2)
        faults.reset()
        fresh = bench_runner(cache_dir=str(tmp_path))
        out = fresh.run_pairs(pairs=PAIRS, workers=1)
        assert {k: m.to_dict() for k, m in out.items()} == metrics_want
        assert fresh.resilience.resumed_pairs == 1
        assert fresh.resilience.serial_degradations == 0
