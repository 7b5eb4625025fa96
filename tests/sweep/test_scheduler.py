"""SweepService scheduling semantics: FIFO dispatch, grace, respawns.

Probe tasks (a pure function of their seed) make every property
checkable against an exactly-computable expectation: any lost,
duplicated, or double-counted task changes the merged result.
"""

from __future__ import annotations

import time

import pytest

from repro.common import faults
from repro.sim.resilience import ResilienceReport, RetryPolicy
from repro.sweep.scheduler import SweepService, _Worker
from repro.sweep.tasks import TaskSpec, _execute_probe

FAST_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)


@pytest.fixture(autouse=True)
def fast_heartbeat(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.05")


def probe_tasks(count: int, spin: int = 200):
    return [TaskSpec(key=f"probe/{seed}", kind="probe",
                     payload=dict(seed=seed, spin=spin))
            for seed in range(count)]


def expected(count: int, spin: int = 200) -> dict:
    return {f"probe/{seed}": _execute_probe({}, dict(seed=seed,
                                                     spin=spin))[0]
            for seed in range(count)}


class Harness:
    """A SweepService wired to record exactly what the caller saw."""

    def __init__(self, tasks, workers, **kw):
        self.results: dict[str, list] = {}
        self.done_keys: list[str] = []
        self.absorbed: list[str] = []
        self.report = ResilienceReport()
        self.service = SweepService(
            tasks=tasks, runner_spec={}, report=self.report,
            on_done=self._on_done, serial_fn=self._serial,
            on_violation=lambda task, exc: None,
            absorb=self._absorb, workers=workers, retry=FAST_RETRY, **kw)

    def _on_done(self, task, entries):
        self.done_keys.append(task.key)
        self.results[task.key] = [[name, dict(payload)]
                                  for name, payload in entries]

    def _serial(self, task):
        entries, _report = _execute_probe({}, task.payload)
        return entries

    def _absorb(self, payload):
        self.absorbed.append(payload["key"])
        return payload["entries"]

    def run(self):
        self.service.run()
        return self.results


class TestScheduling:
    def test_parallel_matches_exact_expectation(self):
        harness = Harness(probe_tasks(80), workers=4)
        assert harness.run() == expected(80)
        # Every task completed exactly once at the caller's surface.
        assert sorted(harness.done_keys) == sorted(expected(80))
        assert len(harness.absorbed) == len(set(harness.absorbed))

    def test_single_worker_goes_straight_to_serial_tier(self):
        # One worker is the in-process tier from the start: every task
        # runs in submission order and none counts as a degradation.
        harness = Harness(probe_tasks(5), workers=1)
        assert harness.run() == expected(5)
        assert harness.done_keys == [f"probe/{seed}" for seed in range(5)]
        assert harness.absorbed == []
        assert harness.report.serial_degradations == 0
        assert harness.report.events() == 0


class _StubProcess:
    """An alive-until-killed process handle for white-box liveness tests."""

    def __init__(self):
        self.killed = False

    def is_alive(self):
        return not self.killed

    def kill(self):
        self.killed = True

    def join(self, timeout=None):
        pass


class TestStartupGrace:
    """A worker that has never beaten is *booting*, not hung: only the
    (much longer) startup grace may kill it.  Regression for the tight
    beat grace racing process startup — forking a large parent took
    longer than ``2 x heartbeat`` and every worker was killed at birth,
    collapsing whole sweeps to the serial tier."""

    def _service_with_busy_worker(self, monkeypatch, *, beat,
                                  spawned_ago):
        harness = Harness(probe_tasks(4), workers=2)
        svc = harness.service
        monkeypatch.setattr(svc, "_spawn", lambda worker: None)
        svc.beats = [0.0, 0.0]
        svc.slots = [_Worker(slot=0), _Worker(slot=1)]
        now = time.monotonic()
        for worker in svc.slots:
            worker.process = _StubProcess()
            worker.spawned = now - spawned_ago
        busy = svc.slots[0]
        busy.busy = "probe/0"
        busy.started = now - spawned_ago
        svc.beats[0] = beat
        svc.pending.remove("probe/0")
        svc.attempts["probe/0"] = 1
        return svc

    def test_booting_worker_outlives_the_beat_grace(self, monkeypatch):
        svc = self._service_with_busy_worker(monkeypatch, beat=0.0,
                                             spawned_ago=1.0)
        assert 1.0 > svc.grace          # far past the tight beat grace
        svc._check_liveness()
        assert not svc.slots[0].dead
        assert svc.report.hung_workers == 0
        assert svc.report.pair_timeouts == 0

    def test_boot_wedge_still_killed_past_startup_grace(self,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_STARTUP_GRACE", "0.2")
        svc = self._service_with_busy_worker(monkeypatch, beat=0.0,
                                             spawned_ago=1.0)
        svc._check_liveness()
        assert svc.slots[0].dead
        assert svc.report.hung_workers == 1

    def test_tight_grace_applies_after_first_beat(self, monkeypatch):
        svc = self._service_with_busy_worker(
            monkeypatch, beat=time.monotonic() - 1.0, spawned_ago=1.0)
        svc._check_liveness()
        assert svc.slots[0].dead
        assert svc.report.hung_workers == 1


class TestRespawnBudget:
    def test_exhausted_respawn_budget_degrades_to_serial(self):
        # Every dispatch kills its worker: the pool spends its two
        # respawns, every slot ends dead, and the in-process tier (which
        # cannot break) finishes the whole sweep bit-identically.
        faults.configure("worker_exit:1.0", seed=0)
        harness = Harness(probe_tasks(8), workers=2, max_pool_rebuilds=2)
        assert harness.run() == expected(8)
        assert harness.report.pool_rebuilds == 2
        assert harness.report.serial_degradations == 8

    def test_respawned_worker_resumes_fifo_dispatch(self):
        # Seed 1 kills exactly two attempts and no task runs out of
        # attempts: two respawns from the budget, and the workers finish
        # everything — nothing reaches the in-process tier.
        faults.configure("worker_exit:0.3", seed=1)
        harness = Harness(probe_tasks(6), workers=2, max_pool_rebuilds=8)
        assert harness.run() == expected(6)
        assert harness.report.pool_rebuilds >= 2
        assert harness.report.serial_degradations == 0
        assert sorted(harness.absorbed) == sorted(expected(6))
