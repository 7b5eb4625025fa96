"""The supervised sweep service: a FIFO dispatcher under a liveness supervisor.

Every experiment matrix the repo runs goes through :class:`SweepService`,
whatever the worker count.  The parent owns the whole schedule:

**FIFO dispatch.**  ``N`` worker slots, each a long-lived process with a
private task/result queue pair, run one task at a time; an idle slot
takes the next pending task in submission order.  Killing a worker
mid-``put`` can corrupt only queues that die with it.

**Liveness supervision.**  Workers beat a timestamp into a shared slot
array (:class:`repro.obs.progress.Pulse`); the supervisor declares a
worker hung when its slot is staler than ``2 x REPRO_SWEEP_HEARTBEAT``
and SIGKILLs it immediately — detection in a couple of heartbeat
intervals (sub-second by default), not the full ``REPRO_PAIR_TIMEOUT``.
Until a worker's *first* beat lands the supervisor applies the longer
``REPRO_SWEEP_STARTUP_GRACE`` instead, so a slow process boot (forking
a large parent) is never mistaken for a hang.  A task running past the
per-pair deadline is killed the same way.

**Retries and respawns.**  A failed or killed attempt is retried under
the caller's :class:`~repro.sim.resilience.RetryPolicy`; a dead worker
is respawned while the pool's ``max_pool_rebuilds`` budget lasts.  A
task out of attempts, or left over when every worker is dead, goes to
the in-process tier.

**In-process tier.**  The tier of last resort runs tasks in the parent,
in submission order, through the caller's ``serial_fn``: no processes,
no queues, nothing left to break.  With one worker (or one task) it is
the only tier, so a serial sweep shares this code path and counts no
degradations.

Results merge exactly as before: the caller's ``on_done`` journals each
completion and the final merge iterates the task list in submission
order, so however the execution went, the merged output is
bit-identical to a fault-free serial run.
"""

from __future__ import annotations

import collections
import hashlib
import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field

from repro.common import env, faults
from repro.common.errors import PageFault, ProtectionFault, TransientError
from repro.obs import bus as obs_bus
from repro.obs import core as obs_core
from repro.obs import trace as obs_trace
from repro.sim.resilience import ResilienceReport, RetryPolicy
from repro.sweep.tasks import _sweep_worker_main

#: Environment knobs (documented in docs/configuration.md).
HEARTBEAT_ENV_VAR = "REPRO_SWEEP_HEARTBEAT"
STARTUP_GRACE_ENV_VAR = "REPRO_SWEEP_STARTUP_GRACE"

#: A worker is hung when its beat is staler than this many intervals.
LIVENESS_GRACE_INTERVALS = 2.0


@dataclass
class _Worker:
    """Parent-side state for one worker slot."""

    slot: int
    process: object = None
    task_q: object = None
    result_q: object = None
    busy: str | None = None          # key of the task in flight
    started: float = 0.0             # dispatch time of the in-flight task
    spawned: float = 0.0             # process start time (boot grace)
    deadline: float | None = None    # wall-clock budget expiry
    dead: bool = False
    trace_started: float = 0.0       # dispatch time on the trace clock


@dataclass
class SweepService:
    """One supervised execution of a task set across worker slots.

    The caller supplies the policy surface — what to do on completion
    (``on_done``, which typically journals and may raise, e.g. the
    ``sweep_abort`` chaos hook), how to run a task in-parent for the
    in-process tier (``serial_fn``), how to contain a deterministic
    guest violation (``on_violation``), and how to fold a worker
    payload's counters/observations into the sweep (``absorb``).  The
    service owns dispatch, liveness, retries and respawns, and reports
    everything it did through the shared
    :class:`~repro.sim.resilience.ResilienceReport`.
    """

    tasks: list
    runner_spec: dict
    report: ResilienceReport
    on_done: object                  # (task, entries) -> None
    serial_fn: object                # (task) -> entries
    on_violation: object             # (task, exc) -> None
    absorb: object                   # (payload) -> entries
    workers: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    pair_timeout: float | None = None
    max_pool_rebuilds: int = 2
    sleep: object = time.sleep

    def __post_init__(self):
        self.heartbeat = max(
            env.floating(HEARTBEAT_ENV_VAR, 0.25), 0.01)
        self.grace = LIVENESS_GRACE_INTERVALS * self.heartbeat
        # Until a worker's *first* beat lands, the tight beat grace
        # would race process startup: forking a large parent can take
        # far longer than 2 x heartbeat, and killing a worker that is
        # still booting collapses the sweep to the in-process tier for
        # no reason.
        self.startup_grace = max(
            env.floating(STARTUP_GRACE_ENV_VAR, 10.0), self.grace)
        self.by_key = {task.key: task for task in self.tasks}
        self.pending = collections.deque(task.key for task in self.tasks)
        self.done: set[str] = set()          # completed or violated
        self.attempts: dict[str, int] = {}   # dispatches handed to a worker
        self.rebuilds = 0                    # respawns spent from budget
        self.slots: list[_Worker] = []
        self.detection_latencies: list[float] = []
        self._ctx = multiprocessing.get_context("fork")
        # The streaming telemetry bus (obs/bus.py).  Content-derived
        # run id, so re-running the same task set is attributable; the
        # bus is the NULL_BUS unless observability is on, making every
        # _emit below one no-op method call in production sweeps.
        self.run_id = hashlib.sha256(
            "\n".join(sorted(self.by_key)).encode()).hexdigest()[:12]
        self.bus = obs_bus.sweep_bus(self.run_id)
        self._bus_on = self.bus is not obs_bus.NULL_BUS
        self._queued_at: dict[str, float] = {}
        self._tick_every = max(self.heartbeat, 0.25)
        self._last_tick = 0.0

    # -- telemetry ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        """Narrate one lifecycle transition onto the event bus."""
        self.bus.emit(kind, **fields)

    def queue_depth(self) -> int:
        """Tasks waiting for dispatch (the live heartbeat's ``q``)."""
        return len(self.pending)

    # -- public entry ---------------------------------------------------------

    def run(self) -> None:
        """Execute every task; raises only what the caller's hooks raise
        (plus ``KeyboardInterrupt``).  On normal return every task is
        done or violated."""
        nslots = min(self.workers, len(self.tasks))
        supervised = nslots > 1
        self._emit("sweep-begin", tasks=len(self.tasks),
                   workers=self.workers, slots=nslots if supervised else 0)
        try:
            if supervised:
                self._run_supervised(nslots)
            self._run_in_process(degraded=supervised)
            self._emit("sweep-end", done=len(self.done))
        finally:
            self.bus.close()

    # -- supervised (parallel) tier -------------------------------------------

    def _run_supervised(self, nslots: int) -> None:
        # lock=False: beats must stay readable after a worker is
        # SIGKILLed — a lock the victim died holding would wedge the
        # supervisor.  Torn reads of a double are harmless here (any
        # plausible value is "recent enough" for liveness).
        self.beats = self._ctx.Array("d", nslots, lock=False)
        self.slots = [_Worker(slot=i) for i in range(nslots)]
        if obs_core.ENABLED:
            now = obs_trace.now()
            self._queued_at = {key: now for key in self.pending}
        for worker in self.slots:
            self._spawn(worker)
        try:
            self._supervise()
        except BaseException:
            self._shutdown(graceful=False)
            raise
        self._shutdown(graceful=True)

    def _spawn(self, worker: _Worker) -> None:
        """(Re)start one worker slot with fresh private queues."""
        worker.task_q = self._ctx.Queue()
        worker.result_q = self._ctx.Queue()
        worker.busy = None
        worker.deadline = None
        worker.dead = False
        # 0.0 = "no beat yet": liveness applies the startup grace until
        # the worker's Pulse stamps its first real (nonzero) timestamp.
        self.beats[worker.slot] = 0.0
        worker.spawned = time.monotonic()
        spec, seed = faults.active_spec()
        worker.process = self._ctx.Process(
            target=_sweep_worker_main, name=f"sweep-worker-{worker.slot}",
            args=(worker.slot, worker.task_q, worker.result_q, self.beats,
                  self.heartbeat, self.runner_spec, spec, seed),
            daemon=True)
        worker.process.start()

    def _supervise(self) -> None:
        """The supervisor loop: dispatch, drain, check liveness — until
        no work is pending or in flight, or every worker is dead."""
        tick = self.heartbeat / 2.0
        while True:
            if faults.should_fire("scheduler_stall"):
                # A wedged scheduler must not cost correctness: workers
                # keep beating and computing; on wake the supervisor
                # sees fresh beats (no spurious kills) and drains
                # everything that completed meanwhile.
                self.report.scheduler_stalls += 1
                self._emit("stalled", grace=self.grace)
                self.sleep(self.grace)
            self._tick()
            live = [w for w in self.slots if not w.dead]
            if not live:
                break
            for worker in live:
                if worker.busy is None and self.pending:
                    self._dispatch(worker)
            progressed = self._drain_results()
            self._check_liveness()
            if not self.pending and all(w.busy is None
                                        for w in self.slots):
                break
            if not progressed:
                self.sleep(tick)

    def _tick(self) -> None:
        """Rate-limited scheduler snapshot for live dashboards.

        Gated on the bus being real so a production (unobserved) sweep
        never pays for it.
        """
        if not self._bus_on:
            return
        now = time.monotonic()
        if now - self._last_tick < self._tick_every:
            return
        self._last_tick = now
        self._emit("tick", pending=len(self.pending), done=len(self.done),
                   idle=sum(1 for w in self.slots
                            if not w.dead and w.busy is None),
                   dead=sum(1 for w in self.slots if w.dead))

    def _dispatch(self, worker: _Worker) -> None:
        """Hand the oldest pending task to an idle worker."""
        key = self.pending.popleft()
        task = self.by_key[key]
        attempt = self.attempts.get(key, 0) + 1
        try:
            worker.task_q.put((key, task.kind, task.payload, attempt),
                              timeout=self.heartbeat)
        except (queue_mod.Full, ValueError, OSError):
            # Slot's queue is wedged or torn down: treat as a dead
            # worker; the task keeps its place at the head of the queue.
            self.pending.appendleft(key)
            self._worker_died(worker, hung=True)
            return
        self.attempts[key] = attempt
        worker.busy = key
        worker.started = time.monotonic()
        worker.deadline = (worker.started + self.pair_timeout
                           if self.pair_timeout is not None else None)
        worker.trace_started = obs_trace.now() if obs_core.ENABLED else 0.0
        self._emit("started", key=key, slot=worker.slot, attempt=attempt)

    def _requeue(self, key: str, *, front: bool) -> None:
        """Put a task back on the pending queue for another attempt."""
        if front:
            self.pending.appendleft(key)
        else:
            self.pending.append(key)
        if obs_core.ENABLED:
            self._queued_at[key] = obs_trace.now()

    # -- results --------------------------------------------------------------

    def _drain_results(self) -> bool:
        progressed = False
        for worker in self.slots:
            if worker.dead or worker.result_q is None:
                continue
            while True:
                try:
                    payload = worker.result_q.get_nowait()
                except (queue_mod.Empty, EOFError, OSError):
                    break
                progressed = True
                self._complete(worker, payload)
        return progressed

    def _complete(self, worker: _Worker, payload: dict) -> None:
        key = payload["key"]
        duration = time.monotonic() - worker.started
        worker.busy = None
        worker.deadline = None
        task = self.by_key[key]
        error = payload.get("error")
        if isinstance(error, (PageFault, ProtectionFault)):
            self.done.add(key)
            self._emit("quarantined", key=key, slot=worker.slot,
                       error=type(error).__name__)
            self.on_violation(task, error)
            return
        if error is not None:
            self._emit("failed", key=key, slot=worker.slot,
                       error=type(error).__name__)
            self._task_failed(key, transient=isinstance(error,
                                                        TransientError))
            return
        self.done.add(key)
        if obs_core.ENABLED:
            self._stitch(worker, key, payload.get("attempt"))
        entries = self.absorb(payload)
        self._emit("completed", key=key, slot=worker.slot,
                   attempt=payload.get("attempt"),
                   duration=round(duration, 4))
        self.on_done(task, entries)

    def _stitch(self, worker: _Worker, key: str, attempt) -> None:
        """Emit the scheduler-side half of the stitched cross-worker
        trace: queue-time and dispatch spans on the parent track, plus
        the flow *start* whose matching finish the worker recorded
        inside its ``task`` span — Perfetto draws the arrow between
        them, so one trace shows where sweep wall-clock actually went.
        """
        end = obs_trace.now()
        queued_at = self._queued_at.pop(key, None)
        started = worker.trace_started
        if queued_at is not None and queued_at <= started:
            obs_trace.complete("task-queued", "sched", queued_at, started,
                               key=key, slot=worker.slot)
        obs_trace.complete("task-run", "sched", started, end, key=key,
                           slot=worker.slot, attempt=attempt)
        obs_trace.flow("s", "task-flow", "sched",
                       obs_trace.flow_id(f"{key}#a{attempt}"), ts=started)

    def _task_failed(self, key: str, *, transient: bool) -> None:
        """One attempt failed; retry with backoff or leave it for the
        in-process tier."""
        if transient:
            self.report.worker_crashes += 1
        attempt = self.attempts[key]
        if attempt < self.retry.max_attempts:
            if transient:
                self.report.retries += 1
                delay = self.retry.delay(attempt, tag=key)
                if delay > 0:
                    self.sleep(delay)
            self._emit("retried", key=key, attempt=attempt)
            self._requeue(key, front=False)
        else:
            self._emit("shelved", key=key, reason="retries-exhausted")

    # -- liveness and respawn -------------------------------------------------

    def _check_liveness(self) -> None:
        """Kill workers whose heartbeat went stale or deadline passed.

        A stale beat means the *process* is wedged (or its telemetry
        died — indistinguishable from outside, and treated the same:
        kill and requeue; the victim's queues die with it, so a result
        it was about to ship can never arrive twice).  Detection latency
        is bounded by the grace period plus one poll tick — a couple of
        heartbeat intervals — independent of the much larger pair
        timeout.
        """
        now = time.monotonic()
        for worker in self.slots:
            if worker.dead:
                continue
            alive = worker.process is not None and worker.process.is_alive()
            if worker.busy is None:
                if not alive:
                    self._worker_died(worker, hung=False)
                continue
            beat = self.beats[worker.slot]
            if beat:
                hung = now - beat > self.grace
            else:
                # Still booting (never beat): only the generous startup
                # grace applies — a slow fork is not a hung worker.
                hung = now - worker.spawned > self.startup_grace
            timed_out = worker.deadline is not None and now > worker.deadline
            if not alive:
                self._worker_died(worker, hung=False)
            elif hung or timed_out:
                latency = now - worker.started
                self.detection_latencies.append(latency)
                if obs_core.ENABLED:
                    obs_core.histogram("sweep.hang_detection_ms").observe(
                        int(latency * 1000))
                self.report.pair_timeouts += 1
                if hung:
                    self.report.hung_workers += 1
                self._emit("beat-stale", key=worker.busy, slot=worker.slot,
                           hung=hung, latency=round(latency, 3))
                self._worker_died(worker, hung=True)

    def _worker_died(self, worker: _Worker, *, hung: bool) -> None:
        """Contain one worker death: kill, requeue its task, respawn
        while the pool's budget lasts."""
        key = worker.busy
        worker.busy = None
        worker.deadline = None
        worker.dead = True
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        self._emit("killed", key=key, slot=worker.slot, hung=hung)
        self._discard_queues(worker)
        if key is not None:
            if not hung:
                self.report.worker_crashes += 1
            attempt = self.attempts[key]
            if attempt < self.retry.max_attempts:
                self._emit("retried", key=key, attempt=attempt)
                self._requeue(key, front=True)
            else:
                self._emit("shelved", key=key, reason="retries-exhausted")
        if self.rebuilds < self.max_pool_rebuilds:
            self.rebuilds += 1
            self.report.pool_rebuilds += 1
            self._emit("respawned", slot=worker.slot, rebuilds=self.rebuilds)
            self._spawn(worker)

    def _discard_queues(self, worker: _Worker) -> None:
        """Drop a dead worker's private queues (possibly mid-``put``
        corrupt — which is exactly why they are private)."""
        for q in (worker.task_q, worker.result_q):
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        worker.task_q = None
        worker.result_q = None

    def _shutdown(self, *, graceful: bool) -> None:
        """Stop every worker; never blocks unboundedly.

        Graceful shutdown sends sentinels and joins briefly; either way
        stragglers are killed — an abandoned sweep's in-flight work is
        worthless, and the journal already holds everything completed.
        """
        for worker in self.slots:
            if worker.dead or worker.process is None:
                continue
            if graceful and worker.task_q is not None:
                try:
                    worker.task_q.put(None, timeout=0.5)
                except (queue_mod.Full, ValueError, OSError):
                    pass
        for worker in self.slots:
            process = worker.process
            if process is None:
                continue
            if graceful:
                process.join(timeout=2.0 if not worker.dead else 0.1)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            self._discard_queues(worker)
            worker.process = None

    # -- in-process tier ------------------------------------------------------

    def _run_in_process(self, *, degraded: bool) -> None:
        """Finish every unfinished task in-process, in submission order.

        The tier of last resort: no processes, no queues, nothing left
        to break.  After a supervised tier (``degraded``) each task it
        runs counts one ``serial_degradation`` — the signal that the
        workers gave up on it; a one-worker sweep runs here from the
        start and counts none.
        """
        self.pending = collections.deque(
            task.key for task in self.tasks if task.key not in self.done)
        while self.pending:
            key = self.pending.popleft()
            task = self.by_key[key]
            if degraded:
                self.report.serial_degradations += 1
                self._emit("serial", key=key)
            else:
                self._emit("started", key=key, slot=None, attempt=1)
            try:
                entries = self.serial_fn(task)
            except (PageFault, ProtectionFault) as exc:
                self.done.add(key)
                self._emit("quarantined", key=key, slot=None,
                           error=type(exc).__name__)
                self.on_violation(task, exc)
                continue
            self.done.add(key)
            self._emit("completed", key=key, slot=None, attempt=None,
                       duration=None)
            self.on_done(task, entries)
