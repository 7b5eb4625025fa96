"""The sweep event bus: a crash-consistent append-only NDJSON stream.

The scheduler (:mod:`repro.sweep.scheduler`) narrates every task/worker
lifecycle transition — started, retried, completed, quarantined,
beat-stale, killed, respawned — into one
append-only file so consumers (``python -m repro top``, the
:class:`~repro.sweep.stream.SweepWatch` partial-results API, post-mortem
tooling) can observe a sweep *while it runs* instead of waiting for the
final :class:`~repro.sim.resilience.ResilienceReport`.

The discipline is the journal's (:mod:`repro.sweep.journal`), minus
fsync-per-record — the bus is telemetry, never the source of truth:

* **Self-validating records.**  One JSON object per line carrying a
  monotonic ``seq``, the sweep's ``run_id``, an event ``kind``, a wall
  timestamp ``t``, and a ``sha`` over the record's canonical form, so a
  reader can reject any torn or corrupt line without trusting context::

      {"kind":"started","key":"bfs/FR","run_id":"ab12","seq":7,
       "slot":2,"t":1754700000.1,"sha":"..."}

* **Torn-tail tolerance, both sides.**  A writer that crashes mid-append
  leaves a partial trailing line; the next writer *truncates* back to
  the last newline-terminated record before appending (so the file never
  accumulates garbage), and readers judge only newline-terminated lines
  — an unterminated tail is "still being written", never yielded.

* **Zero overhead when disabled.**  :func:`sweep_bus` returns the
  module-level :data:`NULL_BUS` unless observability is enabled
  (``REPRO_OBS=1``) and the bus is not vetoed (``REPRO_OBS_BUS=0``);
  emitting into the null bus is one no-op method call, and the
  per-access simulation hot path never touches the bus at all —
  transitions happen per *task*, not per memory access.

The writer buffers through normal file I/O and flushes per record (one
``write`` syscall per event); it deliberately does **not** fsync — a
lost tail after a power cut costs telemetry, not results, and the
journal still holds every completed task durably.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.common import env
from repro.obs import core

#: Bus record format version carried by every record.
BUS_SCHEMA = 1

#: ``0``/``false`` disables the bus even with observability on; any
#: other non-empty value overrides the stream's path.
BUS_ENV_VAR = "REPRO_OBS_BUS"

#: Default stream file name inside the observability directory.
BUS_FILENAME = "bus.ndjson"


def _digest(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def seal(record: dict) -> bytes:
    """One canonical, self-validating bus line (newline-terminated)."""
    record = dict(record)
    record["sha"] = _digest(record)
    return (json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def open_record(line: bytes) -> dict | None:
    """Parse and validate one bus line; ``None`` when torn or corrupt."""
    try:
        record = json.loads(line.decode())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    sha = record.pop("sha", None)
    if sha != _digest(record):
        return None
    return record


def good_prefix_size(raw: bytes) -> int:
    """Byte length of the newline-terminated valid prefix of ``raw``.

    Everything past the first torn or corrupt line is untrustworthy —
    the same first-bad-byte rule the journal applies.
    """
    good = 0
    for line in raw.split(b"\n")[:-1]:       # only terminated lines
        if line and open_record(line) is None:
            break
        good += len(line) + 1
    return good


class EventBus:
    """Append-only writer for one sweep's event stream.

    ``seq`` is monotonic per writer; ``run_id`` ties records to their
    sweep so several runs may share one stream file.  Opening the bus
    truncates a torn tail left by a crashed predecessor.  Emission never
    raises on I/O trouble — telemetry must not take a sweep down — but
    flips the bus into a dead no-op state after the first failure.
    """

    def __init__(self, path: str | os.PathLike, run_id: str = "",
                 *, clock=time.time):
        self.path = Path(path)
        self.run_id = run_id
        self.seq = 0
        self.clock = clock
        self._handle = None
        self._dead = False

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            raw = self.path.read_bytes()
            good = good_prefix_size(raw)
            if good < len(raw):
                with open(self.path, "r+b") as handle:
                    handle.truncate(good)
        self._handle = open(self.path, "ab")
        return self._handle

    def emit(self, kind: str, **fields) -> dict | None:
        """Append one event; returns the sealed record (sans sha) or
        ``None`` once the bus is dead."""
        if self._dead:
            return None
        record = dict(fields)
        record.update(v=BUS_SCHEMA, kind=kind, run_id=self.run_id,
                      seq=self.seq, t=round(self.clock(), 3))
        try:
            handle = self._handle or self._open()
            handle.write(seal(record))
            handle.flush()
        except (OSError, TypeError, ValueError):
            # ValueError: closed handle; TypeError: a caller passed an
            # unserializable field and json.dumps refused it — drop the
            # event, never the sweep.
            self._dead = True
            self.close()
            return None
        self.seq += 1
        return record

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullBus:
    """Emission sink when the bus is disabled: every call is a no-op."""

    __slots__ = ()
    path = None
    run_id = ""

    def emit(self, kind: str, **fields) -> None:
        return None

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullBus":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_BUS = _NullBus()


def bus_path() -> Path | None:
    """The configured stream path, or ``None`` when the bus is off.

    ``REPRO_OBS_BUS`` falsy (``0``/``false``/...) disables the bus; a
    path-like value overrides the default ``<obs-dir>/bus.ndjson``.
    """
    raw = env.raw(BUS_ENV_VAR)
    if raw is not None and raw.strip() and not env.truthy_str(raw):
        return None
    if raw and raw.strip() not in ("1", "true", "yes", "on"):
        return Path(raw)
    return core.out_dir() / BUS_FILENAME


def sweep_bus(run_id: str = "") -> EventBus | _NullBus:
    """The bus a sweep should emit into: real when observability is on
    and the bus is not vetoed, :data:`NULL_BUS` otherwise."""
    if not core.ENABLED:
        return NULL_BUS
    path = bus_path()
    if path is None:
        return NULL_BUS
    return EventBus(path, run_id)


# -- read side ----------------------------------------------------------------


def read_events(path: str | os.PathLike, *, run_id: str | None = None
                ) -> list[dict]:
    """Every valid record currently in the stream (corrupt lines and an
    unterminated tail are skipped, exactly like the tailer)."""
    return list(tail_events(path, run_id=run_id, follow=False))


def tail_events(path: str | os.PathLike, *, run_id: str | None = None,
                follow: bool = True, poll: float = 0.05,
                stop=None, timeout: float | None = None,
                sleep=time.sleep, clock=time.monotonic):
    """Yield bus records as they are appended; never yields a torn line.

    Only newline-terminated lines are ever parsed — a partial trailing
    record (a writer mid-append, or a crash) is treated as "not written
    yet", so a consumer can never observe half an event.  Terminated
    lines that fail validation are skipped, not fatal.  With ``follow``
    the generator polls until ``stop()`` returns true (checked after
    each drain) or ``timeout`` seconds elapse; ``follow=False`` drains
    the current contents and returns.
    """
    path = Path(path)
    offset = 0
    buffer = b""
    deadline = clock() + timeout if timeout is not None else None
    while True:
        chunk = b""
        if path.exists():
            try:
                with open(path, "rb") as handle:
                    handle.seek(0, os.SEEK_END)
                    size = handle.tell()
                    if size < offset:
                        # Truncated (torn-tail repair by a new writer):
                        # start over rather than yielding spliced bytes.
                        offset = 0
                        buffer = b""
                    handle.seek(offset)
                    chunk = handle.read()
                    offset += len(chunk)
            except OSError:
                chunk = b""
        if chunk:
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                if not line:
                    continue
                record = open_record(line)
                if record is None:
                    continue
                if run_id is not None and record.get("run_id") != run_id:
                    continue
                yield record
        if not follow or (stop is not None and stop()):
            return
        if deadline is not None and clock() >= deadline:
            return
        sleep(poll)
