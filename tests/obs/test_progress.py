"""Heartbeat telemetry: format, throttling, and the log file."""

from __future__ import annotations

import io

import pytest

from repro.common.errors import ConfigError
from repro.obs.progress import (Heartbeat, heartbeat_interval,
                                heartbeat_max_bytes)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestHeartbeat:
    def test_line_format(self, tmp_path):
        clock = FakeClock()
        stream = io.StringIO()
        hb = Heartbeat(15, stream=stream, clock=clock, interval=0,
                       log_dir=tmp_path)
        clock.now += 10
        line = hb.update(5, cache_hits=42, cache_misses=7, retries=1,
                         faults=3)
        assert line == ("[obs] sweep 5/15 pairs | cache 42h/7m | retries 1"
                        " | faults 3 | elapsed 10s | eta 20s")
        assert stream.getvalue() == line + "\n"
        assert (tmp_path / "heartbeat.log").read_text() == line + "\n"

    def test_throttled_between_updates(self, tmp_path):
        clock = FakeClock()
        hb = Heartbeat(10, stream=io.StringIO(), clock=clock, interval=30,
                       log_dir=tmp_path)
        assert hb.update(1) is not None
        clock.now += 5
        assert hb.update(2) is None          # inside the interval
        clock.now += 30
        assert hb.update(3) is not None      # interval elapsed

    def test_final_update_always_emitted(self, tmp_path):
        clock = FakeClock()
        hb = Heartbeat(3, stream=io.StringIO(), clock=clock, interval=1e9,
                       log_dir=tmp_path)
        assert hb.update(1) is not None
        assert hb.update(2) is None
        line = hb.update(3)
        assert line is not None and "eta done" in line

    def test_no_log_written_when_disabled(self):
        # log_dir None and obs disabled: stderr only, no file side effects.
        hb = Heartbeat(2, stream=io.StringIO(), clock=FakeClock(),
                       interval=0)
        assert hb.update(1) is not None

    def test_scheduler_columns(self, tmp_path):
        clock = FakeClock()
        hb = Heartbeat(15, stream=io.StringIO(), clock=clock, interval=0,
                       log_dir=tmp_path)
        clock.now += 10
        line = hb.update(5, cache_hits=42, cache_misses=7, retries=1,
                         faults=3, queue_depth=9)
        assert line == ("[obs] sweep 5/15 pairs | cache 42h/7m | retries 1"
                        " | faults 3 | q 9 | elapsed 10s | eta 20s")

    def test_log_rotation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT_MAX_BYTES", "4096")
        hb = Heartbeat(10_000, stream=io.StringIO(), clock=FakeClock(),
                       interval=0, log_dir=tmp_path)
        log = tmp_path / "heartbeat.log"
        for done in range(1, 200):
            hb.update(done)
        assert log.exists() and (tmp_path / "heartbeat.log.1").exists()
        # Neither generation may exceed the cap by more than one line.
        assert log.stat().st_size < 4096 + 256
        assert (tmp_path / "heartbeat.log.1").stat().st_size < 4096 + 256

    def test_interval_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT", "2.5")
        assert heartbeat_interval() == 2.5
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT", "junk")
        # Library code raises ConfigError (never SystemExit); the CLI
        # boundary in repro.__main__ turns it into an exit code.
        with pytest.raises(ConfigError):
            heartbeat_interval()
        monkeypatch.delenv("REPRO_OBS_HEARTBEAT")
        assert heartbeat_interval() == 0.0

    def test_max_bytes_env(self, monkeypatch):
        assert heartbeat_max_bytes() == 1 << 20
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT_MAX_BYTES", "65536")
        assert heartbeat_max_bytes() == 65536
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT_MAX_BYTES", "1")
        assert heartbeat_max_bytes() == 4096      # floor
