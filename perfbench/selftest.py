"""Self-test of the benchmark itself, at the bench profile, in seconds.

    python3 perfbench/selftest.py

Checks that:

* a perturbed expected value makes exactly that op fail, and so does an
  op missing from an existing expected file;
* every ``--seed`` maps to an ASLR seed with committed expected values,
  and a run without them is reported as not correct, never as passed;
* an untraced rep leaves every wrappable function identical to the
  original, and so does a traced rep once the wrappers are removed;
* span self times are non-negative, and self time plus child time
  equals the duration of every span;
* the committed seed-0 figure pairs match the rendered Figure 8;
* ``BENCHMARK.json`` names exactly the metrics the benchmark prints.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import expected  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SweepBench  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)
    print(f"ok: {message}")


def perturbed_expected_fails(work: Path, want: dict) -> None:
    bad = copy.deepcopy(want)
    bad["sweep"]["bfs/FR"]["dvm_pe"]["cycles"] += 1.0
    del bad["sweep"]["cf/NF"]
    workload = SweepBench(0, work, bad)
    workload.setup()
    checks = workload.rep().checks
    failed = sorted(c.name for c in checks if not c.ok)
    check(failed == ["bfs/FR", "cf/NF"],
          "a perturbed expected value and a missing one fail exactly "
          f"their ops ({failed})")


def every_seed_is_checked() -> None:
    pool = {expected.aslr_seed(seed)
            for seed in (0, 11, 31, 32, 1324701821, 2**63 - 1, -5)}
    check(all(expected.path_for(seed).is_file() for seed in pool)
          and all(expected.path_for(seed).is_file()
                  for seed in range(expected.POOL)),
          "every --seed maps to an ASLR seed with expected values")
    check(run.verdict(checked=False, failed=[]) is False
          and run.verdict(checked=True, failed=[]) is True
          and run.verdict(checked=True, failed=["op"]) is False,
          "an unchecked run reports correct as false, never as passed")


def wrappers_restored(work: Path, want: dict) -> list:
    before = spans.snapshot_targets()
    workload = SweepBench(0, work, want)
    workload.setup()
    untraced = workload.rep()
    check(all(c.ok for c in untraced.checks), "untraced rep matches seed 0")
    check(spans.snapshot_targets() == before,
          "an untraced rep leaves every wrapped function identical")
    recorder = spans.Recorder(spill_dir=work / "spans")
    recorder.spill_dir.mkdir()
    installed = spans.install(recorder)
    try:
        check(spans.snapshot_targets() != before, "install wraps the targets")
        traced = workload.rep()
    finally:
        spans.uninstall(installed)
    recorder.absorb_spills()
    check(spans.snapshot_targets() == before,
          "uninstall restores every wrapped function")
    check(all(c.ok for c in traced.checks), "traced rep matches seed 0")
    return recorder.spans


def self_time_consistent(recorded: list) -> None:
    names = {span.name for span in recorded}
    check("sweep.task" in names and "sim.fastpath.run_batch" in names,
          "worker spans were merged into the parent's record")
    own = spans.self_times(recorded)
    child = spans.child_times(recorded)
    check(min(own) >= 0.0, "every span's self time is non-negative")
    worst = max(abs(o + c - (s.end - s.start))
                for o, c, s in zip(own, child, recorded))
    check(worst < 1e-9, "self + child time equals each span's duration")
    nested = all(
        parent.start <= span.start and span.end <= parent.end
        and parent.pid == span.pid
        for span in recorded if span.parent is not None
        for parent in [recorded[span.parent]])
    check(nested, "every span lies inside its parent, in the same process")


def benchmark_json_matches() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]]
          == [name for name, _ in run.END_TO_END],
          "BENCHMARK.json end_to_end matches the printed metrics")
    check([m["name"] for m in spec["per_layer"]]
          == [name for name, _, _ in layers.PER_LAYER],
          "BENCHMARK.json per_layer matches the printed metrics")
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES),
          "BENCHMARK.json workloads are runner workloads")


def main() -> int:
    want = expected.load(0)
    check(want is not None, "expected values for seed 0 are committed")
    check(not expected.figure8_mismatches(want["fig8"]),
          "seed-0 figure pairs match results/full/figure8_full.txt")
    benchmark_json_matches()
    every_seed_is_checked()
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        perturbed_expected_fails(work, want)
        self_time_consistent(wrappers_restored(work, want))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
