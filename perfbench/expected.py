"""Expected simulated results, produced by the scalar (ground-truth) engine.

``expected/seed-<n>.json`` holds, for ASLR seed ``n``, every ``Metrics``
field of each figure pair and sweep pair under each of the 7 configs,
and every ``TimingStats`` field of each fault-mode run.  The benchmark
runs the fast engine and compares each op's output with these values
field by field.  The run's ``--seed`` selects one of ``POOL`` ASLR
seeds (``aslr_seed``), each with its file, so every run is checked; a
pool seed whose file is missing is reported as unchecked, never passed.

Regenerate (minutes per seed; the scalar loops are slow)::

    python3 perfbench/expected.py --seeds 0,11

At seed 0 the generator also checks the figure pairs' normalized times
against the rendered full-profile Figure 8 (``results/full``), to the
three decimals printed there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
FIGURE8 = ROOT / "results" / "full" / "figure8_full.txt"

#: Figure 8 column order of the rendered table.
FIGURE8_CONFIGS = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
                   "dvm_pe_plus")


#: ASLR seeds with committed expected values: ``expected/seed-0.json`` to
#: ``seed-31.json``.
POOL = 32


def aslr_seed(seed: int) -> int:
    """The ASLR seed (``SystemParams.seed``) a run with ``--seed`` uses."""
    return seed % POOL


def path_for(seed: int) -> Path:
    return EXPECTED_DIR / f"seed-{seed}.json"


def load(seed: int) -> dict | None:
    """The expected values for ``seed``, or ``None`` when unchecked."""
    path = path_for(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def figure8_rows(text: str) -> dict:
    """``{"bfs/FR": {"conv_4k": "2.064", ...}}`` from the rendered table."""
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) != 2 + len(FIGURE8_CONFIGS) or not cells[1]:
            continue
        if cells[0] in ("Workload", "geomean") or set(cells[0]) <= {"-", "+"}:
            continue
        rows[f"{cells[0]}/{cells[1]}"] = dict(zip(FIGURE8_CONFIGS, cells[2:]))
    return rows


def figure8_mismatches(fig8: dict) -> list[str]:
    """Expected figure pairs whose normalized time differs from Figure 8."""
    rows = figure8_rows(FIGURE8.read_text())
    problems = []
    for pair, configs in fig8.items():
        for config, printed in rows[pair].items():
            metrics = configs[config]
            normalized = metrics["cycles"] / metrics["ideal_cycles"]
            if f"{normalized:.3f}" != printed:
                problems.append(f"{pair} {config}: {normalized:.3f} != "
                                f"figure {printed}")
    return problems


def generate(seed: int) -> dict:
    """Run every op of every workload on the scalar engine."""
    from repro.graphs.datasets import WORKLOAD_PAIRS
    from repro.sim.runner import ExperimentRunner
    from repro.sim.system import SystemParams
    from workloads import (FAULT_MODES, FAULT_PAIRS, FIG8_PAIRS,
                           fault_system, pair_name, timing_dict)

    def metrics_by_pair(out) -> dict:
        found = {}
        for (workload, dataset, config), metrics in out.items():
            found.setdefault(f"{workload}/{dataset}", {})[config] = \
                metrics.to_dict()
        return found

    result = {"seed": seed, "engine": "scalar"}
    runner = ExperimentRunner(profile="full", engine="scalar",
                              params=SystemParams(seed=seed))
    result["fig8"] = metrics_by_pair(runner.run_pairs(pairs=list(FIG8_PAIRS)))
    if seed == 0:
        problems = figure8_mismatches(result["fig8"])
        if problems:
            raise SystemExit("seed 0 disagrees with Figure 8:\n  "
                             + "\n  ".join(problems))
    result["faults"] = {}
    for pair in FAULT_PAIRS:
        prepared = runner.prepare(*pair)
        for mode in FAULT_MODES:
            system = fault_system(runner.configs(), runner.params, prepared,
                                  mode)
            timing = system.run_trace(prepared.result.trace, engine="scalar")
            result["faults"][f"{pair_name(pair)}/{mode}"] = \
                timing_dict(timing)
    bench = ExperimentRunner(profile="bench", engine="scalar",
                             params=SystemParams(seed=seed))
    result["sweep"] = metrics_by_pair(bench.run_pairs(
        pairs=list(WORKLOAD_PAIRS)))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, or a range a-b")
    args = parser.parse_args(argv)
    if "-" in args.seeds:
        low, high = (int(part) for part in args.seeds.split("-"))
        seeds = range(low, high + 1)
    else:
        seeds = [int(part) for part in args.seeds.split(",")]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    EXPECTED_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        path = path_for(seed)
        path.write_text(json.dumps(generate(seed), sort_keys=True,
                                   separators=(",", ":")) + "\n")
        print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
