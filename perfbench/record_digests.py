"""Record the byte-identical set's digest for each (workload, seed).

Usage (from the repository root): python3 perfbench/record_digests.py

For every workload and each seed in range(SEEDS), generate the
history, run a cold `analyze` and a `report` at the tip with the same checks
as a benchmark run, and store the generated tip commit and the digest of
scores.csv, timeline.csv, evaluation.csv and report.{csv,json,md} in
perfbench/digests.json. Benchmark runs then count any later change of
those bytes as failed operations. Re-record only when the generator
changes, or when a change to the program shows the recorded bytes were
wrong.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import synth

SEEDS = 40  # the benchmark's docs promise the byte-identity check for seeds 0-39


def record(workload: str, seed: int, work: str) -> dict:
    bench = run.Bench(workload, seed, 0, False, run._fresh(work))
    bench.recorded = None
    try:
        bench.generate()
        bench.cold()
        bench.report()
        if bench.failures:
            raise SystemExit(f"{workload} seed {seed}: " + "; ".join(bench.failures))
        return {"tip_commit": bench.tip,
                "artifacts": run._digest(os.path.join(work, "cold"), run.IDENTICAL_SET)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    work = os.path.join(run.ROOT, ".perfbench_work", "record")
    digests = {
        workload: {str(seed): record(workload, seed, work) for seed in range(SEEDS)}
        for workload in sorted(synth.SHAPES)
    }
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
