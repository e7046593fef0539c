"""Benchmark for varxpert: seeded synthetic C histories through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep-ifdef --seed 1 --seconds 55 --trace 0

Each run generates the workload's history from the seed (perfbench/synth.py),
primes a stored analysis and change cache at the tip's parent, then repeats
rounds of timed operations for --seconds. Every operation is a fresh
`python3 -m varxpert` process run from `src/`, so import cost and peak RSS
belong to it:

    cold    `analyze` at the tip into an empty --out, no --cache-dir, --jobs 1
    report  `report` reusing the cold analysis
    warm    `analyze --cache-dir` at the parent, from a copy of the primed
            output and cache
    incr    the same copy, after the analyzed ref moved forward to the tip

A round runs cold, report, warm, incr, report, warm.

Every operation is checked: exit status 0; report.json counts equal the
generator's; the byte-identical set (scores.csv, timeline.csv,
evaluation.csv, report.{csv,json,md}) is the same on every report of the
run and equals the digest recorded in perfbench/digests.json for this
(workload, seed) when one is recorded; warm and incremental runs write the
same scores.csv and ledger.json as a cold analyze at the same tip. A check
that fails counts the operation as failed.

Times are reported in calibrated seconds. Before every operation, and once
after the last, the run times perfbench/probe.py, a fixed pure-Python job,
in a fresh interpreter; each operation's wall time is multiplied by
PROBE_REFERENCE_S over the mean wall time of the probe runs just before and
just after it. On the shared virtual machines this runs on, the host's
speed drifts by 20% or more within a minute, and that drift slows the probe
and the operation alike. Wall-time medians are printed next to the metrics
and kept in the results file.

With --trace 1 the operations run under perfbench/trace_cli.py, which
records spans around calls into each module, and the run reports per-layer
metrics plus the tracing overhead instead of the end-to-end metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it give each metric with its unit and sample count,
and the environment. The full record, spans included, goes to
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import synth  # noqa: E402

PRIMINGS = 3  # set-up repeats; setup_s is their median
PROBE = os.path.join(HERE, "probe.py")
PROBE_REFERENCE_S = 0.25  # probe time at which a calibrated second is a wall second
RUN_LIMIT_S = 170.0  # a run stops starting operations past this
IDENTICAL_SET = ("scores.csv", "timeline.csv", "evaluation.csv",
                 "report.csv", "report.json", "report.md")
TRUTH_KEYS = ("files", "variability_blocks", "distinct_macros", "commits", "devs")


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _digest(directory: str, names: tuple) -> str:
    hasher = hashlib.sha256()
    for name in names:
        payload = _read(os.path.join(directory, name))
        hasher.update(f"{name}\0{-1 if payload is None else len(payload)}\0".encode())
        hasher.update(payload or b"")
    return hasher.hexdigest()


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def environment_record(workload: str, seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "git": git,
        "generator": synth.GENERATOR_VERSION,
        "workload": workload,
        "seed": seed,
        "os_file_cache": "warm: it cannot be dropped in this environment",
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_kb = 0
        self.probes: list[float] = []
        self.samples: dict[str, list[float]] = {}  # as measured
        self.timed: list[tuple[str, float, int]] = []  # (metric, wall, index of probe before)
        self.references: dict[str, str] = {}
        self.traces: list[dict] = []
        self.diagnostics: dict[str, list[int]] = {}  # traced runs, one value per round
        home = os.path.join(work, "home")
        tmp = os.path.join(work, "tmp")
        os.makedirs(home)
        os.makedirs(tmp)
        self.env = synth.git_env(home)
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0", TMPDIR=tmp)
        with open(os.path.join(HERE, "digests.json"), "r", encoding="utf-8") as handle:
            self.recorded = json.load(handle).get(workload, {}).get(str(seed))

    # -- operations ------------------------------------------------------

    def at(self, commit: str) -> None:
        """Point the analyzed ref at a commit (untimed)."""
        subprocess.run(["git", "-C", self.repo, "update-ref", "refs/heads/analyzed", commit],
                       check=True, env=self.env)

    def spawn(self, command: list, stderr) -> tuple[float, int, object]:
        """Run a process to its end; return (wall seconds, exit code, rusage).

        os.wait4 blocks until the exit: Popen.wait with a timeout would poll
        and round the wall time up to its 50 ms sleeps.
        """
        limit = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=stderr,
                                env=self.env, cwd=self.work, start_new_session=True)
        timer = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, code, usage

    def probe(self) -> None:
        """Time one run of the calibration probe (see probe.py)."""
        wall, code, _ = self.spawn([sys.executable, PROBE], None)
        if code != 0:
            raise RuntimeError(f"calibration probe exited {code}")
        self.probes.append(wall)

    def varxpert(self, label: str, verb: str, out: str, *, cache: str | None = None,
                 jobs: int = 1, traced: bool = False) -> tuple[float, int, dict | None]:
        """Run one CLI process; return (wall seconds, exit code, spans or None)."""
        if not self.trace:
            self.probe()
        args = [verb, self.repo, "--branch", "analyzed", "--out", out, "--jobs", str(jobs)]
        if cache is not None:
            args += ["--cache-dir", cache]
        spans_path = os.path.join(self.work, f"spans-{self.attempted}.json")
        command = [sys.executable, os.path.join(HERE, "trace_cli.py"), spans_path] \
            if traced else [sys.executable, "-m", "varxpert"]
        log = os.path.join(self.work, f"op-{self.attempted}.err")
        self.attempted += 1
        with open(log, "wb") as stderr:
            wall, code, usage = self.spawn(command + args, stderr)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if code != 0:
            tail = (_read(log) or b"").decode(errors="replace").strip().splitlines()[-3:]
            self.fail(label, f"exit {code}: {' | '.join(tail)}")
        spans = None
        if traced and code == 0:
            with open(spans_path, "r", encoding="utf-8") as handle:
                spans = json.load(handle)
            spans["op"], spans["wall"] = label, wall
            self.traces.append(spans)
        return wall, code, spans

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")
        print(f"perfbench: failed {label}: {reason}", file=sys.stderr)

    def same(self, label: str, key: str, value: str) -> bool:
        """True when value equals the first value seen under key this run."""
        first = self.references.setdefault(key, value)
        if first != value:
            self.fail(label, f"{key} differs from the first run of this workload")
            return False
        return True

    def sample(self, metric: str, value: float | None) -> None:
        if value is not None:
            self.samples.setdefault(metric, []).append(value)

    def time_sample(self, metric: str, wall: float | None) -> None:
        """Record an operation's wall time and the probe run just before it."""
        if wall is not None:
            self.sample(metric, wall)
            self.timed.append((metric, wall, len(self.probes) - 1))

    def calibrated(self) -> dict[str, list[float]]:
        """Each timed sample at the probe's reference speed.

        The probe runs before every operation, so the one after an
        operation is the next operation's (or the final one).
        """
        values: dict[str, list[float]] = {}
        for metric, wall, before in self.timed:
            probe = (self.probes[before] + self.probes[before + 1]) / 2
            values.setdefault(metric, []).append(wall * PROBE_REFERENCE_S / probe)
        return values

    # -- checks ----------------------------------------------------------

    def check_analysis(self, label: str, out: str, tip: str) -> None:
        """scores.csv and ledger.json equal the first analysis at this tip."""
        self.same(label, f"{tip} analysis", _digest(out, ("scores.csv", "ledger.json")))

    def check_report(self, label: str, out: str, state: str) -> None:
        try:
            report = json.loads(_read(os.path.join(out, "report.json")) or b"null")
        except ValueError:
            report = None
        if not isinstance(report, dict):
            self.fail(label, "report.json missing or unreadable")
            return
        expected = self.truth[state]
        wrong = [f"{key} {report.get(key)} != {expected[key]}" for key in TRUTH_KEYS
                 if report.get(key) != expected[key]]
        if wrong:
            self.fail(label, "report.json disagrees with the generator: " + ", ".join(wrong))
            return
        digest = _digest(out, IDENTICAL_SET)
        if not self.same(label, f"{state} identical set", digest):
            return
        if state == "tip" and self.recorded is not None:
            if self.recorded["tip_commit"] != self.truth["tip_commit"]:
                self.fail(label, "generated tip differs from perfbench/digests.json")
            elif self.recorded["artifacts"] != digest:
                self.fail(label, "identical set differs from perfbench/digests.json")

    # -- phases ----------------------------------------------------------

    def generate(self) -> None:
        started = time.perf_counter()
        self.truth = synth.generate(self.workload, self.seed, os.path.join(self.work, "gen"))
        self.generate_s = time.perf_counter() - started
        self.repo = self.truth["repo"]
        self.tip, self.prev = self.truth["tip_commit"], self.truth["prev_commit"]

    def setup(self) -> None:
        self.generate()
        self.at(self.prev)
        for index in range(PRIMINGS):
            failures = len(self.failures)
            base = os.path.join(self.work, f"prime-{index}")
            label = f"prime-{index}"
            wall, code, _ = self.varxpert(label, "analyze", os.path.join(base, "out"),
                                          cache=os.path.join(base, "cache"))
            if code == 0:
                self.check_analysis(label, os.path.join(base, "out"), self.prev)
            self.time_sample("setup_s", self._outcome(failures, wall, None)[0])
        self.primed = os.path.join(self.work, "prime-0")
        # One report on the primed analysis checks the parent's ground truth.
        _, code, _ = self.varxpert("prime-report", "report", os.path.join(self.primed, "out"))
        if code == 0:
            self.check_report("prime-report", os.path.join(self.primed, "out"), "prev")

    # Each operation returns (wall seconds, spans); both are None when the
    # operation failed, so a failed operation never enters a metric.

    def _outcome(self, failures: int, wall: float, spans: dict | None) -> tuple:
        return (wall, spans) if len(self.failures) == failures else (None, None)

    def cold(self, traced: bool = False, jobs: int = 1) -> tuple:
        failures = len(self.failures)
        self.at(self.tip)
        out = _fresh(os.path.join(self.work, "cold"))
        label = f"cold{'-traced' if traced else ''}-jobs{jobs}"
        wall, code, spans = self.varxpert(label, "analyze", out, jobs=jobs, traced=traced)
        if code == 0:
            self.check_analysis(label, out, self.tip)
        return self._outcome(failures, wall, spans)

    def report(self, traced: bool = False) -> tuple:
        failures = len(self.failures)
        self.at(self.tip)
        out = os.path.join(self.work, "cold")
        wall, code, spans = self.varxpert("report", "report", out, traced=traced)
        if code == 0:
            self.check_report("report", out, "tip")
        if spans is not None:
            spans["ledger_json_bytes"] = os.path.getsize(os.path.join(out, "ledger.json"))
        return self._outcome(failures, wall, spans)

    def reanalyze(self, step: str, traced: bool = False) -> tuple:
        """warm: re-run at the primed commit; incr: after the ref moved forward."""
        failures = len(self.failures)
        commit = self.prev if step == "warm" else self.tip
        self.at(commit)
        base = _fresh(os.path.join(self.work, step))
        shutil.copytree(self.primed, base)
        out = os.path.join(base, "out")
        wall, code, spans = self.varxpert(step, "analyze", out,
                                          cache=os.path.join(base, "cache"), traced=traced)
        if code == 0:
            self.check_analysis(step, out, commit)
        return self._outcome(failures, wall, spans)

    def rounds(self, one_round) -> int:
        """Run whole rounds while the next one is expected to end within --seconds."""
        started = time.perf_counter()
        deadline = min(started + self.seconds, self.started + RUN_LIMIT_S - 30)
        done = 0
        while done == 0 or time.perf_counter() + (time.perf_counter() - started) / done <= deadline:
            one_round()
            done += 1
        return done

    def timed_round(self) -> None:
        # Interleaved, so that the samples of one metric fall in different
        # seconds of the round: the host's speed changes within seconds.
        # The sub-second report and warm runs come twice per round.
        for metric, long_step in (("analyze_cold_s", self.cold),
                                  ("analyze_incr_s", lambda: self.reanalyze("incr"))):
            self.time_sample(metric, long_step()[0])
            self.time_sample("report_reuse_s", self.report()[0])
            self.time_sample("analyze_warm_s", self.reanalyze("warm")[0])

    def traced_round(self) -> None:
        cold_wall, cold = self.cold(traced=True)
        untraced_wall, _ = self.cold()
        _, cold2 = self.cold(traced=True, jobs=min(2, len(os.sched_getaffinity(0))))
        _, report = self.report(traced=True)
        _, warm = self.reanalyze("warm", traced=True)
        _, incr = self.reanalyze("incr", traced=True)
        if None in (cold, untraced_wall, cold2, report, warm, incr):
            return  # the failure is already counted
        values = layer_metrics(cold, cold2, report, warm, incr)
        values["trace.analyze_cold_s"] = cold_wall
        values["trace.analyze_cold_untraced_s"] = untraced_wall
        values["trace.overhead_ratio"] = cold_wall / untraced_wall
        for name, value in values.items():
            self.sample(name, value)
        for name, value in diagnostics(cold).items():
            self.diagnostics.setdefault(name, []).append(value)

    def run(self) -> dict:
        """Median of each metric; end-to-end times in calibrated seconds."""
        self.setup()
        self.rounds_run = self.rounds(self.traced_round if self.trace else self.timed_round)
        self.sample("peak_rss_mb", self.peak_kb / 1024.0)
        calibrated = {}
        if not self.trace:  # traced runs are not calibrated
            self.probe()
            calibrated = self.calibrated()
        metrics = {}
        for name, unit in metric_units("per_layer" if self.trace else "end_to_end").items():
            values = calibrated.get(name) or self.samples.get(name)
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        return metrics


# -- per-layer metrics from spans ---------------------------------------------

class Spans:
    """Totals over one traced process's spans."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.spans = doc["spans"]

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def seconds(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.named(name))

    def extra(self, name: str, key: str) -> float:
        return sum((self.spans[i][4] or {}).get(key, 0) for i in self.named(name))

    def self_seconds(self, name: str) -> float:
        """Span time minus the time of its direct children."""
        targets = set(self.named(name))
        total = sum(self.spans[i][2] - self.spans[i][1] for i in targets)
        for span in self.spans:
            if span[3] in targets:
                total -= span[2] - span[1]
        return total

    def within(self, name: str, ancestor: str) -> list[int]:
        """Spans called name that have a span called ancestor above them."""
        found = []
        for i in self.named(name):
            parent = self.spans[i][3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent is not None:
                found.append(i)
        return found

    def cache_gets(self) -> tuple[int, int]:
        """(hits, calls) of ChangeCache.get."""
        counts = self.doc["counts"]
        return counts.get("cache.get.hits", 0), counts.get("cache.get.calls", 0)


def _ratio(numerator: float, denominator: float) -> float | None:
    """None when the denominator is 0: nothing was measured, so no sample."""
    return numerator / denominator if denominator else None


def layer_metrics(cold_doc, cold2_doc, report_doc, warm_doc, incr_doc) -> dict:
    cold, cold2, report = Spans(cold_doc), Spans(cold2_doc), Spans(report_doc)
    warm, incr = Spans(warm_doc), Spans(incr_doc)
    reads = [i for i in cold.named("history.blob_bytes")
             if cold.spans[i][4]["oid"] != "0" * 40]
    scan_blobs = cold.named("pipeline.scan_blob")
    fold_scanned = {cold.spans[i][4]["oid"] for i in scan_blobs}
    snapshot_reads = {cold.spans[i][4]["oid"]
                      for i in cold.within("history.blob_bytes", "pipeline.snapshot")}
    months = report.extra("timeline.monthly_snapshots", "months")
    devs = report.extra("timeline.monthly_snapshots", "devs")
    diff_s = cold.seconds("history.diff_hunks")
    # Mining's scans: those inside the fold, not the final snapshot's rescan
    # of the tree (that one is part of pipeline.snapshot_s).
    scans = cold.within("preproc.scan_text", "ledger.fold")
    scan_s = sum(cold.spans[i][2] - cold.spans[i][1] for i in scans)
    incr_scan_s = sum(incr.spans[i][2] - incr.spans[i][1]
                      for i in incr.within("preproc.scan_text", "ledger.fold"))
    incr_hits, incr_gets = incr.cache_gets()
    warm_hits, warm_gets = warm.cache_gets()
    return {
        "history.log_parse_s": cold.seconds("history.log_next"),
        "history.commits": sum(1 for i in cold.named("history.log_next") if cold.spans[i][4]),
        "history.changes": cold.extra("history.log_next", "changes"),
        "history.blob_reads": len(reads),
        "history.blob_bytes": cold.extra("history.blob_bytes", "bytes"),
        "history.blob_read_s": sum(cold.spans[i][2] - cold.spans[i][1] for i in reads),
        "history.diff_hunks_s": diff_s,
        "history.diff_lines_in": cold.extra("history.diff_hunks", "lines_in"),
        "history.hunks": cold.extra("history.diff_hunks", "hunks"),
        "preproc.scan_s": scan_s,
        "preproc.scan_calls": len(scans),
        "preproc.scan_lines": sum(cold.spans[i][4]["lines"] for i in scans),
        "preproc.memo_hit_ratio": _ratio(
            len(scan_blobs) - len(cold.within("preproc.scan_text", "pipeline.scan_blob")),
            len(scan_blobs)),
        "ledger.fold_self_s": cold.self_seconds("ledger.fold"),
        "ledger.classify_change_s": cold.seconds("ledger.classify_change"),
        "ledger.events": cold.extra("ledger.fold", "events"),
        "ledger.lineages": cold.extra("ledger.fold", "lineages"),
        "ledger.fold_jobs2_ratio": _ratio(cold2.seconds("ledger.fold"),
                                          cold.seconds("ledger.fold")),
        "pipeline.snapshot_s": cold.seconds("pipeline.snapshot"),
        "pipeline.snapshot_rescan_ratio": _ratio(len(snapshot_reads & fold_scanned),
                                                 cold.extra("pipeline.snapshot", "tree_files")),
        "pipeline.write_s": report.seconds("pipeline.write"),
        "pipeline.load_s": report.seconds("pipeline.load"),
        "pipeline.ledger_json_bytes": report_doc["ledger_json_bytes"],
        "cache.open_s": warm.seconds("cache.open"),
        "cache.flush_s": incr.seconds("cache.flush"),
        "cache.miss_ratio": _ratio(incr_gets - incr_hits, incr_gets),
        "cache.warm_hit_ratio": _ratio(warm_hits, warm_gets),
        "cache.bytes_written": incr.extra("cache.flush", "written"),
        "metrics.compute_scores_s": report.seconds("metrics.compute_scores"),
        "metrics.score_rows": report.extra("metrics.compute_scores", "rows"),
        "timeline.snapshots_s": report.seconds("timeline.monthly_snapshots"),
        "timeline.months": months,
        "timeline.devs": devs,
        "timeline.dev_months": months * devs,
        "evaluation.project_s": report.seconds("evaluation.project"),
        "warm.pipeline.snapshot_s": warm.seconds("pipeline.snapshot"),
        "incr.history.diff_hunks_s": incr.seconds("history.diff_hunks"),
        "incr.preproc.scan_s": incr_scan_s,
        "mining.diff_scan_share": _ratio(diff_s + scan_s, cold.seconds("ledger.fold")),
        "report.timeline_share": _ratio(report.seconds("timeline.monthly_snapshots"),
                                        report_doc["wall"]),
    }


def diagnostics(cold_doc: dict) -> dict:
    """Counts that are 0 when all is well: printed and kept, not metrics."""
    cold = Spans(cold_doc)
    return {
        "history.blob_misses": sum(1 for i in cold.named("history.blob_bytes")
                                   if cold.spans[i][4]["miss"]),
        "trace.missing_wrappers": len(cold_doc["missing"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(synth.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "varxpert", "cli.py")):
        print(f"perfbench: no varxpert sources under {ROOT}/src", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench_work")
    work = _fresh(os.path.join(base, f"{args.workload}-{args.seed}-{args.trace}"))
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        metrics = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(bench.failures)
    env = environment_record(args.workload, args.seed)
    env.update(sizes={"shape": bench.truth["shape"], "tip": bench.truth["tip"]},
               generate_s=bench.generate_s, rounds=bench.rounds_run)
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": metrics}
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "environment": env, "samples": bench.samples,
                   "probes": bench.probes, "failures": bench.failures,
                   "diagnostics": bench.diagnostics,
                   "traces": bench.traces}, handle)

    print("environment " + json.dumps(env, sort_keys=True))
    for metric, entry in metrics.items():
        values = bench.samples[metric]
        raw = f", {statistics.median(values):.6g} wall" \
            if entry["unit"] == "s" and not args.trace else ""
        print(f"{metric} = {entry['value']:.6g} {entry['unit']} "
              f"(median of {len(values)}{raw})")
    if bench.probes:
        print(f"calibration: probe median {statistics.median(bench.probes):.6g} s over "
              f"{len(bench.probes)} runs; each time is scaled by {PROBE_REFERENCE_S} s over "
              f"the mean of the probe runs just before and just after it")
    print(f"ops_failed_frac = {failed / bench.attempted:.6g} ratio "
          f"({failed} of {bench.attempted} operations)")
    for name, values in bench.diagnostics.items():
        print(f"{name} = {max(values)} count (highest of {len(values)} rounds; 0 when healthy)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
