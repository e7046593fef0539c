"""The behaviour contract as one command, standard library only.

    python3 tools/contract.py check [--work DIR]
    python3 tools/contract.py compare PARENT_SRC CHANGE_SRC [--work DIR] [--only NAME ...]
    python3 tools/contract.py bench PARENT_SRC CHANGE_SRC [--pairs N] [--workloads NAME ...]
                              [--seeds N ...] [--out FILE] [--work DIR]

check runs the Checks named in CHECKS on this tree; it prints a line per check
(name, pass or fail, seconds, why it failed) and exits 1 if one fails. compare
runs STEPS under two trees (see package_dir) on every input (see build_inputs)
and prints each file the runs leave that differs (see compare); it exits 1 if
one does. bench times two trees in interleaved pairs of perfbench runs, as
long as BENCHMARK.json's run_seconds, and gives each end-to-end metric a
verdict and a bound result (see bench, verdict and regression); it writes the
figures to --out and exits 1 if a run fails. All keep their files under --work,
by default a temporary directory removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Iterator, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]

import fixture_repos  # noqa: E402
import synth  # noqa: E402

FIXTURES = ("basic", "rename", "guard", "multifile", "identity")
SYNTH = tuple((workload, seed) for workload in ("deep-ifdef", "team-churn") for seed in range(5))
STEPS = (
    ("1-report-cold", ["report", "--out", "cold"]),
    ("2-analyze-cache", ["analyze", "--out", "warm", "--cache-dir", "cache"]),
    ("3-analyze-cache-again", ["analyze", "--out", "warm", "--cache-dir", "cache"]),
    ("4-report-reuse", ["report", "--out", "warm"]),
)
THRESHOLDS = (  # non-default; with the floor, 0.5 and the default DOA threshold score alike
    ("--doa-threshold", "0.5", "--ownership-threshold", "0.1", "--doa-abs-floor", "3.5",
     "--aggregation", "macro"),
    ("--doa-threshold", "0.5", "--ownership-threshold", "0.1", "--aggregation", "macro"),
)


def benchmark_spec() -> dict:
    return json.loads(pathlib.Path(ROOT, "BENCHMARK.json").read_text(encoding="utf-8"))


def package_dir(path: str) -> str:
    """The directory to put on PYTHONPATH for the tree at path: path itself or
    its src/ (a `git archive` of the parent commit, say), whichever holds varxpert."""
    for candidate in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(candidate, "varxpert", "__init__.py")):
            return os.path.abspath(candidate)
    raise SystemExit(f"contract: no varxpert package in {path} or {path}/src")


def build_inputs(work: str, only: set[str], env: dict) -> dict[str, str]:
    """Input name -> repository path, each built once under work/inputs: the
    FIXTURES of tests/fixture_repos.py and perfbench/synth.py's SYNTH
    histories, or those named in only."""
    unknown = only - set(FIXTURES) - {f"{workload}-{seed}" for workload, seed in SYNTH}
    if unknown:
        raise SystemExit(f"contract: no input named {', '.join(sorted(unknown))}")
    os.environ.update(env)  # RepoBuilder's git runs see the same config as synth's
    inputs = {}
    for name in FIXTURES:
        if not only or name in only:
            builder = fixture_repos.RepoBuilder(os.path.join(work, "inputs", name, name))
            getattr(fixture_repos, f"build_{name}")(builder)
            inputs[name] = builder.path
    for workload, seed in SYNTH:
        name = f"{workload}-{seed}"
        if not only or name in only:
            inputs[name] = synth.generate(workload, seed, os.path.join(work, "inputs", name))["repo"]
    return inputs


def run_cli(src: str, args: list[str], cwd: str, env: dict,
            **extra: str) -> subprocess.CompletedProcess:
    """`python -m varxpert ARGS` from the tree at src, in a fresh process, in cwd, under
    env (a git configuration of the contract's own), PYTHONHASHSEED=0 and then extra."""
    return subprocess.run([sys.executable, "-m", "varxpert", *args], cwd=cwd, capture_output=True,
                          env={**env, "PYTHONPATH": src, "PYTHONHASHSEED": "0", **extra})


def run_sequence(src: str, repo: str, dest: str, env: dict) -> None:
    """The STEPS under one tree, with dest as the working directory, so both
    trees print the same relative paths; each step's stdout and exit status
    are kept as files next to its outputs."""
    os.makedirs(dest)
    for step, args in STEPS:
        done = run_cli(src, [args[0], repo, *args[1:]], dest, env)
        pathlib.Path(dest, f"{step}.stdout").write_bytes(done.stdout)
        pathlib.Path(dest, f"{step}.exit").write_text(f"{done.returncode}\n", encoding="ascii")
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"note: {step} in {dest} exited {done.returncode}: {' '.join(tail)}")


def files_under(top: str, leave_out: frozenset[str]) -> set[str]:
    return {os.path.relpath(os.path.join(folder, name), top)
            for folder, _, names in os.walk(top) for name in names if name not in leave_out}


def _loads(payload: bytes, path: str) -> object:
    text = payload.decode("utf-8", errors="surrogateescape")
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def json_difference(first: object, second: object, at: str = "") -> list[str]:
    """The paths (key/key, or [index]) at which two JSON values differ."""
    if isinstance(first, dict) and isinstance(second, dict):
        return [path for key in sorted(first.keys() | second.keys(), key=str)
                for path in json_difference(first.get(key), second.get(key), f"{at}/{key}")]
    if isinstance(first, list) and isinstance(second, list) and len(first) == len(second):
        return [path for index, (a, b) in enumerate(zip(first, second))
                for path in json_difference(a, b, f"{at}[{index}]")]
    return [] if first == second and type(first) is type(second) else [at or "/"]


def describe(path: str, first: bytes, second: bytes) -> str:
    """Why two versions of a file differ, in a few words."""
    if not (path.endswith(".json") or path.endswith(".jsonl")):
        return "bytes differ"
    try:
        paths = json_difference(_loads(first, path), _loads(second, path))
    except ValueError:
        return "bytes differ; not JSON on both sides"
    if not paths:
        return "bytes differ; equal under json.loads"
    shown = ", ".join(paths[:6]) + (f" and {len(paths) - 6} more" if len(paths) > 6 else "")
    return f"differs under json.loads too, at {shown}"


def compare(parent_dir: str, change_dir: str,
            leave_out: frozenset[str] = frozenset()) -> tuple[int, list[str]]:
    """(files compared, one line per file that differs or exists on one side,
    naming the keys whose values differ in a JSON or JSON Lines file),
    leaving out files whose name is in leave_out."""
    parent, change = files_under(parent_dir, leave_out), files_under(change_dir, leave_out)
    lines = []
    for path in sorted(parent | change):
        if path not in change or path not in parent:
            lines.append(f"{path}: only under {'parent' if path in parent else 'change'}")
            continue
        first, second = (pathlib.Path(top, path).read_bytes() for top in (parent_dir, change_dir))
        if first != second:
            lines.append(f"{path}: {describe(path, first, second)}")
    return len(parent | change), lines


@contextlib.contextmanager
def workspace(path: Optional[str]) -> Iterator[tuple[str, dict]]:
    """(an empty directory, a git environment with its home in there): path,
    or a temporary directory removed at the end."""
    with contextlib.nullcontext(path) if path else tempfile.TemporaryDirectory() as work:
        os.makedirs(work, exist_ok=True)
        if os.listdir(work):
            raise SystemExit(f"contract: {work} is not empty")
        os.makedirs(os.path.join(work, "home"))
        yield work, synth.git_env(os.path.join(work, "home"))


def command_compare(args: argparse.Namespace) -> int:
    trees = {"parent": package_dir(args.parent_src), "change": package_dir(args.change_src)}
    with workspace(args.work) as (work, env):
        inputs = build_inputs(work, set(args.only or ()), env)
        total, differing = 0, 0
        for name, repo in inputs.items():
            for side, src in trees.items():
                run_sequence(src, repo, os.path.join(work, "runs", side, name), env)
            compared, lines = compare(*(os.path.join(work, "runs", side, name) for side in trees))
            total += compared
            differing += len(lines)
            for line in lines:
                print(f"{name}/{line}")
        print(f"contract: {len(inputs)} inputs, {total} files compared, {differing} differ")
        return 1 if differing else 0


class CheckFailed(Exception):
    """A check's pass condition does not hold; the message says where."""


def stdout_of(done: subprocess.CompletedProcess) -> bytes:
    """The stdout of a run that must exit 0."""
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise CheckFailed(f"{done.args} exited {done.returncode}: {' '.join(tail)}")
    return done.stdout


class Checks(NamedTuple):
    """The checks named in CHECKS, each a method that raises CheckFailed. They
    run the CLI of the tree at src, with work as its working directory, each
    run under a hash seed of its own choosing: two runs a check compares, and a
    run and the one whose cache or analysis it reads, differ in seed."""

    src: str
    work: str
    env: dict              # a git configuration of the checks' own
    repos: dict[str, str]  # deep-ifdef and team-churn -> the workload at seed 0

    @classmethod
    def build(cls, work: str, env: dict, src: str) -> Checks:
        """Checks whose workloads are built once under work/inputs."""
        return cls(src, work, env, {
            workload: synth.generate(workload, 0, os.path.join(work, "inputs", workload))["repo"]
            for workload in ("deep-ifdef", "team-churn")})

    def cli(self, seed: int, *args: str, **extra: str) -> bytes:
        return stdout_of(run_cli(self.src, list(args), self.work, self.env,
                                 PYTHONHASHSEED=str(seed), **extra))

    def same(self, first: str, second: str, *leave_out: str) -> None:
        """Two directories under work hold the same files, leave_out aside."""
        _, lines = compare(os.path.join(self.work, first), os.path.join(self.work, second),
                           frozenset(leave_out))
        if lines:
            raise CheckFailed(f"{first} and {second} differ: {lines}")

    def perfbench(self, workload: str, seed: int, trace: int) -> dict:
        """The result line of a one-second perfbench/run.py round, which must
        be strict JSON (no NaN or Infinity) and read correct."""
        stdout = stdout_of(subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, env=self.env, capture_output=True))
        result = json.loads(stdout.splitlines()[-1])
        json.dumps(result, allow_nan=False)  # raises ValueError on NaN or Infinity
        if result["correct"] is not True:
            raise CheckFailed(f"perfbench {workload} {seed}: {result}")
        return result

    def hash_seed(self) -> None:
        """report --cache-dir on team-churn writes the same files under PYTHONHASHSEED
        1 and 2 (the benchmark and the tests see only one hash order). The second run
        also has GIT_DIR naming the deep-ifdef repository and GIT_TRACE=1, as in a
        git hook with tracing on, and must not mine deep-ifdef or warn of a trace."""
        hostile = {"GIT_DIR": self.repos["deep-ifdef"], "GIT_TRACE": "1"}
        for seed, extra in ((1, {}), (2, hostile)):
            self.cli(seed, "report", self.repos["team-churn"], "--cache-dir", f"{seed}/cache",
                     "--out", f"{seed}/out", **extra)
        self.same("1", "2")

    def benchmark(self) -> None:
        """A one-second perfbench round is correct on deep-ifdef 0, team-churn 0
        and team-churn 4, which has a change whose flags git's own hunks flip."""
        for workload, seed in (("deep-ifdef", 0), ("team-churn", 0), ("team-churn", 4)):
            self.perfbench(workload, seed, 0)

    def blob_asks(self) -> None:
        """analyze --since 1998-01-01 reads each blob it asks for, and only those:
        a read out of ask order or of a blob nobody asked for fails the run,
        an ask never read counts in blob_asks_unread."""
        for seed, (workload, repo) in enumerate(self.repos.items(), 1):
            self.cli(seed, "analyze", repo, "--since", "1998-01-01", "--out", workload)
            meta = pathlib.Path(self.work, workload, "run_meta.json").read_text(encoding="utf-8")
            if (counters := json.loads(meta)["counters"])["blob_asks_unread"] != 0:
                raise CheckFailed(f"{workload}: {counters}")

    def csv_cells(self) -> None:
        """Each row of the 16 CSV files report writes is as wide as its header, on
        both workloads and deep-ifdef named `a,"b"|c` and `deep\\xff` (strict stdout)."""
        for seed, name in enumerate((*self.repos, 'a,"b"|c', os.fsdecode(b"deep\xff")), 1):
            repo = self.repos.get(name) or shutil.copytree(self.repos["deep-ifdef"],
                                                           os.path.join(self.work, name))
            self.cli(seed, "report", repo, "--out", f"out/{name}", PYTHONIOENCODING="utf-8:strict")
        paths, ragged = sorted(pathlib.Path(self.work, "out").glob("*/*.csv")), []
        for path in paths:
            with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
                rows = list(csv.reader(handle))
            if sorted({len(row) for row in rows[1:]}) != [len(rows[0])]:
                ragged.append(os.path.relpath(path, self.work))
        if len(paths) != 16 or ragged:
            raise CheckFailed(f"{len(paths)} CSV files; rows unlike the header in {ragged}")

    def warm_advance(self) -> None:
        """With and without --since, analyze writes the cold artifacts (run_meta.json
        aside) from a warm cache, from one primed at HEAD~1 and advanced into a new
        --out, and, as perfbench runs them, into the --out primed at HEAD~1 once at
        HEAD~1 again (an unchanged tip) and once at HEAD, which resumes the fold
        stored there. Their counters: the warm runs read no blob, and the resumed
        one folds only the tip commit's changes (the cold run's less HEAD~1's)."""
        for workload, repo in self.repos.items():
            for since in ((), ("--since", "1998-01-01")):
                run, counters = workload + ("-since" if since else ""), {}
                for seed, branch, cache, out, name in (
                        (1, "HEAD", "cache", "cold", "cold"),
                        (2, "HEAD", "cache", "warm", "warm"),
                        (1, "HEAD~1", "advance", "prev", "prev"),
                        (2, "HEAD", "advance", "advanced", "advanced"),
                        (1, "HEAD~1", "resume", "resumed", "primed"),
                        (2, "HEAD~1", "resume", "resumed", "unchanged"),
                        (1, "HEAD", "resume", "resumed", "resumed")):
                    self.cli(seed, "analyze", repo, *since, "--branch", branch,
                             "--cache-dir", f"{run}/{cache}", "--out", f"{run}/{out}")
                    meta = pathlib.Path(self.work, run, out, "run_meta.json")
                    counters[name] = json.loads(meta.read_text(encoding="utf-8"))["counters"]
                for out in ("warm", "advanced", "resumed"):
                    self.same(f"{run}/cold", f"{run}/{out}", "run_meta.json")
                tip_changes = counters["cold"]["changes"] - counters["prev"]["changes"]
                if not (counters["warm"]["blob_reads"] == counters["unchanged"]["blob_reads"] == 0
                        and counters["resumed"]["changes"] == tip_changes):
                    raise CheckFailed(f"{run}: the tip commit has {tip_changes} changes; "
                                      f"{counters}")

    def reuse_thresholds(self) -> None:
        """Under each set of THRESHOLDS, which a stored analysis's key leaves out,
        a report reusing what analyze stored writes and prints a cold one's output."""
        for workload, repo in self.repos.items():
            for index, flags in enumerate(THRESHOLDS):
                cold, reused = f"{workload}-{index}-cold", f"{workload}-{index}-reused"
                printed = self.cli(1, "report", repo, *flags, "--out", cold)
                self.cli(1, "analyze", repo, "--out", reused)
                if self.cli(2, "report", repo, *flags, "--out", reused) != printed:
                    raise CheckFailed(f"{workload} {flags}: the two reports print different stdout")
                self.same(cold, reused, "ledger.json", "run_meta.json", "warnings.jsonl")

    def trace(self) -> None:
        """A traced perfbench round per workload is correct with each per-layer metric
        of BENCHMARK.json, no blob cache misses and at most one tracer target missing
        (ledger.scan_text, gone for good). An advance resumes the stored fold, so its
        cache lookups are the new commit's misses; warm_advance gates the counts."""
        layers = [metric["name"] for metric in benchmark_spec()["per_layer"]]
        for workload in self.repos:
            metrics = self.perfbench(workload, 0, 1)["metrics"]
            results = pathlib.Path(ROOT, ".perfbench_work/results", f"{workload}-seed0-trace1.json")
            diag = json.loads(results.read_text(encoding="utf-8"))["diagnostics"]
            absent = [name for name in layers if name not in metrics]
            misses, wrappers = diag["history.blob_misses"], diag["trace.missing_wrappers"]
            if not (not absent and misses and not any(misses) and wrappers and max(wrappers) <= 1):
                raise CheckFailed(f"{workload}: {absent=} {misses=} {wrappers=}")

    def bench_self(self) -> None:
        """This tree timed against itself, 14 pairs of one-second deep-ifdef runs
        at seed 0, reads "same" on every metric and "regressed" on none: the
        rules do not read noise or the order of a pair as a change. The check
        is probabilistic: in simulated pairs of independent noise (normal,
        lognormal, or a fast and a slow state), a metric reads other than
        "same" in under 0.1% of 14-pair runs, so the six metrics fail the
        check in under 0.5% of them (at 10 pairs: 0.5-0.8% a metric, about 4%).
        """
        (case,) = bench({"parent": self.src, "change": self.src}, self.work, self.env,
                        pairs=14, seconds=1, cases=[("deep-ifdef", 0)])["results"]
        read = {name: (entry["verdict"], entry["regression"])
                for name, entry in case["metrics"].items()
                if entry["verdict"] != "same" or entry["regression"] == "regressed"}
        expected = len(benchmark_spec()["end_to_end"])
        if any(case["failed_runs"].values()) or read or len(case["metrics"]) != expected:
            raise CheckFailed(f"failed runs: {case['failed_runs']}; metrics {sorted(case['metrics'])}"
                              f", read as a change: {read}")


CHECKS = ("hash_seed", "benchmark", "blob_asks", "csv_cells", "warm_advance",
          "reuse_thresholds", "trace", "bench_self")


def command_check(args: argparse.Namespace) -> int:
    with workspace(args.work) as (work, env):
        checks, failed = Checks.build(work, env, package_dir(ROOT)), 0
        for name in CHECKS:
            os.makedirs(os.path.join(work, "checks", name))
            started, reason = time.perf_counter(), ""
            try:
                getattr(checks._replace(work=os.path.join(work, "checks", name)), name)()
            except CheckFailed as exc:
                reason = str(exc)
            except Exception:  # a check that crashes fails; the rest still run
                reason = traceback.format_exc()
            seconds = time.perf_counter() - started
            # a path that is not UTF-8 holds surrogates, which print escaped
            reason = reason.encode("ascii", "backslashreplace").decode("ascii")
            print(f"{name.replace('_', '-')}: {'fail' if reason else 'pass'} in {seconds:.1f} s "
                  f"{reason}".rstrip(), flush=True)
            failed += bool(reason)
        print(f"contract: {len(CHECKS)} checks, {failed} failed")
        return 1 if failed else 0


def wins(first: list[float], second: list[float], better: str) -> int:
    """In how many pairs second's value beats first's, better being
    BENCHMARK.json's "lower" or "higher"; a tie counts for neither."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (a - b) > 0 for a, b in zip(first, second))


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """The speed rule, on one metric's values in paired runs (parent[i] and
    change[i] ran as pair i), better being BENCHMARK.json's "lower" or "higher".

    "better" when the change wins at least 9 of every 10 pairs (a tie counts
    for neither side) and the two medians differ, in the change's favour, by
    more than the parent's interquartile range (statistics.quantiles' default
    method); "worse" when the same holds with the sides swapped; else "same".
    """
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = (statistics.median(parent) - statistics.median(change)) * (1 if better == "lower" else -1)
    if abs(gain) <= q3 - q1:
        return "same"
    if gain > 0 and 10 * wins(parent, change, better) >= 9 * len(parent):
        return "better"
    if gain < 0 and 10 * wins(change, parent, better) >= 9 * len(parent):
        return "worse"
    return "same"


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression rule, on one metric's values in paired runs, better
    and bound being BENCHMARK.json's; bound is a share of the parent's median.

    "regressed" when the change's median is worse than the parent's by more
    than bound times the parent's median; else "unresolved" when the parent's
    interquartile range is wider than that, so its runs spread too widely to
    tell, unless every change run beats every parent run; else "ok".
    """
    sign = 1 if better == "lower" else -1
    median = statistics.median(parent)
    allowed = bound * abs(median)
    if sign * (statistics.median(change) - median) > allowed:
        return "regressed"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if q3 - q1 > allowed and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "ok"


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def stage(work: str, side: str, src: str) -> str:
    """A root for perfbench/run.py: the varxpert package at src under src/,
    beside copies of this tree's perfbench/ and BENCHMARK.json."""
    root = os.path.join(work, "stage", side)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(src, "varxpert"), os.path.join(root, "src", "varxpert"),
                    ignore=skip)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(root, "perfbench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def tree_commit(src: str) -> Optional[str]:
    """The commit checked out where the package at src lives, with "+modified"
    when git sees the package changed since, or None outside git."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    commit = git("rev-parse", "HEAD") or None
    if commit and git("status", "--porcelain", "--", "varxpert"):
        commit += "+modified"
    return commit


def perfbench_result(root: str, workload: str, seed: int, seconds: int,
                     env: dict) -> Optional[dict]:
    """The result line of one perfbench/run.py under root, or None (with a note
    printed) when the run exits non-zero or its last line is not a result."""
    done = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=env, capture_output=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        print(f"note: {root} {workload} {seed} exited {done.returncode}: {' '.join(tail)}")
        return None
    return result


def bench(trees: dict[str, str], work: str, env: dict, pairs: int, seconds: int,
          cases: list[tuple[str, int]]) -> dict:
    """Per (workload, seed) in cases, pairs of `perfbench/run.py --seconds
    seconds --trace 0` runs, one under each of trees["parent"] and
    trees["change"] (package directories) staged under work; pair i runs the
    parent first when i is even. Returns the record bench writes: both trees'
    commits, the machine, the protocol and, per case and end-to-end metric of
    BENCHMARK.json, both sides' values, medians and quartiles, the change's
    wins and losses, the verdict and the regression result. A run that fails, or reads incorrect,
    leaves its pair out of every metric and counts in failed_runs."""
    stages = {side: stage(work, side, src) for side, src in trees.items()}
    commits = {side: tree_commit(src) for side, src in trees.items()}
    benchmark = benchmark_spec()
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    results = []
    for workload, seed in cases:
        runs: dict[str, list] = {"parent": [], "change": []}
        for index in range(pairs):
            for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
                result = perfbench_result(stages[side], workload, seed, seconds, env)
                runs[side].append(result if result and result["correct"] is True else None)
        kept = [(first["metrics"], second["metrics"])
                for first, second in zip(runs["parent"], runs["change"]) if first and second]
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            paired = [(first[name]["value"], second[name]["value"])
                      for first, second in kept if name in first and name in second]
            if len(paired) < 2:
                continue
            parent, change = (list(values) for values in zip(*paired))
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"], "pairs": len(paired),
                "wins": wins(parent, change, spec["better"]),
                "losses": wins(change, parent, spec["better"]),
                "parent": spread(parent), "change": spread(change),
                "verdict": verdict(parent, change, spec["better"]),
                "bound": spec["bound"],
                "regression": regression(parent, change, spec["better"], spec["bound"]),
                "parent_values": parent, "change_values": change,
            }
        results.append({"workload": workload, "seed": seed, "metrics": metrics,
                         "failed_runs": {side: sum(run is None for run in side_runs)
                                         for side, side_runs in runs.items()}})
    return {
        "format": "varxpert-bench/1",
        "commits": commits,
        "machine": {"nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "git": git,
                    "platform": platform.platform()},
        "protocol": {
            "pairs": pairs, "seconds": seconds,
            "command": "perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0",
            "order": "pair i runs the parent first when i is even, the change first when odd",
            "values": "each run's last stdout line: calibrated seconds, peak RSS in MB",
            "rule": " ".join(verdict.__doc__.split()),
            "bound_rule": " ".join(regression.__doc__.split()),
        },
        "results": results,
    }


def command_bench(args: argparse.Namespace) -> int:
    if args.pairs < 10:
        raise SystemExit("contract: bench needs at least 10 pairs")
    trees = {"parent": package_dir(args.parent_src), "change": package_dir(args.change_src)}
    with workspace(args.work) as (work, env):
        document = bench(trees, work, env, args.pairs, benchmark_spec()["run_seconds"],
                         [(workload, seed) for workload in args.workloads for seed in args.seeds])
    for case in document["results"]:
        for name, entry in case["metrics"].items():
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            print(f"{case['workload']} seed {case['seed']} {name}: {parent:.4g} -> {change:.4g} "
                  f"{entry['unit']} ({100 * (change / parent - 1):+.1f}%), parent IQR "
                  f"{entry['parent']['q3'] - entry['parent']['q1']:.3g}, change wins "
                  f"{entry['wins']} of {entry['pairs']}, loses {entry['losses']}: "
                  f"{entry['verdict']}, {entry['regression']} against the bound {entry['bound']}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    failed = sum(sum(case["failed_runs"].values()) for case in document["results"])
    print(f"contract: {len(document['results'])} cases of {args.pairs} pairs, {failed} runs failed")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="contract.py", description=__doc__.split("\n")[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    check_parser = verbs.add_parser("check", help="run the contract's checks on this tree")
    compare_parser = verbs.add_parser("compare", help="compare two source trees' outputs")
    compare_parser.add_argument("parent_src")
    compare_parser.add_argument("change_src")
    compare_parser.add_argument("--only", nargs="+", metavar="NAME",
                                help="inputs to run, e.g. basic or team-churn-0 (default all)")
    bench_parser = verbs.add_parser("bench", help="time two source trees in interleaved pairs")
    bench_parser.add_argument("parent_src")
    bench_parser.add_argument("change_src")
    bench_parser.add_argument("--pairs", type=int, default=10, help="pairs per case (at least 10)")
    bench_parser.add_argument("--workloads", nargs="+", default=sorted(synth.SHAPES),
                              choices=sorted(synth.SHAPES))
    bench_parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    bench_parser.add_argument("--out", help="write the figures to this JSON file")
    for verb in (check_parser, compare_parser, bench_parser):
        verb.add_argument("--work", help="an empty or new directory to keep everything in")
    args = parser.parse_args(argv)
    return {"check": command_check, "compare": command_compare,
            "bench": command_bench}[args.verb](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
