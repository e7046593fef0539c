"""The behaviour contract as one command, standard library only.

    python3 tools/contract.py check [--work DIR]
    python3 tools/contract.py compare PARENT_SRC CHANGE_SRC [--work DIR] [--only NAME ...]

check runs the Checks named in CHECKS on this tree; it prints a line per check
(name, pass or fail, seconds, why it failed) and exits 1 if one fails. compare
runs STEPS under two trees (see package_dir) on every input (see build_inputs)
and prints each file the runs leave that differs (see compare); it exits 1 if
one does. Both keep their files under --work, by default a temporary directory
removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import pathlib
import shutil
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
            raise CheckFailed(f"{first} (parent) and {second} (change) differ: {lines}")

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
        aside) from a warm cache, and from one primed at HEAD~1 and advanced."""
        for workload, repo in self.repos.items():
            for since in ((), ("--since", "1998-01-01")):
                run = workload + ("-since" if since else "")
                for seed, branch, cache, out in ((1, "HEAD", "cache", "cold"),
                                                 (2, "HEAD", "cache", "warm"),
                                                 (1, "HEAD~1", "advance", "prev"),
                                                 (2, "HEAD", "advance", "advanced")):
                    self.cli(seed, "analyze", repo, *since, "--branch", branch,
                             "--cache-dir", f"{run}/{cache}", "--out", f"{run}/{out}")
                self.same(f"{run}/cold", f"{run}/warm", "run_meta.json")
                self.same(f"{run}/cold", f"{run}/advanced", "run_meta.json")

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
        of BENCHMARK.json, no blob cache misses, at most one tracer target missing
        (ledger.scan_text, gone for good) and an advance's cache.miss_ratio < 0.1."""
        benchmark = json.loads(pathlib.Path(ROOT, "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = [metric["name"] for metric in benchmark["per_layer"]]
        for workload in self.repos:
            metrics = self.perfbench(workload, 0, 1)["metrics"]
            results = pathlib.Path(ROOT, ".perfbench_work/results", f"{workload}-seed0-trace1.json")
            diag = json.loads(results.read_text(encoding="utf-8"))["diagnostics"]
            absent = [name for name in layers if name not in metrics]
            misses, wrappers = diag["history.blob_misses"], diag["trace.missing_wrappers"]
            miss_ratio = metrics.get("cache.miss_ratio", {}).get("value")
            if not (not absent and misses and not any(misses) and wrappers and max(wrappers) <= 1
                    and miss_ratio is not None and miss_ratio < 0.1):
                raise CheckFailed(f"{workload}: {absent=} {misses=} {wrappers=} {miss_ratio=}")


CHECKS = ("hash_seed", "benchmark", "blob_asks", "csv_cells", "warm_advance",
          "reuse_thresholds", "trace")


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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="contract.py", description=__doc__.split("\n")[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    check_parser = verbs.add_parser("check", help="run the contract's checks on this tree")
    compare_parser = verbs.add_parser("compare", help="compare two source trees' outputs")
    compare_parser.add_argument("parent_src")
    compare_parser.add_argument("change_src")
    compare_parser.add_argument("--only", nargs="+", metavar="NAME",
                                help="inputs to run, e.g. basic or team-churn-0 (default all)")
    for verb in (check_parser, compare_parser):
        verb.add_argument("--work", help="an empty or new directory to keep everything in")
    args = parser.parse_args(argv)
    return command_check(args) if args.verb == "check" else command_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
