"""The behaviour contract between two source trees, as one command.

Usage (from the repository root):

    python3 tools/contract.py compare PARENT_SRC CHANGE_SRC [--work DIR] [--only NAME ...]

PARENT_SRC and CHANGE_SRC each name a directory that holds the varxpert
package, or a checkout whose src/ does (a `git archive` of the parent
commit, say). On every input, under each tree, in fresh processes:

    1. `report REPO --out cold`, a cold report;
    2. `analyze REPO --out warm --cache-dir cache`, twice;
    3. `report REPO --out warm`, which reuses that analysis.

The inputs are the five fixture repositories of tests/fixture_repos.py
and perfbench/synth.py's deep-ifdef and team-churn histories at seeds 0
to 4, built once and shared by both trees. Every file the sequence
leaves (the artifacts of both output directories, the change cache, and
each step's stdout and exit status) is compared byte for byte; a JSON
or JSON Lines file that differs is compared under json.loads as well,
and the report names the keys whose values differ. Both trees run with
the same relative paths, PYTHONHASHSEED=0 and a git configuration of
their own, so the paths a run prints are the same too.

Each differing or one-sided file is printed on a line of its own, then
a summary; the exit status is 1 when a file differs, else 0. The inputs
and outputs are left under --work (a temporary directory, removed at
the end, by default). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

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


def package_dir(path: str) -> str:
    """The directory to put on PYTHONPATH for the tree at path."""
    for candidate in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(candidate, "varxpert", "__init__.py")):
            return os.path.abspath(candidate)
    raise SystemExit(f"contract: no varxpert package in {path} or {path}/src")


def build_inputs(work: str, only: set[str], env: dict) -> dict[str, str]:
    """Input name -> repository path, each built once under work/inputs."""
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


def run_sequence(src: str, repo: str, dest: str, env: dict) -> None:
    """The contract's steps under one tree, with dest as the working directory."""
    os.makedirs(dest)
    env = dict(env, PYTHONPATH=src, PYTHONHASHSEED="0")
    for step, args in STEPS:
        done = subprocess.run([sys.executable, "-m", "varxpert", args[0], repo, *args[1:]],
                              cwd=dest, env=env, capture_output=True)
        with open(os.path.join(dest, f"{step}.stdout"), "wb") as handle:
            handle.write(done.stdout)
        with open(os.path.join(dest, f"{step}.exit"), "w", encoding="ascii") as handle:
            handle.write(f"{done.returncode}\n")
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"note: {step} in {dest} exited {done.returncode}: {' '.join(tail)}")


def files_under(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(folder, name), top)
            for folder, _, names in os.walk(top) for name in names}


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


def compare(parent_dir: str, change_dir: str) -> tuple[int, list[str]]:
    """(files compared, one line per file that differs or exists on one side)."""
    parent, change = files_under(parent_dir), files_under(change_dir)
    lines = []
    for path in sorted(parent | change):
        if path not in change or path not in parent:
            lines.append(f"{path}: only under {'parent' if path in parent else 'change'}")
            continue
        with open(os.path.join(parent_dir, path), "rb") as handle:
            first = handle.read()
        with open(os.path.join(change_dir, path), "rb") as handle:
            second = handle.read()
        if first != second:
            lines.append(f"{path}: {describe(path, first, second)}")
    return len(parent | change), lines


def command_compare(args: argparse.Namespace) -> int:
    trees = {"parent": package_dir(args.parent_src), "change": package_dir(args.change_src)}
    work = args.work or tempfile.mkdtemp(prefix="varxpert-contract-")
    os.makedirs(work, exist_ok=True)
    if os.listdir(work):
        raise SystemExit(f"contract: {work} is not empty")
    try:
        home = os.path.join(work, "home")
        os.makedirs(home)
        env = synth.git_env(home)
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
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="contract.py", description=__doc__.split("\n")[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    compare_parser = verbs.add_parser("compare", help="compare two source trees' outputs")
    compare_parser.add_argument("parent_src")
    compare_parser.add_argument("change_src")
    compare_parser.add_argument("--work", help="an empty or new directory to keep everything in")
    compare_parser.add_argument("--only", nargs="+", metavar="NAME",
                                help="inputs to run, e.g. basic or team-churn-0 (default all)")
    args = parser.parse_args(argv)
    return command_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
