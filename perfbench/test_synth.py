"""Tests of the benchmark's history generator.

Run from the repository root: python3 -m pytest perfbench
"""

import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import synth  # noqa: E402

WORKLOAD = "deep-ifdef"  # the smaller shape


@pytest.fixture(scope="module")
def histories(tmp_path_factory):
    made = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        made[name] = synth.generate(WORKLOAD, seed, str(tmp_path_factory.mktemp(name)))
    return made


def test_same_seed_gives_same_tip(histories):
    assert histories["a"]["tip_commit"] == histories["b"]["tip_commit"]
    assert histories["a"]["tip"] == histories["b"]["tip"]


def test_other_seed_gives_other_tip(histories):
    assert histories["a"]["tip_commit"] != histories["c"]["tip_commit"]


def test_tip_does_not_depend_on_user_git_config(histories, tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    (home / ".gitconfig").write_text("[core]\n\tautocrlf = true\n[init]\n\tdefaultBranch = x\n")
    monkeypatch.setenv("HOME", str(home))
    truth = synth.generate(WORKLOAD, 7, str(tmp_path / "gen"))
    assert truth["tip_commit"] == histories["a"]["tip_commit"]


def test_counts_match_the_history(histories):
    truth = histories["a"]
    shape = synth.SHAPES[WORKLOAD]
    env = synth.git_env(os.path.join(os.path.dirname(truth["repo"]), "home"))

    def git(*args):
        return subprocess.run(["git", "-C", truth["repo"], *args], check=True,
                              capture_output=True, text=True, env=env).stdout

    first_parent = git("rev-list", "--first-parent", "main").split()
    merges = git("rev-list", "--first-parent", "--merges", "main").split()
    emails = {line.lower() for line in
              git("log", "--first-parent", "--no-merges", "--format=%ae", "main").split()}
    tree = [path for path in git("ls-tree", "-r", "--name-only", "main").split()
            if path.endswith((".c", ".h"))]
    assert len(first_parent) - len(merges) == truth["tip"]["commits"] == shape.commits
    assert len(merges) == truth["tip"]["merges"] == shape.merges
    assert len(emails) == truth["tip"]["devs"] == shape.authors
    assert len(tree) == truth["tip"]["files"]
    assert truth["prev"]["commits"] == shape.commits - 1
    assert first_parent[1] == truth["prev_commit"]
