"""Shared fixtures: a throwaway git repository builder and the five
micro-repositories the oracle tests run against (fixture_repos builds
them)."""

import os
import subprocess
import sys

import pytest

from fixture_repos import (
    RepoBuilder,
    build_basic,
    build_guard,
    build_identity,
    build_multifile,
    build_rename,
)
from varxpert.history import diff_hunks
from varxpert.pipeline import RunConfig, _read_lines, mine
from varxpert.preproc import scan_text
from varxpert.util import split_lines


def mined_ledger(repo_path, **options):
    """The ledger pipeline.mine folds for a repository, writing nothing."""
    return mine(RunConfig(repo_path=repo_path, **options))[0].ledger


def by_created(lineage_ids):
    """Lineage ids by the path that started each lineage: an id is
    {that path}@{the starting commit's id[:12]}."""
    return {lineage_id.rpartition("@")[0]: lineage_id for lineage_id in lineage_ids}


def three_commit_repo(builder):
    builder.write("a.c", "int a;\n")
    builder.write("b.c", "int b;\n")
    builder.commit("one", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    builder.write("a.c", "#ifdef X\nint a;\n#endif\n")
    builder.commit("two", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    builder.write("a.c", "#ifdef X\nint a2;\n#endif\n")
    builder.commit("three", "Alice", "alice@example.com", "2020-03-01T00:00:00 +0000")
    return builder


def remove_loose_object(builder, oid):
    os.remove(os.path.join(builder.path, ".git", "objects", oid[:2], oid[2:]))


def scan(text, exclude_include_guards=True):
    """preproc.scan_text of a text, split into lines as the pipeline splits
    a blob's text."""
    return scan_text(split_lines(text), exclude_include_guards)


def hydrate(repo, change):
    """(the change's hunks, old lines, new lines), both sides read the
    pipeline's way (pipeline._read_lines); None when a side is binary.
    An absent side's lines are None. This is the input of the per-change
    step, for differentials that run an engine on it."""
    sides = []
    for oid in (change.old_blob, change.new_blob):
        if oid:
            repo.ask(oid)  # a read takes only a blob asked for
            if (lines := _read_lines(repo, oid)) is None:
                return None
            sides.append(lines)
        else:
            sides.append(None)
    old_lines, new_lines = sides
    return diff_hunks(old_lines or [], new_lines or []), old_lines, new_lines


def _session_repo(tmp_path_factory, name, build):
    builder = RepoBuilder(tmp_path_factory.mktemp(name))
    shas = build(builder)
    return builder.path, shas


@pytest.fixture(scope="session")
def basic_repo(tmp_path_factory):
    return _session_repo(tmp_path_factory, "basic", build_basic)


@pytest.fixture(scope="session")
def rename_repo(tmp_path_factory):
    return _session_repo(tmp_path_factory, "rename", build_rename)


@pytest.fixture(scope="session")
def guard_repo(tmp_path_factory):
    return _session_repo(tmp_path_factory, "guard", build_guard)


@pytest.fixture(scope="session")
def multifile_repo(tmp_path_factory):
    return _session_repo(tmp_path_factory, "multifile", build_multifile)


@pytest.fixture(scope="session")
def identity_repo(tmp_path_factory):
    return _session_repo(tmp_path_factory, "identity", build_identity)


@pytest.fixture(scope="session")
def synth_histories(tmp_path_factory):
    """Two generated histories (perfbench/synth.py): deep-ifdef seed 1, with
    900-line files of dense #if blocks, and team-churn seed 4, where git's
    own hunks flip a change's flags."""
    synth = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "synth.py")
    paths = []
    for workload, seed in (("deep-ifdef", 1), ("team-churn", 4)):
        base = tmp_path_factory.mktemp(workload)
        subprocess.run([sys.executable, synth, workload, str(seed), str(base)],
                       check=True, capture_output=True)
        paths.append(str(base / workload))
    return paths


@pytest.fixture(scope="session")
def history_paths(basic_repo, rename_repo, guard_repo, multifile_repo, identity_repo,
                  synth_histories):
    """The five fixtures and the two generated histories, for differentials
    that run over every change."""
    fixtures = (basic_repo, rename_repo, guard_repo, multifile_repo, identity_repo)
    return [path for path, _ in fixtures] + synth_histories


@pytest.fixture()
def repo_builder(tmp_path):
    return RepoBuilder(tmp_path / "repo")
