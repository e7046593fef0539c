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
from varxpert.history import diff_hunks, looks_binary
from varxpert.pipeline import RunConfig, mine
from varxpert.util import split_lines


def mined_ledger(repo_path, **options):
    """The ledger pipeline.mine folds for a repository, writing nothing."""
    return mine(RunConfig(repo_path=repo_path, **options))[0].ledger


def hydrate(repo, change):
    """(the change's hunks, old text, new text, old lines, new lines),
    both sides read straight from the repository; None when a side is
    binary. An absent side has no text and no lines. This is the input
    of the per-change step, for differentials that run an engine on it."""
    texts = []
    for oid in (change.old_blob, change.new_blob):
        payload = repo.blob_bytes(oid) if oid else None
        if payload is not None and looks_binary(payload):
            return None
        texts.append(None if payload is None else payload.decode("utf-8", errors="surrogateescape"))
    old_text, new_text = texts
    old_lines, new_lines = split_lines(old_text or ""), split_lines(new_text or "")
    return diff_hunks(old_lines, new_lines), old_text, new_text, old_lines, new_lines


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
