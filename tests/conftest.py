"""Shared fixtures: a throwaway git repository builder and the five
micro-repositories the oracle tests run against."""

import os
import subprocess

import pytest

from fixture_repos import (
    build_basic,
    build_guard,
    build_identity,
    build_multifile,
    build_rename,
)
from varxpert.pipeline import RunConfig, mine


def mined_ledger(repo_path, **options):
    """The ledger pipeline.mine folds for a repository, writing nothing."""
    return mine(RunConfig(repo_path=repo_path, **options))[0].ledger


class RepoBuilder:
    """Builds small git repositories one commit at a time."""

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self.git("init", "-q", "-b", "main")
        self.git("config", "user.name", "Fixture User")
        self.git("config", "user.email", "fixture@example.com")
        self.git("config", "commit.gpgsign", "false")
        self.git("config", "core.autocrlf", "false")

    def git(self, *args, env=None):
        merged = dict(os.environ)
        if env:
            merged.update(env)
        proc = subprocess.run(
            ["git", "-C", self.path, *args],
            check=True,
            capture_output=True,
            text=True,
            env=merged,
        )
        return proc.stdout

    def write(self, rel, content):
        full = os.path.join(self.path, rel)
        parent = os.path.dirname(full)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(full, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)

    def write_bytes(self, rel, payload):
        with open(os.path.join(self.path, rel), "wb") as handle:
            handle.write(payload)

    def delete(self, rel):
        os.remove(os.path.join(self.path, rel))

    def move(self, old, new):
        os.rename(os.path.join(self.path, old), os.path.join(self.path, new))

    def commit(self, message, author, email, date, committer_date=None):
        self.git("add", "-A")
        env = {
            "GIT_AUTHOR_DATE": date,
            "GIT_COMMITTER_DATE": committer_date or date,
        }
        self.git(
            "commit", "-q", "--allow-empty", "-m", message,
            f"--author={author} <{email}>", env=env,
        )
        return self.git("rev-parse", "HEAD").strip()

    def checkout(self, branch, create=False):
        args = ["checkout", "-q"]
        if create:
            args.append("-b")
        args.append(branch)
        self.git(*args)

    def merge(self, branch, date):
        env = {"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
        self.git("merge", "-q", "--no-ff", "--no-edit", branch, env=env)
        return self.git("rev-parse", "HEAD").strip()


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


@pytest.fixture()
def repo_builder(tmp_path):
    return RepoBuilder(tmp_path / "repo")
