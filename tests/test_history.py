"""Git mining tests: commit enumeration, rename and merge handling,
binary detection, identity folding, timestamp clamping, hunk fidelity."""

import time

import pytest

from varxpert.errors import BranchNotFound, EmptyIdentity, RepoNotFound
from varxpert.history import (
    ChangeKind,
    GitRepo,
    diff_hunks,
    filter_source_files,
    looks_binary,
    resolve_identity,
    unquote_git_path,
)
from varxpert.pipeline import RunConfig, mine
from varxpert.util import split_lines


def stream(path, branch="HEAD", **kwargs):
    """The raw first-parent stream as a list; empty for an empty repository."""
    with GitRepo(path) as repo:
        tip = repo.resolve_tip(branch)
        return [] if tip is None else list(repo.iter_commits(tip, **kwargs))


def apply_hunks(old_lines, new_lines, hunks):
    """Test-local patcher: replace each hunk's old range with the new
    lines of its new range. Hunk line numbers are 1-based; each hunk's
    new range must start where the output built so far ends."""
    out = []
    cursor = 0
    for hunk in hunks:
        start = hunk.old_start - 1
        out.extend(old_lines[cursor:start])
        assert hunk.new_start - 1 == len(out)
        out.extend(new_lines[hunk.new_start - 1:hunk.new_start - 1 + hunk.new_count])
        cursor = start + hunk.old_count
    out.extend(old_lines[cursor:])
    return out


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------

def test_identity_email_lowercased_and_trimmed():
    dev = resolve_identity("Alice", " ALICE@X.COM ")
    assert dev.canonical_key == "alice@x.com"
    assert dev.display_name == "Alice"


def test_identity_falls_back_to_name():
    dev = resolve_identity(" Bob ", "")
    assert dev.canonical_key == "bob"
    assert dev.display_name == "Bob"


def test_identity_requires_something():
    with pytest.raises(EmptyIdentity):
        resolve_identity("  ", " ")


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------

def test_filter_source_files_case_insensitive():
    assert filter_source_files("src/a.c")
    assert filter_source_files("SRC/B.H")
    assert filter_source_files("x.C")
    assert not filter_source_files("notes.txt")
    assert not filter_source_files("c")
    assert filter_source_files("a.cc", frozenset({".cc"}))


def test_unquote_git_path():
    assert unquote_git_path("plain.c") == "plain.c"
    assert unquote_git_path('"\\303\\244.c"') == "ä.c"
    assert unquote_git_path('"a\\tb.c"') == "a\tb.c"
    assert unquote_git_path('"q\\"uote.c"') == 'q"uote.c'
    assert unquote_git_path('"back\\\\slash.c"') == "back\\slash.c"


def test_looks_binary():
    assert looks_binary(b"ab\x00cd")
    assert not looks_binary(b"int main;\n")


def test_diff_hunks_round_trip_simple():
    old = ["a", "b", "c"]
    new = ["a", "x", "c", "d"]
    hunks = diff_hunks(old, new)
    assert apply_hunks(old, new, hunks) == new


# ----------------------------------------------------------------------
# repository walking
# ----------------------------------------------------------------------

def test_missing_repo_rejected(tmp_path):
    with pytest.raises(RepoNotFound):
        GitRepo(str(tmp_path / "nope"))


def test_empty_repo_yields_nothing(repo_builder):
    commits = stream(repo_builder.path)
    assert commits == []


def test_missing_branch_in_nonempty_repo(basic_repo):
    path, _ = basic_repo
    with pytest.raises(BranchNotFound):
        stream(path, branch="does-not-exist")


def test_basic_repo_stream(basic_repo):
    path, shas = basic_repo
    commits = stream(path)
    assert [c.commit_id for c in commits] == [
        shas["c1"], shas["c2"], shas["c3"], shas["c4"]
    ]
    assert [c.author.canonical_key for c in commits] == [
        "alice@example.com", "alice@example.com",
        "bob@example.com", "alice@example.com",
    ]
    assert all(not c.is_merge for c in commits)
    first = commits[0].changes
    assert len(first) == 1
    assert first[0].kind is ChangeKind.ADDED
    assert first[0].path_after == "f.c"
    assert first[0].old_blob is None
    second = commits[1].changes[0]
    assert second.kind is ChangeKind.MODIFIED
    assert second.old_blob == first[0].new_blob
    with GitRepo(path) as repo:
        assert repo.blob_bytes(first[0].new_blob).startswith(b"#include")
        _, old_text, new_text = repo.hydrate_change(second)
        assert old_text == repo.blob_bytes(first[0].new_blob).decode("utf-8")
        assert new_text is not None


def test_hunks_round_trip_over_fixtures(basic_repo, rename_repo, multifile_repo):
    for path, _ in (basic_repo, rename_repo, multifile_repo):
        with GitRepo(path) as repo:
            for commit in repo.iter_commits(repo.resolve_tip("HEAD")):
                for change in commit.changes:
                    hydrated, old_text, new_text = repo.hydrate_change(change)
                    old = split_lines(old_text or "")
                    new = split_lines(new_text or "")
                    assert apply_hunks(old, new, hydrated.hunks) == new


def test_rename_detected(rename_repo):
    path, shas = rename_repo
    commits = {c.commit_id: c for c in stream(path)}
    change = commits[shas["c3"]].changes[0]
    assert change.kind is ChangeKind.RENAMED
    assert change.path_before == "a.c"
    assert change.path_after == "b.c"
    assert change.effective_path == "b.c"


def test_deletion_carries_old_content(identity_repo):
    path, shas = identity_repo
    commits = {c.commit_id: c for c in stream(path)}
    change = commits[shas["c3"]].changes[0]
    assert change.kind is ChangeKind.DELETED
    assert change.path_before == "tmp.c"
    assert change.new_blob is None
    with GitRepo(path) as repo:
        _, old_text, new_text = repo.hydrate_change(change)
    assert new_text is None
    assert "scratch" in old_text


def test_merge_commit_listed_without_changes(repo_builder):
    repo = repo_builder
    repo.write("m.c", "int a;\n")
    c1 = repo.commit("base", "Alice", "alice@example.com",
                     "2020-01-01T00:00:00 +0000")
    repo.checkout("side", create=True)
    repo.write("m.c", "int a;\nint b;\n")
    repo.commit("side work", "Bob", "bob@example.com",
                "2020-01-02T00:00:00 +0000")
    repo.checkout("main")
    repo.write("other.c", "int c;\n")
    c3 = repo.commit("main work", "Alice", "alice@example.com",
                     "2020-01-03T00:00:00 +0000")
    merge = repo.merge("side", "2020-01-04T00:00:00 +0000")

    commits = stream(repo.path)
    by_id = {c.commit_id: c for c in commits}
    assert merge in by_id
    assert by_id[merge].is_merge
    assert by_id[merge].changes == ()
    # first-parent walk: the side branch commit itself is not listed
    assert [c.commit_id for c in commits] == [c1, c3, merge]


def test_author_clock_clamped_to_committer(identity_repo):
    path, shas = identity_repo
    warned = []
    commits = {
        c.commit_id: c
        for c in stream(path, warn=warned.append)
    }
    # committer date 2024-04-20T09:00:00Z
    assert commits[shas["c4"]].timestamp == 1713603600
    kinds = {w["kind"] for w in warned}
    assert "clamped_timestamp" in kinds


def test_prehistoric_author_clock_clamped(repo_builder):
    repo = repo_builder
    repo.write("a.c", "int a;\n")
    sha = repo.commit("old clock", "Alice", "alice@example.com",
                      "315532800 +0000",
                      committer_date="2020-06-01T00:00:00 +0000")
    warned = []
    commits = stream(repo.path, warn=warned.append)
    assert commits[0].commit_id == sha
    assert commits[0].timestamp == 1590969600
    assert any(w["kind"] == "clamped_timestamp" for w in warned)


def test_clamping_ignores_the_wall_clock(identity_repo, monkeypatch):
    path, _ = identity_repo
    seen = []
    for now in (0.0, 4e9):
        monkeypatch.setattr(time, "time", lambda: now)
        warned = []
        stamps = [c.timestamp for c in stream(path, warn=warned.append)]
        seen.append((stamps, warned))
    assert seen[0] == seen[1]


def test_closing_the_stream_early_raises_nothing(basic_repo):
    path, _ = basic_repo
    with GitRepo(path) as repo:
        commits = repo.iter_commits(repo.resolve_tip("HEAD"))
        next(commits)
        commits.close()


def test_since_until_filtering(basic_repo):
    path, shas = basic_repo
    # 2020-02-01 .. 2020-03-31
    commits = stream(path, since=1580515200, until=1585612800)
    assert [c.commit_id for c in commits] == [shas["c2"], shas["c3"]]


def test_extension_filter(repo_builder):
    repo = repo_builder
    repo.write("a.c", "int a;\n")
    repo.write("notes.txt", "hello\n")
    repo.write("b.H", "int b;\n")
    repo.commit("mixed", "Alice", "alice@example.com",
                "2020-01-01T00:00:00 +0000")
    commits = stream(repo.path)
    paths = sorted(change.effective_path for change in commits[0].changes)
    assert paths == ["a.c", "b.H"]


def test_binary_change_skipped_with_warning(repo_builder):
    repo = repo_builder
    repo.write_bytes("blob.c", b"\x00\x01\x02 not text")
    repo.write("ok.c", "int a;\n")
    repo.commit("binary and text", "Alice", "alice@example.com",
                "2020-01-01T00:00:00 +0000")
    state, sink = mine(RunConfig(repo_path=repo.path))
    assert [r.current_path for r in state.ledger.files.values()] == ["ok.c"]
    assert [(w["kind"], w["path"]) for w in sink.records] == [("binary_skipped", "blob.c")]


def test_raw_stream_has_no_hunks(basic_repo):
    path, _ = basic_repo
    changes = [change for commit in stream(path) for change in commit.changes]
    assert changes
    assert all(change.new_blob and not change.hunks for change in changes)
    with GitRepo(path) as repo:
        assert all(repo.hydrate_change(change)[0].hunks for change in changes)


def test_resolve_tip_none_for_empty(repo_builder):
    with GitRepo(repo_builder.path) as repo:
        assert repo.resolve_tip("HEAD") is None


def test_ls_tree_lists_blobs(basic_repo):
    path, _ = basic_repo
    with GitRepo(path) as repo:
        tip = repo.resolve_tip("HEAD")
        entries = repo.ls_tree(tip)
    assert [e.path for e in entries] == ["f.c"]
