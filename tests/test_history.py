"""Git mining tests: commit enumeration, rename and merge handling,
binary detection, identity folding, timestamp clamping, hunk fidelity."""

import difflib
import functools
import io
import os
import subprocess
import threading
import time
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varxpert.errors import BranchNotFound, CorruptRepo, EmptyIdentity, RepoNotFound
from varxpert.history import (
    ChangeKind,
    FileChange,
    GitRepo,
    Hunk,
    _BlobReader,
    _longest_match,
    diff_hunks,
    filter_source_files,
    looks_binary,
    resolve_identity,
)
from conftest import hydrate
from varxpert.ledger import classify_change
from varxpert.pipeline import RunConfig, mine, run_analyze
from varxpert.preproc import scan_text
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
    assert resolve_identity("Alice", " ALICE@X.COM ") == "alice@x.com"


def test_identity_falls_back_to_name():
    assert resolve_identity(" Bob ", "") == "bob"


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


def test_looks_binary():
    assert looks_binary(b"ab\x00cd")
    assert not looks_binary(b"int main;\n")


def test_diff_hunks_round_trip_simple():
    old = ["a", "b", "c"]
    new = ["a", "x", "c", "d"]
    hunks = diff_hunks(old, new)
    assert apply_hunks(old, new, hunks) == new


def difflib_hunks(old_lines, new_lines):
    """The engine diff_hunks replaced, kept as its oracle: the non-equal
    opcodes of SequenceMatcher without autojunk."""
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    return tuple(
        Hunk(i1 + 1, i2 - i1, j1 + 1, j2 - j1)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes()
        if tag != "equal"
    )


@st.composite
def line_pairs(draw):
    """Two file images over 1 to 5 distinct lines: edited, unrelated, one
    line repeated, or one block repeated and then edited."""
    alphabet = st.sampled_from([f"line {n}" for n in range(draw(st.integers(1, 5)))])
    shape = draw(st.sampled_from(("edited", "unrelated", "one line", "one block")))
    if shape == "unrelated":
        return draw(st.lists(alphabet, max_size=120)), draw(st.lists(alphabet, max_size=120))
    if shape == "one line":
        return ["same"] * draw(st.integers(0, 120)), ["same"] * draw(st.integers(0, 120))
    if shape == "one block":
        block = draw(st.lists(alphabet, min_size=1, max_size=10))
        old = block * draw(st.integers(1, 12))
        new = block * draw(st.integers(1, 12))
    else:
        old = draw(st.lists(alphabet, max_size=120))
        new = list(old)
    for _ in range(draw(st.integers(0, 6))):  # an edit script of slice replacements
        start = draw(st.integers(0, len(new)))
        stop = draw(st.integers(start, min(len(new), start + 5)))
        new[start:stop] = draw(st.lists(alphabet, max_size=5))
    return old, new


@settings(max_examples=600, deadline=None)
@given(line_pairs())
def test_diff_hunks_are_difflibs(pair):
    old, new = pair
    assert diff_hunks(old, new) == difflib_hunks(old, new)


@st.composite
def near_periodic_boxes(draw):
    """Two images that repeat one unit with a few lines changed, and a box
    of at least 16 lines a side: many longest runs, tied in length."""
    unit = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=6))
    images, box = [], []
    for _ in range(2):
        length = draw(st.integers(16, 60))
        shift = draw(st.integers(0, len(unit) - 1))
        image = [unit[(t + shift) % len(unit)] for t in range(length)]
        for t in draw(st.lists(st.integers(0, length - 1), max_size=6)):
            image[t] = draw(st.sampled_from("xyz"))
        low = draw(st.integers(0, length - 16))
        images.append(image)
        box += [low, draw(st.integers(low + 16, length))]
    return images, box


@settings(max_examples=500, deadline=None)
@given(near_periodic_boxes())
@example(([list("yxxyxyxxyxyxxyxyxxyxyxy"), list("xxyxyxxyxyxxyxyxxyyyxxyxyxy")],
          [7, 23, 11, 27]))  # the longest run starts just past another on its diagonal
def test_longest_match_is_difflibs(case):
    (a, b), (alo, ahi, blo, bhi) = case
    matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    assert _longest_match(a, b, alo, ahi, blo, bhi) == \
        tuple(matcher.find_longest_match(alo, ahi, blo, bhi))


@pytest.mark.parametrize("old, new", [
    (["same"] * 900, ["same"] * 900),
    (["same"] * 900, ["same"] * 450 + ["other"] + ["same"] * 449),
    ([f"b{n}" for n in range(10)] * 90,
     [f"b{n}" for n in range(10)] * 45 + ["edit"] + [f"b{n}" for n in range(10)] * 45),
], ids=["identical", "one_line_edit", "repeated_block"])
def test_diff_hunks_are_difflibs_on_long_repeats(old, new):
    assert diff_hunks(old, new) == difflib_hunks(old, new)


def test_diff_engine_matches_difflib_on_histories(history_paths):
    # every change of the fixtures and of two generated histories: deep-ifdef
    # (900-line files) and team-churn seed 4, where git's own hunks flip a flag
    scans = {}

    def bitmap(oid, text):
        if text is None:
            return None
        if oid not in scans:
            scans[oid] = scan_text(text).annotations
        return scans[oid]

    compared = 0
    for path in history_paths:
        with GitRepo(path) as repo:
            for commit in repo.iter_commits(repo.resolve_tip("HEAD")):
                for change in commit.changes:
                    hydrated = hydrate(repo, change)
                    if hydrated is None:
                        continue  # a binary side has no hunks
                    hunks, old_text, new_text, old_lines, new_lines = hydrated
                    oracle = difflib_hunks(split_lines(old_text or ""),
                                           split_lines(new_text or ""))
                    assert hunks == oracle, (path, commit.commit_id, change)
                    bitmaps = (bitmap(change.old_blob, old_text),
                               bitmap(change.new_blob, new_text))
                    facts = classify_change(hunks, *bitmaps)
                    expected = classify_change(oracle, *bitmaps)
                    assert facts == expected
                    compared += 1
    assert compared > 1800


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


def test_directory_outside_a_repository_rejected(tmp_path):
    with pytest.raises(RepoNotFound), GitRepo(str(tmp_path)) as repo:
        repo.resolve_tip("HEAD")


@pytest.mark.parametrize("branch", ["@{upstream}", "--git-dir"])
def test_rev_that_git_rejects_is_no_missing_repository(basic_repo, branch):
    # "@{upstream}" without one makes rev-parse exit 128, as outside a
    # repository, but after it printed the git directory
    with GitRepo(basic_repo[0]) as repo, pytest.raises(BranchNotFound):
        repo.resolve_tip(branch)


def test_basic_repo_stream(basic_repo):
    path, shas = basic_repo
    commits = stream(path)
    assert [c.commit_id for c in commits] == [
        shas["c1"], shas["c2"], shas["c3"], shas["c4"]
    ]
    assert [c.author for c in commits] == [
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
        old_text, new_text = hydrate(repo, second)[1:3]
        assert old_text == repo.blob_bytes(first[0].new_blob).decode("utf-8")
        assert new_text is not None


def test_hunks_round_trip_over_fixtures(basic_repo, rename_repo, multifile_repo):
    for path, _ in (basic_repo, rename_repo, multifile_repo):
        with GitRepo(path) as repo:
            for commit in repo.iter_commits(repo.resolve_tip("HEAD")):
                for change in commit.changes:
                    hunks, old_text, new_text, old, new = hydrate(repo, change)
                    assert old == split_lines(old_text or "")
                    assert new == split_lines(new_text or "")
                    assert apply_hunks(old, new, hunks) == new


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
        old_text, new_text = hydrate(repo, change)[1:3]
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
    state, warnings = mine(RunConfig(repo_path=repo.path))
    assert [r.current_path for r in state.ledger.files.values()] == ["ok.c"]
    assert [(w["kind"], w["path"]) for w in warnings] == [("binary_skipped", "blob.c")]


class _CannedCatFile:
    """Stands in for the `git cat-file --batch` child: stdout is fixed bytes."""

    def __init__(self, reply):
        self.stdin = io.BytesIO()
        self.stdout = io.BytesIO(reply)


def cat_file_read(reply, oid="a" * 40):
    reader = _BlobReader(_CannedCatFile(f"{oid} blob ".encode("ascii") + reply))
    reader.ask(oid)  # the reply comes in when the blob is read
    return reader.read(oid)


@pytest.mark.parametrize("reply", [
    b"10\nint a;\n",  # the child died after 7 of 10 bytes
    b"7\nint a;\n",  # every byte, but no closing newline
], ids=["short_payload", "no_newline"])
def test_cut_short_blob_is_never_read_as_content(reply):
    assert cat_file_read(b"7\nint a;\n\n") == b"int a;\n"
    with pytest.raises(CorruptRepo, match=r"cannot read blob a{40}: .*\(7 of"):
        cat_file_read(reply)


def test_raw_stream_has_no_hunks(basic_repo):
    path, _ = basic_repo
    changes = [change for commit in stream(path) for change in commit.changes]
    assert changes
    assert all(change.new_blob for change in changes)
    assert "hunks" not in FileChange._fields
    with GitRepo(path) as repo:
        assert all(hydrate(repo, change)[0] for change in changes)


def test_resolve_tip_none_for_empty(repo_builder):
    with GitRepo(repo_builder.path) as repo:
        assert repo.resolve_tip("HEAD") is None


_ABSENT = "0123456789abcdef" * 2 + "01234567"  # no such object


@functools.lru_cache(maxsize=None)
def _history_blobs(path):
    """Every blob of the history's changes, by id, as `git cat-file blob` gives it."""
    oids = sorted({oid for commit in stream(path) for change in commit.changes
                   for oid in (change.old_blob, change.new_blob) if oid})
    return {oid: subprocess.run(["git", "-C", path, "cat-file", "blob", oid],
                                capture_output=True, check=True).stdout for oid in oids}


@settings(max_examples=150, deadline=None)
@given(window=st.sampled_from([1, 2, 3, _BlobReader.WINDOW]),
       steps=st.lists(st.tuples(st.sampled_from(["ask", "read", "read out of order"]),
                                st.integers(0, 99)),
                      max_size=40))
@example(window=1, steps=[("ask", 0), ("ask", 1), ("read out of order", 1), ("read", 0),
                          ("read", 0)])
def test_any_interleaving_of_asks_and_reads_gives_gits_bytes(multifile_repo, window, steps):
    # a read takes the oldest blob asked for and not yet read, or with
    # nothing asked for, any blob; a read of any other blob raises and
    # takes no reply, so the reads after it still get their own bytes
    blobs = _history_blobs(multifile_repo[0])
    oids = sorted(blobs) + [_ABSENT]
    asked = deque()
    reads = 0
    with GitRepo(multifile_repo[0]) as repo:
        reader = repo._reader()
        reader.WINDOW = window
        for verb, index in steps:
            oid = oids[index % len(oids)]
            if verb == "ask":
                repo.ask(oid)
                asked.append(oid)
            elif verb == "read out of order":
                if asked and oid != asked[0]:
                    with pytest.raises(RuntimeError, match=f"blob {oid} read before {asked[0]}"):
                        repo.blob_bytes(oid)
            else:
                oid = asked.popleft() if asked else oid
                reads += 1
                if oid == _ABSENT:
                    with pytest.raises(CorruptRepo, match=f"cannot read blob {oid}: .*'missing'"):
                        repo.blob_bytes(oid)
                else:
                    assert repo.blob_bytes(oid) == blobs[oid]
            # requests in git's stdin stay within the window
            assert len(reader._requested) <= window
        assert repo.blob_counts() == (reads, len(asked))


def test_asking_far_ahead_of_the_reads_cannot_deadlock(repo_builder):
    # 64 blobs of 200 KB, each larger than a pipe holds. Asked 50 times
    # over, they make 131 KB of requests, more than git's stdin pipe and
    # its input buffer hold while git waits on a full stdout pipe, unless
    # the window keeps them back. The first 64 asks are read, and the
    # reader closes with 3,136 asks and a full reply pipe left over.
    bodies = {f"f{index:02d}.c": f"int v{index:02d};\n".encode("ascii") * 20000
              for index in range(64)}
    for name, body in bodies.items():
        repo_builder.write_bytes(name, body)
    repo_builder.commit("big", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    with GitRepo(repo_builder.path) as repo:
        entries = repo.ls_tree("HEAD")
    outcome = {}

    def ask_far_ahead_then_read():
        with GitRepo(repo_builder.path) as repo:
            outcome["reader"] = repo._reader()
            for _ in range(50):
                for entry in entries:
                    repo.ask(entry.oid)
            outcome["read"] = {entry.path: repo.blob_bytes(entry.oid) for entry in entries}
            outcome["unread"] = repo.blob_counts()[1]
        outcome["closed"] = True

    worker = threading.Thread(target=ask_far_ahead_then_read, daemon=True)
    worker.start()
    worker.join(timeout=60)
    if worker.is_alive():
        outcome["reader"]._proc.kill()  # lets the blocked worker fail and exit
        worker.join(timeout=10)
        pytest.fail("asking for and reading blobs deadlocked")
    assert outcome["read"] == bodies
    assert outcome["unread"] == 50 * 64 - 64
    assert outcome.get("closed")


def test_ls_tree_lists_blobs(basic_repo):
    path, _ = basic_repo
    with GitRepo(path) as repo:
        tip = repo.resolve_tip("HEAD")
        entries = repo.ls_tree(tip)
    assert [e.path for e in entries] == ["f.c"]


# ----------------------------------------------------------------------
# the user's git config does not change the mined stream
# ----------------------------------------------------------------------

ANALYSIS_ARTIFACTS = ("scores.csv", "ledger.json", "warnings.jsonl", "run_meta.json")


def analysis_bytes(repo_path, out):
    run_analyze(RunConfig(repo_path=repo_path, output_dir=str(out)))
    artifacts = {}
    for name in ANALYSIS_ARTIFACTS:
        with open(os.path.join(out, name), "rb") as handle:
            artifacts[name] = handle.read()
    return artifacts


def _config_sensitive_history(repo):
    repo.write("sub/a.c", "int a;\n#endif\n")
    repo.write("z.c", "int z;\n#endif\n")
    repo.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write("sub/a.c", "#ifdef A\nint a;\n#endif\n")
    repo.write("z.c", "int z;\nint y;\n")
    repo.commit("c2", "Björn", "björn@example.com", "2020-02-01T00:00:00 +0000")


@pytest.mark.parametrize("key, value, subdirectory", [
    # without --root the root commit's changes vanish, and with them its authors
    ("log.showRoot", "false", ""),
    # without --no-relative a subdirectory path mines only that subdirectory
    ("diff.relative", "true", "sub"),
    # without -O/dev/null z.c comes first and so does its warning
    ("diff.orderFile", None, ""),
    # without --encoding=UTF-8 the author's key reaches the ledger mangled
    ("i18n.logOutputEncoding", "ISO-8859-1", ""),
])
def test_git_config_does_not_change_the_artifacts(repo_builder, tmp_path, key, value,
                                                  subdirectory):
    _config_sensitive_history(repo_builder)
    repo_path = os.path.join(repo_builder.path, subdirectory)
    plain = analysis_bytes(repo_path, tmp_path / "plain")
    if value is None:
        order = tmp_path / "order.txt"
        order.write_text("z.c\nsub/a.c\n", encoding="utf-8")
        value = str(order)
    repo_builder.git("config", key, value)
    assert analysis_bytes(repo_path, tmp_path / "configured") == plain
