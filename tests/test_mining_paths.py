"""The two ways a change reaches the classifier, checked against each other.

run_analyze reads an unhydrated `git log` stream and hydrates each change
inside its classifier; enumerate_commits hydrates the stream itself and
the fold uses the default classifier. Both must give the same ledger.
Also here: warnings.jsonl follows fold order, and random small histories
(ROADMAP item 2's gate) neither crash a run nor make two runs differ.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RepoBuilder
from varxpert.errors import NoEligibleFiles
from varxpert.history import enumerate_commits
from varxpert.ledger import build_contribution_ledger, ledger_to_dict
from varxpert.pipeline import RunConfig, run_analyze, run_report
from varxpert.util import stable_json


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def folded_ledger_json(repo_path):
    """ledger.json as the hydrated stream and the default classifier give it."""
    ledger = build_contribution_ledger(enumerate_commits(repo_path))
    return stable_json(ledger_to_dict(ledger)).encode("utf-8")


@pytest.mark.parametrize("fixture", [
    "basic_repo", "rename_repo", "guard_repo", "multifile_repo", "identity_repo",
])
def test_both_hydration_paths_fold_the_same_ledger(fixture, request, tmp_path):
    repo_path, _ = request.getfixturevalue(fixture)
    run_analyze(RunConfig(repo_path=repo_path, output_dir=str(tmp_path)))
    assert read(os.path.join(tmp_path, "ledger.json")) == folded_ledger_json(repo_path)


def test_binary_deletion_and_rename_keep_their_bookkeeping(repo_builder, tmp_path):
    # both files turn binary; the rename must still move b.c's lineage
    # and the deletion must still end a.c's, on both hydration paths
    repo = repo_builder
    repo.write("a.c", "int a;\n")
    repo.write("b.c", "int b;\n")
    repo.commit("text", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write_bytes("a.c", b"\x00\x01 table\n")
    repo.write_bytes("b.c", b"\x00\x02 table\n")
    repo.commit("binary", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    repo.delete("a.c")
    repo.move("b.c", "moved.c")
    repo.commit("delete and rename", "Bob", "bob@example.com", "2020-03-01T00:00:00 +0000")
    repo.write("moved.c", "int b;\nint c;\n")
    repo.commit("text again", "Carol", "carol@example.com", "2020-04-01T00:00:00 +0000")
    folded = folded_ledger_json(repo.path)
    files = json.loads(folded)["files"]
    assert {lid: (f["alive"], f["current_path"]) for lid, f in files.items()} == {
        next(lid for lid in files if lid.startswith("a.c@")): (False, "a.c"),
        next(lid for lid in files if lid.startswith("b.c@")): (True, "moved.c"),
    }
    run_analyze(RunConfig(repo_path=repo.path, output_dir=str(tmp_path)))
    assert read(os.path.join(tmp_path, "ledger.json")) == folded


def test_warnings_follow_fold_order(repo_builder, tmp_path):
    # git lists the second commit's changes add, modify, rename, delete
    # (by path); the fold takes deletions, then renames, then the rest
    repo = repo_builder
    body = "".join(f"int v{i};\n" for i in range(8))
    repo.write("z_gone.c", "int gone;\n#endif\n")
    repo.write("y_old.c", body)
    repo.write("b_mod.c", body)
    repo.commit("before the window", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.delete("z_gone.c")
    repo.move("y_old.c", "y_new.c")
    repo.write("y_new.c", body + "#else\n")
    repo.write_bytes("a_bin.c", b"\x00\x01 table\n")
    repo.write("b_mod.c", body + "#elif X\n")
    commit = repo.commit("mixed", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    out = str(tmp_path / "out")
    # the window starts at the second commit, so z_gone.c's blob is first
    # seen, and reported, at its deletion
    run_analyze(RunConfig(repo_path=repo.path, output_dir=out, since=1580515200))
    records = [json.loads(line) for line in read(os.path.join(out, "warnings.jsonl")).splitlines()]
    assert [(r["kind"], r["path"]) for r in records] == [
        ("scan_stray_directive", "z_gone.c"),
        ("scan_stray_directive", "y_new.c"),
        ("binary_skipped", "a_bin.c"),
        ("scan_stray_directive", "b_mod.c"),
    ]
    assert {r["commit"] for r in records} == {commit}


# ----------------------------------------------------------------------
# random histories
# ----------------------------------------------------------------------

_NAMES = ("a.c", "b.h", "sub/c.c", "d\udcff.c", "E.C", "notes.txt")
_LINES = ("int x;", "#ifdef A", "#if defined(B) && C", "#elif D", "#else", "#endif",
          "#ifndef G_H", "#define G_H", "#include <x.h>", "  return 0;", "")
_AUTHORS = (("Alice", "alice@example.com"), ("Alice", "ALICE@example.com"),
            ("Bob", "bob@example.com"), ("Carol", "carol@example.com"))


def _render(lines, crlf):
    return "".join(line + ("\r\n" if crlf else "\n") for line in lines).encode("utf-8")


_contents = st.one_of(
    st.builds(_render, st.lists(st.sampled_from(_LINES), max_size=10), st.booleans()),
    st.just(b"\x00\x01\x02 table\n"),
)
_operations = st.tuples(
    st.sampled_from(("write", "write", "rename", "delete")),
    st.integers(0, len(_NAMES) - 1),
    st.integers(0, len(_NAMES) - 1),
    _contents,
)


def _build_history(root, commits, start=0, present=None):
    """Commit each list of operations in turn.

    To extend a history, pass the number of its commits as start and the
    set of paths it left present.
    """
    repo = RepoBuilder(root)
    present = set() if present is None else present
    for month, operations in enumerate(commits, start):
        for verb, first, second, content in operations:
            name, target = _NAMES[first], _NAMES[second]
            if verb == "write":
                full = os.path.join(repo.path, name)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "wb") as handle:
                    handle.write(content)
                present.add(name)
            elif verb == "rename" and name in present and target not in present:
                os.makedirs(os.path.dirname(os.path.join(repo.path, target)), exist_ok=True)
                repo.move(name, target)
                present.remove(name)
                present.add(target)
            elif verb == "delete" and name in present:
                repo.delete(name)
                present.remove(name)
        author, email = _AUTHORS[month % len(_AUTHORS)]
        repo.commit(f"c{month}", author, email, f"2020-{month + 1:02d}-01T00:00:00 +0000")
    return repo.path


def _report(repo_path, out, cache_dir=None):
    """Artifact bytes by name after `report`; NoEligibleFiles is the one allowed error.

    With a cache_dir, `analyze` mines into the cache first and `report`
    reuses that analysis.
    """
    config = RunConfig(repo_path=repo_path, output_dir=out, cache_dir=cache_dir)
    try:
        if cache_dir is not None:
            run_analyze(config)
        run_report(config)
    except NoEligibleFiles:
        pass
    if not os.path.isdir(out):
        return {}
    return {name: read(os.path.join(out, name)) for name in sorted(os.listdir(out))}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_operations, min_size=1, max_size=4), min_size=1, max_size=6))
def test_random_histories_mine_deterministically(commits):
    with tempfile.TemporaryDirectory() as scratch:
        repo_path = _build_history(os.path.join(scratch, "repo"), commits)
        first = _report(repo_path, os.path.join(scratch, "first"))
        second = _report(repo_path, os.path.join(scratch, "second"))
        assert first == second
        if "ledger.json" in first:
            assert first["ledger.json"] == folded_ledger_json(repo_path)


def _change_records(cache_dir):
    count = 0
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name), encoding="utf-8") as handle:
            count += sum('"commit_id"' in line for line in handle)
    return count


_ADVANCED = ("scores.csv", "ledger.json", "warnings.jsonl", "timeline.csv",
             "evaluation.csv", "report.csv", "report.json", "report.md")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_operations, min_size=1, max_size=4), min_size=2, max_size=6),
       st.data())
def test_advanced_cache_gives_the_cold_artifacts(commits, data):
    # ROADMAP item 5's gate: mine at commit k into a cache, extend the
    # history to n, mine again on that cache; the result is the cold run's
    # at n, and every change up to k came from the old tip's records
    k = data.draw(st.integers(1, len(commits) - 1), label="k")
    with tempfile.TemporaryDirectory() as scratch:
        root, cache_dir = os.path.join(scratch, "repo"), os.path.join(scratch, "cache")
        present = set()
        _build_history(root, commits[:k], present=present)
        _report(root, os.path.join(scratch, "at_k"), cache_dir)
        cached = _change_records(cache_dir)
        _build_history(root, commits[k:], start=k, present=present)
        advanced = _report(root, os.path.join(scratch, "advanced"), cache_dir)
        cold = _report(root, os.path.join(scratch, "cold"))
        assert set(advanced) == set(cold)
        for name in _ADVANCED:
            assert advanced.get(name) == cold.get(name), name
        if "run_meta.json" in advanced:
            assert json.loads(advanced["run_meta.json"])["counters"]["cache_hits"] == cached
