"""Every ledger comes from pipeline.mine; these tests pin what it hands on.

mine folds the history and writes nothing; run_analyze is mine followed
by the writer, so the ledger.json it writes is the ledger mine folded.
Also here: binary sides keep their path bookkeeping, warnings.jsonl
follows fold order, and random small histories (ROADMAP item 2's gate)
neither crash a run nor make two runs differ.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RepoBuilder
from fixture_repos import BASIC, IDENTITY, MULTIFILE, RENAME
from varxpert.errors import NoEligibleFiles
from varxpert.ledger import ledger_to_dict
from varxpert.pipeline import RunConfig, mine, run_analyze, run_report
from varxpert.util import stable_json


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


# hand-computed (FA, DL, AC) per developer, by the path that created the file
_FA_DL_AC = {
    "basic_repo": {"f.c": BASIC["fa_dl_ac"]},
    "rename_repo": {"a.c": RENAME["fa_dl_ac"]},
    "guard_repo": {},
    "multifile_repo": {"x.c": MULTIFILE["x_fa_dl_ac"], "y.c": MULTIFILE["y_fa_dl_ac"]},
    "identity_repo": {"m.c": IDENTITY["m_fa_dl_ac"]},
}


@pytest.mark.parametrize("fixture", sorted(_FA_DL_AC))
def test_writer_writes_the_mined_ledger(fixture, request, tmp_path):
    repo_path, _ = request.getfixturevalue(fixture)
    out = tmp_path / "out"
    config = RunConfig(repo_path=repo_path, output_dir=str(out))
    state, sink = mine(config)
    assert not out.exists()
    by_created = {r.created_path: r for r in state.ledger.files.values()}
    for path, expected in _FA_DL_AC[fixture].items():
        contributors = by_created[path].contributors
        assert {key: (s.fa, s.dl, s.ac) for key, s in contributors.items()} == expected
    run_analyze(config)
    assert read(out / "ledger.json").decode("utf-8") == stable_json(ledger_to_dict(state.ledger))
    assert [json.loads(line) for line in read(out / "warnings.jsonl").splitlines()] == \
        sink.records


def test_binary_deletion_and_rename_keep_their_bookkeeping(repo_builder):
    # both files turn binary; the rename must still move b.c's lineage
    # and the deletion must still end a.c's
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
    files = mine(RunConfig(repo_path=repo.path))[0].ledger.files
    assert {lid: (f.alive, f.current_path) for lid, f in files.items()} == {
        next(lid for lid in files if lid.startswith("a.c@")): (False, "a.c"),
        next(lid for lid in files if lid.startswith("b.c@")): (True, "moved.c"),
    }


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
