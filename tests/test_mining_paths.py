"""Every ledger comes from pipeline.mine; these tests pin what it hands on.

mine folds the history and writes nothing; run_analyze is mine followed
by the writer, so the ledger.json it writes is the ledger mine folded.
Also here: binary sides keep their path bookkeeping, warnings.jsonl
follows fold order, file names keep the bytes git stores, and random
small histories neither crash a run nor make two runs differ.
"""

import csv
import json
import os
import subprocess
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import by_created
from fixture_repos import BASIC, IDENTITY, MULTIFILE, RENAME, RepoBuilder
from metric_reference import acceptances
from varxpert.errors import NoEligibleFiles
from varxpert.history import GitRepo
from varxpert.ledger import ledger_to_dict
from varxpert import pipeline
from varxpert.pipeline import RunConfig, mine, run_analyze, run_report
from varxpert.util import compact_json


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
    state, warnings = mine(config)
    assert not out.exists()
    ids = by_created(state.ledger.files)
    for path, expected in _FA_DL_AC[fixture].items():
        contributors = state.ledger.files[ids[path]].contributors
        ac = acceptances(contributors)
        assert {key: (s.fa, s.dl, ac[key]) for key, s in contributors.items()} == expected
    run_analyze(config)
    assert read(out / "ledger.json").decode("utf-8") == compact_json(ledger_to_dict(state.ledger))
    assert [json.loads(line) for line in read(out / "warnings.jsonl").splitlines()] == \
        warnings


def test_every_blob_asked_for_ahead_is_read(history_paths, repo_builder):
    # read_ahead predicts the sides each change reads; on the fixtures,
    # the generated histories and files that turn binary inside a --since
    # window (read_ahead asks for both sides, not knowing the new one is
    # binary) every blob it asks for is read
    repo = repo_builder
    for i in range(3):
        repo.write(f"f{i}.c", f"#ifdef F{i}\nint f{i};\n#endif\n")
    repo.commit("text", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    for i in range(3):
        repo.write_bytes(f"f{i}.c", b"\x00 table " + bytes([i]))
    repo.commit("binary", "Bob", "bob@example.com", "2020-03-01T00:00:00 +0000")
    repo.write("main.c", "int main;\n")
    repo.commit("text again", "Carol", "carol@example.com", "2020-04-01T00:00:00 +0000")
    configs = [RunConfig(repo_path=path) for path in history_paths]
    for config in configs + [RunConfig(repo_path=repo.path, since=1580515200)]:
        counters = mine(config)[0].counters
        assert counters.blob_reads > 0
        assert counters.blob_asks_unread == 0, config.repo_path


def _record_blob_traffic(monkeypatch):
    """The oids mine asks git for and the oids it reads, each in order."""
    asks, reads = [], []
    ask, blob_bytes = GitRepo.ask, GitRepo.blob_bytes

    def recording_ask(self, oid):
        asks.append(oid)
        return ask(self, oid)

    def recording_blob_bytes(self, oid):
        reads.append(oid)
        return blob_bytes(self, oid)

    monkeypatch.setattr(GitRepo, "ask", recording_ask)
    monkeypatch.setattr(GitRepo, "blob_bytes", recording_blob_bytes)
    return asks, reads


def _middle_timestamp(repo_path):
    stamps = subprocess.run(["git", "-C", repo_path, "log", "--first-parent", "--format=%at"],
                            capture_output=True, text=True, check=True).stdout.split()
    return int(sorted(stamps, key=int)[len(stamps) // 2])


def test_the_reads_are_the_asks(history_paths, repo_builder, monkeypatch):
    # every blob mine reads was asked for, in the order of the asks, and
    # every blob asked for is read: on the fixtures, the generated
    # histories and a file edited while binary (c.c), with and without a
    # --since window that starts halfway through the history
    repo = repo_builder
    repo.write("c.c", "#ifdef C\nint c;\n#endif\n")
    repo.commit("text", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    for version in range(3):
        repo.write_bytes("c.c", b"\x00 table " + bytes([version]))
        repo.commit(f"binary {version}", "Bob", "bob@example.com",
                    f"2020-0{version + 2}-01T00:00:00 +0000")
    repo.write("main.c", "int main;\n")
    repo.commit("text again", "Carol", "carol@example.com", "2020-06-01T00:00:00 +0000")
    asks, reads = _record_blob_traffic(monkeypatch)
    for repo_path in history_paths + [repo.path]:
        for since in (None, _middle_timestamp(repo_path)):
            del asks[:], reads[:]
            mine(RunConfig(repo_path=repo_path, since=since))
            assert reads, repo_path
            assert reads == asks, (repo_path, since)


def test_read_ahead_keeps_the_warnings_in_stream_order(repo_builder, tmp_path, monkeypatch):
    # log warnings (clamped clocks) come out of the stream READ_AHEAD
    # commits before the fold's own (scan, binary); they must still land
    # in warnings.jsonl where a fold that reads the stream directly puts
    # them, the last ones (a commit the window drops) included
    repo = repo_builder
    for month in range(2 * pipeline.READ_AHEAD + 5):
        name = f"f{month % 7}.c"
        if month % 5 == 0:
            repo.write_bytes(name, b"\x00 binary " + bytes([month]))
        else:
            repo.write(name, f"int v{month};\n#endif\n")
        date = f"{2001 + month // 12}-{month % 12 + 1:02d}-01T00:00:00 +0000"
        author_date = "1980-01-01T00:00:00 +0000" if month % 3 == 0 else date
        repo.commit(f"c{month}", "Alice", "alice@example.com", author_date, date)
    repo.write("late.c", "int late;\n")
    repo.commit("late", "Bob", "bob@example.com", "1980-01-01T00:00:00 +0000",
                "2031-01-01T00:00:00 +0000")
    config = RunConfig(repo_path=repo.path, until=1893456000, output_dir=str(tmp_path / "ahead"))
    run_analyze(config)
    monkeypatch.setattr(pipeline, "READ_AHEAD", 0)
    run_analyze(config._replace(output_dir=str(tmp_path / "direct")))
    for name in ("warnings.jsonl", "ledger.json", "scores.csv", "run_meta.json"):
        ahead, direct = (read(tmp_path / out / name) for out in ("ahead", "direct"))
        assert ahead == direct, name
    warnings = [json.loads(line) for line in read(tmp_path / "ahead" / "warnings.jsonl").splitlines()]
    assert {warning["kind"] for warning in warnings} == \
        {"clamped_timestamp", "scan_stray_directive", "binary_skipped"}
    assert warnings[-1]["used_timestamp"] == 1924992000  # the late commit's, after the fold's


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
    ledger = mine(RunConfig(repo_path=repo.path))[0].ledger
    ids = by_created(ledger.files)
    assert set(ids) == {"a.c", "b.c"}
    assert ledger.paths == {"moved.c": ids["b.c"]}


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
# names as git stores them
# ----------------------------------------------------------------------

# names git would quote (non-ASCII, tab, quote, backslash, LF), one that
# opens like a raw head, and two told apart only by a byte that is not UTF-8
_AWKWARD_NAMES = ("ä.c".encode(), b"a\tb.c", b'q"uote.c', b"back\\slash.c", b"a\nb.c",
                  b":colon.c", b"d\xff.c", b"d\xfe.c")


def test_names_keep_their_bytes_through_mine(repo_builder, tmp_path):
    # the renamed file's new name opens like a commit header and then like
    # the first raw head of a commit, so only paths taken by count read it
    repo = repo_builder
    for number, name in enumerate(_AWKWARD_NAMES):
        repo.write(os.fsdecode(name), f"#ifdef F{number}\nint f{number};\n#endif\n")
    repo.commit("awkward names", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    renamed = b"\x01\n:moved\xfd.c"
    repo.move(os.fsdecode(b"d\xff.c"), os.fsdecode(renamed))
    repo.commit("rename", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    out = tmp_path / "out"
    run_analyze(RunConfig(repo_path=repo.path, output_dir=str(out)))
    with open(out / "ledger.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    files, ids = stored["files"], by_created(stored["files"])
    current = {name: renamed if name == b"d\xff.c" else name for name in _AWKWARD_NAMES}
    assert stored["paths"] == \
        {os.fsdecode(now): ids[os.fsdecode(created)] for created, now in current.items()}
    on_disk = set(os.listdir(os.fsencode(repo.path))) - {b".git"}
    assert set(map(os.fsencode, stored["paths"])) == on_disk
    # scores.csv holds the same bytes, and reads back with surrogateescape
    with open(out / "scores.csv", encoding="utf-8", errors="surrogateescape",
              newline="") as handle:
        rows = list(csv.reader(handle))
    assert {row[0] for row in rows[1:]} == set(files)


def test_names_told_apart_only_by_bytes_that_are_not_utf8_are_two_files(repo_builder,
                                                                          tmp_path):
    # A adds a variable a\xff.c and a mandatory a\xfe.c, and B edits the
    # mandatory one: A touched both kinds of code and B only mandatory code
    repo = repo_builder
    variable, mandatory = os.fsdecode(b"a\xff.c"), os.fsdecode(b"a\xfe.c")
    repo.write(variable, "#ifdef X\nint x;\n#endif\n")
    repo.write(mandatory, "int y;\n")
    repo.commit("both kinds", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write(mandatory, "int y;\nint z;\n")
    repo.commit("mandatory edit", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    config = RunConfig(repo_path=repo.path, output_dir=str(tmp_path / "out"))
    report = run_report(config)
    ledger = mine(config)[0].ledger
    files = [(path, ledger.files[lineage_id]) for path, lineage_id in ledger.paths.items()]
    assert len(files) == len(ledger.files)
    assert sorted((path, f.total_events, sorted(f.contributors)) for path, f in files) == [
        (mandatory, 2, ["alice@example.com", "bob@example.com"]),
        (variable, 1, ["alice@example.com"]),
    ]
    assert (report.files, report.generalist_pct, report.specialist_pct, report.mixed_pct) == \
        (2, 50.0, 0.0, 50.0)


# ----------------------------------------------------------------------
# random histories
# ----------------------------------------------------------------------

# d\udcff.c and d\udcfe.c are one name when bytes that are not UTF-8 are replaced
_NAMES = ("a.c", "b.h", "sub/c.c", "d\udcff.c", "d\udcfe.c", "E.C", "notes.txt")
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
    st.sampled_from(("write", "write", "rename", "delete", "symlink")),
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
            full = os.path.join(repo.path, name)
            if verb == "write":
                os.makedirs(os.path.dirname(full), exist_ok=True)
                if os.path.islink(full):
                    os.remove(full)  # write a file in the link's place, not through it
                with open(full, "wb") as handle:
                    handle.write(content)
                present.add(name)
            elif verb == "symlink":
                os.makedirs(os.path.dirname(full), exist_ok=True)
                if name in present:
                    os.remove(full)
                os.symlink(target, full)
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
    """Change records a hit folds: those not stopped at a binary side."""
    count = 0
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        # a change record is 7 fields long and ends in binary_oid
        count += sum(len(record) == 7 and record[-1] is None for record in records)
    return count


_ADVANCED = ("scores.csv", "ledger.json", "warnings.jsonl", "timeline.csv",
             "evaluation.csv", "report.csv", "report.json", "report.md")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_operations, min_size=1, max_size=4), min_size=2, max_size=6),
       st.data())
def test_advanced_cache_gives_the_cold_artifacts(commits, data):
    # the gate a resumable fold must pass (ROADMAP item 4): mine at commit
    # k into a cache, extend the history to n, mine again on that cache;
    # the result is the cold run's at n, and every change up to k came
    # from the old tip's records
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
