"""Ledger fold tests: per developer-file tallies, lineage tracking
across renames and deletions, change classification, month bookkeeping."""

import collections
import csv
import os

import pytest

from conftest import by_created, mined_ledger, scan
from fixture_repos import BASIC, IDENTITY, RENAME
from metric_reference import acceptances
from varxpert import pipeline
from varxpert.errors import AnnotationMismatch
from varxpert.history import ChangeKind, FileChange, diff_hunks
from varxpert.ledger import (
    ChangeFacts,
    build_contribution_ledger,
    classify_change,
    ledger_from_dict,
    ledger_to_dict,
)
from varxpert.pipeline import RunConfig, mine, run_analyze
from varxpert.util import split_lines


def bitmap(content):
    return scan(content).annotations


def first(months):
    """The month a first-month field must hold for an oracle month set."""
    return min(months, default=None)


def only_file(ledger):
    """The ledger's one (lineage id, FileRecord)."""
    assert len(ledger.files) == 1
    return next(iter(ledger.files.items()))


# ----------------------------------------------------------------------
# classify_change units
# ----------------------------------------------------------------------

def modify(old, new):
    """The hunks of an edit from old to new."""
    return diff_hunks(split_lines(old), split_lines(new))


def add(new):
    """The hunks of an added file."""
    return diff_hunks([], split_lines(new))


def test_classify_added_variable_lines():
    new = "#ifdef A\nint x;\n#endif\n"
    got = classify_change(add(new), None, bitmap(new))
    assert got.touched_variable and not got.touched_mandatory


def test_classify_mixed_addition():
    new = "int a;\n#ifdef A\nint x;\n#endif\n"
    got = classify_change(add(new), None, bitmap(new))
    assert got.touched_variable and got.touched_mandatory


@pytest.mark.parametrize("old, variable, mandatory", [
    ("#ifdef A\nint x;\n#endif\n", True, False),
    ("int a;\n", False, True),
    ("", False, False),
], ids=["variable_file", "mandatory_file", "empty_file"])
def test_classify_deleted_file(old, variable, mandatory):
    got = classify_change(diff_hunks(split_lines(old), []), bitmap(old), None)
    assert (got.touched_variable, got.touched_mandatory) == (variable, mandatory)


def test_classify_deletion_only_variable():
    old = "#ifdef A\nint x;\n#endif\nint y;\n"
    new = "int y;\n"
    change = modify(old, new)
    got = classify_change(change, bitmap(old), bitmap(new))
    assert got.touched_variable and not got.touched_mandatory


def test_classify_mandatory_edit():
    old = "int a;\nint b;\n"
    new = "int a;\nint c;\n"
    change = modify(old, new)
    got = classify_change(change, bitmap(old), bitmap(new))
    assert not got.touched_variable and got.touched_mandatory


def test_classify_else_branch_edit_names_opener_macro():
    old = "#ifdef X\nint m = 1;\n#else\nint m = 0;\n#endif\n"
    new = "#ifdef X\nint m = 1;\n#else\nint m = 9;\n#endif\n"
    change = modify(old, new)
    got = classify_change(change, bitmap(old), bitmap(new))
    assert got.touched_variable and not got.touched_mandatory


def test_classify_zero_line_change_is_empty():
    change = modify("int a;\n", "int a;\n")
    got = classify_change(change, bitmap("int a;\n"), bitmap("int a;\n"))
    assert got.is_empty


def test_annotation_count_must_match_content(repo_builder, monkeypatch):
    repo_builder.write("f.c", "int a;\nint b;\n")
    repo_builder.commit("add", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    short = scan("int a;\n")  # one flag for the two lines
    monkeypatch.setattr(pipeline, "scan_text", lambda lines, exclude_include_guards: short)
    with pytest.raises(AnnotationMismatch, match="new side of f.c: 1 line flags for 2 lines"):
        mine(RunConfig(repo_path=repo_builder.path))


# ----------------------------------------------------------------------
# full folds over the fixture repositories
# ----------------------------------------------------------------------

def test_basic_ledger_stats(basic_repo):
    path, shas = basic_repo
    ledger = mined_ledger(path)
    lineage_id, record = only_file(ledger)
    assert lineage_id == f"f.c@{shas['c1'][:12]}"
    assert ledger.paths == {"f.c": lineage_id}
    assert record.has_variable_code_ever
    assert record.contributors[BASIC["alice"]].fa == 1
    assert record.total_events == 4
    derived = acceptances(record.contributors)
    for key, (fa, dl, ac) in BASIC["fa_dl_ac"].items():
        stats = record.contributors[key]
        assert (stats.fa, stats.dl, derived[key]) == (fa, dl, ac)
    alice = record.contributors[BASIC["alice"]]
    bob = record.contributors[BASIC["bob"]]
    assert alice.first_variable_month == first(BASIC["alice_variable_months"])
    assert alice.first_mandatory_month == first(BASIC["alice_mandatory_months"])
    assert bob.first_variable_month is None
    assert bob.first_mandatory_month == first(BASIC["bob_mandatory_months"])
    assert ledger.developers == {BASIC["alice"], BASIC["bob"]}
    assert ledger.commit_count == 4
    assert ledger.merge_count == 0
    assert (ledger.first_month, ledger.last_month) == ("2020-01", "2020-04")


def test_acceptances_complement_deliveries(basic_repo, rename_repo, multifile_repo, tmp_path):
    for path, _ in (basic_repo, rename_repo, multifile_repo):
        out = tmp_path / os.path.basename(path)
        run_analyze(RunConfig(repo_path=path, output_dir=str(out)))
        with open(out / "scores.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        events = collections.Counter()
        for row in rows:
            events[row["file"]] += int(row["dl"])
        assert rows
        for row in rows:
            assert int(row["ac"]) == events[row["file"]] - int(row["dl"]), row


def test_rename_keeps_one_lineage(rename_repo):
    path, shas = rename_repo
    ledger = mined_ledger(path)
    lineage_id, record = only_file(ledger)
    assert lineage_id == f"a.c@{shas['c1'][:12]}"
    assert ledger.paths == {"b.c": lineage_id}
    assert record.total_events == 5
    derived = acceptances(record.contributors)
    for key, (fa, dl, ac) in RENAME["fa_dl_ac"].items():
        stats = record.contributors[key]
        assert (stats.fa, stats.dl, derived[key]) == (fa, dl, ac)


def test_deletion_only_variable_change_counts(rename_repo):
    path, _ = rename_repo
    ledger = mined_ledger(path)
    _, record = only_file(ledger)
    bob = record.contributors["bob@example.com"]
    assert bob.first_variable_month == first(RENAME["bob_variable_months"])
    assert bob.first_mandatory_month is None
    # the block is gone but the lineage remembers having had it
    assert record.has_variable_code_ever


def test_identity_folding_and_dead_lineage(identity_repo):
    path, shas = identity_repo
    ledger = mined_ledger(path)
    assert set(ledger.developers) == {IDENTITY["ivy_key"], IDENTITY["jack_key"]}

    ids = by_created(ledger.files)
    # tmp.c's lineage is dead: it keeps its record and holds no path
    assert ledger.paths == {"m.c": ids["m.c"]}
    assert ledger.files[ids["tmp.c"]].has_variable_code_ever is False

    contributors = ledger.files[ids["m.c"]].contributors
    stats = contributors[IDENTITY["ivy_key"]]
    ac = acceptances(contributors)[IDENTITY["ivy_key"]]
    assert (stats.fa, stats.dl, ac) == IDENTITY["m_fa_dl_ac"][IDENTITY["ivy_key"]]
    # the lying author clock lands in the committer's month
    assert stats.first_mandatory_month == first(IDENTITY["ivy_months"]["mandatory"])
    assert stats.first_variable_month == first(IDENTITY["ivy_months"]["variable"])


def test_file_created_before_window_has_no_first_author(basic_repo):
    path, shas = basic_repo
    # window opens after c1, so f.c looks pre-existing
    ledger = mined_ledger(path, since=1580515200)
    lineage_id, record = only_file(ledger)
    assert not any(stats.fa == 1 for stats in record.contributors.values())
    assert lineage_id == f"f.c@{shas['c2'][:12]}"
    alice = record.contributors["alice@example.com"]
    assert alice.fa == 0
    assert alice.dl == 2
    assert record.total_events == 3
    assert ledger.commit_count == 3


def test_pure_rename_records_no_event(repo_builder):
    repo = repo_builder
    repo.write("r.c", "int a;\nint b;\nint c;\n")
    c1 = repo.commit("start", "Alice", "alice@example.com",
                     "2020-01-01T00:00:00 +0000")
    repo.move("r.c", "s.c")
    repo.commit("just move", "Bob", "bob@example.com",
                "2020-02-01T00:00:00 +0000")
    ledger = mined_ledger(repo.path)
    lineage_id, record = only_file(ledger)
    assert lineage_id == f"r.c@{c1[:12]}"
    assert ledger.paths == {"s.c": lineage_id}
    assert record.total_events == 1
    assert "bob@example.com" not in record.contributors
    # bob authored a commit but delivered no line changes anywhere
    assert "bob@example.com" not in ledger.developers


def test_empty_added_file_starts_no_lineage(repo_builder):
    repo = repo_builder
    repo.write("e.c", "")
    repo.write("real.c", "int a;\n")
    repo.commit("empty and real", "Alice", "alice@example.com",
                "2020-01-01T00:00:00 +0000")
    repo.write("e.c", "int later;\n")
    c2 = repo.commit("fill in", "Bob", "bob@example.com",
                     "2020-02-01T00:00:00 +0000")
    ledger = mined_ledger(repo.path)
    ids = by_created(ledger.files)
    assert set(ids) == {"real.c", "e.c"}
    # e.c only gained a lineage when content appeared, with no first author
    lineage_id = ids["e.c"]
    record = ledger.files[lineage_id]
    assert lineage_id == f"e.c@{c2[:12]}"
    assert not any(stats.fa == 1 for stats in record.contributors.values())
    assert record.contributors["bob@example.com"].fa == 0


def test_name_reuse_chain_as_git_reports_it(repo_builder):
    # moving b.c away and giving a.c its name reaches git as D+M+A,
    # since rename pairing never targets a path that already existed;
    # the old b.c lineage continues under b.c with new content
    repo = repo_builder
    repo.write("a.c", "int alpha_one;\nint alpha_two;\nint alpha_three;\n")
    repo.write("b.c", "long beta_one;\nlong beta_two;\nlong beta_three;\n")
    repo.commit("two files", "Alice", "alice@example.com",
                "2020-01-01T00:00:00 +0000")
    repo.move("b.c", "c.c")
    repo.move("a.c", "b.c")
    repo.commit("shift names", "Alice", "alice@example.com",
                "2020-02-01T00:00:00 +0000")
    ledger = mined_ledger(repo.path)
    ids = by_created(ledger.files)
    assert len(ledger.files) == 3
    # a.c's lineage is dead; b.c's and c.c's sit at their first paths
    assert ledger.paths == {"b.c": ids["b.c"], "c.c": ids["c.c"]}
    assert "a.c" in ids


def test_synthetic_rename_ordering_is_harmless():
    # streams handed to the fold directly may list a rename onto a path
    # before the rename that frees it; pops happen before assigns, so the
    # order of a commit's pairs does not change the ledger
    from varxpert.history import CommitRecord, resolve_identity

    dev = resolve_identity("Alice", "alice@example.com")

    def added(path):
        # an addition of mandatory lines
        return (FileChange(kind=ChangeKind.ADDED, path_before=None, path_after=path),
                ChangeFacts(touched_mandatory=True))

    def moved(old, new):
        # a rename that moves no line
        return FileChange(kind=ChangeKind.RENAMED, path_before=old, path_after=new), ChangeFacts()

    def commit(sha, timestamp, *pairs):
        changes = tuple(change for change, _ in pairs)
        return CommitRecord(sha * 40, dev, timestamp, False, changes), list(pairs)

    commits = [
        commit("a", 1577836800, added("a.c"), added("b.c")),
        commit("b", 1580515200, moved("a.c", "b.c"), moved("b.c", "c.c")),
    ]
    ledger = build_contribution_ledger(iter(commits))
    assert len(ledger.files) == 2
    ids = by_created(ledger.files)
    assert ledger.paths == {"b.c": ids["a.c"], "c.c": ids["b.c"]}
    assert all(r.total_events == 1 for r in ledger.files.values())
    reversed_pairs = build_contribution_ledger(
        (record, pairs[::-1]) for record, pairs in commits)
    assert ledger_to_dict(reversed_pairs) == ledger_to_dict(ledger)


def test_merge_commits_count_but_record_nothing(repo_builder):
    repo = repo_builder
    repo.write("m.c", "int a;\n")
    repo.commit("base", "Alice", "alice@example.com",
                "2020-01-01T00:00:00 +0000")
    repo.checkout("side", create=True)
    repo.write("m.c", "int a;\nint b;\n")
    repo.commit("side work", "Bob", "bob@example.com",
                "2020-01-02T00:00:00 +0000")
    repo.checkout("main")
    repo.write("other.c", "int c;\n")
    repo.commit("main work", "Alice", "alice@example.com",
                "2020-01-03T00:00:00 +0000")
    repo.merge("side", "2020-01-04T00:00:00 +0000")
    ledger = mined_ledger(repo.path)
    assert ledger.merge_count == 1
    assert ledger.commit_count == 2
    assert set(ledger.developers) == {"alice@example.com"}


def test_first_months_are_minima_not_first_seen(repo_builder):
    # author dates run 2020-05, 2020-02, 2020-04 down the first-parent
    # chain, so in either stream order the earliest month is neither the
    # first nor the last one the fold sees
    repo = repo_builder
    content = ""
    for n, (author_date, commit_date) in enumerate([
        ("2020-05-10T00:00:00 +0000", None),
        ("2020-02-10T00:00:00 +0000", "2020-06-10T00:00:00 +0000"),
        ("2020-04-10T00:00:00 +0000", "2020-07-10T00:00:00 +0000"),
    ]):
        content += f"#ifdef X{n}\nint x{n};\n#endif\nint y{n};\n"
        repo.write("f.c", content)
        repo.commit(f"c{n}", "Alice", "alice@example.com", author_date, commit_date)
    stats = only_file(mined_ledger(repo.path))[1].contributors["alice@example.com"]
    assert stats.dl == 3
    assert (stats.first_variable_month, stats.first_mandatory_month) == \
        ("2020-02", "2020-02")


def test_ledger_serialization_round_trip(multifile_repo):
    path, _ = multifile_repo
    ledger = mined_ledger(path)
    rebuilt = ledger_from_dict(ledger_to_dict(ledger))
    assert ledger_to_dict(rebuilt) == ledger_to_dict(ledger)
    assert rebuilt.paths == ledger.paths
    assert set(rebuilt.files) == set(ledger.files)
    for lineage_id, record in ledger.files.items():
        twin = rebuilt.files[lineage_id]
        assert twin.has_variable_code_ever == record.has_variable_code_ever
        for key, stats in record.contributors.items():
            other = twin.contributors[key]
            assert (other.fa, other.dl) == (stats.fa, stats.dl)
            assert other.first_variable_month == stats.first_variable_month
            assert other.first_mandatory_month == stats.first_mandatory_month
