"""Command line tests: verbs, exit codes, artifact determinism,
thread-count invariance, warm-cache behavior, option handling."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import remove_loose_object, three_commit_repo
from fixture_repos import GUARD, MULTIFILE, RepoBuilder, build_basic
from varxpert import pipeline
from varxpert.cli import main
from varxpert.history import GitRepo
from varxpert.pipeline import RunConfig
from varxpert.util import compact_json, csv_text

ARTIFACTS = ("scores.csv", "ledger.json", "warnings.jsonl", "run_meta.json")
REPORT_ARTIFACTS = ARTIFACTS + ("timeline.csv", "evaluation.csv",
                                "report.csv", "report.json", "report.md")


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ----------------------------------------------------------------------
# verbs and exit codes
# ----------------------------------------------------------------------

def test_analyze_verb(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("analyze", path, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "4 commits" in printed
    for name in ARTIFACTS:
        assert os.path.exists(os.path.join(out, name))


def test_report_verb_writes_everything(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("report", path, "--out", out) == 0
    for name in REPORT_ARTIFACTS:
        assert os.path.exists(os.path.join(out, name))
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].startswith("project,")


def test_specialization_verb(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("specialization", path, "--out", out) == 0
    assert "4 monthly snapshots" in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "timeline.csv"))
    assert [r["year_month"] for r in rows] == [
        "2020-01", "2020-02", "2020-03", "2020-04"
    ]


def test_evaluate_verb(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("evaluate", path, "--out", out) == 0
    rows = read_csv(os.path.join(out, "evaluation.csv"))
    assert [(r["metric"], r["aggregation"]) for r in rows] == [
        ("doa", "micro"), ("doa", "macro"),
        ("ownership", "micro"), ("ownership", "macro"),
    ]
    printed = capsys.readouterr().out
    assert "doa (micro)" in printed


def test_plot_data_prints_timeline(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("plot-data", path, "--out", out) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("year_month,generalist,specialist,mixed,total\n")
    assert "2020-04" in printed


def test_missing_repo_is_a_user_error(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "nope")) == 2
    assert "error" in capsys.readouterr().err


def test_empty_repo_is_a_user_error(repo_builder, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli("analyze", repo_builder.path, "--out", out) == 2
    assert "no commits" in capsys.readouterr().err


def test_unknown_branch_is_a_user_error(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    code = run_cli("analyze", path, "--branch", "missing",
                   "--out", str(tmp_path / "out"))
    assert code == 2


def test_bad_threshold_is_a_user_error(basic_repo, tmp_path, capsys):
    path, _ = basic_repo
    code = run_cli("report", path, "--doa-threshold", "1.5",
                   "--out", str(tmp_path / "out"))
    assert code == 2


def test_inverted_window_is_a_user_error(basic_repo, tmp_path):
    path, _ = basic_repo
    code = run_cli("analyze", path, "--since", "2021-01-01",
                   "--until", "2020-01-01", "--out", str(tmp_path / "out"))
    assert code == 2


def test_report_without_active_developers_is_a_user_error(repo_builder, tmp_path):
    # the only source file is binary, so no developer changed a line
    repo_builder.write_bytes("table.c", b"\x00\x01\x02")
    repo_builder.commit("table", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    assert run_cli("report", repo_builder.path, "--out", str(tmp_path / "out")) == 2


@pytest.mark.parametrize("flag", ["--out", "--cache-dir"])
def test_existing_file_as_a_directory_is_a_user_error(basic_repo, tmp_path, capsys,
                                                      monkeypatch, flag):
    # rejected before any mining, not after it as a FileExistsError
    monkeypatch.setattr("varxpert.pipeline.build_contribution_ledger",
                        lambda *args, **kwargs: pytest.fail("the history was mined"))
    taken = tmp_path / "taken"
    taken.write_text("a file\n", encoding="utf-8")
    out = str(taken) if flag == "--out" else str(tmp_path / "out")
    assert run_cli("analyze", basic_repo[0], "--out", out, flag, str(taken)) == 2
    assert f"{str(taken)!r} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "a file\n"


def test_jobs_below_one_is_a_user_error(basic_repo, tmp_path):
    path, _ = basic_repo
    code = run_cli("analyze", path, "--jobs", "0", "--out", str(tmp_path / "out"))
    assert code == 2
    assert not os.path.exists(tmp_path / "out")


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "varxpert", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("varxpert ")


def test_cli_import_loads_no_dataclasses():
    # every verb is a fresh process that pays for its imports, and
    # `dataclasses` pulls in inspect, ast and dis; compare against what
    # `site` preloaded
    probe = ("import json, sys; before = set(sys.modules); import varxpert.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "varxpert.cli" in added
    assert "dataclasses" not in added


def test_benchmark_tracer_finds_its_targets(basic_repo, tmp_path):
    # perfbench/trace_cli.py wraps functions by module attribute name, so a
    # rename drops a layer's spans, and so does a caller that bound the
    # function with `from x import y` before the wrappers went in; the
    # names alone miss the second, so a traced run must record each
    # layer. install patches the modules, so it runs in a fresh
    # interpreter. The one name expected missing is a tracer target the
    # program no longer has.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))

    def traced(name, *args):
        spans = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "trace_cli.py"), str(spans),
             "analyze", basic_repo[0], "--out", str(tmp_path / name), *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(spans.read_text(encoding="utf-8"))

    trace = traced("cold")
    assert trace["missing"] == ["varxpert.ledger.scan_text"]
    recorded = {span[0] for span in trace["spans"]}
    for name in ("history.diff_hunks", "history.blob_bytes", "preproc.scan_text",
                 "pipeline.scan_blob", "ledger.classify_change", "pipeline.classify",
                 "ledger.fold", "pipeline.snapshot"):
        assert name in recorded, name
    # perfbench/run.py takes cache.warm_hit_ratio and cache.miss_ratio from
    # the counted ChangeCache.get calls, and a metric with no sample leaves
    # the result line unreadable: a warm run and one advanced from HEAD~1
    # must each look the cache up
    cache = str(tmp_path / "cache")
    traced("prev", "--branch", "HEAD~1", "--cache-dir", cache)
    for name, branch in (("warm", "HEAD~1"), ("advanced", "HEAD")):
        counts = traced(name, "--branch", branch, "--cache-dir", cache)["counts"]
        assert counts["cache.get.calls"] >= 1, name


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def assert_same_artifacts(first, second, names=REPORT_ARTIFACTS):
    for name in names:
        assert read(os.path.join(first, name)) == \
            read(os.path.join(second, name)), name


def test_consecutive_runs_byte_identical(multifile_repo, tmp_path):
    path, _ = multifile_repo
    one, two = str(tmp_path / "one"), str(tmp_path / "two")
    assert run_cli("report", path, "--out", one) == 0
    assert run_cli("report", path, "--out", two) == 0
    assert_same_artifacts(one, two)


def test_jobs_do_not_change_artifacts(multifile_repo, tmp_path):
    path, _ = multifile_repo
    serial, threaded = str(tmp_path / "serial"), str(tmp_path / "threaded")
    assert run_cli("report", path, "--out", serial, "--jobs", "1") == 0
    assert run_cli("report", path, "--out", threaded, "--jobs", "8") == 0
    assert_same_artifacts(serial, threaded)


def test_warm_cache_identical_with_hits(multifile_repo, tmp_path):
    path, _ = multifile_repo
    cache = str(tmp_path / "cache")
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    assert run_cli("report", path, "--out", cold, "--cache-dir", cache) == 0
    assert run_cli("report", path, "--out", warm, "--cache-dir", cache) == 0
    # run_meta.json is the one artifact meant to differ: it carries the
    # hit counter that proves the cache was actually used
    names = tuple(n for n in REPORT_ARTIFACTS if n != "run_meta.json")
    assert_same_artifacts(cold, warm, names=names)
    meta = json.loads(read(os.path.join(warm, "run_meta.json")))
    assert meta["counters"]["cache_hits"] > 0


def test_verbs_reuse_fresh_analysis(basic_repo, tmp_path):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("analyze", path, "--out", out) == 0
    before = read(os.path.join(out, "run_meta.json"))
    assert run_cli("evaluate", path, "--out", out) == 0
    assert run_cli("specialization", path, "--out", out) == 0
    # neither verb re-mined the history
    assert read(os.path.join(out, "run_meta.json")) == before


def test_changed_options_invalidate_stored_analysis(guard_repo, tmp_path):
    path, _ = guard_repo
    out = str(tmp_path / "out")
    assert run_cli("analyze", path, "--out", out) == 0
    before = read(os.path.join(out, "run_meta.json"))
    assert run_cli("specialization", path, "--out", out,
                   "--include-guards") == 0
    assert read(os.path.join(out, "run_meta.json")) != before


BYTE_IDENTICAL = ("scores.csv", "timeline.csv", "evaluation.csv",
                  "report.csv", "report.json", "report.md")


def _truncate_ledger(out):
    path = os.path.join(out, "ledger.json")
    payload = read(path)
    with open(path, "wb") as handle:
        handle.write(payload[: len(payload) // 2])


def _add_unknown_counter(out):
    path = os.path.join(out, "run_meta.json")
    meta = json.loads(read(path))
    meta["counters"]["from_a_newer_version"] = 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _edit_ledger(edit):
    def damage(out):
        path = os.path.join(out, "ledger.json")
        ledger = json.loads(read(path))
        edit(ledger)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(compact_json(ledger))  # as the writer writes it
    damage.__name__ = edit.__name__
    return damage


@_edit_ledger
def _foreign_ledger_format(ledger):
    ledger["format"] = "varxpert-ledger/999"


def _run_meta_at_format_1(out):
    # run_meta.json as the varxpert-run/1 writer left it
    path = os.path.join(out, "run_meta.json")
    meta = json.loads(read(path))
    meta["format"] = "varxpert-run/1"
    del meta["warnings_by_kind"], meta["counters"]["blob_reads"], \
        meta["counters"]["blob_asks_unread"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _drop_run_meta_key(key):
    def damage(out):
        path = os.path.join(out, "run_meta.json")
        meta = json.loads(read(path))
        del meta[key]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
    damage.__name__ = f"_run_meta_without_{key}"
    return damage


def _run_meta_snapshot_with(key, value):
    def damage(out):
        path = os.path.join(out, "run_meta.json")
        meta = json.loads(read(path))
        meta["snapshot"][key] = value
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
    damage.__name__ = f"_run_meta_snapshot_with_{key}_{type(value).__name__}"
    return damage


V1_LEDGER = os.path.join(os.path.dirname(__file__), "data", "multifile_ledger_v1.json")


def _ledger_at_format_1(out):
    # ledger.json as the varxpert-ledger/1 writer left it for this fixture
    with open(V1_LEDGER, "rb") as source, \
            open(os.path.join(out, "ledger.json"), "wb") as target:
        target.write(source.read())


def _as_format_4(ledger):
    # ledger.json as the varxpert-ledger/4 writer left it: no paths, and
    # each lineage stores its first and current paths and whether it is
    # alive (every lineage of this fixture is)
    ledger["format"] = "varxpert-ledger/4"
    current = {lineage_id: path for path, lineage_id in ledger.pop("paths").items()}
    for lineage_id, record in ledger["files"].items():
        record.update(created_path=lineage_id.rpartition("@")[0],
                      current_path=current[lineage_id], alive=True)


@_edit_ledger
def _ledger_at_format_4(ledger):
    _as_format_4(ledger)


def _as_format_3(ledger):
    # the /4 shape, and it also maps each developer to a display name
    # (this fixture's authors are named for their email's local part),
    # and stores each file's events and each contributor's AC
    _as_format_4(ledger)
    ledger["format"] = "varxpert-ledger/3"
    ledger["developers"] = {}
    for record in ledger["files"].values():
        record["total_events"] = sum(stats["dl"] for stats in record["contributors"].values())
        for key, stats in record["contributors"].items():
            stats["ac"] = record["total_events"] - stats["dl"]
            ledger["developers"][key] = key.split("@")[0].title()


@_edit_ledger
def _ledger_at_format_3(ledger):
    _as_format_3(ledger)


@_edit_ledger
def _ledger_at_format_2(ledger):
    # the /3 shape, and each file also names its first author
    _as_format_3(ledger)
    ledger["format"] = "varxpert-ledger/2"
    for record in ledger["files"].values():
        record["fa_key"] = next(
            (key for key, stats in record["contributors"].items() if stats["fa"] == 1), None)


def _first_contributor_with(**values):
    def edit(ledger):
        record = next(iter(ledger["files"].values()))
        next(iter(record["contributors"].values())).update(values)
    edit.__name__ = "_first_contributor_with_" + "_".join(
        f"{key}_{value}" for key, value in values.items())
    return _edit_ledger(edit)


def _first_file_with(**values):
    def edit(ledger):
        next(iter(ledger["files"].values())).update(values)
    edit.__name__ = "_first_file_with_" + "_".join(f"{key}_{value}" for key, value in values.items())
    return _edit_ledger(edit)


@_edit_ledger
def _ledger_without_first_month(ledger):
    ledger["first_month"] = None


@_edit_ledger
def _first_month_after_the_last(ledger):
    ledger["first_month"] = "2099-01"


@_edit_ledger
def _ledger_without_paths(ledger):
    del ledger["paths"]


def _path_naming(lineage_id):
    def edit(ledger):
        ledger["paths"]["z.c"] = lineage_id
    edit.__name__ = f"_path_naming_{type(lineage_id).__name__}"
    return _edit_ledger(edit)


@_edit_ledger
def _commit_count_as_string(ledger):
    ledger["commit_count"] = str(ledger["commit_count"])


@_edit_ledger
def _negative_commit_count(ledger):
    ledger["commit_count"] = -1


@_edit_ledger
def _two_first_authors(ledger):
    for stats in next(iter(ledger["files"].values()))["contributors"].values():
        stats["fa"] = 1


@pytest.mark.parametrize(
    "damage",
    [_truncate_ledger, _add_unknown_counter, _foreign_ledger_format, _ledger_at_format_1,
     _ledger_at_format_2, _ledger_at_format_3, _ledger_at_format_4, _run_meta_at_format_1,
     _drop_run_meta_key("snapshot"), _drop_run_meta_key("last_commit"),
     # values the fold cannot write; each one feeds a score or a timeline
     _first_contributor_with(fa=2), _two_first_authors, _first_contributor_with(dl=-1),
     _first_contributor_with(dl=0), _first_contributor_with(first_variable_month=5),
     _first_contributor_with(first_mandatory_month="2020-13"),
     _ledger_without_first_month, _negative_commit_count,
     # every event touches variable or mandatory code, so it has a month
     _first_contributor_with(first_variable_month=None, first_mandatory_month=None),
     # months outside the ledger's: the split and the timeline read them
     _first_month_after_the_last, _first_contributor_with(first_mandatory_month="2023-07"),
     # a variable changer on a file without variable code is no ground truth
     _first_file_with(has_variable_code_ever=False),
     # paths hold a string naming a lineage the ledger holds
     _ledger_without_paths, _path_naming("z.c@000000000000"), _path_naming(["x.c"]),
     # JSON types the fold does not write: int() and bool() would read them
     _first_contributor_with(dl=2.5), _first_contributor_with(dl="2"),
     _first_contributor_with(fa=True), _commit_count_as_string,
     _first_file_with(has_variable_code_ever="false"),
     # the snapshot counts are printed and reported as stored
     _run_meta_snapshot_with("variability_blocks", "7"), _run_meta_snapshot_with("files", 2.5),
     _run_meta_snapshot_with("distinct_macros", True)],
)
def test_damaged_stored_analysis_is_mined_again(multifile_repo, tmp_path, damage):
    assert_mined_again(multifile_repo[0], tmp_path, damage)


def assert_mined_again(path, tmp_path, damage):
    clean, damaged = str(tmp_path / "clean"), str(tmp_path / "damaged")
    assert run_cli("report", path, "--out", clean) == 0
    assert run_cli("analyze", path, "--out", damaged) == 0
    damage(damaged)
    assert run_cli("report", path, "--out", damaged) == 0
    assert_same_artifacts(clean, damaged, names=BYTE_IDENTICAL)
    # mined again, so the stored analysis is whole once more
    assert read(os.path.join(clean, "ledger.json")) == read(os.path.join(damaged, "ledger.json"))
    assert read(os.path.join(clean, "run_meta.json")) == \
        read(os.path.join(damaged, "run_meta.json"))


@_edit_ledger
def _deleted_file_keeps_variable_code_as_string(ledger):
    [record] = [record for lineage_id, record in ledger["files"].items()
                if lineage_id.startswith("tmp.c@")]
    assert record["has_variable_code_ever"] is False
    record["has_variable_code_ever"] = "false"


def test_string_false_in_a_stored_ledger_is_mined_again(identity_repo, tmp_path):
    # read with bool(), "false" made tmp.c an eligible file: DOA and
    # ownership precision read 0.5 with every developer recommended
    assert_mined_again(identity_repo[0], tmp_path, _deleted_file_keeps_variable_code_as_string)


# ----------------------------------------------------------------------
# the fixed cost of a process
# ----------------------------------------------------------------------

def test_cli_import_loads_neither_hashlib_nor_datetime():
    # -S: the site's .pth files may load anything; this checks varxpert's own imports
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    probe = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, varxpert.cli; print(sorted({'hashlib', 'datetime'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert probe.stdout == "[]\n"


def test_loading_an_analysis_starts_one_git_process(multifile_repo, tmp_path, monkeypatch):
    path, _ = multifile_repo
    out = str(tmp_path / "out")
    assert run_cli("analyze", path, "--out", out) == 0
    spawned, runs = [], []
    real_popen, real_run = subprocess.Popen, GitRepo._run

    def popen(args, *rest, **kwargs):
        spawned.append(args)
        return real_popen(args, *rest, **kwargs)

    def run(repo, *args):
        runs.append(args)
        return real_run(repo, *args)

    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(GitRepo, "_run", run)
    state = pipeline.load_analysis(RunConfig(repo_path=path, output_dir=out))
    assert state.ledger.commit_count == MULTIFILE["report"]["commits"]
    assert [args[0] for args in runs] == ["rev-parse"]
    assert len(spawned) == 1


# ----------------------------------------------------------------------
# damaged repositories
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rev, args", [
    ("HEAD~2:a.c", ()),  # read by the history fold
    # read only by the final-tree snapshot: the window skips the commit
    # that added b.c
    ("HEAD:b.c", ("--since", "2020-01-15")),
])
def test_missing_blob_fails_the_run(repo_builder, tmp_path, capsys, rev, args):
    repo = three_commit_repo(repo_builder)
    oid = repo.git("rev-parse", rev).strip()
    remove_loose_object(repo, oid)
    code = run_cli("analyze", repo.path, "--out", str(tmp_path / "out"), *args)
    assert code == 1
    assert f"cannot read blob {oid}" in capsys.readouterr().err


def test_submodule_named_like_a_source_file_is_no_missing_blob(repo_builder, tmp_path):
    repo = repo_builder
    repo.write("a.c", "int a;\n")
    repo.git("add", "a.c")
    # the gitlink's commit lives in another repository
    repo.git("update-index", "--add", "--cacheinfo", f"160000,{'1' * 40},lib.c")
    date = "2020-01-01T00:00:00 +0000"
    repo.git("commit", "-q", "-m", "vendored library",
             env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date})
    assert run_cli("analyze", repo.path, "--out", str(tmp_path / "out")) == 0


def test_symlink_named_like_a_source_file_is_not_mined(repo_builder, tmp_path):
    # the link's blob holds the path it points to, not lines of code
    repo = repo_builder
    repo.write("real.c", "#ifdef X\nint a;\n#endif\n")
    os.symlink("real.c", os.path.join(repo.path, "link.c"))
    repo.commit("add", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    assert run_cli("report", repo.path, "--out", str(tmp_path / "out")) == 0
    report = json.loads(read(os.path.join(str(tmp_path / "out"), "report.json")))
    assert (report["files"], report["specialist_pct"], report["mixed_pct"]) == (1, 100.0, 0.0)


@pytest.mark.parametrize("missing", [
    ("rev-list", "--max-parents=0", "HEAD"),
    # git log cannot diff the middle commit against its neighbours
    ("rev-parse", "HEAD~1^{tree}"),
], ids=["root_commit", "tree"])
def test_unreadable_history_fails_the_run(repo_builder, tmp_path, capsys, missing):
    repo = three_commit_repo(repo_builder)
    remove_loose_object(repo, repo.git(*missing).strip())
    assert run_cli("analyze", repo.path, "--out", str(tmp_path / "out")) == 1
    assert "git log failed" in capsys.readouterr().err


def test_missing_tip_commit_fails_the_run(repo_builder, tmp_path, capsys):
    # HEAD names a commit that is gone; that is damage, not an empty repository
    repo = three_commit_repo(repo_builder)
    remove_loose_object(repo, repo.git("rev-parse", "HEAD").strip())
    assert run_cli("analyze", repo.path, "--out", str(tmp_path / "out")) == 1
    assert "git rev-list failed (exit 128)" in capsys.readouterr().err


def test_missing_tree_fails_the_run(repo_builder, tmp_path, capsys):
    # git log does not diff a merge, so only the final-tree snapshot reads
    # the tip merge's root tree
    repo = three_commit_repo(repo_builder)
    repo.checkout("side", create=True)
    repo.write("s.c", "int s;\n")
    repo.commit("side", "Bob", "bob@example.com", "2020-04-01T00:00:00 +0000")
    repo.checkout("main")
    repo.write("m.c", "int m;\n")
    repo.commit("main", "Alice", "alice@example.com", "2020-04-02T00:00:00 +0000")
    tip = repo.merge("side", "2020-05-01T00:00:00 +0000")
    remove_loose_object(repo, repo.git("rev-parse", "HEAD^{tree}").strip())
    assert run_cli("analyze", repo.path, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"cannot read the tree of {tip}: git ls-tree failed" in err


def test_what_git_log_says_while_exiting_0_is_a_warning(repo_builder, tmp_path, monkeypatch):
    # past diff.renameLimit git says so on stderr and exits 0; a wrapper
    # git first on PATH says one such line for each git log it runs
    repo = three_commit_repo(repo_builder)
    said = "warning: inexact rename detection was skipped due to too many files."
    wrapper = tmp_path / "bin" / "git"
    wrapper.parent.mkdir()
    wrapper.write_text(f'#!/bin/sh\nfor arg in "$@"; do [ "$arg" = log ] && echo "{said}" >&2 '
                       f'&& break; done\nexec "{shutil.which("git")}" "$@"\n', encoding="utf-8")
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", f"{wrapper.parent}{os.pathsep}{os.environ['PATH']}")
    out = str(tmp_path / "out")
    assert run_cli("analyze", repo.path, "--out", out) == 0
    lines = read(os.path.join(out, "warnings.jsonl")).decode("utf-8").splitlines()
    assert json.loads(lines[-1]) == {"kind": "git_stderr", "detail": said}
    meta = json.loads(read(os.path.join(out, "run_meta.json")))
    assert meta["warnings_by_kind"] == {"git_stderr": 1}


def _one_file_repo(path, name, config=()):
    repo = RepoBuilder(path)
    for key, value in config:
        repo.git("config", key, value)
    repo.write(name, "#ifdef X\nint a;\n#endif\n")
    repo.commit("add", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write(name, "#ifdef X\nint a2;\n#endif\n")
    repo.commit("edit", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    return repo


def test_a_git_dir_in_the_environment_does_not_swap_the_repository(tmp_path, monkeypatch,
                                                                    capsys):
    # a git hook runs with GIT_DIR set, and every git child would read it
    a = _one_file_repo(tmp_path / "a", "a.c")
    b = _one_file_repo(tmp_path / "b", "b.c")
    monkeypatch.setenv("GIT_DIR", os.path.join(b.path, ".git"))
    out = str(tmp_path / "out")
    assert run_cli("analyze", a.path, "--out", out) == 0
    assert "2 commits" in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "scores.csv"))
    assert {row["file"].partition("@")[0] for row in rows} == {"a.c"}


def test_a_git_trace_in_the_environment_writes_no_warning(tmp_path, monkeypatch):
    # a trace line carries the wall clock; git log would write it to stderr
    repo = _one_file_repo(tmp_path / "a", "a.c")
    monkeypatch.setenv("GIT_TRACE", "1")
    out = str(tmp_path / "out")
    assert run_cli("analyze", repo.path, "--out", out) == 0
    assert read(os.path.join(out, "warnings.jsonl")) == b""


@pytest.mark.skipif(shutil.which("ssh-keygen") is None, reason="needs ssh-keygen")
def test_signed_commits_under_log_show_signature(tmp_path, monkeypatch):
    # with log.showSignature set, git log writes "No signature" (it has no
    # allowed signers to check against) before each commit's record
    key = tmp_path / "key"
    subprocess.run(["ssh-keygen", "-q", "-t", "ed25519", "-N", "", "-f", str(key)],
                   check=True, capture_output=True)
    repo = _one_file_repo(tmp_path / "repo", "a.c", [
        ("gpg.format", "ssh"), ("user.signingkey", str(key)), ("commit.gpgsign", "true")])
    plain = str(tmp_path / "plain")
    assert run_cli("analyze", repo.path, "--out", plain) == 0
    config = tmp_path / "gitconfig"
    config.write_text("[log]\n\tshowSignature = true\n", encoding="utf-8")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    assert "No signature" in repo.git("log", "-1")
    shown = str(tmp_path / "shown")
    assert run_cli("analyze", repo.path, "--out", shown) == 0
    assert_same_artifacts(plain, shown, names=ARTIFACTS)


# ----------------------------------------------------------------------
# option behavior
# ----------------------------------------------------------------------

def test_threshold_sweep_never_shrinks_author_set(multifile_repo, tmp_path):
    path, _ = multifile_repo
    previous = None
    for index, threshold in enumerate(("0.95", "0.75", "0.55", "0.35")):
        out = str(tmp_path / f"out{index}")
        assert run_cli("evaluate", path, "--out", out,
                       "--doa-threshold", threshold) == 0
        rows = read_csv(os.path.join(out, "scores.csv"))
        authors = {(r["file"], r["developer_key"])
                   for r in rows if r["is_author"] == "true"}
        if previous is not None:
            assert previous <= authors
        previous = authors


def test_include_guards_flag_flips_guard_fixture(guard_repo, tmp_path):
    path, _ = guard_repo
    plain, counted = str(tmp_path / "plain"), str(tmp_path / "counted")
    assert run_cli("report", path, "--out", plain, "--format", "json") == 0
    assert run_cli("report", path, "--out", counted, "--format", "json",
                   "--include-guards") == 0

    default_report = json.loads(read(os.path.join(plain, "report.json")))
    flipped_report = json.loads(read(os.path.join(counted, "report.json")))

    assert default_report["variability_blocks"] == GUARD["report"]["blocks"]
    assert default_report["distinct_macros"] == GUARD["report"]["macros"]
    g, s, m = GUARD["summary"]
    assert abs(default_report["generalist_pct"] - g) < 1e-9
    assert abs(default_report["specialist_pct"] - s) < 1e-9
    assert abs(default_report["mixed_pct"] - m) < 1e-9

    flipped = GUARD["guards_counted"]
    assert flipped_report["variability_blocks"] == flipped["blocks"]
    assert flipped_report["distinct_macros"] == flipped["macros"]
    g, s, m = flipped["summary"]
    assert abs(flipped_report["generalist_pct"] - g) < 1e-9
    assert abs(flipped_report["specialist_pct"] - s) < 1e-9
    assert abs(flipped_report["mixed_pct"] - m) < 1e-9


def test_report_formats(multifile_repo, tmp_path, capsys):
    path, _ = multifile_repo
    out = str(tmp_path / "out")
    assert run_cli("report", path, "--out", out, "--format", "markdown") == 0
    printed = capsys.readouterr().out
    assert printed.startswith("| Project |")
    assert "| 2 | 2 |" in printed

    assert run_cli("report", path, "--out", out, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == MULTIFILE["report"]["files"]
    assert payload["commits"] == MULTIFILE["report"]["commits"]
    assert payload["devs"] == MULTIFILE["report"]["devs"]
    assert payload["meets_min_devs"] is False

    assert run_cli("report", path, "--out", out, "--format", "csv") == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("project,files,")


def test_extension_list_tolerates_missing_dots(basic_repo, tmp_path):
    path, _ = basic_repo
    with_dots = str(tmp_path / "dots")
    without = str(tmp_path / "bare")
    assert run_cli("analyze", path, "--out", with_dots,
                   "--extensions", ".c,.h") == 0
    assert run_cli("analyze", path, "--out", without,
                   "--extensions", "c, h") == 0
    assert_same_artifacts(with_dots, without, names=("scores.csv",))


def test_since_until_narrow_the_window(basic_repo, tmp_path):
    path, _ = basic_repo
    out = str(tmp_path / "out")
    assert run_cli("analyze", path, "--out", out,
                   "--since", "2020-02-01", "--until", "2020-03-31") == 0
    ledger = json.loads(read(os.path.join(out, "ledger.json")))
    assert ledger["commit_count"] == 2


def test_report_csv_row_values(identity_repo, tmp_path):
    path, _ = identity_repo
    out = str(tmp_path / "out")
    assert run_cli("report", path, "--out", out) == 0
    rows = read_csv(os.path.join(out, "report.csv"))
    assert len(rows) == 1
    row = rows[0]
    assert row["files"] == "1"
    assert row["commits"] == "4"
    assert row["devs"] == "2"
    assert row["doa_precision"] == "1.0"
    assert row["meets_min_devs"] == "false"


# ----------------------------------------------------------------------
# CSV and markdown cells
# ----------------------------------------------------------------------

def test_csv_text_states_one_cell_rule():
    header = ("none", "yes", "no", "int", "sum", "tiny", "plain",
              "comma", "quote", "lf", "cr")
    row = (None, True, False, 7, 0.1 + 0.2, 1e-07, "plain",
           "a,b", 'say "hi"', "two\nlines", "cr\rhere")
    text = csv_text(header, [row])
    assert text == (
        "none,yes,no,int,sum,tiny,plain,comma,quote,lf,cr\n"
        ',true,false,7,0.30000000000000004,1e-07,plain,"a,b","say ""hi""",'
        '"two\nlines","cr\rhere"\n'
    )
    assert list(csv.reader(text.splitlines(keepends=True))) == [
        list(header),
        ["", "true", "false", "7", "0.30000000000000004", "1e-07", "plain",
         "a,b", 'say "hi"', "two\nlines", "cr\rhere"],
    ]


class Count(int):
    def __repr__(self):
        return f"Count({int(self)})"


class Name(str):
    pass


class Ratio(float):
    def __repr__(self):
        return "Ratio"


CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    # the characters the rule quotes for, and lone surrogates (undecodable name bytes)
    st.text(st.sampled_from(',"\r\nab\udc80\ud800') | st.characters(), max_size=6),
)


def _csv_cell(value):
    """The per-cell rule csv_text applies to the five types it takes."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        if re.search('[,"\n\r]', value):
            return '"' + value.replace('"', '""') + '"'
        return value
    return str(value)


@given(header=st.lists(CELLS, max_size=5), rows=st.lists(st.lists(CELLS, max_size=5), max_size=5))
@settings(max_examples=300, deadline=None)
def test_csv_text_matches_the_per_cell_rule(header, rows):
    # the reference formats every cell through _csv_cell's one chain
    expected = "".join(",".join([_csv_cell(value) for value in line]) + "\n"
                       for line in [header, *rows])
    assert csv_text(header, rows) == expected


@pytest.mark.parametrize("cell", [Name("a"), Name("a,b"), Count(1), Ratio(0.5), b"a", ("a",)],
                         ids=["str_subclass", "quoted_str_subclass", "int_subclass",
                              "float_subclass", "bytes", "tuple"])
def test_csv_text_refuses_a_type_outside_its_rule(cell):
    # a subclass of a cell type too: its own __str__ or __repr__ is no cell
    for header, rows in (([cell], []), (["x", "y"], [[None, "a"], [1.5, cell]])):
        with pytest.raises(TypeError, match=type(cell).__name__):
            csv_text(header, rows)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize("project", ['a,"b"', "a|b", 'a,"b"|c', "a\nb", "a\r\nb|c"])
def test_report_keeps_an_awkward_project_name_in_one_cell(tmp_path, capsys, project):
    repo = RepoBuilder(tmp_path / project)
    build_basic(repo)
    out = str(tmp_path / "out")
    assert run_cli("report", repo.path, "--out", out) == 0
    header, row = read_rows(os.path.join(out, "report.csv"))
    assert len(header) == len(row) == 16
    assert dict(zip(header, row))["project"] == project
    assert capsys.readouterr().out == read(os.path.join(out, "report.csv")).decode()
    with open(os.path.join(out, "report.md"), encoding="utf-8", newline="") as handle:
        _header, _divider, table_row, end = handle.read().split("\n")
    assert not end and "\r" not in table_row
    # a cell ends at a | that no backslash escapes
    cells = re.split(r"(?<!\\)\|", table_row)[1:-1]
    assert len(cells) == 10
    assert cells[0].strip().replace("\\|", "|") == re.sub("[\r\n]", "<br>", project)


def test_report_prints_a_name_that_is_not_utf8_whatever_the_locale(tmp_path):
    # a strict stdout is what an en_US.UTF-8 locale gives; the project
    # name, from a directory named with byte 0xff, keeps that byte in
    # report.csv and on stdout alike
    repo = RepoBuilder(tmp_path / os.fsdecode(b"proj\xff"))
    build_basic(repo)
    out = tmp_path / "out"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict", PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "varxpert", "report", repo.path, "--out", str(out)],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == read(out / "report.csv")
    assert proc.stdout.splitlines()[1].startswith(b"proj\xff,")


def test_a_carriage_return_in_a_path_stays_in_its_scores_cell(repo_builder, tmp_path):
    repo = repo_builder
    repo.write("odd\rname.c", "#ifdef X\nint a;\n#endif\n")
    repo.write("plain.c", "#ifdef Y\nint b;\n#endif\n")
    repo.commit("two files", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write("odd\rname.c", "#ifdef X\nint a2;\n#endif\n")
    repo.commit("edit", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    out = str(tmp_path / "out")
    assert run_cli("analyze", repo.path, "--out", out) == 0
    rows = read_rows(os.path.join(out, "scores.csv"))
    assert [len(row) for row in rows] == [10] * 4
    assert sorted(row[0].split("@")[0] for row in rows[1:]) == ["odd\rname.c"] * 2 + ["plain.c"]


def test_an_edit_of_bytes_that_are_not_utf8_is_an_event(repo_builder, tmp_path):
    # the two versions differ only in a byte that is not UTF-8; decoded
    # with errors="replace" both lines would read U+FFFD and compare equal
    repo = repo_builder
    repo.write_bytes("f.c", b"#ifdef X\nint a; /* caf\xe9 */\n#endif\n")
    repo.commit("add", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write_bytes("f.c", b"#ifdef X\nint a; /* caf\xe8 */\n#endif\n")
    repo.commit("recode", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    out = str(tmp_path / "out")
    assert run_cli("analyze", repo.path, "--out", out) == 0
    rows = read_csv(os.path.join(out, "scores.csv"))
    assert {row["developer_key"]: row["dl"] for row in rows} == \
        {"alice@example.com": "1", "bob@example.com": "1"}
