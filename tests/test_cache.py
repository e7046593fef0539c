"""Change cache tests: record round-trips, config keying, warm-run
equivalence, tolerance for damaged lines."""

import json
import os

import pytest

from varxpert.cache import CacheRecord, ChangeCache, analyzer_config_hash
from varxpert.history import DEFAULT_EXTENSIONS
from varxpert.pipeline import RunConfig, run_analyze
from varxpert.preproc import ScanWarning


def record(commit="c" * 40, path="f.c"):
    return CacheRecord(
        commit_id=commit,
        timestamp=1577836800,
        author_key="alice@example.com",
        path_after=path,
        kind="modified",
        touched_variable=True,
        touched_mandatory=False,
        saw_variable=True,
    )


def test_record_json_round_trip():
    rec = record()
    raw = json.loads(rec.as_json())
    rebuilt = CacheRecord(
        commit_id=raw["commit_id"],
        timestamp=raw["timestamp"],
        author_key=raw["author_key"],
        path_after=raw["path_after"],
        kind=raw["kind"],
        touched_variable=raw["touched_variable"],
        touched_mandatory=raw["touched_mandatory"],
        saw_variable=raw["saw_variable"],
    )
    assert rebuilt == rec


def test_scan_warnings_survive_a_reopen(tmp_path):
    tip = "e" * 40
    warned = CacheRecord(
        commit_id="c" * 40, timestamp=1577836800, author_key="alice@example.com",
        path_after="f.c", kind="added", touched_variable=False,
        touched_mandatory=True, saw_variable=False,
        scan_warnings=(("b" * 40, ScanWarning("stray_directive", 2, "#endif")),),
    )
    cache = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    cache.put(warned)
    cache.flush()
    again = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    assert again.get("c" * 40, "f.c") == warned


def test_disabled_cache_is_inert():
    cache = ChangeCache.open(None, "t" * 40, DEFAULT_EXTENSIONS, True)
    assert not cache.enabled
    cache.put(record())
    assert cache.get("c" * 40, "f.c") is None
    assert cache.hits == 0
    cache.flush()


def test_put_flush_reopen_get(tmp_path):
    tip = "a" * 40
    cache = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    cache.put(record())
    cache.put(record(path="g.c"))
    cache.flush()

    again = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    assert again.get("c" * 40, "f.c") == record()
    assert again.get("c" * 40, "g.c") == record(path="g.c")
    assert again.get("c" * 40, "missing.c") is None
    assert again.hits == 2


def test_flush_appends_without_duplicates(tmp_path):
    tip = "a" * 40
    cache = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    cache.put(record())
    cache.flush()
    cache2 = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    cache2.put(record())  # already known, must not duplicate
    cache2.put(record(path="h.c"))
    cache2.flush()
    cache3 = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    assert len(cache3._records) == 2


def test_config_hash_separates_settings(tmp_path):
    tip = "b" * 40
    first = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    second = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, False)
    third = ChangeCache.open(str(tmp_path), tip, frozenset({".c"}), True)
    assert first.path != second.path
    assert first.path != third.path
    assert analyzer_config_hash(DEFAULT_EXTENSIONS, True) == \
        analyzer_config_hash(frozenset({".h", ".c"}), True)


def test_damaged_lines_are_skipped(tmp_path):
    tip = "d" * 40
    cache = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    cache.put(record())
    cache.flush()
    with open(cache.path, "a", encoding="utf-8") as handle:
        handle.write("{not json at all\n")
        handle.write('{"commit_id": "only one field"}\n')
    again = ChangeCache.open(str(tmp_path), tip, DEFAULT_EXTENSIONS, True)
    assert again.get("c" * 40, "f.c") == record()
    assert len(again._records) == 1


# ----------------------------------------------------------------------
# warm runs through the pipeline
# ----------------------------------------------------------------------

def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_warm_run_matches_cold_run(multifile_repo, tmp_path):
    repo_path, _ = multifile_repo
    cache_dir = str(tmp_path / "cache")
    cold_out = str(tmp_path / "cold")
    warm_out = str(tmp_path / "warm")

    cold = run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                                 output_dir=cold_out))
    warm = run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                                 output_dir=warm_out))

    assert cold.counters.cache_hits == 0
    assert warm.counters.cache_hits > 0
    assert warm.counters.annotated_sides == 0
    for name in ("scores.csv", "ledger.json"):
        assert read(os.path.join(cold_out, name)) == \
            read(os.path.join(warm_out, name))


def test_warm_run_reproduces_variable_history_flag(rename_repo, tmp_path):
    # the deciding block was deleted in the history; only the stored
    # sighting flag can tell a warm run the lineage once had one
    repo_path, _ = rename_repo
    cache_dir = str(tmp_path / "cache")
    cold = run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                                 output_dir=str(tmp_path / "cold")))
    warm = run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                                 output_dir=str(tmp_path / "warm")))
    assert warm.counters.cache_hits > 0
    for state in (cold, warm):
        record = next(iter(state.ledger.files.values()))
        assert record.has_variable_code_ever


def test_cache_ignored_across_different_options(guard_repo, tmp_path):
    repo_path, _ = guard_repo
    cache_dir = str(tmp_path / "cache")
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                          output_dir=str(tmp_path / "a")))
    flipped = run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                                    output_dir=str(tmp_path / "b"),
                                    exclude_include_guards=False))
    # different analyzer options must not reuse the other run's records
    assert flipped.counters.cache_hits == 0


def _stray_endif_repo(repo):
    repo.write("f.c", "int a;\n#endif\nint b;\n")
    repo.commit("stray", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")


def _warnings_across_commits_repo(repo):
    # a.c's first blob warns, is replaced by a blob with two warnings and
    # then comes back, so the cold run reports each blob's warnings once,
    # at its first use
    first = "int a;\n#endif\n"
    repo.write("a.c", first)
    repo.write("b.c", "#ifdef X\nint x;\n")
    repo.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write("a.c", first + "int b;\n#else\n")
    repo.write("c.c", "int c;\n")
    repo.commit("c2", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    repo.write("a.c", first)
    repo.write("b.c", "#ifdef X\nint x;\n#endif\n")
    repo.commit("c3", "Alice", "alice@example.com", "2020-03-01T00:00:00 +0000")


def _two_warnings_repo(repo):
    repo.write("f.c", "int a;\n#endif\nint b;\n#else\n")
    repo.commit("strays", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")


@pytest.mark.parametrize("build, scan_lines", [
    (_stray_endif_repo, 1),
    (_warnings_across_commits_repo, 4),
    (_two_warnings_repo, 2),
])
def test_warm_run_reports_the_cold_scan_warnings(repo_builder, tmp_path, build, scan_lines):
    build(repo_builder)
    cache_dir = str(tmp_path / "cache")
    cold_out, warm_out = str(tmp_path / "cold"), str(tmp_path / "warm")
    run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                          output_dir=cold_out))
    warm = run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                                 output_dir=warm_out))
    assert warm.counters.cache_hits == warm.counters.changes
    cold_lines = read(os.path.join(cold_out, "warnings.jsonl")).splitlines()
    assert sum(b'"kind": "scan_' in line for line in cold_lines) == scan_lines
    assert read(os.path.join(warm_out, "warnings.jsonl")) == b"\n".join(cold_lines) + b"\n"


def test_rename_first_seen_reports_its_blob_once(repo_builder, tmp_path):
    # with the add outside the window, the rename is where the blob first
    # appears; it lists the blob on both sides, and each warning shows once
    _two_warnings_repo(repo_builder)
    repo_builder.move("f.c", "g.c")
    repo_builder.commit("move", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    cache_dir = str(tmp_path / "cache")
    since = 1580515200  # 2020-02-01T00:00:00Z
    for name in ("cold", "warm"):
        out = str(tmp_path / name)
        run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                              output_dir=out, since=since))
        lines = read(os.path.join(out, "warnings.jsonl")).splitlines()
        assert [(w["kind"], w["path"], w["line_no"]) for w in map(json.loads, lines)] == [
            ("scan_stray_directive", "g.c", 2),
            ("scan_stray_directive", "g.c", 4),
        ]


def test_warm_run_keeps_fixture_warnings(identity_repo, tmp_path):
    repo_path, _ = identity_repo
    cache_dir = str(tmp_path / "cache")
    cold_out, warm_out = str(tmp_path / "cold"), str(tmp_path / "warm")
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir, output_dir=cold_out))
    warm = run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                                 output_dir=warm_out))
    assert warm.counters.cache_hits > 0
    cold_warnings = read(os.path.join(cold_out, "warnings.jsonl"))
    assert cold_warnings  # the fixture's clamped author clock
    assert read(os.path.join(warm_out, "warnings.jsonl")) == cold_warnings
