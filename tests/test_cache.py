"""Change cache tests: record round-trips, config keying, warm-run
equivalence, tolerance for damaged lines."""

import json
import os

import pytest

from varxpert.cache import BlobFacts, CacheRecord, ChangeCache, analyzer_config_hash
from varxpert.history import DEFAULT_EXTENSIONS, GitRepo
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
    warned = CacheRecord(
        commit_id="c" * 40, timestamp=1577836800, author_key="alice@example.com",
        path_after="f.c", kind="added", touched_variable=False,
        touched_mandatory=True, saw_variable=False,
        scan_warnings=(("b" * 40, ScanWarning("stray_directive", 2, "#endif")),),
    )
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(warned)
    cache.flush()
    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.get("c" * 40, "f.c") == warned


def test_disabled_cache_is_inert():
    cache = ChangeCache.open(None, DEFAULT_EXTENSIONS, True)
    assert not cache.enabled
    cache.put(record())
    assert cache.get("c" * 40, "f.c") is None
    cache.flush()


def test_put_flush_reopen_get(tmp_path):
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(record())
    cache.put(record(path="g.c"))
    cache.flush()

    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.get("c" * 40, "f.c") == record()
    assert again.get("c" * 40, "g.c") == record(path="g.c")
    assert again.get("c" * 40, "missing.c") is None


def test_flush_appends_without_duplicates(tmp_path):
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(record())
    cache.flush()
    cache2 = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache2.put(record())  # already known, must not duplicate
    cache2.put(record(path="h.c"))
    cache2.flush()
    cache3 = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert len(cache3._records) == 2


def test_config_hash_separates_settings(tmp_path):
    first = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    second = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, False)
    third = ChangeCache.open(str(tmp_path), frozenset({".c"}), True)
    assert first.path != second.path
    assert first.path != third.path
    assert analyzer_config_hash(DEFAULT_EXTENSIONS, True) == \
        analyzer_config_hash(frozenset({".h", ".c"}), True)


def test_damaged_lines_are_skipped(tmp_path):
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(record())
    cache.flush()
    with open(cache.path, "a", encoding="utf-8") as handle:
        handle.write("{not json at all\n")
        handle.write('{"commit_id": "only one field"}\n')
    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
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


def test_since_run_on_a_shared_cache_keeps_its_warnings(repo_builder, tmp_path):
    # the full run sees a.c's first blob (and its warning) at the add, so
    # it reports nothing for the second commit; a --since run starts at
    # the second commit, where the first blob is the old side and is new
    # to that run, and must report its warning from a cache hit as well
    repo_builder.write("a.c", "int a;\n#endif\n")
    repo_builder.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo_builder.write("a.c", "int a;\n#endif\nint b;\n")
    repo_builder.commit("c2", "Bob", "bob@example.com", "2020-02-15T00:00:00 +0000")
    cache_dir = str(tmp_path / "cache")
    since = 1580515200  # 2020-02-01T00:00:00Z
    run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                          output_dir=str(tmp_path / "full")))
    cold_out, warm_out = str(tmp_path / "cold"), str(tmp_path / "warm")
    run_analyze(RunConfig(repo_path=repo_builder.path, output_dir=cold_out, since=since))
    warm = run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                                 output_dir=warm_out, since=since))
    assert warm.counters.cache_hits == warm.counters.changes == 1
    cold_warnings = read(os.path.join(cold_out, "warnings.jsonl"))
    assert len(cold_warnings.splitlines()) == 2
    assert read(os.path.join(warm_out, "warnings.jsonl")) == cold_warnings


def test_blob_facts_survive_a_reopen(tmp_path):
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    text = BlobFacts("a" * 40, blocks=3, macros=frozenset({"X", "Y"}))
    binary = BlobFacts("b" * 40, binary=True)
    cache.put(text)
    cache.put(binary)
    cache.put(record())
    cache.flush()
    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.blob("a" * 40) == text
    assert again.blob("b" * 40) == binary
    assert again.blob("c" * 40) is None
    assert again.get("c" * 40, "f.c") == record()


def test_cache_file_is_named_by_options_only(multifile_repo, tmp_path):
    repo_path, _ = multifile_repo
    cache_dir = str(tmp_path / "cache")
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir,
                          output_dir=str(tmp_path / "out")))
    digest = analyzer_config_hash(DEFAULT_EXTENSIONS, True)
    assert os.listdir(cache_dir) == [f"changes-{digest}.jsonl"]


def count_blob_reads(monkeypatch):
    reads = []
    original = GitRepo.blob_bytes

    def counting(self, oid):
        reads.append(oid)
        return original(self, oid)

    monkeypatch.setattr(GitRepo, "blob_bytes", counting)
    return reads


def test_warm_run_reads_no_blob(multifile_repo, tmp_path, monkeypatch):
    # change records cover the fold and blob records the final tree
    repo_path, _ = multifile_repo
    cache_dir = str(tmp_path / "cache")
    cold_out, warm_out = str(tmp_path / "cold"), str(tmp_path / "warm")
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir, output_dir=cold_out))
    reads = count_blob_reads(monkeypatch)
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir, output_dir=warm_out))
    assert reads == []
    for name in ("scores.csv", "ledger.json", "warnings.jsonl", "run_meta.json"):
        cold, warm = (read(os.path.join(out, name)) for out in (cold_out, warm_out))
        if name == "run_meta.json":
            cold, warm = (json.loads(raw)["snapshot"] for raw in (cold, warm))
        assert cold == warm


def _binary_tree_blob_repo(repo):
    repo.write_bytes("t.c", b"\x00\x01 table\n")
    repo.write("f.c", "#ifdef A\nint a;\n#endif\n")
    repo.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write("f.c", "#ifdef A\nint a;\n#endif\nint b;\n")
    repo.commit("c2", "Bob", "bob@example.com", "2020-02-15T00:00:00 +0000")


@pytest.mark.parametrize("since, snapshot_reports", [(None, False), (1580515200, True)])
def test_binary_tree_blob_is_reported_once(repo_builder, tmp_path, since, snapshot_reports):
    # the fold reports t.c at its add; with the add outside the window,
    # the final-tree snapshot reports it instead, from a read or the cache
    _binary_tree_blob_repo(repo_builder)
    cache_dir = str(tmp_path / "cache")
    outputs = []
    for name in ("cold", "warm"):
        out = str(tmp_path / name)
        run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                              output_dir=out, since=since))
        outputs.append(read(os.path.join(out, "warnings.jsonl")))
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert [(r["kind"], r["path"]) for r in records] == [("binary_skipped", "t.c")]
    tip = repo_builder.git("rev-parse", "HEAD").strip()
    assert (records[0]["commit"] == tip) == snapshot_reports
    assert outputs[1] == outputs[0]


# ----------------------------------------------------------------------
# append, and the rewrite of a damaged file
# ----------------------------------------------------------------------

def cache_lines(cache_dir):
    [name] = os.listdir(cache_dir)
    return read(os.path.join(cache_dir, name)).decode("utf-8").split("\n")


def test_clean_file_is_appended_to(repo_builder, tmp_path):
    repo_builder.write("f.c", "int a;\n")
    repo_builder.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    cache_dir = str(tmp_path / "cache")
    run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                          output_dir=str(tmp_path / "a")))
    before = cache_lines(cache_dir)
    repo_builder.write("f.c", "int a;\nint b;\n")
    repo_builder.commit("c2", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    run_analyze(RunConfig(repo_path=repo_builder.path, cache_dir=cache_dir,
                          output_dir=str(tmp_path / "b")))
    after = cache_lines(cache_dir)
    # one change record and the new tree blob's facts, after the old lines
    assert after[:len(before) - 1] == before[:-1]
    assert len(after) == len(before) + 2


def _torn_tail(lines):
    return "\n".join(lines[:-2]) + "\n" + lines[-2][: len(lines[-2]) // 2]


def _duplicated(lines):
    return "\n".join(lines[:-1] + lines[:-1]) + "\n"


def _no_final_newline(lines):
    # sound lines, but the next append would run into the last one
    return "\n".join(lines[:-1])


def _blank_and_foreign(lines):
    return "\n".join(["", '{"commit_id": "only one field"}'] + lines)


@pytest.mark.parametrize("damage", [_torn_tail, _no_final_newline, _duplicated,
                                    _blank_and_foreign])
def test_damaged_file_gives_cold_artifacts_and_is_rewritten(multifile_repo, tmp_path, damage):
    repo_path, _ = multifile_repo
    cache_dir = str(tmp_path / "cache")
    cold_out, warm_out = str(tmp_path / "cold"), str(tmp_path / "warm")
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir, output_dir=cold_out))
    clean = cache_lines(cache_dir)
    [name] = os.listdir(cache_dir)
    with open(os.path.join(cache_dir, name), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(damage(clean))
    run_analyze(RunConfig(repo_path=repo_path, cache_dir=cache_dir, output_dir=warm_out))
    for artifact in ("scores.csv", "ledger.json", "warnings.jsonl"):
        assert read(os.path.join(cold_out, artifact)) == read(os.path.join(warm_out, artifact))
    rewritten = cache_lines(cache_dir)
    assert rewritten.pop() == ""
    assert sorted(rewritten) == sorted(clean[:-1])
    assert os.listdir(cache_dir) == [name]
