"""Change cache tests: record round-trips, config keying, warm-run
equivalence, tolerance for damaged lines."""

import json
import os
import sys

import pytest

from varxpert import pipeline, util
from varxpert.cache import BlobFacts, ChangeCache, analyzer_config_hash
from varxpert.history import DEFAULT_EXTENSIONS, GitRepo, looks_binary
from varxpert.ledger import ChangeFacts
from varxpert.pipeline import RunConfig, mine, run_analyze
from varxpert.preproc import ScanWarning, patch_scan, scan_text

KEY = ("c" * 40, "f.c")
FACTS = ChangeFacts(touched_variable=True, saw_variable=True)


def test_scan_warnings_survive_a_reopen(tmp_path):
    warned = ChangeFacts(
        touched_mandatory=True,
        scan_warnings=(("b" * 40, ScanWarning("stray_directive", 2, "#endif")),),
    )
    binary = ChangeFacts(binary_oid="d" * 40)
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(KEY, warned)
    cache.put(("c" * 40, "t.c"), binary)
    cache.flush()
    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.get(*KEY) == warned
    assert again.get("c" * 40, "t.c") == binary


def test_disabled_cache_is_inert():
    cache = ChangeCache.open(None, DEFAULT_EXTENSIONS, True)
    assert not cache.enabled
    cache.put(KEY, FACTS)
    assert cache.get(*KEY) is None
    cache.flush()


def test_put_flush_reopen_get(tmp_path):
    plain = ChangeFacts(touched_mandatory=True)  # neither side had a variable line
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(KEY, FACTS)
    cache.put(("c" * 40, "g.c"), plain)
    cache.flush()

    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.get(*KEY) == FACTS
    assert again.get("c" * 40, "g.c") == plain
    assert again.get("c" * 40, "missing.c") is None


def test_flush_appends_without_duplicates(tmp_path):
    cache = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache.put(KEY, FACTS)
    cache.flush()
    cache2 = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    cache2.put(KEY, FACTS)  # already known, must not duplicate
    cache2.put(("c" * 40, "h.c"), FACTS)
    cache2.flush()
    cache3 = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert len(cache3._entries) == 2


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
    cache.put(KEY, FACTS)
    cache.flush()
    with open(cache.path, "a", encoding="utf-8") as handle:
        handle.write("{not json at all\n")
        handle.write('{"commit": "only one field"}\n')
    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.get(*KEY) == FACTS
    assert len(again._entries) == 1


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
    text = BlobFacts(blocks=3, macros=frozenset({"X", "Y"}))
    binary = BlobFacts(binary=True)
    cache.put("a" * 40, text)
    cache.put("b" * 40, binary)
    cache.put(KEY, FACTS)
    cache.flush()
    again = ChangeCache.open(str(tmp_path), DEFAULT_EXTENSIONS, True)
    assert again.blob("a" * 40) == text
    assert again.blob("b" * 40) == binary
    assert again.blob("c" * 40) is None
    assert again.get(*KEY) == FACTS


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


def test_cold_run_reads_each_blob_once(repo_builder, tmp_path, monkeypatch):
    # each change takes its old side from the previous change's new side,
    # a pure rename keeps it, and the final-tree snapshot reuses the last
    for version in range(4):
        repo_builder.write("f.c", "#ifdef A\nint a;\n#endif\n" * (version + 1))
        repo_builder.commit(f"v{version}", "Alice", "alice@example.com",
                            f"2020-0{version + 1}-01T00:00:00 +0000")
    repo_builder.move("f.c", "g.c")
    repo_builder.commit("move", "Bob", "bob@example.com", "2020-06-01T00:00:00 +0000")
    blobs = {repo_builder.git("rev-parse", f"HEAD~{n}:f.c").strip() for n in range(1, 5)}
    reads = count_blob_reads(monkeypatch)
    run_analyze(RunConfig(repo_path=repo_builder.path, output_dir=str(tmp_path / "out")))
    assert sorted(reads) == sorted(blobs)


def test_cold_mine_splits_each_text_blob_once(synth_histories, monkeypatch):
    # a file version becomes lines once, where its bytes are read: the live
    # table, diff_hunks and both scanners take those lines (deep-ifdef seed 1)
    split_lines, blob_bytes = util.split_lines, GitRepo.blob_bytes
    splits, texts = [], []

    def splitting(text):
        splits.append(None)
        return split_lines(text)

    def reading(repo, oid):
        payload = blob_bytes(repo, oid)
        texts.append(not looks_binary(payload))
        return payload

    for name, module in list(sys.modules.items()):
        if name.startswith("varxpert") and vars(module).get("split_lines") is split_lines:
            monkeypatch.setattr(module, "split_lines", splitting)
    monkeypatch.setattr(GitRepo, "blob_bytes", reading)
    mine(RunConfig(repo_path=synth_histories[0]))
    assert len(splits) == sum(texts) > 0


def test_cold_run_lexes_each_path_once(repo_builder, monkeypatch):
    # a path is lexed in full at first sight (a.c, b.h, d.c) and where a
    # continuation meets a hunk edge (c4); every other text side is patched
    repo = repo_builder
    body = ["#ifdef A", "int a;", "#endif", "#define M(x) \\", "  (x)", "int z;"]
    repo.write("a.c", "\n".join(body) + "\n")
    repo.write("b.h", "#ifndef B_H\n#define B_H\nint b;\n#endif\n")
    repo.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    body[1:1] = ["#if B", "int b;", "#endif"]
    repo.write("a.c", "\n".join(body) + "\n")
    repo.commit("c2", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    del body[5]
    repo.write("a.c", "\n".join(body) + "\n")
    repo.write("b.h", "#ifndef B_H\n#define B_H\nlong b;\n#endif\n")
    repo.commit("c3", "Alice", "alice@example.com", "2020-03-01T00:00:00 +0000")
    body[body.index("  (x)")] = "  (x + 1)"
    repo.write("a.c", "\n".join(body) + "\n")
    repo.commit("c4", "Bob", "bob@example.com", "2020-04-01T00:00:00 +0000")
    repo.move("a.c", "c.c")
    repo.write("c.c", "\n".join(body + ["int y;"]) + "\n")
    repo.commit("c5", "Alice", "alice@example.com", "2020-05-01T00:00:00 +0000")
    repo.write("d.c", "int d;\n")
    repo.delete("b.h")
    repo.commit("c6", "Bob", "bob@example.com", "2020-06-01T00:00:00 +0000")
    full, patched = [], []

    def counting_scan(lines, options):
        full.append(lines)
        return scan_text(lines, options)

    def counting_patch(*args):
        result = patch_scan(*args)
        patched.append(result is not None)
        return result

    monkeypatch.setattr(pipeline, "scan_text", counting_scan)
    monkeypatch.setattr(pipeline, "patch_scan", counting_patch)
    mine(RunConfig(repo_path=repo.path))
    first_sight, fallbacks = 3, patched.count(False)
    assert len(full) == first_sight + fallbacks
    assert (patched.count(True), fallbacks) == (4, 1)


def _binary_sides_repo(repo):
    # t.c turns binary and back, so one change stops at its new side and
    # one at its old side; u.c is binary from its add to the tip
    repo.write("t.c", "#ifdef T\nint t;\n#endif\n")
    repo.write_bytes("u.c", b"\x00 table\n")
    repo.commit("c1", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo.write_bytes("t.c", b"\x00\x01 blob\n")
    repo.commit("c2", "Bob", "bob@example.com", "2020-02-01T00:00:00 +0000")
    repo.write("t.c", "int t;\n")
    repo.write_bytes("u.c", b"\x00 table v2\n")
    repo.commit("c3", "Alice", "alice@example.com", "2020-03-01T00:00:00 +0000")


def test_warm_run_reads_no_blob(multifile_repo, repo_builder, tmp_path, monkeypatch):
    # change records cover the fold, including the changes stopped at a
    # binary side, and blob records the final tree
    _binary_sides_repo(repo_builder)
    histories = {"multifile": (multifile_repo[0], 0), "binary": (repo_builder.path, 4)}
    for name, (repo_path, _) in histories.items():
        run_analyze(RunConfig(repo_path=repo_path, cache_dir=str(tmp_path / name / "cache"),
                              output_dir=str(tmp_path / name / "cold")))
    reads = count_blob_reads(monkeypatch)
    for name, (repo_path, binary_changes) in histories.items():
        cold_out, warm_out = str(tmp_path / name / "cold"), str(tmp_path / name / "warm")
        counters = run_analyze(RunConfig(repo_path=repo_path,
                                         cache_dir=str(tmp_path / name / "cache"),
                                         output_dir=warm_out)).counters
        assert reads == []
        # a binary-side hit folds no event, so it is not a counted cache hit
        assert counters.cache_hits == counters.changes - binary_changes
        for artifact in ("scores.csv", "ledger.json", "warnings.jsonl", "run_meta.json"):
            cold, warm = (read(os.path.join(out, artifact)) for out in (cold_out, warm_out))
            if artifact == "run_meta.json":
                cold, warm = (json.loads(raw)["snapshot"] for raw in (cold, warm))
            assert cold == warm


def test_each_binary_change_is_reported_once(repo_builder, tmp_path, monkeypatch):
    # u.c is binary on both sides of the tip commit; the fold reports that
    # change with its new blob, so the final-tree snapshot neither reads
    # nor reports u.c again
    _binary_sides_repo(repo_builder)
    c1, c2, c3 = repo_builder.git("rev-list", "--reverse", "HEAD").split()
    tip_t, tip_u = (repo_builder.git("rev-parse", f"HEAD:{path}").strip()
                    for path in ("t.c", "u.c"))
    reads = count_blob_reads(monkeypatch)
    out = str(tmp_path / "out")
    run_analyze(RunConfig(repo_path=repo_builder.path, output_dir=out))
    records = [json.loads(line) for line in read(os.path.join(out, "warnings.jsonl")).splitlines()]
    assert [(r["kind"], r["commit"], r["path"]) for r in records] == [
        ("binary_skipped", c1, "u.c"),
        ("binary_skipped", c2, "t.c"),
        ("binary_skipped", c3, "t.c"),
        ("binary_skipped", c3, "u.c"),
    ]
    assert reads.count(tip_u) == 1
    # t.c turns back into text at the tip: the fold keeps that new side,
    # so the final-tree snapshot does not read it again
    assert reads.count(tip_t) == 1


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


def test_snapshot_reads_each_tree_blob_once(repo_builder, tmp_path):
    # three identical files added before the window, so the fold never
    # reads them: the final-tree snapshot reads their one blob once,
    # whether or not a cache is there to remember it
    for name in ("a.c", "b.c", "c.c"):
        repo_builder.write(name, "#ifdef X\nint x;\n#endif\n")
    repo_builder.commit("same", "Alice", "alice@example.com", "2020-01-01T00:00:00 +0000")
    repo_builder.write("d.c", "int d;\n")
    repo_builder.commit("d", "Bob", "bob@example.com", "2020-03-01T00:00:00 +0000")
    config = RunConfig(repo_path=repo_builder.path, since=1580515200)
    for name, cache_dir in (("plain", None), ("cached", str(tmp_path / "cache"))):
        state = run_analyze(config._replace(output_dir=str(tmp_path / name), cache_dir=cache_dir))
        assert state.counters.blob_reads == 2  # d.c in the fold, the shared blob here
        assert (state.snapshot_files, state.variability.blocks) == (4, 3)
    for name in ("scores.csv", "ledger.json", "warnings.jsonl", "run_meta.json"):
        assert read(tmp_path / "plain" / name) == read(tmp_path / "cached" / name), name


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


def _two_records_on_one_line(lines):
    # sound records, but a reader that stops after the first would keep it
    return "\n".join(lines[:-3] + [lines[-3] + lines[-2]]) + "\n"


def _blank_and_foreign(lines):
    return "\n".join(["", '{"commit": "only one field"}'] + lines)


CHANGE_FIELDS = ("commit", "path", "touched_variable", "touched_mandatory", "saw_variable",
                 "scan_warnings", "binary_oid")
BLOB_FIELDS = ("oid", "blocks", "macros", "binary")


def _first_record(fields, edit, name):
    """A damage that applies edit to the first record as long as fields
    for which edit returns true, and writes that record back."""
    def damage(lines):
        for index, line in enumerate(lines[:-1]):
            record = json.loads(line)
            if len(record) == len(fields) and edit(record):
                return "\n".join(lines[:index] + [json.dumps(record)] + lines[index + 1:])
        raise AssertionError(f"no record for {name}")
    damage.__name__ = name
    return damage


def _set_or_append(fields, field, value):
    """An edit that sets field to value, or appends value for a field the
    record has not."""
    def edit(record):
        if field in fields:
            record[fields.index(field)] = value
        else:
            record.append(value)
        return True
    return edit


def _first_change_record_with(field, value):
    """The first change record whose field differs from value in truth gets
    value, a JSON type the cache never writes there; any other field a record
    has not is added."""
    set_it = _set_or_append(CHANGE_FIELDS, field, value)

    def edit(record):
        differs = field not in CHANGE_FIELDS or \
            bool(record[CHANGE_FIELDS.index(field)]) != bool(value)
        return differs and set_it(record)
    return _first_record(CHANGE_FIELDS, edit,
                         f"_first_change_record_with_{field}_{type(value).__name__}")


def _first_blob_record_with(field, value):
    """The first blob record gets value in field, a JSON type the cache
    never writes there; any other field a record has not is added."""
    return _first_record(BLOB_FIELDS, _set_or_append(BLOB_FIELDS, field, value),
                         f"_first_blob_record_with_{field}_{type(value).__name__}")


def _drop_last_field(record):
    del record[-1]
    return True


_first_blob_record_without_binary = _first_record(
    BLOB_FIELDS, _drop_last_field, "_first_blob_record_without_binary")


def _x_c_variable_changes_saw_no_variable_code(lines):
    # x.c's two variable changes say neither side had a variable line,
    # which the classifier never writes; with its third change saying so
    # too, x.c read as a file without variable code that has variable changers
    saw_variable = CHANGE_FIELDS.index("saw_variable")
    records = [json.loads(line) for line in lines[:-1]]
    edited = [record for record in records
              if len(record) == len(CHANGE_FIELDS) and record[1] == "x.c" and record[2]]
    assert len(edited) == 2
    for record in edited:
        record[saw_variable] = False
    return "".join(json.dumps(record) + "\n" for record in records)


@pytest.mark.parametrize("damage", [
    _torn_tail, _no_final_newline, _duplicated, _blank_and_foreign, _two_records_on_one_line,
    # a JSON string true by Python's reading: the change would fold as variable work
    _first_change_record_with("touched_variable", "false"),
    _first_change_record_with("saw_variable", 1),
    _first_change_record_with("binary_oid", 5),
    # JSON types as written, but facts the classifier cannot write
    _x_c_variable_changes_saw_no_variable_code,
    _first_change_record_with("scan_warnings", [["b" * 40, ["stray_directive", "2", "#x"]]]),
    _first_change_record_with("scan_warnings", {"b": "c"}),
    # no warnings, but not as the array written
    _first_record(CHANGE_FIELDS, _set_or_append(CHANGE_FIELDS, "scan_warnings", ""),
                  "_first_change_record_with_scan_warnings_empty_str"),
    # an 8-element array
    _first_change_record_with("author", "frank@example.com"),
    # read as a binary blob, its blocks and macros would drop out of the count
    _first_blob_record_with("binary", "false"),
    _first_blob_record_with("blocks", "2"),
    _first_blob_record_with("macros", [1]),
    # 3- and 5-element arrays
    _first_blob_record_without_binary,
    _first_blob_record_with("extra", 0),
])
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
