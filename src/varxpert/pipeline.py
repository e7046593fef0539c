"""Orchestrate mining, scoring, and artifact emission for one repository.

mine is the one path from a repository to a contribution ledger: it
folds the history, takes the final-tree snapshot and collects the
warnings, and writes nothing but the change cache. run_analyze is mine
followed by the writer, which puts scores.csv, ledger.json,
warnings.jsonl and run_meta.json under the output directory.
run_specialization and run_evaluate reuse that analysis when the
repository tip and configuration still match, otherwise they re-run
it; run_report does everything and renders the one-line project
report. All artifacts sort their rows and fix their key order, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from collections import Counter, deque
from typing import Iterable, Iterator, NamedTuple, Optional

from varxpert import history
from varxpert.cache import BlobFacts, ChangeCache
from varxpert.errors import AnnotationMismatch, InvalidConfig, MissingAnalysis, NoEligibleFiles
from varxpert.evaluation import MACRO, MICRO, EvaluationResult, project_evaluation
from varxpert.history import (
    DEFAULT_EXTENSIONS,
    CommitRecord,
    FileChange,
    GitRepo,
    filter_source_files,
    looks_binary,
)
from varxpert.ledger import (
    LEDGER_FORMAT,
    ChangeFacts,
    ClassifiedChanges,
    ContributionLedger,
    build_contribution_ledger,
    classify_change,
    fold_order,
    ledger_from_dict,
    ledger_to_dict,
)
from varxpert.metrics import (
    DEFAULT_DOA_THRESHOLD,
    DEFAULT_OWNERSHIP_THRESHOLD,
    METRIC_DOA,
    METRIC_OWNERSHIP,
    ExpertiseScore,
    compute_scores,
)
from varxpert.preproc import ScanResult, VariabilityCount, patch_scan, scan_text
from varxpert.report import ProjectReport
from varxpert.timeline import (
    SpecializationSummary,
    TimelineSnapshot,
    monthly_snapshots,
    specialization_summary,
)
from varxpert.util import compact_json, csv_text, split_lines, stable_json

SCORES_CSV = "scores.csv"
TIMELINE_CSV = "timeline.csv"
EVALUATION_CSV = "evaluation.csv"
LEDGER_JSON = "ledger.json"
WARNINGS_JSONL = "warnings.jsonl"
RUN_META_JSON = "run_meta.json"
RUN_FORMAT = "varxpert-run/5"
REPORT_BASENAME = "report"
READ_AHEAD = 16  # commits the fold trails the log stream by

OUTPUT_FORMATS = ("csv", "json", "markdown")


class RunConfig(NamedTuple):
    repo_path: str
    branch: str = "HEAD"
    since: Optional[int] = None
    until: Optional[int] = None
    extensions: frozenset[str] = DEFAULT_EXTENSIONS
    exclude_include_guards: bool = True
    doa_threshold: float = DEFAULT_DOA_THRESHOLD
    ownership_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD
    doa_abs_floor: Optional[float] = None
    aggregation: str = MICRO
    cache_dir: Optional[str] = None
    output_dir: str = "varxpert-out"
    output_format: str = "csv"

    def validate(self) -> None:
        if not (0.0 < self.doa_threshold <= 1.0):
            raise InvalidConfig("doa threshold must be in (0, 1]")
        if not (0.0 < self.ownership_threshold <= 1.0):
            raise InvalidConfig("ownership threshold must be in (0, 1]")
        if self.aggregation not in (MICRO, MACRO):
            raise InvalidConfig(f"unknown aggregation {self.aggregation!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise InvalidConfig(f"unknown output format {self.output_format!r}")
        if not self.extensions:
            raise InvalidConfig("at least one file extension is required")
        if self.since is not None and self.until is not None and self.since > self.until:
            raise InvalidConfig("since must not be later than until")
        for name, path in (("output", self.output_dir), ("cache", self.cache_dir)):
            if path is not None and os.path.exists(path) and not os.path.isdir(path):
                raise InvalidConfig(f"{name} directory {path!r} exists and is not a directory")

    def ledger_key(self) -> str:
        """The options a stored ledger depends on, as canonical JSON."""
        return json.dumps(
            {
                "since": self.since,
                "until": self.until,
                "extensions": sorted(e.lower() for e in self.extensions),
                "exclude_include_guards": self.exclude_include_guards,
            },
            sort_keys=True,
        )


class Counters:
    def __init__(
        self,
        *,
        changes: int = 0,
        cache_hits: int = 0,
        annotated_sides: int = 0,
        blob_reads: int = 0,
        blob_asks_unread: int = 0,
    ):
        self.changes = changes
        self.cache_hits = cache_hits
        self.annotated_sides = annotated_sides
        self.blob_reads = blob_reads  # GitRepo.blob_bytes calls
        self.blob_asks_unread = blob_asks_unread  # blobs asked for ahead and never read


class _LiveEntry:
    """A path's current version: its blob id, and once _mine has read it,
    its lines and ScanResult (both None for a binary blob)."""

    __slots__ = ("oid", "lines", "scan")

    def __init__(self, oid: str):
        self.oid = oid
        self.lines: Optional[list[str]] = None
        self.scan: Optional[ScanResult] = None


# a change, its cached facts, the live entry it pops and the one it puts back
_LookedUp = tuple[FileChange, Optional[ChangeFacts], Optional[_LiveEntry], Optional[_LiveEntry]]


def _sides_to_read(change: FileChange, held: Optional[_LiveEntry]) -> list[str]:
    """The blobs a cache miss reads, in order: the new side, then the old
    side, each unless held, the path's live entry, holds it."""
    return list(dict.fromkeys(oid for oid in (change.new_blob, change.old_blob)
                              if oid and not (held and held.oid == oid)))


class _PipelineClassifier:
    """The per-change step of the fold: the one code that turns a
    (commit, FileChange) into ChangeFacts.

    The facts come from the cache, or on a miss from _mine, which reads
    the sides, computes the hunks, scans and classifies; a miss is put
    into the cache. Then the change's warnings are appended to warnings,
    the run's warnings.jsonl records: a change with a binary side gives
    one binary_skipped record and hands the fold its empty facts, any
    other the scan warnings of each blob this run has not reported yet.
    Changes are classified in fold order, so the records land in it.

    read_ahead runs the log stream READ_AHEAD commits ahead of the fold.
    As a commit leaves the stream, _look_ahead, the one writer of live,
    looks up each change in the cache in fold order, moves the path's
    live entry, and on a miss asks git for the blobs _sides_to_read
    names. _mine reads those same blobs, and the fold keeps that order,
    so blobs are read in the order they were asked for.

    live maps each path to the _LiveEntry of its current version, so a
    blob is read once, as a new side, and reused as the next change's
    old side: its lines for diff_hunks, its ScanResult for
    preproc.patch_scan. So scan_blob, the one full scan, lexes a path
    only at first sight or where patch_scan gives up (a backslash
    continuation at a hunk edge, a byte order mark at a hunk at the
    top). Each change pops its old path's entry; a miss puts back its
    new side's under the new path, a hit only a popped entry that holds
    its new side, a delete nothing. So the table holds one version per
    path, not one per version in the history. _mine fills a new entry
    before any later change uses it; a binary version keeps an entry
    without lines, so it is never read again. A path that leaves the
    stream unseen by the fold (renamed outside the extension filter, or
    changed by a merge) keeps a stale entry, but an entry only serves a
    side with its oid. binary_oids holds the binary sides the run
    reported. The final-tree snapshot reuses both.
    """

    def __init__(self, repo: GitRepo, exclude_include_guards: bool, cache: ChangeCache):
        self.repo = repo
        self.exclude_include_guards = exclude_include_guards
        self.cache = cache
        self.warnings: list[dict] = []
        self.counters = Counters()
        self.live: dict[str, _LiveEntry] = {}
        self.binary_oids: set[str] = set()
        self.last_commit: Optional[str] = None  # the last commit read_ahead handed over
        self._reported_oids: set[str] = set()  # blobs whose scan warnings are out

    def scan_blob(self, oid: str, lines: list[str]) -> ScanResult:
        """The one full scan of a side; oid names it for a wrapper's record."""
        return scan_text(lines, self.exclude_include_guards)

    def read_ahead(
        self, commits: Iterable[CommitRecord], log_warnings: list[dict]
    ) -> Iterator[tuple[CommitRecord, ClassifiedChanges]]:
        """Each commit of commits with its changes' facts in fold order,
        classified READ_AHEAD commits after it leaves the stream.

        The warnings the stream put in log_warnings while it produced a
        commit go to warnings just before that commit is classified, and
        those after the last commit at the end, so they land where a fold
        reading the stream itself would put them.
        """
        queue: deque[tuple[CommitRecord, list[_LookedUp], list[dict]]] = deque()
        for commit in commits:
            queue.append((commit, self._look_ahead(commit), log_warnings[:]))
            log_warnings.clear()
            while len(queue) > READ_AHEAD:
                yield self._classify_commit(*queue.popleft())
        while queue:
            yield self._classify_commit(*queue.popleft())
        self.warnings.extend(log_warnings)

    def _classify_commit(
        self, commit: CommitRecord, looked_up: list[_LookedUp], warnings: list[dict]
    ) -> tuple[CommitRecord, ClassifiedChanges]:
        self.warnings.extend(warnings)
        self.last_commit = commit.commit_id
        return commit, [(change, self(commit, change, facts, held, new))
                        for change, facts, held, new in looked_up]

    def _look_ahead(self, commit: CommitRecord) -> list[_LookedUp]:
        """commit's changes in fold order, each with its cached facts (None
        on a miss) and live entries; git is asked for each miss's sides."""
        live = self.live
        looked_up = []
        for change in fold_order(commit.changes):
            facts = self.cache.get(commit.commit_id, change.effective_path)
            held = live.pop(change.path_before, None) if change.path_before else None
            new = held if held is not None and held.oid == change.new_blob else None
            if facts is None:
                for oid in _sides_to_read(change, held):
                    self.repo.ask(oid)
                if new is None and change.new_blob:
                    new = _LiveEntry(change.new_blob)
            if new is not None:
                live[change.effective_path] = new
            looked_up.append((change, facts, held, new))
        return looked_up

    def __call__(self, commit: CommitRecord, change: FileChange, facts: Optional[ChangeFacts],
                 held: Optional[_LiveEntry], new: Optional[_LiveEntry]) -> ChangeFacts:
        """The facts the fold takes for change, given its cached facts
        (None on a miss) and its live entries."""
        self.counters.changes += 1
        if facts is None:
            facts = self._mine(change, held, new)
            self.cache.put((commit.commit_id, change.effective_path), facts)
        elif facts.binary_oid is None:
            self.counters.cache_hits += 1

        if facts.binary_oid is not None:
            self.warnings.append({"kind": "binary_skipped", "commit": commit.commit_id,
                                  "path": change.effective_path})
            self.binary_oids.add(facts.binary_oid)
        # Every warning of a blob is reported once, where the blob first
        # appears in this run; dict.fromkeys, because a rename that keeps
        # its blob lists it on both sides.
        fresh = {oid for oid, _ in facts.scan_warnings} - self._reported_oids
        self._reported_oids.update(fresh)
        for oid, warning in dict.fromkeys(facts.scan_warnings):
            if oid in fresh:
                self.warnings.append(dict(warning._asdict(), kind=f"scan_{warning.kind}",
                                          commit=commit.commit_id, path=change.effective_path))
        return facts

    def _mine(
        self, change: FileChange, held: Optional[_LiveEntry], new: Optional[_LiveEntry]
    ) -> ChangeFacts:
        """The facts of a change the cache misses; new, its new side's live
        entry, gets that side's lines and scan.

        A side with the oid of held, the path's popped entry, is neither
        read nor scanned; the others are read as _sides_to_read orders
        them. Of two binary sides the new one, which a later tree may
        still hold, is reported. The new side's scan is the held one,
        else the old side's for an unchanged blob, else the old one
        patched through the hunks, else a full one.
        """
        old_oid, new_oid = change.old_blob, change.new_blob
        sides = {held.oid: held.lines} if held is not None else {}
        for oid in _sides_to_read(change, held):
            sides[oid] = _read_lines(self.repo, oid)
        binary = next((oid for oid in (new_oid, old_oid) if oid and sides[oid] is None), None)
        new_lines = sides.get(new_oid)
        old_lines = sides.get(old_oid) if binary is None else None
        # through the module, so a wrapper set on history.diff_hunks sees the call
        hunks = history.diff_hunks(old_lines or [], new_lines or []) if binary is None else ()
        old_scan = new_scan = None
        if old_lines is not None:
            old_scan = (held.scan if held and held.oid == old_oid
                        else self.scan_blob(old_oid, old_lines))
        if new_lines is not None:
            if held and held.oid == new_oid:
                new_scan = held.scan
            elif new_oid == old_oid:
                new_scan = old_scan
            elif old_scan is not None:
                new_scan = patch_scan(old_scan, hunks, old_lines, new_lines,
                                      self.exclude_include_guards)
            new_scan = new_scan or self.scan_blob(new_oid, new_lines)
        if new is not None:
            new.lines, new.scan = new_lines, new_scan
        if binary is not None:
            return ChangeFacts(binary_oid=binary)

        warnings = []
        for side, oid, scan, lines in (("old", old_oid, old_scan, old_lines),
                                       ("new", new_oid, new_scan, new_lines)):
            if scan is None:
                continue
            if len(scan.annotations) != len(lines):
                raise AnnotationMismatch(
                    f"{side} side of {change.effective_path}: "
                    f"{len(scan.annotations)} line flags for {len(lines)} lines"
                )
            warnings.extend((oid, warning) for warning in scan.warnings)
        self.counters.annotated_sides += (old_scan is not None) + (new_scan is not None)
        bitmaps = [scan and scan.annotations for scan in (old_scan, new_scan)]
        return classify_change(hunks, *bitmaps)._replace(
            saw_variable=any(bitmap and 1 in bitmap for bitmap in bitmaps),
            scan_warnings=tuple(warnings),
        )


class AnalysisState(NamedTuple):
    config: RunConfig
    ledger: ContributionLedger
    tip: str
    last_commit: str
    snapshot_files: int
    variability: VariabilityCount
    counters: Counters


def mine(config: RunConfig) -> tuple[AnalysisState, list[dict]]:
    """Mine the repository into an analysis and its warnings.jsonl records.

    Nothing is written except the change cache under config.cache_dir.
    """
    config.validate()

    with GitRepo(config.repo_path) as repo:
        tip = repo.resolve_tip(config.branch)
        if tip is None:
            raise NoEligibleFiles("repository has no commits")
        log_warnings: list[dict] = []
        extensions = frozenset(e.lower() for e in config.extensions)  # once, not per path
        # git walks the log while the cache is read
        commits = repo.iter_commits(tip, since=config.since, until=config.until,
                                    extensions=extensions, warn=log_warnings.append)
        cache = ChangeCache.open(
            config.cache_dir, config.extensions, config.exclude_include_guards
        )
        classifier = _PipelineClassifier(repo, config.exclude_include_guards, cache)
        ledger = build_contribution_ledger(classifier.read_ahead(commits, log_warnings))
        counters = classifier.counters
        last_commit = classifier.last_commit
        if last_commit is None:
            raise NoEligibleFiles("no commits in the requested range")
        snapshot_files, variability = _final_snapshot(classifier, last_commit, extensions)
        if not ledger.files and snapshot_files == 0:
            raise NoEligibleFiles("no source files in the history or the final tree")
        cache.flush()
        counters.blob_reads, counters.blob_asks_unread = repo.blob_counts()

    return AnalysisState(
        config=config,
        ledger=ledger,
        tip=tip,
        last_commit=last_commit,
        snapshot_files=snapshot_files,
        variability=variability,
        counters=counters,
    ), classifier.warnings


def run_analyze(config: RunConfig) -> AnalysisState:
    """Mine the repository and write the analysis artifacts."""
    state, warnings = mine(config)
    _write_analysis_artifacts(state, warnings)
    return state


def _final_snapshot(
    classifier: _PipelineClassifier, rev: str, extensions: frozenset[str]
) -> tuple[int, VariabilityCount]:
    """Count source files and variability in the tree of the last commit.

    Each distinct tree blob's facts come from the fold (its live table,
    when the path's entry holds that blob, and the binary sides it
    reported), else from the cache; only the rest are read and scanned
    here, once each, and git is asked for all of them before the first
    is read. A binary blob is reported unless the fold already reported
    it.
    """
    repo, cache = classifier.repo, classifier.cache
    entries = [entry for entry in repo.ls_tree(rev) if filter_source_files(entry.path, extensions)]
    known: dict[str, Optional[BlobFacts]] = {}  # oid -> facts, None until read
    for entry in entries:
        if entry.oid in known:
            continue
        held = classifier.live.get(entry.path)
        if held is not None and held.oid == entry.oid and held.scan is not None:
            known[entry.oid] = BlobFacts(held.scan.blocks, held.scan.macros)
        elif entry.oid in classifier.binary_oids:
            known[entry.oid] = BlobFacts(binary=True)
        else:
            known[entry.oid] = cache.blob(entry.oid)
            if known[entry.oid] is None:
                repo.ask(entry.oid)
    blocks = 0
    macros: set[str] = set()
    for entry in entries:
        facts = known[entry.oid]
        if facts is None:
            facts = known[entry.oid] = _read_blob_facts(
                repo, entry.oid, classifier.exclude_include_guards)
        cache.put(entry.oid, facts)
        if facts.binary:
            if entry.oid not in classifier.binary_oids:
                classifier.warnings.append(
                    {"kind": "binary_skipped", "commit": rev, "path": entry.path})
            continue
        blocks += facts.blocks
        macros |= facts.macros
    return len(entries), VariabilityCount(blocks=blocks, distinct_macros=len(macros))


def _read_lines(repo: GitRepo, oid: str) -> Optional[list[str]]:
    """A blob's lines, the one shape a file version takes; None when it
    looks binary. A byte that is not UTF-8 decodes to a lone surrogate of
    its own, so lines that differ only in such bytes stay apart."""
    payload = repo.blob_bytes(oid)
    return None if looks_binary(payload) else split_lines(
        payload.decode("utf-8", errors="surrogateescape"))


def _read_blob_facts(repo: GitRepo, oid: str, exclude_include_guards: bool) -> BlobFacts:
    lines = _read_lines(repo, oid)
    if lines is None:
        return BlobFacts(binary=True)
    result = scan_text(lines, exclude_include_guards)
    return BlobFacts(result.blocks, result.macros)


# ----------------------------------------------------------------------
# Artifact writers
# ----------------------------------------------------------------------

def timeline_csv_text(snapshots: list[TimelineSnapshot]) -> str:
    """timeline.csv: each month's split and its total."""
    rows = [(*snap, snap.total) for snap in snapshots]
    return csv_text(TimelineSnapshot._fields + ("total",), rows)


def _write_text(path: str, text: str) -> None:
    # a name that is not UTF-8 is written with the bytes git stores for it
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        handle.write(text)


def _write_scores(config: RunConfig, ledger: ContributionLedger) -> list[ExpertiseScore]:
    """Score every (file, developer) pair under the run's thresholds and write scores.csv."""
    scores = compute_scores(
        ledger,
        doa_threshold=config.doa_threshold,
        ownership_threshold=config.ownership_threshold,
        doa_abs_floor=config.doa_abs_floor,
    )
    # compute_scores returns the rows sorted by file, then developer
    _write_text(os.path.join(config.output_dir, SCORES_CSV), csv_text(ExpertiseScore._fields, scores))
    return scores


def _write_analysis_artifacts(state: AnalysisState, warnings: list[dict]) -> None:
    config = state.config
    os.makedirs(config.output_dir, exist_ok=True)
    _write_scores(config, state.ledger)
    _write_text(os.path.join(config.output_dir, LEDGER_JSON), compact_json(ledger_to_dict(state.ledger)))
    _write_text(os.path.join(config.output_dir, WARNINGS_JSONL),
                "".join(json.dumps(record, sort_keys=True) + "\n" for record in warnings))
    meta = {
        "format": RUN_FORMAT,
        "tip": state.tip,
        "last_commit": state.last_commit,
        "ledger_key": config.ledger_key(),
        "snapshot": {
            "files": state.snapshot_files,
            "variability_blocks": state.variability.blocks,
            "distinct_macros": state.variability.distinct_macros,
        },
        "counters": vars(state.counters),
        "warnings_by_kind": dict(Counter(record["kind"] for record in warnings)),
    }
    _write_text(os.path.join(config.output_dir, RUN_META_JSON), stable_json(meta))


# ----------------------------------------------------------------------
# Analysis reuse
# ----------------------------------------------------------------------

def _load_json(path: str, expected_format: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("format") != expected_format:
        raise MissingAnalysis(f"{path} is not in format {expected_format}")
    return data


def load_analysis(config: RunConfig) -> AnalysisState:
    """Load a stored analysis; MissingAnalysis when absent, stale or damaged."""
    meta_path = os.path.join(config.output_dir, RUN_META_JSON)
    ledger_path = os.path.join(config.output_dir, LEDGER_JSON)
    if not (os.path.exists(meta_path) and os.path.exists(ledger_path)):
        raise MissingAnalysis(f"no analysis artifacts under {config.output_dir}")
    with GitRepo(config.repo_path) as repo:
        tip = repo.resolve_tip(config.branch)
    try:
        meta = _load_json(meta_path, RUN_FORMAT)
        if tip is None or meta.get("tip") != tip:
            raise MissingAnalysis("stored analysis is for a different branch tip")
        if meta.get("ledger_key") != config.ledger_key():
            raise MissingAnalysis("stored analysis used a different configuration")
        ledger = ledger_from_dict(_load_json(ledger_path, LEDGER_FORMAT))
        snapshot = meta["snapshot"]
        files, blocks, macros = (snapshot[key] for key in
                                 ("files", "variability_blocks", "distinct_macros"))
        # the exact JSON type written: int() would read "7" or 2.5, bool true
        if not all(type(count) is int and count >= 0 for count in (files, blocks, macros)):
            raise MissingAnalysis("stored analysis has a snapshot count that is not a count")
        return AnalysisState(
            config=config,
            ledger=ledger,
            tip=tip,
            last_commit=meta["last_commit"],
            snapshot_files=files,
            variability=VariabilityCount(blocks=blocks, distinct_macros=macros),
            counters=Counters(**meta["counters"]),
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors.
        raise MissingAnalysis(f"stored analysis is damaged: {exc}") from exc


def ensure_analysis(config: RunConfig) -> AnalysisState:
    try:
        return load_analysis(config)
    except MissingAnalysis:
        return run_analyze(config)


# ----------------------------------------------------------------------
# Verbs beyond analyze
# ----------------------------------------------------------------------

def run_specialization(
    config: RunConfig, state: Optional[AnalysisState] = None
) -> tuple[list[TimelineSnapshot], SpecializationSummary]:
    state = state or ensure_analysis(config)
    snapshots = monthly_snapshots(state.ledger)
    summary = specialization_summary(snapshots)
    _write_text(
        os.path.join(config.output_dir, TIMELINE_CSV), timeline_csv_text(snapshots)
    )
    return snapshots, summary


def run_evaluate(
    config: RunConfig, state: Optional[AnalysisState] = None
) -> list[EvaluationResult]:
    state = state or ensure_analysis(config)
    scores = _write_scores(config, state.ledger)
    results = [
        result
        for metric in (METRIC_DOA, METRIC_OWNERSHIP)
        for result in project_evaluation(state.ledger, scores, metric)
    ]
    _write_text(
        os.path.join(config.output_dir, EVALUATION_CSV),
        csv_text(EvaluationResult._fields, results),
    )
    return results


def run_report(config: RunConfig) -> ProjectReport:
    state = ensure_analysis(config)
    snapshots, summary = run_specialization(config, state)
    results = run_evaluate(config, state)
    chosen = {
        result.metric: result
        for result in results
        if result.aggregation == config.aggregation
    }
    doa = chosen[METRIC_DOA]
    ownership = chosen[METRIC_OWNERSHIP]
    report = ProjectReport(
        project=os.path.basename(os.path.abspath(config.repo_path)),
        files=state.snapshot_files,
        variability_blocks=state.variability.blocks,
        distinct_macros=state.variability.distinct_macros,
        commits=state.ledger.commit_count,
        devs=len(state.ledger.developers),
        generalist_pct=summary.generalist_pct,
        specialist_pct=summary.specialist_pct,
        mixed_pct=summary.mixed_pct,
        doa_dev_pct=doa.recommended_dev_pct,
        doa_precision=doa.precision,
        doa_recall=doa.recall,
        ownership_dev_pct=ownership.recommended_dev_pct,
        ownership_precision=ownership.precision,
        ownership_recall=ownership.recall,
        meets_min_devs=len(state.ledger.developers) > 30,
    )
    base = os.path.join(config.output_dir, REPORT_BASENAME)
    _write_text(base + ".csv", report.to_csv())
    _write_text(base + ".json", report.to_json())
    _write_text(base + ".md", report.to_markdown())
    return report
