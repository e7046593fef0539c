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

import io
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from varxpert.cache import BlobFacts, CacheRecord, ChangeCache
from varxpert.errors import InvalidConfig, MissingAnalysis, NoEligibleFiles
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
    ChangeClassification,
    ClassifiedChange,
    ContributionLedger,
    build_contribution_ledger,
    classify_sides,
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
from varxpert.preproc import AnalyzerOptions, ScanResult, VariabilityCount, scan_text
from varxpert.report import ProjectReport
from varxpert.timeline import (
    SpecializationSummary,
    TimelineSnapshot,
    monthly_snapshots,
    specialization_summary,
)
from varxpert.util import csv_bool, csv_float, stable_json

SCORES_CSV = "scores.csv"
TIMELINE_CSV = "timeline.csv"
EVALUATION_CSV = "evaluation.csv"
LEDGER_JSON = "ledger.json"
WARNINGS_JSONL = "warnings.jsonl"
RUN_META_JSON = "run_meta.json"
RUN_FORMAT = "varxpert-run/1"
REPORT_BASENAME = "report"

OUTPUT_FORMATS = ("csv", "json", "markdown")


@dataclass(frozen=True)
class RunConfig:
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

    def analyzer_options(self) -> AnalyzerOptions:
        return AnalyzerOptions(exclude_include_guards=self.exclude_include_guards)

    def ledger_key(self) -> str:
        import hashlib

        payload = json.dumps(
            {
                "since": self.since,
                "until": self.until,
                "extensions": sorted(e.lower() for e in self.extensions),
                "exclude_include_guards": self.exclude_include_guards,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class WarningSink:
    """Ordered collector for structured warnings; one JSON object per line."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def __call__(self, record: dict) -> None:
        self.records.append(record)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class Counters:
    commits: int = 0
    merges: int = 0
    changes: int = 0
    cache_hits: int = 0
    annotated_sides: int = 0


class _PipelineClassifier:
    """Per-change classification with a blob-level scan memo and cache lookups.

    scan_memo maps each scanned blob oid to its ScanResult, so every blob
    is scanned once per run, and binary_oids holds the binary sides the
    run reported; the final-tree snapshot reuses both.
    Hydration warnings go straight to the sink: the fold classifies each
    change right before its observer call, so they land in fold order.
    """

    def __init__(
        self, repo: GitRepo, options: AnalyzerOptions, cache: ChangeCache, sink: WarningSink
    ):
        self._repo = repo
        self._options = options
        self._cache = cache
        self._sink = sink
        self.scan_memo: dict[str, ScanResult] = {}
        self.binary_oids: set[str] = set()

    def scan_blob(self, oid: str, text: str) -> ScanResult:
        result = self.scan_memo.get(oid)
        if result is None:
            result = scan_text(text, self._options)
            self.scan_memo[oid] = result
        return result

    def __call__(self, commit: CommitRecord, change: FileChange) -> Optional[ClassifiedChange]:
        record = (
            self._cache.get(commit.commit_id, change.effective_path)
            if self._cache.enabled
            else None
        )
        if record is not None:
            return ClassifiedChange(
                classification=ChangeClassification(
                    touched_variable=record.touched_variable,
                    touched_mandatory=record.touched_mandatory,
                ),
                saw_variable=record.saw_variable,
                from_cache=True,
                scan_warnings=record.scan_warnings,
            )
        hydrated = self._repo.hydrate_change(
            change, emit=self._sink, commit_id=commit.commit_id, binary=self.binary_oids
        )
        if hydrated is None:
            return None
        return classify_sides(*hydrated, self.scan_blob)


@dataclass
class AnalysisState:
    config: RunConfig
    ledger: ContributionLedger
    tip: str
    last_commit: str
    snapshot_files: int
    variability: VariabilityCount
    counters: Counters = field(default_factory=Counters)


def mine(config: RunConfig) -> tuple[AnalysisState, WarningSink]:
    """Mine the repository into an analysis and its warnings.

    Nothing is written except the change cache under config.cache_dir.
    """
    config.validate()
    sink = WarningSink()
    counters = Counters()

    with GitRepo(config.repo_path) as repo:
        tip = repo.resolve_tip(config.branch)
        if tip is None:
            raise NoEligibleFiles("repository has no commits")
        cache = ChangeCache.open(
            config.cache_dir, config.extensions, config.exclude_include_guards
        )
        classifier = _PipelineClassifier(repo, config.analyzer_options(), cache, sink)
        seen_oids: set[str] = set()
        last_commit: dict[str, Optional[str]] = {"id": None}

        def observer(
            commit: CommitRecord, change: FileChange, classified: Optional[ClassifiedChange]
        ) -> None:
            counters.changes += 1
            if classified is None:
                return
            # Every warning of a blob is reported once, where the blob first
            # appears in this run, whether the change was scanned or cached.
            fresh = {oid for oid, _ in classified.scan_warnings} - seen_oids
            seen_oids.update(fresh)
            # dict.fromkeys: a rename that keeps its blob lists it on both sides
            for oid, warning in dict.fromkeys(classified.scan_warnings):
                if oid not in fresh:
                    continue
                payload = warning.as_dict()
                payload.update({"kind": f"scan_{warning.kind}",
                                "commit": commit.commit_id,
                                "path": change.effective_path})
                sink(payload)
            if classified.from_cache:
                counters.cache_hits += 1
                return
            counters.annotated_sides += classified.annotated_sides
            cache.put(
                CacheRecord(
                    commit_id=commit.commit_id,
                    timestamp=commit.timestamp,
                    author_key=commit.author.canonical_key,
                    path_after=change.effective_path,
                    kind=change.kind.value,
                    touched_variable=classified.classification.touched_variable,
                    touched_mandatory=classified.classification.touched_mandatory,
                    saw_variable=classified.saw_variable,
                    scan_warnings=classified.scan_warnings,
                )
            )

        def tracked(stream):
            for commit in stream:
                last_commit["id"] = commit.commit_id
                yield commit

        ledger = build_contribution_ledger(
            tracked(
                repo.iter_commits(
                    tip,
                    since=config.since,
                    until=config.until,
                    extensions=config.extensions,
                    warn=sink,
                )
            ),
            classify_fn=classifier,
            observer=observer,
        )
        counters.commits = ledger.commit_count
        counters.merges = ledger.merge_count
        if last_commit["id"] is None:
            raise NoEligibleFiles("no commits in the requested range")

        snapshot_files, variability = _final_snapshot(
            repo, last_commit["id"], config, classifier, cache, sink
        )
        if not ledger.files and snapshot_files == 0:
            raise NoEligibleFiles("no source files in the history or the final tree")
        cache.flush()

    return AnalysisState(
        config=config,
        ledger=ledger,
        tip=tip,
        last_commit=last_commit["id"] or tip,
        snapshot_files=snapshot_files,
        variability=variability,
        counters=counters,
    ), sink


def run_analyze(config: RunConfig) -> AnalysisState:
    """Mine the repository and write the analysis artifacts."""
    state, sink = mine(config)
    _write_analysis_artifacts(state, sink)
    return state


def _final_snapshot(
    repo: GitRepo,
    rev: str,
    config: RunConfig,
    classifier: _PipelineClassifier,
    cache: ChangeCache,
    sink: WarningSink,
) -> tuple[int, VariabilityCount]:
    """Count source files and variability in the tree of the last commit.

    Each tree blob's facts come from the fold (its scan memo and the
    binary sides it reported), else from the cache; only the rest are
    read and scanned here. A binary blob is reported unless the fold
    already reported it.
    """
    entries = [
        entry for entry in repo.ls_tree(rev)
        if filter_source_files(entry.path, config.extensions)
    ]
    blocks = 0
    macros: set[str] = set()
    for entry in entries:
        scanned = classifier.scan_memo.get(entry.oid)
        if scanned is not None:
            facts = BlobFacts(entry.oid, scanned.blocks, scanned.macros)
        elif entry.oid in classifier.binary_oids:
            facts = BlobFacts(entry.oid, binary=True)
        else:
            facts = cache.blob(entry.oid) or _read_blob_facts(repo, entry.oid, config)
        cache.put(facts)
        if facts.binary:
            if entry.oid not in classifier.binary_oids:
                sink({"kind": "binary_skipped", "commit": rev, "path": entry.path})
            continue
        blocks += facts.blocks
        macros |= facts.macros
    return len(entries), VariabilityCount(blocks=blocks, distinct_macros=len(macros))


def _read_blob_facts(repo: GitRepo, oid: str, config: RunConfig) -> BlobFacts:
    payload = repo.blob_bytes(oid)
    if looks_binary(payload):
        return BlobFacts(oid, binary=True)
    result = scan_text(payload.decode("utf-8", errors="replace"), config.analyzer_options())
    return BlobFacts(oid, result.blocks, result.macros)


# ----------------------------------------------------------------------
# Artifact writers
# ----------------------------------------------------------------------

def scores_csv_text(scores: list[ExpertiseScore]) -> str:
    out = io.StringIO()
    out.write(
        "file,developer_key,fa,dl,ac,doa_abs,doa_norm,ownership,is_author,is_major\n"
    )
    for score in sorted(scores, key=lambda s: (s.file, s.developer_key)):
        out.write(
            ",".join(
                [
                    _csv_field(score.file),
                    _csv_field(score.developer_key),
                    str(score.fa),
                    str(score.dl),
                    str(score.ac),
                    csv_float(score.doa_abs),
                    csv_float(score.doa_norm),
                    csv_float(score.ownership),
                    csv_bool(score.is_author),
                    csv_bool(score.is_major),
                ]
            )
            + "\n"
        )
    return out.getvalue()


def timeline_csv_text(snapshots: list[TimelineSnapshot]) -> str:
    out = io.StringIO()
    out.write("year_month,generalist,specialist,mixed,total\n")
    for snap in snapshots:
        out.write(
            f"{snap.year_month},{snap.generalist},{snap.specialist},"
            f"{snap.mixed},{snap.total}\n"
        )
    return out.getvalue()


def evaluation_csv_text(results: list[EvaluationResult]) -> str:
    out = io.StringIO()
    out.write(
        "metric,aggregation,precision,recall,recommended_dev_pct,"
        "files_evaluated,pairs_recommended,pairs_relevant\n"
    )
    for result in results:
        out.write(
            ",".join(
                [
                    result.metric,
                    result.aggregation,
                    csv_float(result.precision),
                    csv_float(result.recall),
                    csv_float(result.recommended_dev_pct),
                    str(result.files_evaluated),
                    str(result.pairs_recommended),
                    str(result.pairs_relevant),
                ]
            )
            + "\n"
        )
    return out.getvalue()


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_analysis_artifacts(state: AnalysisState, sink: WarningSink) -> None:
    config = state.config
    os.makedirs(config.output_dir, exist_ok=True)
    scores = compute_scores(
        state.ledger,
        doa_threshold=config.doa_threshold,
        ownership_threshold=config.ownership_threshold,
        doa_abs_floor=config.doa_abs_floor,
    )
    _write_text(os.path.join(config.output_dir, SCORES_CSV), scores_csv_text(scores))
    _write_text(
        os.path.join(config.output_dir, LEDGER_JSON),
        stable_json(ledger_to_dict(state.ledger)),
    )
    sink.write(os.path.join(config.output_dir, WARNINGS_JSONL))
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
        "counters": asdict(state.counters),
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
        snapshot = meta.get("snapshot", {})
        return AnalysisState(
            config=config,
            ledger=ledger,
            tip=tip,
            last_commit=meta.get("last_commit", tip),
            snapshot_files=int(snapshot.get("files", 0)),
            variability=VariabilityCount(
                blocks=int(snapshot.get("variability_blocks", 0)),
                distinct_macros=int(snapshot.get("distinct_macros", 0)),
            ),
            counters=Counters(**meta.get("counters", {})),
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
    scores = compute_scores(
        state.ledger,
        doa_threshold=config.doa_threshold,
        ownership_threshold=config.ownership_threshold,
        doa_abs_floor=config.doa_abs_floor,
    )
    _write_text(os.path.join(config.output_dir, SCORES_CSV), scores_csv_text(scores))
    results = [
        project_evaluation(state.ledger, scores, metric, aggregation=aggregation)
        for metric in (METRIC_DOA, METRIC_OWNERSHIP)
        for aggregation in (MICRO, MACRO)
    ]
    _write_text(
        os.path.join(config.output_dir, EVALUATION_CSV), evaluation_csv_text(results)
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
