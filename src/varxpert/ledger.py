"""Fold a commit stream into per-file contribution ledgers.

Each tracked file is a lineage: it starts at an Added change (or
implicitly, with no first-author credit, when the first thing we see is
an edit to a file created before the analysis window), follows renames
detected by git, and ends at a Deleted change. One commit touching a
file is one change event regardless of hunk count. Merge commits and
pure renames or mode flips that move no lines contribute no events, so
every counted event touches at least one variable or mandatory line and
every active developer lands in exactly one timeline category.

A change touches variable code when any added line is variable in the
new image or any deleted line is variable in the old image; deleting a
whole conditional block therefore counts as variable work even though
the resulting file has none left.

Per (file, developer) the ledger stores the DOA tallies FA, DL and AC
and two months, each None until such a change exists: the earliest with
a variable-touching change and the earliest with a mandatory-touching
one. Timeline categories are cumulative, so those two months decide the
developer's category in every month. The fold keeps the minimum, since
the first-parent stream is not in author-date order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from varxpert.errors import AnnotationMismatch
from varxpert.history import ChangeKind, CommitRecord, FileChange
from varxpert.preproc import ScanResult, ScanWarning
from varxpert.util import earliest_month, month_of, split_lines


@dataclass(frozen=True)
class ChangeClassification:
    touched_variable: bool
    touched_mandatory: bool

    @property
    def is_empty(self) -> bool:
        return not (self.touched_variable or self.touched_mandatory)


def classify_change(
    change: FileChange,
    old_bitmap: Optional[bytearray],
    new_bitmap: Optional[bytearray],
) -> ChangeClassification:
    """Decide whether a change touched variable code, mandatory code, or both.

    Each bitmap holds one byte per physical line of its side's content,
    1 for a variable line (see preproc.scan_text).
    """
    old_bitmap = old_bitmap or bytearray()
    new_bitmap = new_bitmap or bytearray()
    if change.kind is ChangeKind.ADDED:
        touched = [new_bitmap]
    elif change.kind is ChangeKind.DELETED:
        touched = [old_bitmap]
    else:
        touched = []
        for hunk in change.hunks:
            touched.append(old_bitmap[hunk.old_start - 1:hunk.old_start - 1 + hunk.old_count])
            touched.append(new_bitmap[hunk.new_start - 1:hunk.new_start - 1 + hunk.new_count])
    return ChangeClassification(
        touched_variable=any(1 in lines for lines in touched),
        touched_mandatory=any(0 in lines for lines in touched),
    )


@dataclass
class ContributionStats:
    """Per developer-and-file tallies feeding the expertise metrics."""

    fa: int = 0  # 1 when this developer authored the change that created the file
    dl: int = 0  # deliveries: commits by this developer touching the file
    ac: int = 0  # acceptances: commits by everyone else, filled at finalize time
    first_variable_month: Optional[str] = None  # earliest 'YYYY-MM' touching variable code
    first_mandatory_month: Optional[str] = None  # earliest 'YYYY-MM' touching mandatory code

    @property
    def commit_count(self) -> int:
        return self.dl


@dataclass
class FileRecord:
    """One file lineage across renames."""

    lineage_id: str
    created_path: str
    current_path: str
    alive: bool = True
    fa_key: Optional[str] = None
    has_variable_code_ever: bool = False
    total_events: int = 0
    contributors: dict[str, ContributionStats] = field(default_factory=dict)


@dataclass
class DeveloperProfile:
    canonical_key: str
    display_name: str


@dataclass
class ContributionLedger:
    files: dict[str, FileRecord] = field(default_factory=dict)
    developers: dict[str, DeveloperProfile] = field(default_factory=dict)
    first_month: Optional[str] = None
    last_month: Optional[str] = None
    commit_count: int = 0  # non-merge commits inside the analysis window
    merge_count: int = 0

    def finalize(self) -> "ContributionLedger":
        """Fill acceptance counts: everyone else's events on the file."""
        for record in self.files.values():
            for stats in record.contributors.values():
                stats.ac = record.total_events - stats.dl
        return self


@dataclass(frozen=True)
class ClassifiedChange:
    """What the classifier hands the fold for one (commit, file) pair."""

    classification: ChangeClassification
    saw_variable: bool
    from_cache: bool = False
    annotated_sides: int = 0
    scan_warnings: tuple[tuple[str, ScanWarning], ...] = ()  # (blob oid, warning)


ClassifyFn = Callable[[CommitRecord, FileChange], Optional[ClassifiedChange]]
ObserverFn = Callable[[CommitRecord, FileChange, Optional[ClassifiedChange]], None]
ScanFn = Callable[[str, str], ScanResult]  # (blob oid, text) -> scan


def classify_sides(
    change: FileChange, old_text: Optional[str], new_text: Optional[str], scan: ScanFn
) -> ClassifiedChange:
    """Scan both sides of a hydrated change and classify it.

    An absent side's text is None. scan maps a side's blob oid and text
    to its ScanResult, so callers decide whether scans are memoized per
    blob; a scan whose bitmap does not give one flag per line raises
    AnnotationMismatch.
    """
    warnings: list[tuple[str, ScanWarning]] = []
    bitmaps: list[Optional[bytearray]] = []
    for side, oid, content in (("old", change.old_blob, old_text),
                               ("new", change.new_blob, new_text)):
        if content is None:
            bitmaps.append(None)
            continue
        result = scan(oid or "", content)
        expected = len(split_lines(content))
        if len(result.annotations) != expected:
            raise AnnotationMismatch(
                f"{side} side of {change.effective_path}: "
                f"{len(result.annotations)} line flags for {expected} lines"
            )
        bitmaps.append(result.annotations)
        warnings.extend((oid or "", w) for w in result.warnings)
    old_bitmap, new_bitmap = bitmaps
    present = [bitmap for bitmap in bitmaps if bitmap is not None]
    return ClassifiedChange(
        classification=classify_change(change, old_bitmap, new_bitmap),
        saw_variable=any(1 in bitmap for bitmap in present),
        annotated_sides=len(present),
        scan_warnings=tuple(warnings),
    )


def _lineage_id(path: str, commit_id: str) -> str:
    return f"{path}@{commit_id[:12]}"


def build_contribution_ledger(
    commits: Iterable[CommitRecord],
    *,
    classify_fn: ClassifyFn,
    observer: Optional[ObserverFn] = None,
) -> ContributionLedger:
    """Sequential fold of the commit stream into a ContributionLedger.

    A commit's changes are folded deletions first, then renames, then
    the rest. Each change is classified in that order, after the path
    bookkeeping and right before the observer sees it, so anything the
    classifier reports lands next to the change it belongs to.
    """
    ledger = ContributionLedger()
    path_map: dict[str, str] = {}

    def touch_months(commit: CommitRecord) -> None:
        month = month_of(commit.timestamp)
        if ledger.first_month is None or month < ledger.first_month:
            ledger.first_month = month
        if ledger.last_month is None or month > ledger.last_month:
            ledger.last_month = month

    def start_lineage(
        path: str, commit: CommitRecord, *, map_path: Optional[str], alive: bool = True
    ) -> FileRecord:
        lid = _lineage_id(path, commit.commit_id)
        record = FileRecord(
            lineage_id=lid, created_path=path, current_path=map_path or path, alive=alive
        )
        ledger.files[lid] = record
        if map_path is not None:
            path_map[map_path] = lid
        return record

    def record_event(
        record: FileRecord, commit: CommitRecord, classified: ClassifiedChange, *, first_author: bool
    ) -> None:
        key = commit.author.canonical_key
        stats = record.contributors.setdefault(key, ContributionStats())
        if first_author:
            record.fa_key = key
            stats.fa = 1
        stats.dl += 1
        month = month_of(commit.timestamp)
        if classified.classification.touched_variable:
            stats.first_variable_month = earliest_month(stats.first_variable_month, month)
        if classified.classification.touched_mandatory:
            stats.first_mandatory_month = earliest_month(stats.first_mandatory_month, month)
        record.total_events += 1
        if key not in ledger.developers:
            ledger.developers[key] = DeveloperProfile(key, commit.author.display_name)

    for commit in commits:
        touch_months(commit)
        if commit.is_merge:
            ledger.merge_count += 1
            continue
        ledger.commit_count += 1
        if not commit.changes:
            continue

        changes = sorted(commit.changes, key=_fold_rank)

        # Path bookkeeping first: deletions release their path and renames
        # move theirs, pops before assigns so same-commit swaps cannot
        # clobber each other. This runs even for changes that record no
        # event (binary sides, pure moves).
        resolved: list[Optional[str]] = [None] * len(changes)
        for index, change in enumerate(changes):
            if change.kind in (ChangeKind.DELETED, ChangeKind.RENAMED):
                assert change.path_before is not None
                resolved[index] = path_map.pop(change.path_before, None)
                if change.kind is ChangeKind.DELETED and resolved[index] is not None:
                    ledger.files[resolved[index]].alive = False
        for index, change in enumerate(changes):
            if change.kind is ChangeKind.RENAMED and resolved[index] is not None:
                assert change.path_after is not None
                path_map[change.path_after] = resolved[index]
                ledger.files[resolved[index]].current_path = change.path_after

        for index, change in enumerate(changes):
            classified = classify_fn(commit, change)
            if observer is not None:
                observer(commit, change, classified)
            if classified is None:
                continue  # binary or unreadable side; bookkeeping already done
            empty = classified.classification.is_empty
            first_author = False

            if change.kind is ChangeKind.ADDED:
                if empty:
                    continue  # zero-line additions start no lineage
                assert change.path_after is not None
                record = start_lineage(change.path_after, commit, map_path=change.path_after)
                first_author = True
            elif change.kind is ChangeKind.DELETED:
                lid = resolved[index]
                if lid is None:
                    if empty:
                        continue
                    assert change.path_before is not None
                    record = start_lineage(change.path_before, commit, map_path=None, alive=False)
                else:
                    record = ledger.files[lid]
            elif change.kind is ChangeKind.RENAMED:
                lid = resolved[index]
                if lid is None:
                    if empty:
                        continue
                    assert change.path_before is not None and change.path_after is not None
                    record = start_lineage(change.path_before, commit, map_path=change.path_after)
                else:
                    record = ledger.files[lid]
            else:
                lid = path_map.get(change.effective_path)
                if lid is None:
                    if empty:
                        continue
                    record = start_lineage(
                        change.effective_path, commit, map_path=change.effective_path)
                else:
                    record = ledger.files[lid]

            record.has_variable_code_ever |= classified.saw_variable
            if not empty:
                record_event(record, commit, classified, first_author=first_author)

    return ledger.finalize()


def _fold_rank(change: FileChange) -> int:
    if change.kind is ChangeKind.DELETED:
        return 0
    if change.kind is ChangeKind.RENAMED:
        return 1
    return 2


# ----------------------------------------------------------------------
# Serialization, so later verbs can reuse an analysis without re-mining.
# ----------------------------------------------------------------------

LEDGER_FORMAT = "varxpert-ledger/2"


def ledger_to_dict(ledger: ContributionLedger) -> dict:
    return {
        "format": LEDGER_FORMAT,
        "first_month": ledger.first_month,
        "last_month": ledger.last_month,
        "commit_count": ledger.commit_count,
        "merge_count": ledger.merge_count,
        "developers": {
            key: profile.display_name for key, profile in ledger.developers.items()
        },
        "files": {
            lineage_id: {
                "created_path": record.created_path,
                "current_path": record.current_path,
                "alive": record.alive,
                "fa_key": record.fa_key,
                "has_variable_code_ever": record.has_variable_code_ever,
                "total_events": record.total_events,
                "contributors": {
                    key: {
                        "fa": stats.fa,
                        "dl": stats.dl,
                        "ac": stats.ac,
                        "first_variable_month": stats.first_variable_month,
                        "first_mandatory_month": stats.first_mandatory_month,
                    }
                    for key, stats in record.contributors.items()
                },
            }
            for lineage_id, record in ledger.files.items()
        },
    }


def ledger_from_dict(data: dict) -> ContributionLedger:
    ledger = ContributionLedger(
        first_month=data["first_month"],
        last_month=data["last_month"],
        commit_count=int(data["commit_count"]),
        merge_count=int(data["merge_count"]),
    )
    for key, display_name in data["developers"].items():
        ledger.developers[key] = DeveloperProfile(key, display_name)
    for lineage_id, raw in data["files"].items():
        record = FileRecord(
            lineage_id=lineage_id,
            created_path=raw["created_path"],
            current_path=raw["current_path"],
            alive=bool(raw["alive"]),
            fa_key=raw["fa_key"],
            has_variable_code_ever=bool(raw["has_variable_code_ever"]),
            total_events=int(raw["total_events"]),
        )
        for dev_key, stats_raw in raw["contributors"].items():
            record.contributors[dev_key] = ContributionStats(
                fa=int(stats_raw["fa"]),
                dl=int(stats_raw["dl"]),
                ac=int(stats_raw["ac"]),
                first_variable_month=stats_raw["first_variable_month"],
                first_mandatory_month=stats_raw["first_mandatory_month"],
            )
        ledger.files[lineage_id] = record
    return ledger
