"""Fold a stream of classified commits into per-file contribution ledgers.

The fold consumes facts: each change arrives with its ChangeFacts, which
the pipeline's classifier decided (classify_change on the two sides'
line flags), so the fold reads no file and calls no classifier.

Each source file is a lineage: it starts at an Added change (or
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

Per (file, developer) the ledger stores the DOA tallies FA and DL and
two months, each None until such a change exists: the earliest with a
variable-touching change and the earliest with a mandatory-touching
one. Timeline categories are cumulative, so those two months decide the
developer's category in every month. The fold keeps the minimum, since
the first-parent stream is not in author-date order. AC, everyone
else's events on the file, is derived at scoring (metrics.score_file).
"""

from __future__ import annotations

import re
from typing import Any, Iterable, NamedTuple, Optional

from varxpert.history import ChangeKind, CommitRecord, FileChange, Hunk
from varxpert.preproc import ScanWarning
from varxpert.util import earliest_month, month_of


class ChangeFacts(NamedTuple):
    """Everything the fold, the change cache and warnings.jsonl need of
    one (commit, file) change; the pipeline's classifier builds it.

    touched_variable and touched_mandatory label the change (see
    classify_change); saw_variable says whether either side had a
    variable line; scan_warnings holds every warning of the scanned
    sides with its blob oid. A change stopped at a binary side has
    only that side's oid, binary_oid: its facts are empty, so it folds
    no event.
    """

    touched_variable: bool = False
    touched_mandatory: bool = False
    saw_variable: bool = False
    scan_warnings: tuple[tuple[str, ScanWarning], ...] = ()  # (blob oid, warning)
    binary_oid: Optional[str] = None

    @property
    def is_empty(self) -> bool:
        return not (self.touched_variable or self.touched_mandatory)


# a commit's changes in fold order, each with its facts
ClassifiedChanges = list[tuple[FileChange, ChangeFacts]]


def classify_change(
    hunks: Iterable[Hunk],
    old_bitmap: Optional[bytearray],
    new_bitmap: Optional[bytearray],
) -> ChangeFacts:
    """Decide whether a change touched variable code, mandatory code, or both.

    Each bitmap holds one byte per physical line of its side's content,
    1 for a variable line (see preproc.scan_text); the change's hunks
    (history.diff_hunks of its two sides) name the lines it touched, so
    an added or deleted file is one hunk over all of its lines.
    """
    old_bitmap = old_bitmap or bytearray()
    new_bitmap = new_bitmap or bytearray()
    touched = []
    for hunk in hunks:
        touched.append(old_bitmap[hunk.old_start - 1:hunk.old_start - 1 + hunk.old_count])
        touched.append(new_bitmap[hunk.new_start - 1:hunk.new_start - 1 + hunk.new_count])
    return ChangeFacts(
        touched_variable=any(1 in lines for lines in touched),
        touched_mandatory=any(0 in lines for lines in touched),
    )


class ContributionStats:
    """Per developer-and-file tallies feeding the expertise metrics."""

    def __init__(
        self,
        *,
        fa: int = 0,
        dl: int = 0,
        first_variable_month: Optional[str] = None,
        first_mandatory_month: Optional[str] = None,
    ):
        self.fa = fa  # 1 when this developer authored the change that created the file
        self.dl = dl  # deliveries: commits by this developer touching the file
        # earliest 'YYYY-MM' of a change touching variable, and mandatory, code
        self.first_variable_month = first_variable_month
        self.first_mandatory_month = first_mandatory_month


class FileRecord:
    """One file lineage across renames; the ledger keys it by its lineage id,
    {the path that started it}@{that commit's id[:12]}."""

    def __init__(self, *, has_variable_code_ever: bool = False):
        self.has_variable_code_ever = has_variable_code_ever
        self.contributors: dict[str, ContributionStats] = {}

    @property
    def total_events(self) -> int:  # each event is one contributor's delivery
        return sum(stats.dl for stats in self.contributors.values())


class ContributionLedger:
    def __init__(
        self,
        *,
        first_month: Optional[str] = None,
        last_month: Optional[str] = None,
        commit_count: int = 0,
        merge_count: int = 0,
    ):
        self.files: dict[str, FileRecord] = {}  # dead lineages too
        self.paths: dict[str, str] = {}  # each live path's lineage id
        self.first_month = first_month
        self.last_month = last_month
        self.commit_count = commit_count  # non-merge commits inside the analysis window
        self.merge_count = merge_count

    @property
    def developers(self) -> set[str]:  # everyone with an event on some file
        return set().union(*(record.contributors for record in self.files.values()))


def _lineage_id(path: str, commit_id: str) -> str:
    return f"{path}@{commit_id[:12]}"


def build_contribution_ledger(
    commits: Iterable[tuple[CommitRecord, ClassifiedChanges]],
    ledger: Optional[ContributionLedger] = None,
) -> ContributionLedger:
    """Sequential fold of classified commits into a ContributionLedger.

    Each commit comes with its changes in fold order (see fold_order),
    each paired with its facts. A change with a binary side has empty
    facts, so it keeps its path bookkeeping and folds no event. The fold
    calls nothing: whatever produced the facts has already reported its
    warnings. Its only path state is ledger.paths, each live path's
    lineage id; a deleted lineage keeps its record but no path. So the
    ledger is the fold's whole state: given the one folded up to a
    commit (a stored one, say), the fold goes on from there, and
    folding the commits after it gives the ledger of the whole history.
    """
    ledger = ContributionLedger() if ledger is None else ledger
    paths = ledger.paths

    def record_event(
        record: FileRecord, author: str, month: str, facts: ChangeFacts, *, first_author: bool
    ) -> None:
        stats = record.contributors.setdefault(author, ContributionStats())
        if first_author:
            stats.fa = 1
        stats.dl += 1
        if facts.touched_variable:
            stats.first_variable_month = earliest_month(stats.first_variable_month, month)
        if facts.touched_mandatory:
            stats.first_mandatory_month = earliest_month(stats.first_mandatory_month, month)

    for commit, changes in commits:
        month = month_of(commit.timestamp)
        if ledger.first_month is None or month < ledger.first_month:
            ledger.first_month = month
        if ledger.last_month is None or month > ledger.last_month:
            ledger.last_month = month
        if commit.is_merge:
            ledger.merge_count += 1
            continue
        ledger.commit_count += 1

        # Path bookkeeping first: deletions release their path and renames
        # move theirs, pops before assigns so same-commit swaps cannot
        # clobber each other. This runs even for changes that record no
        # event (binary sides, pure moves).
        resolved: list[Optional[str]] = []
        for change, _ in changes:
            lid = None
            if change.kind in (ChangeKind.DELETED, ChangeKind.RENAMED):
                assert change.path_before is not None
                lid = paths.pop(change.path_before, None)
            resolved.append(lid)
        for (change, _), lid in zip(changes, resolved):
            if change.kind is ChangeKind.RENAMED and lid is not None:
                assert change.path_after is not None
                paths[change.path_after] = lid

        for (change, facts), lid in zip(changes, resolved):
            if change.kind is ChangeKind.MODIFIED:
                lid = paths.get(change.effective_path)
            if lid is not None:
                record = ledger.files[lid]
            elif facts.is_empty:
                continue  # an empty change starts no lineage
            else:
                lid = _lineage_id(change.path_before or change.effective_path, commit.commit_id)
                record = ledger.files[lid] = FileRecord()
                if change.path_after is not None:  # a deletion starts a dead lineage
                    paths[change.path_after] = lid
            record.has_variable_code_ever |= facts.saw_variable
            if not facts.is_empty:
                record_event(record, commit.author, month, facts,
                             first_author=change.kind is ChangeKind.ADDED)

    return ledger


_FOLD_RANK = {ChangeKind.DELETED: 0, ChangeKind.RENAMED: 1}


def fold_order(changes: tuple[FileChange, ...]) -> list[FileChange]:
    """A commit's changes in the order the fold takes them: deletions,
    then renames, then the rest, each in stream order."""
    return sorted(changes, key=lambda change: _FOLD_RANK.get(change.kind, 2))


# ----------------------------------------------------------------------
# Serialization, so later verbs can reuse an analysis without re-mining.
# ----------------------------------------------------------------------

LEDGER_FORMAT = "varxpert-ledger/5"


def ledger_to_dict(ledger: ContributionLedger) -> dict:
    return {
        "format": LEDGER_FORMAT,
        "first_month": ledger.first_month,
        "last_month": ledger.last_month,
        "commit_count": ledger.commit_count,
        "merge_count": ledger.merge_count,
        "paths": ledger.paths,
        "files": {
            lineage_id: {
                "has_variable_code_ever": record.has_variable_code_ever,
                "contributors": {
                    key: {
                        "fa": stats.fa,
                        "dl": stats.dl,
                        "first_variable_month": stats.first_variable_month,
                        "first_mandatory_month": stats.first_mandatory_month,
                    }
                    for key, stats in record.contributors.items()
                },
            }
            for lineage_id, record in ledger.files.items()
        },
    }


_IS_MONTH = re.compile("[0-9]{4}-(0[1-9]|1[0-2])").fullmatch


def _month(value: Any, first: str = "0000-01", last: str = "9999-12") -> str:
    if isinstance(value, str) and _IS_MONTH(value) and first <= value <= last:
        return value
    raise ValueError(f"{value!r} is not a YYYY-MM month from {first} to {last}")


def _typed(value: Any, kind: type) -> Any:
    # exact types: JSON's true is not an int here, nor 2.5 or "2"
    if type(value) is not kind:
        raise ValueError(f"{value!r} is not a {kind.__name__}")
    return value


def ledger_from_dict(data: dict) -> ContributionLedger:
    # ValueError on a value the fold cannot write: another JSON type, a
    # value out of range (a DL also feeds the file's other ACs), a month
    # outside the ledger's, an event with no month, a variable month on a
    # file without variable code, two first authors of one file, a path
    # naming no lineage, or two paths naming one
    first = _month(data["first_month"])
    last = _month(data["last_month"], first)
    ledger = ContributionLedger(
        first_month=first,
        last_month=last,
        commit_count=_typed(data["commit_count"], int),
        merge_count=_typed(data["merge_count"], int),
    )
    if min(ledger.commit_count, ledger.merge_count) < 0:
        raise ValueError("a negative commit count")
    checked = {None}  # each distinct month string is checked once
    for lineage_id, raw in data["files"].items():
        record = FileRecord(has_variable_code_ever=_typed(raw["has_variable_code_ever"], bool))
        for dev_key, stats_raw in raw["contributors"].items():
            fa, dl = stats_raw["fa"], stats_raw["dl"]
            months = stats_raw["first_variable_month"], stats_raw["first_mandatory_month"]
            if not (type(fa) is type(dl) is int and fa in (0, 1) and dl >= 1):
                raise ValueError(f"{dev_key} on {lineage_id} has fa {fa!r} and dl {dl!r}")
            if not checked.issuperset(months):
                checked.update(_month(month, first, last) for month in set(months) - checked)
            if months == (None, None) or (months[0] and not record.has_variable_code_ever):
                raise ValueError(f"{dev_key} on {lineage_id} has first months {months!r}, and "
                                 f"has_variable_code_ever is {record.has_variable_code_ever}")
            record.contributors[dev_key] = ContributionStats(
                fa=fa, dl=dl, first_variable_month=months[0], first_mandatory_month=months[1])
        if sum(stats.fa for stats in record.contributors.values()) > 1:
            raise ValueError(f"{lineage_id} has more than one first author")
        ledger.files[lineage_id] = record
    for path, lineage_id in _typed(data["paths"], dict).items():
        if type(lineage_id) is not str or lineage_id not in ledger.files:
            raise ValueError(f"{path} names {lineage_id!r}, which is no lineage")
        ledger.paths[path] = lineage_id
    if len(set(ledger.paths.values())) != len(ledger.paths):
        raise ValueError("two paths name one lineage")
    return ledger
