"""The month-set timeline, kept as a test oracle for monthly_snapshots.

This is the algorithm the first-month timeline replaced: every developer
keeps the set of months in which they touched variable code and the set
in which they touched mandatory code, and each month's category comes
from filtering both sets to that month. It costs
O(months x devs x months) and is only meant for checking the fast
version on small and medium inputs.

classify_developer, one developer's cumulative category from their
first variable and first mandatory month, is the same rule read the
other way, and checks the transitions monthly_snapshots implies.
"""

import json
import os
from enum import Enum
from typing import Optional

from varxpert.errors import VarxpertError
from varxpert.history import GitRepo
from varxpert.ledger import (
    ContributionLedger,
    ContributionStats,
    FileRecord,
)
from varxpert.pipeline import RunConfig, mine
from varxpert.util import month_of, month_range


class DeveloperCategory(Enum):
    GENERALIST = "generalist"
    SPECIALIST = "specialist"
    MIXED = "mixed"


class NeverActive(VarxpertError):
    """The developer has no change event at or before the asked month."""


def classify_developer(
    first_variable: Optional[str],
    first_mandatory: Optional[str],
    as_of: Optional[str] = None,
) -> DeveloperCategory:
    """Cumulative category using only activity at or before as_of."""
    variable = first_variable is not None and (as_of is None or first_variable <= as_of)
    mandatory = first_mandatory is not None and (as_of is None or first_mandatory <= as_of)
    if variable and mandatory:
        return DeveloperCategory.MIXED
    if variable:
        return DeveloperCategory.SPECIALIST
    if mandatory:
        return DeveloperCategory.GENERALIST
    raise NeverActive("developer has no change events in the asked window")


def reference_category(variable, mandatory, as_of):
    variable = {m for m in variable if m <= as_of}
    mandatory = {m for m in mandatory if m <= as_of}
    if variable and mandatory:
        return DeveloperCategory.MIXED
    if variable:
        return DeveloperCategory.SPECIALIST
    if mandatory:
        return DeveloperCategory.GENERALIST
    return None


def reference_snapshots(month_sets, first_month, last_month):
    """(year_month, generalist, specialist, mixed) rows from per-developer
    (variable months, mandatory months) sets."""
    rows = []
    for month in month_range(first_month, last_month):
        counts = {category: 0 for category in DeveloperCategory}
        for variable, mandatory in month_sets.values():
            category = reference_category(variable, mandatory, month)
            if category is not None:
                counts[category] += 1
        rows.append((month,
                     counts[DeveloperCategory.GENERALIST],
                     counts[DeveloperCategory.SPECIALIST],
                     counts[DeveloperCategory.MIXED]))
    return rows


def snapshot_rows(snapshots):
    return [(s.year_month, s.generalist, s.specialist, s.mixed) for s in snapshots]


def fold_with_month_sets(repo_path, cache_dir):
    """Mine a repository cold into cache_dir; also collect every
    developer's month sets from the change records the run cached.

    Every cached change that touched a line is one ledger event, so the
    records hold exactly the events the ledger counts. A record holds
    no author or date: each one takes them from its commit in
    GitRepo.iter_commits.
    """
    ledger = mine(RunConfig(repo_path=repo_path, cache_dir=cache_dir))[0].ledger
    with GitRepo(repo_path) as repo:
        commits = {commit.commit_id: commit
                   for commit in repo.iter_commits(repo.resolve_tip("HEAD"))}
    month_sets = {}
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        for record in records:
            if len(record) != 7:
                continue  # a blob record, [oid, blocks, macros, binary]
            commit_id, _, touched_variable, touched_mandatory = record[:4]
            commit = commits[commit_id]
            variable, mandatory = month_sets.setdefault(
                commit.author, (set(), set()))
            month = month_of(commit.timestamp)
            if touched_variable:
                variable.add(month)
            if touched_mandatory:
                mandatory.add(month)
    return ledger, month_sets


def ledger_from_month_sets(file_month_sets):
    """A ledger whose (file, developer) first months are the minima of
    file_month_sets[path][developer] = (variable months, mandatory months),
    plus the per-developer union of those sets."""
    ledger = ContributionLedger()
    merged = {}
    seen = []
    for path, developers in file_month_sets.items():
        lineage = f"{path}@000000000000"
        record = ledger.files[lineage] = FileRecord()
        for key, (variable, mandatory) in developers.items():
            record.contributors[key] = ContributionStats(
                dl=1,
                first_variable_month=min(variable, default=None),
                first_mandatory_month=min(mandatory, default=None),
            )
            union = merged.setdefault(key, (set(), set()))
            union[0].update(variable)
            union[1].update(mandatory)
            seen.extend(variable)
            seen.extend(mandatory)
    ledger.first_month = min(seen)
    ledger.last_month = max(seen)
    return ledger, merged
