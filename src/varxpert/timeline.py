"""Monthly developer specialization profiles.

A developer who has only ever touched mandatory code is a generalist,
one who has only ever touched variable code is a specialist, and one
who has done both is mixed. Profiles are cumulative over the whole
history, so the only moves a developer can make are generalist to mixed
and specialist to mixed. Snapshots cover every calendar month from the
first commit to the last, carrying counts forward through quiet months.

A developer's category in a month therefore depends only on whether
their first variable and first mandatory change lie at or before it:
the minima, over their files, of the two months the ledger keeps per
(file, developer). Counting per month the developers whose variable
work, mandatory work or both began then, and summing over the months,
gives every snapshot in O(devs + months): mixed is "both", specialist
is variable less mixed, generalist is mandatory less mixed.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from varxpert.errors import NoEligibleFiles, VarxpertError
from varxpert.ledger import ContributionLedger
from varxpert.util import earliest_month, month_number, month_range


class TimelineSnapshot(NamedTuple):
    year_month: str
    generalist: int
    specialist: int
    mixed: int

    @property
    def total(self) -> int:
        return self.generalist + self.specialist + self.mixed


def developer_first_months(
    ledger: ContributionLedger,
) -> dict[str, tuple[Optional[str], Optional[str]]]:
    """Per developer: (first variable month, first mandatory month) across all files."""
    merged: dict[str, tuple[Optional[str], Optional[str]]] = {}
    for record in ledger.files.values():
        for key, stats in record.contributors.items():
            variable, mandatory = merged.get(key, (None, None))
            merged[key] = (
                earliest_month(variable, stats.first_variable_month),
                earliest_month(mandatory, stats.first_mandatory_month),
            )
    return merged


def monthly_snapshots(ledger: ContributionLedger) -> list[TimelineSnapshot]:
    """One snapshot per calendar month, first to last commit month inclusive."""
    if ledger.first_month is None or ledger.last_month is None:
        raise VarxpertError("ledger covers no commits")
    months = month_range(ledger.first_month, ledger.last_month)
    origin = month_number(ledger.first_month)
    # developers whose variable work, mandatory work, or both had begun, by month
    started = [[0] * len(months) for _ in range(3)]

    def begin(kind: int, month: Optional[str]) -> None:
        if month is not None:
            # work before the window counts from its first month; after it, never
            index = max(month_number(month) - origin, 0)
            if index < len(months):
                started[kind][index] += 1

    for variable, mandatory in developer_first_months(ledger).values():
        begin(0, variable)
        begin(1, mandatory)
        if variable is not None and mandatory is not None:
            begin(2, max(variable, mandatory))
    variable, mandatory, both = (list(accumulate(counts)) for counts in started)
    return [
        TimelineSnapshot(
            year_month=month,
            generalist=mandatory[index] - both[index],
            specialist=variable[index] - both[index],
            mixed=both[index],
        )
        for index, month in enumerate(months)
    ]


class SpecializationSummary(NamedTuple):
    generalist_pct: float
    specialist_pct: float
    mixed_pct: float
    total: int


def specialization_summary(snapshots: list[TimelineSnapshot]) -> SpecializationSummary:
    """Percentages from the final snapshot."""
    if not snapshots:
        raise VarxpertError("no snapshots to summarize")
    last = snapshots[-1]
    if last.total == 0:
        # only binary or empty source files: nobody changed a line
        raise NoEligibleFiles("final snapshot has no active developers")
    return SpecializationSummary(
        generalist_pct=100.0 * last.generalist / last.total,
        specialist_pct=100.0 * last.specialist / last.total,
        mixed_pct=100.0 * last.mixed / last.total,
        total=last.total,
    )
