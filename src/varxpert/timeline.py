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
from varxpert.util import month_range


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
            variable, mandatory = stats.first_variable_month, stats.first_mandatory_month
            if key in merged:  # the minima, None standing for no month
                earlier_variable, earlier_mandatory = merged[key]
                if variable is None or (earlier_variable or variable) < variable:
                    variable = earlier_variable
                if mandatory is None or (earlier_mandatory or mandatory) < mandatory:
                    mandatory = earlier_mandatory
            merged[key] = (variable, mandatory)
    return merged


def monthly_snapshots(ledger: ContributionLedger) -> list[TimelineSnapshot]:
    """One snapshot per calendar month, first to last commit month inclusive."""
    if ledger.first_month is None or ledger.last_month is None:
        raise VarxpertError("ledger covers no commits")
    months = month_range(ledger.first_month, ledger.last_month)
    # work before the window counts from its first month; after it, in a
    # last slot that no snapshot reads
    slot = {month: index for index, month in enumerate(months)}
    # developers whose variable work, mandatory work, or both had begun, by month
    started = [[0] * (len(months) + 1) for _ in range(3)]
    for firsts in developer_first_months(ledger).values():
        both = max(firsts) if None not in firsts else None
        for counts, month in zip(started, (*firsts, both)):
            if month is not None:
                counts[slot.get(month, 0 if month < ledger.first_month else -1)] += 1
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
