"""File-level expertise metrics: degree of authorship and ownership.

Degree of authorship blends file creation, own deliveries, and
acceptances of other people's changes: FA and DL as the ledger stores
them, and AC, everyone else's DL on the file, derived in score_file:

    doa_abs = 3.293 + 1.098 * FA + 0.164 * DL - 0.321 * ln(1 + AC)

The absolute value is normalized per file against the file's maximum,
and a developer counts as an author when the normalized value reaches
the author threshold (0.75 by default, inclusive). Ownership is the
developer's share of the file's commits; reaching the ownership
threshold (0.05 by default, inclusive) makes them a major contributor.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional

from varxpert.errors import DegenerateFile, EmptyHistory
from varxpert.ledger import ContributionLedger, ContributionStats

DOA_BASE = 3.293
DOA_FA_WEIGHT = 1.098
DOA_DL_WEIGHT = 0.164
DOA_AC_WEIGHT = 0.321

DEFAULT_DOA_THRESHOLD = 0.75
DEFAULT_OWNERSHIP_THRESHOLD = 0.05

METRIC_DOA = "doa"
METRIC_OWNERSHIP = "ownership"


def doa_absolute(fa: int, dl: int, ac: int) -> float:
    """Absolute degree of authorship for one developer on one file."""
    if fa not in (0, 1):
        raise ValueError(f"fa must be 0 or 1, got {fa}")
    if dl < 0 or ac < 0:
        raise ValueError("dl and ac must be non-negative")
    return (
        DOA_BASE
        + DOA_FA_WEIGHT * fa
        + DOA_DL_WEIGHT * dl
        - DOA_AC_WEIGHT * math.log(1 + ac)
    )


class ExpertiseScore(NamedTuple):
    file: str  # lineage id
    developer_key: str
    fa: int
    dl: int
    ac: int
    doa_abs: float
    doa_norm: float
    ownership: float
    is_author: bool
    is_major: bool


def score_file(
    lineage_id: str,
    stats_by_dev: Mapping[str, ContributionStats],
    *,
    doa_threshold: float = DEFAULT_DOA_THRESHOLD,
    ownership_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
    doa_abs_floor: Optional[float] = None,
) -> list[ExpertiseScore]:
    """One file's rows, sorted by developer, in one pass: each developer's
    AC, doa_absolute (taken once), its share of the file maximum, and
    ownership share."""
    if not stats_by_dev:
        raise EmptyHistory("file has no recorded change events")
    total = sum(stats.dl for stats in stats_by_dev.values())
    rows = []
    for key in sorted(stats_by_dev):
        stats = stats_by_dev[key]
        ac = total - stats.dl
        rows.append((key, stats.fa, stats.dl, ac, doa_absolute(stats.fa, stats.dl, ac)))
    top = max(row[4] for row in rows)
    if top <= 0:
        raise DegenerateFile("no positive degree-of-authorship value on this file")
    if total == 0:
        raise EmptyHistory("file has no recorded change events")
    scores = []
    for key, fa, dl, ac, absolute in rows:
        normalized, share = absolute / top, dl / total
        is_author = normalized >= doa_threshold and (doa_abs_floor is None or absolute >= doa_abs_floor)
        scores.append(ExpertiseScore(lineage_id, key, fa, dl, ac, absolute, normalized, share,
                                     is_author, share >= ownership_threshold))
    return scores


def compute_scores(
    ledger: ContributionLedger,
    *,
    doa_threshold: float = DEFAULT_DOA_THRESHOLD,
    ownership_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
    doa_abs_floor: Optional[float] = None,
) -> list[ExpertiseScore]:
    """Scores for every (file, developer) pair, sorted for stable output."""
    scores: list[ExpertiseScore] = []
    for lineage_id, record in sorted(ledger.files.items()):
        if record.contributors:
            scores.extend(score_file(
                lineage_id,
                record.contributors,
                doa_threshold=doa_threshold,
                ownership_threshold=ownership_threshold,
                doa_abs_floor=doa_abs_floor,
            ))
    return scores


def recommended_sets(
    scores: Iterable[ExpertiseScore], metric: str
) -> dict[str, set[str]]:
    """Per-file recommended developers for one metric."""
    if metric not in (METRIC_DOA, METRIC_OWNERSHIP):
        raise ValueError(f"unknown metric {metric!r}")
    recommended: dict[str, set[str]] = {}
    for score in scores:
        recommended.setdefault(score.file, set())
        flagged = score.is_author if metric == METRIC_DOA else score.is_major
        if flagged:
            recommended[score.file].add(score.developer_key)
    return recommended
