"""File-level expertise metrics: degree of authorship and ownership.

Degree of authorship blends file creation, own deliveries, and
acceptances of other people's changes: FA and DL as the ledger stores
them, and AC derived from the file's DLs (see acceptances):

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


def acceptances(stats_by_dev: Mapping[str, ContributionStats]) -> dict[str, int]:
    """Per-developer AC on one file: everyone else's DL, summed."""
    total = sum(stats.dl for stats in stats_by_dev.values())
    return {key: total - stats.dl for key, stats in stats_by_dev.items()}


def doa_normalized(stats_by_dev: Mapping[str, ContributionStats]) -> dict[str, float]:
    """Per-developer doa_abs divided by the file maximum.

    The maximum scores exactly 1.0; ties all score 1.0.
    """
    if not stats_by_dev:
        raise EmptyHistory("file has no recorded change events")
    ac = acceptances(stats_by_dev)
    absolute = {
        key: doa_absolute(stats.fa, stats.dl, ac[key])
        for key, stats in stats_by_dev.items()
    }
    top = max(absolute.values())
    if top <= 0:
        raise DegenerateFile("no positive degree-of-authorship value on this file")
    return {key: value / top for key, value in absolute.items()}


def ownership_shares(stats_by_dev: Mapping[str, ContributionStats]) -> dict[str, float]:
    """Per-developer share of the file's commits (its DL); shares sum to 1."""
    total = sum(stats.dl for stats in stats_by_dev.values())
    if total == 0:
        raise EmptyHistory("file has no recorded change events")
    return {key: stats.dl / total for key, stats in stats_by_dev.items()}


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
    normalized = doa_normalized(stats_by_dev)
    shares = ownership_shares(stats_by_dev)
    ac = acceptances(stats_by_dev)
    scores = []
    for key in sorted(stats_by_dev):
        stats = stats_by_dev[key]
        absolute = doa_absolute(stats.fa, stats.dl, ac[key])
        is_author = normalized[key] >= doa_threshold
        if doa_abs_floor is not None:
            is_author = is_author and absolute >= doa_abs_floor
        scores.append(
            ExpertiseScore(
                file=lineage_id,
                developer_key=key,
                fa=stats.fa,
                dl=stats.dl,
                ac=ac[key],
                doa_abs=absolute,
                doa_norm=normalized[key],
                ownership=shares[key],
                is_author=is_author,
                is_major=shares[key] >= ownership_threshold,
            )
        )
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
    for lineage_id in sorted(ledger.files):
        record = ledger.files[lineage_id]
        if not record.contributors:
            continue
        scores.extend(
            score_file(
                lineage_id,
                record.contributors,
                doa_threshold=doa_threshold,
                ownership_threshold=ownership_threshold,
                doa_abs_floor=doa_abs_floor,
            )
        )
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
