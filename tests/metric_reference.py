"""The per-metric DOA and ownership helpers, kept as a test oracle for
metrics.score_file.

These are the functions score_file inlined: each metric computed on its
own, one pass per metric, AC derived from the file's DLs. The tests
build score_file's rows from them and compare.
"""

from typing import Mapping

from varxpert.errors import DegenerateFile, EmptyHistory
from varxpert.ledger import ContributionStats
from varxpert.metrics import doa_absolute


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
