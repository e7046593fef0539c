"""Evaluate the expertise metrics against variable-code changers.

For each file that ever contained variable code, the developers the
metric recommends are compared with the developers who actually changed
variable lines in that file. Precision is undefined when nothing was
recommended and recall is undefined when nobody relevant exists; both
stay None rather than being forced to a number. Each metric is pooled
both ways in one pass: a micro average over all (file, developer)
pairs, the report's default, and a macro average over per-file values
for sensitivity checks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from varxpert.errors import NoEligibleFiles
from varxpert.ledger import ContributionLedger, FileRecord
from varxpert.metrics import ExpertiseScore, recommended_sets

MICRO = "micro"
MACRO = "macro"


def variable_changers(record: FileRecord) -> set[str]:
    """Developers with at least one variable-touching change on the file."""
    return {
        key
        for key, stats in record.contributors.items()
        if stats.first_variable_month is not None
    }


def _ratio(part: float, whole: int) -> Optional[float]:
    return part / whole if whole else None


def precision_recall(
    recommended: set[str], relevant: set[str]
) -> tuple[Optional[float], Optional[float]]:
    """(precision, recall); None where the denominator set is empty."""
    hits = len(recommended & relevant)
    return _ratio(hits, len(recommended)), _ratio(hits, len(relevant))


class EvaluationResult(NamedTuple):
    metric: str
    aggregation: str
    precision: Optional[float]
    recall: Optional[float]
    recommended_dev_pct: float
    files_evaluated: int
    pairs_recommended: int
    pairs_relevant: int


def project_evaluation(
    ledger: ContributionLedger,
    scores: Iterable[ExpertiseScore],
    metric: str,
) -> tuple[EvaluationResult, EvaluationResult]:
    """Pool one metric's recommendations over all eligible files.

    Returns the (micro, macro) pair of results. The micro row pools the
    (file, developer) pairs of every file; the macro row averages the
    per-file precision and recall that are defined. Both rows share the
    recommended-developer share, the file count and the pair counts.
    """
    eligible = {
        lineage_id: record
        for lineage_id, record in ledger.files.items()
        if record.has_variable_code_ever and record.contributors
    }
    if not eligible:
        raise NoEligibleFiles("no analyzed file ever contained variable code")

    per_file_recommended = recommended_sets(scores, metric)
    pooled_hits = 0
    pairs_recommended = 0
    pairs_relevant = 0
    recommended_devs: set[str] = set()
    per_file: list[tuple[Optional[float], Optional[float]]] = []  # (precision, recall)

    for lineage_id in sorted(eligible):
        record = eligible[lineage_id]
        recommended = per_file_recommended.get(lineage_id, set())
        relevant = variable_changers(record)
        pooled_hits += len(recommended & relevant)
        pairs_recommended += len(recommended)
        pairs_relevant += len(relevant)
        recommended_devs.update(recommended)
        per_file.append(precision_recall(recommended, relevant))

    total_devs = len(ledger.developers)
    recommended_dev_pct = (
        100.0 * len(recommended_devs) / total_devs if total_devs else 0.0
    )
    precisions = [precision for precision, _ in per_file if precision is not None]
    recalls = [recall for _, recall in per_file if recall is not None]
    shared = (recommended_dev_pct, len(eligible), pairs_recommended, pairs_relevant)
    return (
        EvaluationResult(metric, MICRO, _ratio(pooled_hits, pairs_recommended),
                         _ratio(pooled_hits, pairs_relevant), *shared),
        EvaluationResult(metric, MACRO, _ratio(sum(precisions), len(precisions)),
                         _ratio(sum(recalls), len(recalls)), *shared),
    )
