"""Evaluate the expertise metrics against variable-code changers.

For each file that ever contained variable code, the developers the
metric recommends are compared with the developers who actually changed
variable lines in that file. Precision is undefined when nothing was
recommended and recall is undefined when nobody relevant exists; both
stay None rather than being forced to a number. The default pooling is
a micro average over all (file, developer) pairs; a macro average over
per-file values is available for sensitivity checks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from varxpert.errors import NoEligibleFiles, NoVariableCode
from varxpert.ledger import ContributionLedger, FileRecord
from varxpert.metrics import ExpertiseScore, recommended_sets

MICRO = "micro"
MACRO = "macro"


def variable_changers(record: FileRecord) -> set[str]:
    """Developers with at least one variable-touching change on the file."""
    if not record.has_variable_code_ever:
        raise NoVariableCode(
            f"{record.current_path} never contained a variable line"
        )
    return {
        key
        for key, stats in record.contributors.items()
        if stats.first_variable_month is not None
    }


def precision_recall(
    recommended: set[str], relevant: set[str]
) -> tuple[Optional[float], Optional[float]]:
    """(precision, recall); None where the denominator set is empty."""
    hits = len(recommended & relevant)
    precision = hits / len(recommended) if recommended else None
    recall = hits / len(relevant) if relevant else None
    return precision, recall


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
    *,
    aggregation: str = MICRO,
) -> EvaluationResult:
    """Pool one metric's recommendations over all eligible files."""
    if aggregation not in (MICRO, MACRO):
        raise ValueError(f"unknown aggregation {aggregation!r}")
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
    file_precisions: list[float] = []
    file_recalls: list[float] = []

    for lineage_id in sorted(eligible):
        record = eligible[lineage_id]
        recommended = per_file_recommended.get(lineage_id, set())
        relevant = variable_changers(record)
        pooled_hits += len(recommended & relevant)
        pairs_recommended += len(recommended)
        pairs_relevant += len(relevant)
        recommended_devs.update(recommended)
        precision, recall = precision_recall(recommended, relevant)
        if precision is not None:
            file_precisions.append(precision)
        if recall is not None:
            file_recalls.append(recall)

    if aggregation == MICRO:
        precision = pooled_hits / pairs_recommended if pairs_recommended else None
        recall = pooled_hits / pairs_relevant if pairs_relevant else None
    else:
        precision = (
            sum(file_precisions) / len(file_precisions) if file_precisions else None
        )
        recall = sum(file_recalls) / len(file_recalls) if file_recalls else None

    total_devs = len(ledger.developers)
    recommended_dev_pct = (
        100.0 * len(recommended_devs) / total_devs if total_devs else 0.0
    )
    return EvaluationResult(
        metric=metric,
        aggregation=aggregation,
        precision=precision,
        recall=recall,
        recommended_dev_pct=recommended_dev_pct,
        files_evaluated=len(eligible),
        pairs_recommended=pairs_recommended,
        pairs_relevant=pairs_relevant,
    )
