"""Evaluation tests: precision/recall identities, eligibility rules,
micro and macro pooling against the fixture expectations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mined_ledger
from fixture_repos import BASIC, GUARD, IDENTITY, MULTIFILE, RENAME
from varxpert.errors import NoEligibleFiles
from varxpert.evaluation import (
    MACRO,
    MICRO,
    precision_recall,
    project_evaluation,
    variable_changers,
)
from varxpert.metrics import METRIC_DOA, METRIC_OWNERSHIP, compute_scores


def evaluate(path, metric, aggregation=MICRO):
    ledger = mined_ledger(path)
    scores = compute_scores(ledger)
    (result,) = [result for result in project_evaluation(ledger, scores, metric)
                 if result.aggregation == aggregation]
    return result


# ----------------------------------------------------------------------
# precision_recall basics
# ----------------------------------------------------------------------

def test_half_and_half():
    assert precision_recall({"a", "b"}, {"b", "c"}) == (0.5, 0.5)


def test_empty_recommended():
    precision, recall = precision_recall(set(), {"a"})
    assert precision is None
    assert recall == 0.0


def test_empty_relevant():
    precision, recall = precision_recall({"a"}, set())
    assert precision == 0.0
    assert recall is None


def test_both_empty():
    assert precision_recall(set(), set()) == (None, None)


names = st.sets(st.sampled_from([f"d{i}" for i in range(8)]), max_size=8)


@settings(max_examples=300, deadline=None)
@given(recommended=names, relevant=names)
def test_bounds_and_subset_identities(recommended, relevant):
    precision, recall = precision_recall(recommended, relevant)
    if precision is not None:
        assert 0.0 <= precision <= 1.0
    if recall is not None:
        assert 0.0 <= recall <= 1.0
    if recommended and recommended <= relevant:
        assert precision == 1.0
    if relevant and relevant <= recommended:
        assert recall == 1.0


@settings(max_examples=200, deadline=None)
@given(recommended=names, extra=names, relevant=names)
def test_growing_recommended_never_lowers_recall(recommended, extra, relevant):
    _, before = precision_recall(recommended, relevant)
    _, after = precision_recall(recommended | extra, relevant)
    if before is not None and after is not None:
        assert after >= before


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------

def test_variable_changers_lists_variable_touchers(basic_repo):
    path, _ = basic_repo
    ledger = mined_ledger(path)
    record = next(iter(ledger.files.values()))
    assert variable_changers(record) == {BASIC["alice"]}


def test_no_eligible_files_raises(repo_builder):
    repo = repo_builder
    repo.write("plain.c", "int a;\n")
    repo.commit("no conditionals anywhere", "Alice", "alice@example.com",
                "2020-01-01T00:00:00 +0000")
    ledger = mined_ledger(repo.path)
    scores = compute_scores(ledger)
    with pytest.raises(NoEligibleFiles):
        project_evaluation(ledger, scores, METRIC_DOA)


def test_guarded_header_not_eligible(guard_repo):
    path, _ = guard_repo
    result = evaluate(path, METRIC_DOA)
    # only the implementation file counts; the guarded header never
    # contributes variable code
    assert result.files_evaluated == 1


def test_dead_lineages_do_not_block_evaluation(identity_repo):
    path, _ = identity_repo
    result = evaluate(path, METRIC_DOA)
    assert result.files_evaluated == 1
    assert result.precision == IDENTITY["doa_eval"]["precision"]
    assert result.recall == IDENTITY["doa_eval"]["recall"]


# ----------------------------------------------------------------------
# fixture expectations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name,expected", [
    ("basic_repo", BASIC),
    ("rename_repo", RENAME),
    ("guard_repo", GUARD),
    ("identity_repo", IDENTITY),
])
def test_single_file_fixture_evaluations(request, fixture_name, expected):
    path, _ = request.getfixturevalue(fixture_name)
    doa = evaluate(path, METRIC_DOA)
    own = evaluate(path, METRIC_OWNERSHIP)
    assert abs(doa.precision - expected["doa_eval"]["precision"]) < 1e-9
    assert abs(doa.recall - expected["doa_eval"]["recall"]) < 1e-9
    assert abs(doa.recommended_dev_pct - expected["doa_eval"]["dev_pct"]) < 1e-9
    assert abs(own.precision - expected["ownership_eval"]["precision"]) < 1e-9
    assert abs(own.recall - expected["ownership_eval"]["recall"]) < 1e-9
    assert abs(own.recommended_dev_pct
               - expected["ownership_eval"]["dev_pct"]) < 1e-9


def test_multifile_micro_and_macro(multifile_repo):
    path, _ = multifile_repo
    doa_micro = evaluate(path, METRIC_DOA, MICRO)
    doa_macro = evaluate(path, METRIC_DOA, MACRO)
    own_micro = evaluate(path, METRIC_OWNERSHIP, MICRO)
    own_macro = evaluate(path, METRIC_OWNERSHIP, MACRO)

    assert abs(doa_micro.precision - MULTIFILE["doa_micro"]["precision"]) < 1e-9
    assert abs(doa_micro.recall - MULTIFILE["doa_micro"]["recall"]) < 1e-9
    assert abs(doa_macro.precision - MULTIFILE["doa_macro"]["precision"]) < 1e-9
    assert abs(doa_macro.recall - MULTIFILE["doa_macro"]["recall"]) < 1e-9
    assert abs(own_micro.precision
               - MULTIFILE["ownership_micro"]["precision"]) < 1e-9
    assert abs(own_micro.recall - MULTIFILE["ownership_micro"]["recall"]) < 1e-9
    assert abs(own_macro.precision
               - MULTIFILE["ownership_macro"]["precision"]) < 1e-9
    assert abs(own_macro.recall - MULTIFILE["ownership_macro"]["recall"]) < 1e-9

    assert doa_micro.files_evaluated == 2
    assert doa_micro.pairs_recommended == 3
    assert doa_micro.pairs_relevant == 3
    assert own_micro.pairs_recommended == 4
    assert abs(doa_micro.recommended_dev_pct
               - MULTIFILE["doa_micro"]["dev_pct"]) < 1e-9


@pytest.mark.parametrize("metric", [METRIC_DOA, METRIC_OWNERSHIP])
def test_micro_and_macro_rows_share_everything_but_the_pooling(multifile_repo, metric):
    ledger = mined_ledger(multifile_repo[0])
    micro, macro = project_evaluation(ledger, compute_scores(ledger), metric)
    assert (micro.metric, micro.aggregation) == (metric, MICRO)
    assert (macro.metric, macro.aggregation) == (metric, MACRO)
    shared = ("recommended_dev_pct", "files_evaluated", "pairs_recommended", "pairs_relevant")
    assert [getattr(micro, name) for name in shared] == [getattr(macro, name) for name in shared]


def test_dev_percentage_counts_all_ledger_developers(identity_repo):
    # jack only ever touched the dead scratch file, yet he widens the
    # denominator
    path, _ = identity_repo
    result = evaluate(path, METRIC_DOA)
    assert abs(result.recommended_dev_pct - 50.0) < 1e-9
