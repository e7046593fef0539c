"""Authorship and ownership metric tests: reference values, monotonicity,
normalization, inclusive thresholds, degenerate inputs."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mined_ledger
from fixture_repos import BASIC, MULTIFILE, RENAME
from varxpert.errors import DegenerateFile, EmptyHistory
from varxpert.ledger import ContributionStats
from varxpert.metrics import (
    METRIC_DOA,
    METRIC_OWNERSHIP,
    ExpertiseScore,
    acceptances,
    compute_scores,
    doa_absolute,
    doa_normalized,
    ownership_shares,
    recommended_sets,
    score_file,
)


def stats(fa, dl):
    return ContributionStats(fa=fa, dl=dl)


# ----------------------------------------------------------------------
# absolute score
# ----------------------------------------------------------------------

def test_reference_values_exact():
    assert abs(doa_absolute(1, 0, 0) - 4.391) < 1e-9
    assert abs(doa_absolute(0, 0, 0) - 3.293) < 1e-9
    assert abs(doa_absolute(0, 3, 10) - 3.015275617431723) < 1e-9


def test_reference_values_to_four_decimals():
    assert round(doa_absolute(1, 0, 0), 4) == 4.3910
    assert round(doa_absolute(0, 3, 10), 4) == 3.0153


def test_first_authorship_delta_is_constant():
    for dl, ac in ((0, 0), (7, 13), (100, 2), (3, 999)):
        delta = doa_absolute(1, dl, ac) - doa_absolute(0, dl, ac)
        assert abs(delta - 1.098) < 1e-9


def test_monotone_in_deliveries_and_acceptances():
    rng = random.Random(4242)
    for _ in range(2000):
        fa = rng.randint(0, 1)
        dl = rng.randint(0, 400)
        ac = rng.randint(0, 400)
        base = doa_absolute(fa, dl, ac)
        assert doa_absolute(fa, dl + 1, ac) > base
        assert doa_absolute(fa, dl, ac + 1) < base


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        doa_absolute(-1, 0, 0)
    with pytest.raises(ValueError):
        doa_absolute(0, -2, 0)
    with pytest.raises(ValueError):
        doa_absolute(0, 0, -1)
    with pytest.raises(ValueError):
        doa_absolute(2, 0, 0)


# ----------------------------------------------------------------------
# normalization and ownership
# ----------------------------------------------------------------------

def test_normalized_max_is_exactly_one():
    scores = doa_normalized({
        "a": stats(1, 3),
        "b": stats(0, 1),
        "c": stats(0, 2),
    })
    assert max(scores.values()) == 1.0
    assert all(0.0 < value <= 1.0 for value in scores.values())


def test_normalized_empty_history():
    with pytest.raises(EmptyHistory):
        doa_normalized({})
    with pytest.raises(EmptyHistory):
        ownership_shares({})


def test_degenerate_when_best_score_not_positive():
    # enough acceptances push the absolute score below zero: with n
    # developers of one delivery each, every score is
    # 3.293 + 0.164 - 0.321 * ln(n), which n = 47,547 first takes to 0 or less
    people = {f"dev{i}": stats(0, 1) for i in range(47_547)}
    with pytest.raises(DegenerateFile):
        doa_normalized(people)
    with pytest.raises(DegenerateFile):
        score_file("f", people)
    del people["dev0"]
    assert max(doa_normalized(people).values()) == 1.0


def test_ownership_sums_to_one():
    rng = random.Random(99)
    for _ in range(200):
        people = {
            f"dev{i}": stats(0, rng.randint(1, 50))
            for i in range(rng.randint(1, 12))
        }
        shares = ownership_shares(people)
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert all(share > 0 for share in shares.values())


def test_ownership_zero_total_rejected():
    with pytest.raises(EmptyHistory):
        ownership_shares({"a": stats(0, 0)})


# ----------------------------------------------------------------------
# thresholds are inclusive
# ----------------------------------------------------------------------

def test_doa_threshold_inclusive_at_exact_boundary():
    people = {"top": stats(1, 3), "other": stats(0, 1)}
    boundary = doa_normalized(people)["other"]
    at = score_file("f", people, doa_threshold=boundary, ownership_threshold=0.05)
    above = score_file("f", people, doa_threshold=boundary + 1e-12,
                       ownership_threshold=0.05)
    flags_at = {s.developer_key: s.is_author for s in at}
    flags_above = {s.developer_key: s.is_author for s in above}
    assert flags_at == {"top": True, "other": True}
    assert flags_above == {"top": True, "other": False}


def test_ownership_threshold_inclusive_at_exact_boundary():
    # twenty developers, one commit each: every share is exactly 0.05
    people = {f"dev{i:02d}": stats(0, 1) for i in range(20)}
    scored = score_file("f", people, doa_threshold=0.75, ownership_threshold=0.05)
    assert all(s.is_major for s in scored)
    assert all(abs(s.ownership - 0.05) < 1e-15 for s in scored)


def test_thirty_equal_contributors():
    # a file that predates the window: nobody holds first authorship,
    # every score normalizes to 1, but each commit share is 1/30
    people = {f"dev{i:02d}": stats(0, 1) for i in range(30)}
    scored = score_file("f", people, doa_threshold=0.75, ownership_threshold=0.05)
    assert all(s.doa_norm == 1.0 for s in scored)
    assert all(s.is_author for s in scored)
    assert not any(s.is_major for s in scored)


def test_absolute_floor_filters_authors():
    people = {f"dev{i:02d}": stats(0, 1) for i in range(30)}
    scored = score_file("f", people, doa_threshold=0.75,
                        ownership_threshold=0.05, doa_abs_floor=3.5)
    # every absolute score is 3.293 + 0.164 - 0.321*ln(30) < 3.5
    assert not any(s.is_author for s in scored)


# ----------------------------------------------------------------------
# fixture expectations through compute_scores
# ----------------------------------------------------------------------

def by_key(scores, lineage_id):
    return {s.developer_key: s for s in scores if s.file == lineage_id}


def test_basic_fixture_scores(basic_repo):
    path, shas = basic_repo
    scores = compute_scores(mined_ledger(path))
    lineage = f"f.c@{shas['c1'][:12]}"
    rows = by_key(scores, lineage)
    for key, expected in BASIC["doa_abs"].items():
        assert abs(rows[key].doa_abs - expected) < 1e-9
        assert round(rows[key].doa_abs, 4) == BASIC["doa_abs_4dp"][key]
    for key, expected in BASIC["doa_norm"].items():
        assert abs(rows[key].doa_norm - expected) < 1e-9
    for key, expected in BASIC["ownership"].items():
        assert abs(rows[key].ownership - expected) < 1e-9
    assert {k for k, s in rows.items() if s.is_author} == BASIC["authors"]
    assert {k for k, s in rows.items() if s.is_major} == BASIC["majors"]


def test_rename_fixture_scores(rename_repo):
    path, shas = rename_repo
    scores = compute_scores(mined_ledger(path))
    rows = by_key(scores, f"a.c@{shas['c1'][:12]}")
    for key, expected in RENAME["doa_abs"].items():
        assert abs(rows[key].doa_abs - expected) < 1e-9
    for key, expected in RENAME["doa_norm"].items():
        assert abs(rows[key].doa_norm - expected) < 1e-9
    for key, expected in RENAME["ownership"].items():
        assert abs(rows[key].ownership - expected) < 1e-9
    assert {k for k, s in rows.items() if s.is_author} == RENAME["authors"]
    assert {k for k, s in rows.items() if s.is_major} == RENAME["majors"]


def test_multifile_fixture_scores(multifile_repo):
    path, shas = multifile_repo
    scores = compute_scores(mined_ledger(path))
    x_rows = by_key(scores, f"x.c@{shas['c1'][:12]}")
    y_rows = by_key(scores, f"y.c@{shas['c2'][:12]}")
    for key, expected in MULTIFILE["x_doa"].items():
        assert abs(x_rows[key].doa_abs - expected) < 1e-9
    for key, expected in MULTIFILE["x_norm"].items():
        assert abs(x_rows[key].doa_norm - expected) < 1e-9
    for key, expected in MULTIFILE["y_doa"].items():
        assert abs(y_rows[key].doa_abs - expected) < 1e-9
    for key, expected in MULTIFILE["y_norm"].items():
        assert abs(y_rows[key].doa_norm - expected) < 1e-9
    assert {k for k, s in x_rows.items() if s.is_author} == MULTIFILE["x_authors"]
    assert {k for k, s in y_rows.items() if s.is_author} == MULTIFILE["y_authors"]
    for key, (fa, dl, ac) in MULTIFILE["x_fa_dl_ac"].items():
        assert (x_rows[key].fa, x_rows[key].dl, x_rows[key].ac) == (fa, dl, ac)
    for key, (fa, dl, ac) in MULTIFILE["y_fa_dl_ac"].items():
        assert (y_rows[key].fa, y_rows[key].dl, y_rows[key].ac) == (fa, dl, ac)


def test_recommended_sets_cover_every_scored_file():
    people = {"solo": stats(0, 1)}
    scored = score_file("lonely", people, doa_threshold=0.75,
                        ownership_threshold=0.05, doa_abs_floor=5.0)
    doa_sets = recommended_sets(scored, METRIC_DOA)
    own_sets = recommended_sets(scored, METRIC_OWNERSHIP)
    assert doa_sets == {"lonely": set()}
    assert own_sets == {"lonely": {"solo"}}


def test_doubling_preserves_top_scorer_on_fixture_profiles():
    # holds for these profiles, not in general
    for people in (
        {"a": stats(1, 3), "b": stats(0, 1)},
        {"a": stats(1, 2), "b": stats(0, 2), "c": stats(0, 1)},
    ):
        before = doa_normalized(people)
        top = max(before, key=before.get)
        doubled = {
            key: stats(s.fa, s.dl * 2) for key, s in people.items()
        }
        after = doa_normalized(doubled)
        assert max(after, key=after.get) == top


# ----------------------------------------------------------------------
# score_file against the per-metric helpers
# ----------------------------------------------------------------------

def reference_rows(lineage_id, people, doa_threshold, ownership_threshold, doa_abs_floor):
    """score_file's rows built from the helpers, one metric at a time."""
    normalized, shares, ac = doa_normalized(people), ownership_shares(people), acceptances(people)
    rows = []
    for key in sorted(people):
        absolute = doa_absolute(people[key].fa, people[key].dl, ac[key])
        is_author = normalized[key] >= doa_threshold
        if doa_abs_floor is not None:
            is_author = is_author and absolute >= doa_abs_floor
        rows.append(ExpertiseScore(lineage_id, key, people[key].fa, people[key].dl, ac[key],
                                   absolute, normalized[key], shares[key], is_author,
                                   shares[key] >= ownership_threshold))
    return rows


@given(
    raw=st.dictionaries(st.text(max_size=3), st.tuples(st.integers(0, 1), st.integers(0, 60)),
                        max_size=9),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_score_file_matches_the_helpers(raw, data):
    people = {key: stats(fa, dl) for key, (fa, dl) in raw.items()}
    try:
        norms, shares = doa_normalized(people), ownership_shares(people)
    except (EmptyHistory, DegenerateFile) as exc:  # no contributor, or no DL at all
        with pytest.raises(type(exc)):
            score_file("f", people)
        return
    absolutes = [doa_absolute(s.fa, s.dl, ac) for s, ac in
                 zip(people.values(), acceptances(people).values())]
    # thresholds at a row's own value too, where >= and > part
    options = dict(
        doa_threshold=data.draw(st.floats(0.01, 1.0) | st.sampled_from(list(norms.values()))),
        ownership_threshold=data.draw(st.floats(0.01, 1.0) | st.sampled_from(list(shares.values()))),
        doa_abs_floor=data.draw(st.none() | st.floats(0.0, 15.0) | st.sampled_from(absolutes)),
    )
    # repr tells every float bit apart (-0.0 from 0.0 too), and bools from ints
    assert repr(score_file("f", people, **options)) == repr(reference_rows("f", people, **options))
