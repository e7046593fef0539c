"""Specialization timeline tests: cumulative categories, legal
transitions, partition and carry-forward behavior."""

import random
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import mined_ledger
from fixture_repos import BASIC, IDENTITY, MULTIFILE, RENAME
from timeline_reference import (
    DeveloperCategory,
    NeverActive,
    classify_developer,
    fold_with_month_sets,
    ledger_from_month_sets,
    reference_category,
    reference_snapshots,
    snapshot_rows,
)
from varxpert.timeline import (
    developer_first_months,
    monthly_snapshots,
    specialization_summary,
)
from varxpert.util import month_of, month_range


# ----------------------------------------------------------------------
# category basics
# ----------------------------------------------------------------------

def test_pure_categories():
    G = classify_developer(None, "2020-01")
    S = classify_developer("2020-01", None)
    M = classify_developer("2020-01", "2020-03")
    assert G is DeveloperCategory.GENERALIST
    assert S is DeveloperCategory.SPECIALIST
    assert M is DeveloperCategory.MIXED


def test_as_of_hides_the_future():
    variable = "2020-05"
    mandatory = "2020-01"
    assert classify_developer(variable, mandatory, as_of="2020-01") \
        is DeveloperCategory.GENERALIST
    assert classify_developer(variable, mandatory, as_of="2020-05") \
        is DeveloperCategory.MIXED


def test_never_active_raises():
    with pytest.raises(NeverActive):
        classify_developer(None, None)
    with pytest.raises(NeverActive):
        classify_developer("2020-05", None, as_of="2020-01")


# ----------------------------------------------------------------------
# fixture timelines
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name,expected_key", [
    ("basic_repo", "BASIC"),
    ("rename_repo", "RENAME"),
    ("multifile_repo", "MULTIFILE"),
    ("identity_repo", "IDENTITY"),
])
def test_fixture_timelines(request, fixture_name, expected_key):
    expected = {"BASIC": BASIC, "RENAME": RENAME,
                "MULTIFILE": MULTIFILE, "IDENTITY": IDENTITY}[expected_key]
    path, _ = request.getfixturevalue(fixture_name)
    snapshots = monthly_snapshots(mined_ledger(path))
    assert snapshot_rows(snapshots) == expected["timeline"]
    summary = specialization_summary(snapshots)
    g, s, m = expected["summary"]
    assert abs(summary.generalist_pct - g) < 1e-9
    assert abs(summary.specialist_pct - s) < 1e-9
    assert abs(summary.mixed_pct - m) < 1e-9


def test_summary_percentages_partition(basic_repo):
    path, _ = basic_repo
    summary = specialization_summary(monthly_snapshots(mined_ledger(path)))
    total = summary.generalist_pct + summary.specialist_pct + summary.mixed_pct
    assert abs(total - 100.0) < 1e-9


def test_snapshot_for_every_month_inclusive(multifile_repo):
    path, _ = multifile_repo
    ledger = mined_ledger(path)
    snapshots = monthly_snapshots(ledger)
    assert [s.year_month for s in snapshots] == month_range(
        ledger.first_month, ledger.last_month
    )


def test_quiet_months_carry_counts_forward(basic_repo):
    path, _ = basic_repo
    snapshots = {s.year_month: s for s in monthly_snapshots(mined_ledger(path))}
    # nothing happened between the march and april commits
    assert (snapshots["2020-03"].generalist, snapshots["2020-03"].mixed) == \
           (snapshots["2020-04"].generalist, snapshots["2020-04"].mixed)


def test_first_months_are_minima_across_files(multifile_repo):
    path, _ = multifile_repo
    first = developer_first_months(mined_ledger(path))
    # frank's variable months are {2023-01, 2023-05}, mandatory {2023-01}
    assert first["frank@example.com"] == (min({"2023-01", "2023-05"}),
                                          min({"2023-01"}))


# ----------------------------------------------------------------------
# randomized histories: the state machine only ever moves toward Mixed
# ----------------------------------------------------------------------

def random_history(rng):
    months = month_range("2015-01", "2019-12")
    variable = frozenset(rng.sample(months, rng.randint(0, 6)))
    mandatory = frozenset(rng.sample(months, rng.randint(0, 6)))
    return variable, mandatory, months


def run_transition_check(histories, seed):
    """Categories over advancing months, classified from first months,
    must never leave Mixed or swap between Generalist and Specialist, and
    must equal the category of the full month sets in every month."""
    rng = random.Random(seed)
    legal = {
        (DeveloperCategory.GENERALIST, DeveloperCategory.MIXED),
        (DeveloperCategory.SPECIALIST, DeveloperCategory.MIXED),
    }
    checked = 0
    for _ in range(histories):
        variable, mandatory, months = random_history(rng)
        if not variable and not mandatory:
            continue
        first_variable = min(variable, default=None)
        first_mandatory = min(mandatory, default=None)
        previous = None
        for month in months:
            expected = reference_category(variable, mandatory, month)
            try:
                current = classify_developer(first_variable, first_mandatory, as_of=month)
            except NeverActive:
                assert previous is None and expected is None
                continue
            assert current is expected, month
            if previous is not None and current is not previous:
                assert (previous, current) in legal, (
                    f"{previous} -> {current} at {month}"
                )
            previous = current
            checked += 1
    return checked


def test_transitions_only_toward_mixed():
    assert run_transition_check(histories=300, seed=13) > 0


def test_totals_never_decrease_and_partition_holds(multifile_repo,
                                                   basic_repo,
                                                   rename_repo):
    for fixture in (multifile_repo, basic_repo, rename_repo):
        path, _ = fixture
        snapshots = monthly_snapshots(mined_ledger(path))
        previous_total = 0
        for snap in snapshots:
            assert snap.generalist + snap.specialist + snap.mixed == snap.total
            assert snap.total >= previous_total
            previous_total = snap.total


# ----------------------------------------------------------------------
# differential: first-month timeline against the month-set reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name", [
    "basic_repo", "rename_repo", "guard_repo", "multifile_repo", "identity_repo",
])
def test_snapshots_match_month_set_reference_on_fixtures(request, fixture_name, tmp_path):
    path, _ = request.getfixturevalue(fixture_name)
    ledger, month_sets = fold_with_month_sets(path, str(tmp_path))
    assert month_sets
    assert snapshot_rows(monthly_snapshots(ledger)) == reference_snapshots(
        month_sets, ledger.first_month, ledger.last_month
    )


def test_snapshots_match_month_set_reference_on_a_large_ledger():
    rng = random.Random(2024)
    months = month_range("2000-01", "2019-12")
    files = [f"src/f{i}.c" for i in range(150)]
    file_month_sets = {path: {} for path in files}
    for d in range(1200):
        for path in rng.sample(files, rng.randint(1, 3)):
            variable = set(rng.sample(months, rng.choice((0, 0, 1, 2, 4))))
            mandatory = set(rng.sample(months, rng.choice((0, 1, 1, 2, 4))))
            if not variable and not mandatory:
                mandatory.add(rng.choice(months))
            file_month_sets[path][f"dev{d}"] = (variable, mandatory)
    ledger, month_sets = ledger_from_month_sets(file_month_sets)
    assert len(month_sets) == 1200
    assert len(month_range(ledger.first_month, ledger.last_month)) >= 200
    snapshots = monthly_snapshots(ledger)
    assert snapshot_rows(snapshots) == reference_snapshots(
        month_sets, ledger.first_month, ledger.last_month
    )
    # every category is exercised, including late moves to mixed
    last = snapshots[-1]
    assert min(last.generalist, last.specialist, last.mixed) > 0

    # a narrower window: earlier activity counts from its first month,
    # later activity not at all
    ledger.first_month, ledger.last_month = "2005-06", "2012-03"
    assert snapshot_rows(monthly_snapshots(ledger)) == reference_snapshots(
        month_sets, ledger.first_month, ledger.last_month
    )


# ----------------------------------------------------------------------
# month_of against datetime
# ----------------------------------------------------------------------

FIRST_INSTANT, LAST_INSTANT = -62135596800, 253402300799  # 0001-01-01, 9999-12-31T23:59:59


@given(st.integers(FIRST_INSTANT, LAST_INSTANT))
@example(FIRST_INSTANT)
@example(LAST_INSTANT)
@example(-1)
@example(0)
@example(951782400)  # 2000-02-29
def test_month_of_matches_datetime(timestamp):
    instant = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    assert month_of(timestamp) == f"{instant.year:04d}-{instant.month:02d}"


@pytest.mark.parametrize("timestamp", [FIRST_INSTANT - 1, LAST_INSTANT + 1])
def test_month_of_rejects_years_datetime_cannot_hold(timestamp):
    with pytest.raises(ValueError):
        datetime.fromtimestamp(timestamp, tz=timezone.utc)
    with pytest.raises(ValueError):
        month_of(timestamp)
