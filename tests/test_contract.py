"""tools/contract.py: compare lists every file two source trees write
differently, and nothing when they write the same bytes; a check passes on
this tree and fails on one with the defect it is there to catch."""

import os
import shutil
import subprocess
import sys

import pytest

import varxpert

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTRACT = os.path.join(ROOT, "tools", "contract.py")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(varxpert.__file__)))
sys.path.insert(0, os.path.dirname(CONTRACT))
import contract  # noqa: E402  (tools/ is a directory of scripts, not a package)


def compare(parent, change, *only):
    return subprocess.run([sys.executable, CONTRACT, "compare", parent, change, "--only", *only],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_reports_nothing():
    done = compare(SRC, SRC, "basic", "identity")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "contract: 2 inputs, 54 files compared, 0 differ\n"


def test_one_float_moved_by_an_ulp_is_reported(tmp_path):
    changed = str(tmp_path / "src")
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    metrics = os.path.join(changed, "varxpert", "metrics.py")
    with open(metrics, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert "DOA_BASE = 3.293\n" in text
    with open(metrics, "w", encoding="utf-8") as handle:
        handle.write(text.replace("DOA_BASE = 3.293\n", "DOA_BASE = 3.2930000000000006\n"))
    done = compare(SRC, changed, "multifile")
    assert done.returncode == 1
    differing = {line.split(":")[0] for line in done.stdout.splitlines()[:-1]}
    assert {"multifile/cold/scores.csv", "multifile/warm/scores.csv"} <= differing
    assert not {"multifile/cold/ledger.json", "multifile/cold/timeline.csv"} & differing
    assert done.stdout.splitlines()[-1].startswith("contract: 1 inputs, 27 files compared")


@pytest.mark.parametrize("only", ["nosuch", "team-churn-5"])
def test_an_unknown_input_is_refused(only):
    done = compare(SRC, SRC, only)
    assert done.returncode != 0
    assert f"no input named {only}" in done.stderr


@pytest.fixture(scope="module")
def checks(tmp_path_factory):
    """The checks on this tree, their two workloads built once."""
    with contract.workspace(str(tmp_path_factory.mktemp("contract"))) as (work, env):
        yield contract.Checks.build(work, env, SRC)


def test_csv_cells_check_passes(checks, tmp_path):
    checks._replace(work=str(tmp_path)).csv_cells()


def test_csv_cells_check_fails_on_an_unquoted_comma(checks, tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    util = changed / "varxpert" / "util.py"
    text = util.read_text(encoding="utf-8")
    quoted = "if _NEEDS_QUOTES(value) else value"
    assert quoted in text
    util.write_text(text.replace(quoted, quoted.replace(
        "_NEEDS_QUOTES(value)", '_NEEDS_QUOTES(value) and "," not in value')), encoding="utf-8")
    (tmp_path / "work").mkdir()
    with pytest.raises(contract.CheckFailed, match=r'a,"b"\|c/report\.csv'):
        checks._replace(src=str(changed), work=str(tmp_path / "work")).csv_cells()


def test_same_names_the_two_runs_it_compares(tmp_path):
    # the checks compare two runs of one tree, not a parent and a change
    for run, text in (("1", "one\n"), ("2", "two\n")):
        (tmp_path / run).mkdir()
        (tmp_path / run / "a.txt").write_text(text, encoding="utf-8")
    with pytest.raises(contract.CheckFailed, match=r"^1 and 2 differ: \['a.txt: bytes differ'\]$"):
        contract.Checks(SRC, str(tmp_path), {}, {}).same("1", "2")


TEN = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


@pytest.mark.parametrize("change, better, expected", [
    # lower in 10 of 10, medians 0.5 apart, parent IQR 0.55 (exclusive quartiles)
    ([value - 0.5 for value in TEN], "lower", "same"),
    ([value - 0.6 for value in TEN], "lower", "better"),
    ([value - 0.6 for value in TEN], "higher", "worse"),
    ([value + 0.6 for value in TEN], "lower", "worse"),
    ([value + 0.6 for value in TEN], "higher", "better"),
    # 9 of 10 wins is enough, 8 of 10 is not
    ([value - 0.6 for value in TEN[:9]] + [2.0], "lower", "better"),
    ([value - 0.6 for value in TEN[:8]] + [2.0, 2.0], "lower", "same"),
    # a tie counts for neither side
    ([value - 0.6 for value in TEN[:9]] + [1.9], "lower", "better"),
    ([value - 0.6 for value in TEN[:8]] + [1.8, 1.9], "lower", "same"),
    # a tree against itself
    (TEN, "lower", "same"),
])
def test_the_speed_rule(change, better, expected):
    assert contract.verdict(TEN, change, better) == expected


@pytest.mark.parametrize("change, better, bound, expected", [
    # parent median 1.45, IQR 0.55 (exclusive quartiles); bound 0.5 allows 0.725
    ([value + 0.7 for value in TEN], "lower", 0.5, "ok"),
    ([value + 0.8 for value in TEN], "lower", 0.5, "regressed"),
    ([value - 0.8 for value in TEN], "higher", 0.5, "regressed"),
    ([value - 0.8 for value in TEN], "lower", 0.5, "ok"),
    (TEN, "lower", 0.4, "ok"),
    # a bound of 0.3 allows 0.435, narrower than the parent's IQR
    (TEN, "lower", 0.3, "unresolved"),
    ([value - 0.5 for value in TEN], "lower", 0.3, "unresolved"),
    ([value + 0.5 for value in TEN], "lower", 0.3, "regressed"),
    # unless every change run beats every parent run
    ([value - 1.0 for value in TEN], "lower", 0.3, "ok"),
    ([value + 1.0 for value in TEN], "higher", 0.3, "ok"),
])
def test_the_bound_rule(change, better, bound, expected):
    assert contract.regression(TEN, change, better, bound) == expected
