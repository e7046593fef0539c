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
