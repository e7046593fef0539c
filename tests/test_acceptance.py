"""Acceptance suite. Each criterion prints one [PASS]/[FAIL]/[SKIP]
line; run with `pytest tests/test_acceptance.py -v -s` to see them.

The seventh criterion's cross-run comparisons and the first criterion's
end-to-end fixture checks exercise the installed package exactly the
way the command line does.
"""

import csv
import io
import json
import math
import os
import random
import time
from contextlib import contextmanager, redirect_stdout

import pytest

from conftest import scan
from fixture_repos import (
    BASIC,
    GUARD,
    IDENTITY,
    MULTIFILE,
    RENAME,
    RepoBuilder,
    build_basic,
    build_guard,
    build_identity,
    build_multifile,
    build_rename,
)
from metric_reference import doa_normalized
from test_preproc import run_oracle_comparison
from test_timeline import run_transition_check
from timeline_reference import (
    ledger_from_month_sets,
    reference_snapshots,
    snapshot_rows,
)
from varxpert.cli import main as cli_main
from varxpert.evaluation import precision_recall
from varxpert.ledger import ContributionStats
from varxpert.metrics import doa_absolute, score_file
from varxpert.timeline import monthly_snapshots
from varxpert.util import month_range, parse_instant


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[SKIP] criterion {number}: {label} - {exc}")
        raise
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {label} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def run_report(repo_path, out, *extra):
    # the verb prints its rendering; keep the criterion lines readable
    with redirect_stdout(io.StringIO()):
        code = cli_main(["report", repo_path, "--out", out, *extra])
    assert code == 0, f"report verb failed for {repo_path}"


FIXTURES = (
    ("basic", build_basic, BASIC),
    ("rename", build_rename, RENAME),
    ("guard", build_guard, GUARD),
    ("multifile", build_multifile, MULTIFILE),
    ("identity", build_identity, IDENTITY),
)


def check_fixture_outputs(name, expected, out):
    scores = {
        (row["file"], row["developer_key"]): row
        for row in read_rows(os.path.join(out, "scores.csv"))
    }

    def file_rows(rows, wanted):
        return {dev: row for (path, dev), row in rows.items()
                if path.startswith(wanted + "@")}

    def check_scores(file_prefix, doa_expected, norm_expected=None,
                     ownership_expected=None, authors=None, majors=None,
                     fa_dl_ac=None):
        rows = file_rows(scores, file_prefix)
        for dev, value in doa_expected.items():
            got = float(rows[dev]["doa_abs"])
            assert abs(got - value) < 1e-9, (name, file_prefix, dev)
            assert round(got, 4) == round(value, 4)
        if norm_expected:
            for dev, value in norm_expected.items():
                assert abs(float(rows[dev]["doa_norm"]) - value) < 1e-9
        if ownership_expected:
            for dev, value in ownership_expected.items():
                assert abs(float(rows[dev]["ownership"]) - value) < 1e-9
        if authors is not None:
            got = {dev for dev, row in rows.items()
                   if row["is_author"] == "true"}
            assert got == authors, (name, file_prefix)
        if majors is not None:
            got = {dev for dev, row in rows.items()
                   if row["is_major"] == "true"}
            assert got == majors, (name, file_prefix)
        if fa_dl_ac:
            for dev, (fa, dl, ac) in fa_dl_ac.items():
                row = rows[dev]
                assert (int(row["fa"]), int(row["dl"]), int(row["ac"])) == \
                    (fa, dl, ac), (name, file_prefix, dev)

    if name == "basic":
        check_scores("f.c", expected["doa_abs"], expected["doa_norm"],
                     expected["ownership"], expected["authors"],
                     expected["majors"], expected["fa_dl_ac"])
    elif name == "rename":
        check_scores("a.c", expected["doa_abs"], expected["doa_norm"],
                     expected["ownership"], expected["authors"],
                     expected["majors"], expected["fa_dl_ac"])
    elif name == "guard":
        check_scores("h.h", expected["header_doa"])
        check_scores("impl.c", expected["impl_doa"])
    elif name == "multifile":
        check_scores("x.c", expected["x_doa"], expected["x_norm"],
                     authors=expected["x_authors"],
                     fa_dl_ac=expected["x_fa_dl_ac"])
        check_scores("y.c", expected["y_doa"], expected["y_norm"],
                     authors=expected["y_authors"],
                     fa_dl_ac=expected["y_fa_dl_ac"])
    elif name == "identity":
        check_scores("m.c", expected["m_doa"],
                     fa_dl_ac=expected["m_fa_dl_ac"])

    timeline = [
        (row["year_month"], int(row["generalist"]),
         int(row["specialist"]), int(row["mixed"]))
        for row in read_rows(os.path.join(out, "timeline.csv"))
    ]
    assert timeline == expected["timeline"], name

    evaluation = {
        (row["metric"], row["aggregation"]): row
        for row in read_rows(os.path.join(out, "evaluation.csv"))
    }

    def check_eval(metric, aggregation, values):
        row = evaluation[(metric, aggregation)]
        assert abs(float(row["precision"]) - values["precision"]) < 1e-9
        assert abs(float(row["recall"]) - values["recall"]) < 1e-9
        if "dev_pct" in values:
            assert abs(float(row["recommended_dev_pct"])
                       - values["dev_pct"]) < 1e-9

    if name == "multifile":
        check_eval("doa", "micro", expected["doa_micro"])
        check_eval("doa", "macro", expected["doa_macro"])
        check_eval("ownership", "micro", expected["ownership_micro"])
        check_eval("ownership", "macro", expected["ownership_macro"])
    else:
        check_eval("doa", "micro", expected["doa_eval"])
        check_eval("ownership", "micro", expected["ownership_eval"])

    report = json.loads(read_bytes(os.path.join(out, "report.json")))
    wanted = expected["report"]
    assert report["files"] == wanted["files"], name
    assert report["variability_blocks"] == wanted["blocks"], name
    assert report["distinct_macros"] == wanted["macros"], name
    assert report["commits"] == wanted["commits"], name
    assert report["devs"] == wanted["devs"], name
    g, s, m = expected["summary"]
    assert abs(report["generalist_pct"] - g) < 1e-9, name
    assert abs(report["specialist_pct"] - s) < 1e-9, name
    assert abs(report["mixed_pct"] - m) < 1e-9, name


def test_criterion_1_fixture_oracle_suite(tmp_path):
    with criterion(1, "fixture oracle suite, five repos end to end"):
        start = time.perf_counter()
        for name, build, expected in FIXTURES:
            builder = RepoBuilder(tmp_path / f"repo-{name}")
            build(builder)
            out = str(tmp_path / f"out-{name}")
            run_report(builder.path, out)
            check_fixture_outputs(name, expected, out)
        assert time.perf_counter() - start < 30.0, "budget is 30 seconds"


def test_criterion_2_parser_oracle():
    with criterion(2, "scanner vs naive oracle on 1,000 generated files"):
        start = time.perf_counter()
        lines_checked = run_oracle_comparison(count=1000, seed=18146)
        assert lines_checked > 0

        # documented recovery behavior
        stray = scan("int a;\n#endif\nint b;\n")
        assert list(stray.annotations) == [0, 0, 0]  # all mandatory
        assert [w.kind for w in stray.warnings] == ["stray_directive"]

        dangling = scan("#ifdef FOO\nint a;\n")
        assert list(dangling.annotations) == [1, 1]  # all variable
        assert [w.kind for w in dangling.warnings] == ["unterminated_block"]
        assert dangling.blocks == 1

        assert time.perf_counter() - start < 60.0, "budget is 60 seconds"


def test_criterion_3_metric_properties():
    with criterion(3, "authorship and ownership metric properties"):
        rng = random.Random(31337)
        for _ in range(10_000):
            fa = rng.randint(0, 1)
            dl = rng.randint(0, 500)
            ac = rng.randint(0, 500)
            base = doa_absolute(fa, dl, ac)
            assert doa_absolute(fa, dl + 1, ac) > base
            assert doa_absolute(fa, dl, ac + 1) < base
            delta = doa_absolute(1, dl, ac) - doa_absolute(0, dl, ac)
            assert abs(delta - 1.098) < 1e-9

        for _ in range(500):
            people = {
                f"d{i}": ContributionStats(fa=0, dl=rng.randint(1, 40))
                for i in range(rng.randint(1, 15))
            }
            total = sum(s.dl for s in people.values())
            shares = {k: s.dl / total for k, s in people.items()}
            assert abs(sum(shares.values()) - 1.0) < 1e-9
            norms = doa_normalized(people)
            assert max(norms.values()) == 1.0

        # inclusive thresholds at exact boundary values:
        # a one-twentieth share is the float 0.05 itself
        twenty = {f"d{i:02d}": ContributionStats(dl=1) for i in range(20)}
        assert 1 / 20 == 0.05
        scored = score_file("f", twenty, doa_threshold=0.75,
                            ownership_threshold=0.05)
        assert all(s.is_major for s in scored)

        # the top score normalizes to exactly 1.0 and stays recommended
        # at a threshold of exactly 1.0
        scored = score_file(
            "g",
            {"a": ContributionStats(fa=1, dl=3),
             "b": ContributionStats(dl=1)},
            doa_threshold=1.0, ownership_threshold=0.05,
        )
        flags = {s.developer_key: (s.doa_norm, s.is_author) for s in scored}
        assert flags["a"] == (1.0, True)
        assert flags["b"][1] is False

        # integer tallies never normalize to the float 0.75 exactly, so
        # the boundary is pinned bit-for-bit: a threshold equal to an
        # achieved norm recommends, the next float above it does not
        people = {"top": ContributionStats(fa=1, dl=3),
                  "edge": ContributionStats(dl=1)}
        edge_norm = doa_normalized(people)["edge"]
        at = score_file("h", people, doa_threshold=edge_norm,
                        ownership_threshold=0.05)
        above = score_file("h", people,
                           doa_threshold=math.nextafter(edge_norm, 1.0),
                           ownership_threshold=0.05)
        assert {s.developer_key: s.is_author for s in at} == \
            {"top": True, "edge": True}
        assert {s.developer_key: s.is_author for s in above} == \
            {"top": True, "edge": False}


def random_synthetic_ledger(rng):
    """A ledger of first months, reduced from random month sets, plus
    each developer's union of those sets for the reference timeline."""
    months = month_range("2018-01", "2020-12")
    n_devs = rng.randint(1, 6)
    n_files = rng.randint(1, 4)
    file_month_sets = {f"f{f}.c": {} for f in range(n_files)}
    for d in range(n_devs):
        key = f"dev{d}"
        picked = rng.sample(range(n_files), rng.randint(1, n_files))
        for f in picked:
            variable = set(rng.sample(months, rng.randint(0, 3)))
            mandatory = set(rng.sample(months, rng.randint(0, 3)))
            file_month_sets[f"f{f}.c"][key] = (variable, mandatory)
        if not any(any(file_month_sets[f"f{f}.c"][key]) for f in picked):
            # every developer needs at least one change month
            file_month_sets[f"f{picked[0]}.c"][key][1].add(rng.choice(months))
    return ledger_from_month_sets(file_month_sets)


def test_criterion_4_timeline_properties():
    with criterion(4, "timeline category flow over 1,000 random histories"):
        assert run_transition_check(histories=1000, seed=271828) > 0
        rng = random.Random(16384)
        for _ in range(300):
            ledger, month_sets = random_synthetic_ledger(rng)
            snapshots = monthly_snapshots(ledger)
            assert snapshot_rows(snapshots) == reference_snapshots(
                month_sets, ledger.first_month, ledger.last_month
            )
            assert len(snapshots) == len(
                month_range(ledger.first_month, ledger.last_month)
            )
            previous_total = 0
            for snap in snapshots:
                assert snap.generalist + snap.specialist + snap.mixed \
                    == snap.total
                assert snap.total >= previous_total
                previous_total = snap.total
            assert previous_total == len(ledger.developers)


def test_criterion_5_evaluation_properties(multifile_repo, tmp_path):
    with criterion(5, "evaluation identities and thread-count invariance"):
        rng = random.Random(555)
        universe = [f"d{i}" for i in range(9)]
        for _ in range(3000):
            recommended = set(rng.sample(universe, rng.randint(0, 9)))
            relevant = set(rng.sample(universe, rng.randint(0, 9)))
            precision, recall = precision_recall(recommended, relevant)
            if precision is not None:
                assert 0.0 <= precision <= 1.0
            else:
                assert not recommended
            if recall is not None:
                assert 0.0 <= recall <= 1.0
            else:
                assert not relevant
            if recommended and recommended <= relevant:
                assert precision == 1.0
            if relevant and relevant <= recommended:
                assert recall == 1.0

        repo_path, _ = multifile_repo
        serial = str(tmp_path / "serial")
        threaded = str(tmp_path / "threaded")
        run_report(repo_path, serial, "--jobs", "1")
        run_report(repo_path, threaded, "--jobs", "8")
        for name in ("scores.csv", "timeline.csv", "evaluation.csv",
                     "ledger.json", "warnings.jsonl", "run_meta.json",
                     "report.csv", "report.json", "report.md"):
            assert read_bytes(os.path.join(serial, name)) == \
                read_bytes(os.path.join(threaded, name)), name


LIBEXPAT_ENV = "VARXPERT_LIBEXPAT_REPO"
LIBEXPAT_UNTIL_ENV = "VARXPERT_LIBEXPAT_UNTIL"

LIBEXPAT_EXPECTED = {
    "generalist_pct": 59.3,
    "specialist_pct": 5.09,
    "mixed_pct": 35.59,
    "doa_dev_pct": 15.25,
    "doa_precision": 1.00,
    "doa_recall": 0.41,
    "ownership_dev_pct": 38.98,
    "ownership_precision": 0.70,
    "ownership_recall": 0.73,
}

# percentages compare in points, ratios on their own scale
LIBEXPAT_TOLERANCE = {
    "generalist_pct": 10.0, "specialist_pct": 10.0, "mixed_pct": 10.0,
    "doa_dev_pct": 10.0, "ownership_dev_pct": 10.0,
    "doa_precision": 0.10, "doa_recall": 0.10,
    "ownership_precision": 0.10, "ownership_recall": 0.10,
}


def test_criterion_6_small_real_repo_soft_check(tmp_path):
    with criterion(6, "small real repository soft check"):
        repo_path = os.environ.get(LIBEXPAT_ENV)
        if not repo_path:
            pytest.skip(
                f"set {LIBEXPAT_ENV} to a local libexpat clone to enable "
                f"(optionally {LIBEXPAT_UNTIL_ENV}=YYYY-MM-DD for the "
                "history cutoff); no network access is attempted"
            )
        start = time.perf_counter()
        out = str(tmp_path / "libexpat-out")
        args = ["report", repo_path, "--out", out]
        until = os.environ.get(LIBEXPAT_UNTIL_ENV)
        if until:
            parse_instant(until)
            args += ["--until", until]
        with redirect_stdout(io.StringIO()):
            code = cli_main(args)
        assert code == 0
        report = json.loads(read_bytes(os.path.join(out, "report.json")))

        deviations = []
        for key, expected in LIBEXPAT_EXPECTED.items():
            got = report[key]
            if got is None:
                deviations.append(f"{key}: no value produced")
                continue
            if abs(got - expected) > LIBEXPAT_TOLERANCE[key]:
                deviations.append(
                    f"{key}: got {got:.2f}, published value {expected:.2f}"
                )
        if deviations:
            # out-of-tolerance values are diagnosed, not failed: clone
            # truncation, identity folding, and the first-parent merge
            # policy all shift these numbers
            print("  diagnosed deviations (clone-date drift, identity "
                  "merging, or merge policy are the usual causes):")
            for line in deviations:
                print(f"    {line}")
        assert time.perf_counter() - start < 300.0, "budget is 5 minutes"


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical reruns and warm cache"):
        for name, build, _ in FIXTURES:
            builder = RepoBuilder(tmp_path / f"repo-{name}")
            build(builder)
            first = str(tmp_path / f"{name}-first")
            second = str(tmp_path / f"{name}-second")
            run_report(builder.path, first)
            run_report(builder.path, second)
            for artifact in ("scores.csv", "timeline.csv",
                             "evaluation.csv", "report.csv"):
                assert read_bytes(os.path.join(first, artifact)) == \
                    read_bytes(os.path.join(second, artifact)), \
                    (name, artifact)

            cache = str(tmp_path / f"{name}-cache")
            cold = str(tmp_path / f"{name}-cold")
            warm = str(tmp_path / f"{name}-warm")
            run_report(builder.path, cold, "--cache-dir", cache)
            run_report(builder.path, warm, "--cache-dir", cache)
            for artifact in ("report.csv", "report.json", "report.md",
                             "scores.csv", "timeline.csv", "evaluation.csv"):
                assert read_bytes(os.path.join(cold, artifact)) == \
                    read_bytes(os.path.join(warm, artifact)), \
                    (name, artifact)
            meta = json.loads(read_bytes(os.path.join(warm, "run_meta.json")))
            assert meta["counters"]["cache_hits"] > 0, name
