"""Command line interface.

Verbs:
  analyze         mine a repository and write the analysis artifacts
  specialization  write the monthly generalist/specialist/mixed timeline
  evaluate        score both expertise metrics against variable-code changers
  report          produce the one-line project report (csv, json, markdown)
  plot-data       print the timeline CSV to stdout for external plotting

specialization, evaluate, and report reuse a stored analysis when the
branch tip and configuration match, and re-run the mining otherwise.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Optional

from varxpert import __version__
from varxpert.errors import USER_ERRORS, InvalidConfig, VarxpertError
from varxpert.evaluation import MACRO, MICRO
from varxpert.history import DEFAULT_EXTENSIONS
from varxpert.metrics import DEFAULT_DOA_THRESHOLD, DEFAULT_OWNERSHIP_THRESHOLD
from varxpert.pipeline import (
    OUTPUT_FORMATS,
    RunConfig,
    ensure_analysis,
    monthly_snapshots,
    run_analyze,
    run_evaluate,
    run_report,
    run_specialization,
    timeline_csv_text,
)
from varxpert.util import parse_instant


def _parse_extensions(raw: str) -> frozenset[str]:
    parts = [piece.strip().lower() for piece in raw.split(",")]
    cleaned = set()
    for part in parts:
        if not part:
            continue
        cleaned.add(part if part.startswith(".") else "." + part)
    return frozenset(cleaned)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("repo", help="path to the git repository to analyze")
    parser.add_argument("--branch", default="HEAD", help="branch or rev to walk (default HEAD)")
    parser.add_argument("--since", default=None, metavar="WHEN",
                        help="only count commits authored at or after this ISO date")
    parser.add_argument("--until", default=None, metavar="WHEN",
                        help="only count commits authored at or before this ISO date")
    parser.add_argument("--extensions", default=",".join(sorted(DEFAULT_EXTENSIONS)),
                        metavar="LIST",
                        help="comma separated source extensions (default .c,.h)")
    parser.add_argument("--include-guards", action="store_true",
                        help="count classic include guards as variability")
    parser.add_argument("--doa-threshold", type=float, default=DEFAULT_DOA_THRESHOLD,
                        help="normalized authorship cutoff (default 0.75)")
    parser.add_argument("--ownership-threshold", type=float,
                        default=DEFAULT_OWNERSHIP_THRESHOLD,
                        help="commit share cutoff for major contributors (default 0.05)")
    parser.add_argument("--doa-abs-floor", type=float, default=None,
                        help="optional absolute authorship floor applied with the cutoff")
    parser.add_argument("--aggregation", choices=(MICRO, MACRO), default=MICRO,
                        help="precision/recall pooling used in the report")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the per-change classification cache")
    parser.add_argument("--out", default="varxpert-out", dest="output_dir",
                        help="output directory for artifacts (default varxpert-out)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="csv",
                        dest="output_format", help="report rendering (default csv)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; mining runs on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varxpert",
        description="Mine expertise on preprocessor-variable code from git history.",
    )
    parser.add_argument("--version", action="version", version=f"varxpert {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, blurb in (
        ("analyze", "mine the history and write scores, ledger, and warnings"),
        ("specialization", "write the monthly developer specialization timeline"),
        ("evaluate", "score both metrics against developers who change variable code"),
        ("report", "write and print the one-line project report"),
        ("plot-data", "print the specialization timeline CSV to stdout"),
    ):
        _add_common(sub.add_parser(verb, help=blurb))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.jobs < 1:
        raise InvalidConfig("jobs must be at least 1")
    return RunConfig(
        repo_path=args.repo,
        branch=args.branch,
        since=parse_instant(args.since) if args.since else None,
        until=parse_instant(args.until) if args.until else None,
        extensions=_parse_extensions(args.extensions),
        exclude_include_guards=not args.include_guards,
        doa_threshold=args.doa_threshold,
        ownership_threshold=args.ownership_threshold,
        doa_abs_floor=args.doa_abs_floor,
        aggregation=args.aggregation,
        cache_dir=args.cache_dir,
        output_dir=args.output_dir,
        output_format=args.output_format,
    )


def _dispatch(verb: str, config: RunConfig) -> None:
    if verb == "analyze":
        state = run_analyze(config)
        print(
            f"analyzed {config.repo_path}: {state.ledger.commit_count} commits, "
            f"{len(state.ledger.files)} file lineages, "
            f"{len(state.ledger.developers)} developers "
            f"-> {config.output_dir}"
        )
    elif verb == "specialization":
        snapshots, summary = run_specialization(config)
        print(
            f"{len(snapshots)} monthly snapshots; final split "
            f"generalist {summary.generalist_pct:.2f}% / "
            f"specialist {summary.specialist_pct:.2f}% / "
            f"mixed {summary.mixed_pct:.2f}%"
        )
    elif verb == "evaluate":
        results = run_evaluate(config)
        for result in results:
            precision = "-" if result.precision is None else f"{result.precision:.4f}"
            recall = "-" if result.recall is None else f"{result.recall:.4f}"
            print(
                f"{result.metric} ({result.aggregation}): precision {precision}, "
                f"recall {recall}, recommended {result.recommended_dev_pct:.2f}% of devs"
            )
    elif verb == "report":
        report = run_report(config)
        print(report.render(config.output_format), end="")
    elif verb == "plot-data":
        print(timeline_csv_text(monthly_snapshots(ensure_analysis(config).ledger)), end="")
    else:  # pragma: no cover - argparse rejects unknown verbs first
        raise VarxpertError(f"unknown verb {verb!r}")


def main(argv: Optional[list[str]] = None) -> int:
    # names that are not UTF-8 print as the bytes git stores, whatever the
    # locale; a stand-in such as StringIO holds str and encodes nothing
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="surrogateescape")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        config.validate()
        _dispatch(args.verb, config)
    except USER_ERRORS as exc:
        print(f"varxpert: error: {exc}", file=sys.stderr)
        return 2
    except VarxpertError as exc:
        print(f"varxpert: failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"varxpert: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
