"""Run the varxpert CLI with spans recorded around calls into each module.

Usage: python3 perfbench/trace_cli.py SPANS_JSON VARXPERT_ARGS...

The program is not changed: before `varxpert.cli.main` runs, this script
replaces module attributes with timing wrappers. `from x import y` binds
`y` in the importing module, so a function is wrapped at every name its
callers look it up by (`pipeline.scan_text` and `ledger.scan_text`, for
example). Each wrapped call appends a span (name, start, end, parent,
extra) to a list in memory; the list is written to SPANS_JSON when the
CLI returns. A wrapped name that no longer exists is listed under
"missing" instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

_NULL_OID = "0" * 40


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, extra]
        self.missing: list[str] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, list[int]]:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(len(self.spans) - 1)
        return span, stack

    def wrap(self, owner, attr: str, name: str, describe=None, writes: bool = False) -> None:
        """Record a span around owner.attr.

        describe(args, result) returns the span's extras; with writes, the
        extras also get the bytes the process wrote during the call.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            written = _written_bytes() if writes else 0
            span, stack = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            extra = describe(args, result) if describe is not None else None
            if writes:
                extra = dict(extra or {}, written=_written_bytes() - written)
            span[4] = extra
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_generator(self, owner, attr: str, name: str, describe) -> None:
        """Record one span per item a generator method yields."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                span, stack = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                span[4] = describe(item)
                yield item

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, hit) -> None:
        """Count calls and hits (hit(result) true) without recording spans."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        counts = self.counts
        counts.setdefault(name + ".calls", 0)
        counts.setdefault(name + ".hits", 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name + ".calls"] += 1
            if hit(result):
                counts[name + ".hits"] += 1
            return result

        setattr(owner, attr, wrapper)


def _written_bytes() -> int:
    """Bytes this process has passed to write(2) so far."""
    with open("/proc/self/io", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def install(tracer: Tracer) -> None:
    from varxpert import cache, history, ledger, pipeline

    tracer.wrap_generator(
        history.GitRepo, "iter_commits", "history.log_next",
        lambda commit: {"changes": len(commit.changes)},
    )
    tracer.wrap(
        history.GitRepo, "blob_bytes", "history.blob_bytes",
        lambda args, payload: {
            "oid": args[1],
            "bytes": 0 if payload is None else len(payload),
            "miss": payload is None and args[1] != _NULL_OID,
        },
    )
    tracer.wrap(
        history, "diff_hunks", "history.diff_hunks",
        lambda args, hunks: {"lines_in": len(args[0]) + len(args[1]), "hunks": len(hunks)},
    )
    scan = lambda args, result: {"lines": len(result.annotations)}  # noqa: E731
    tracer.wrap(pipeline, "scan_text", "preproc.scan_text", scan)
    tracer.wrap(ledger, "scan_text", "preproc.scan_text", scan)
    tracer.wrap(
        pipeline._PipelineClassifier, "scan_blob", "pipeline.scan_blob",
        lambda args, result: {"oid": args[1]},
    )
    tracer.wrap(pipeline._PipelineClassifier, "__call__", "pipeline.classify")
    tracer.wrap(pipeline, "classify_change", "ledger.classify_change")
    tracer.wrap(ledger, "classify_change", "ledger.classify_change")
    tracer.wrap(
        pipeline, "build_contribution_ledger", "ledger.fold",
        lambda args, result: {
            "events": sum(record.total_events for record in result.files.values()),
            "lineages": len(result.files),
        },
    )
    tracer.wrap(
        pipeline, "_final_snapshot", "pipeline.snapshot",
        lambda args, result: {"tree_files": result[0]},
    )
    tracer.wrap(pipeline, "load_analysis", "pipeline.load")
    tracer.wrap(pipeline, "_write_text", "pipeline.write")
    tracer.wrap(cache.ChangeCache, "open", "cache.open")
    tracer.wrap(cache.ChangeCache, "flush", "cache.flush", writes=True)
    tracer.count(cache.ChangeCache, "get", "cache.get", lambda record: record is not None)
    tracer.wrap(
        pipeline, "compute_scores", "metrics.compute_scores",
        lambda args, scores: {"rows": len(scores)},
    )
    tracer.wrap(
        pipeline, "monthly_snapshots", "timeline.monthly_snapshots",
        lambda args, snapshots: {"months": len(snapshots), "devs": len(args[0].developers)},
    )
    tracer.wrap(pipeline, "project_evaluation", "evaluation.project")


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    started = time.perf_counter()
    install(tracer)
    from varxpert.cli import main as cli_main

    code = 1
    try:
        code = cli_main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"started": started, "ended": time.perf_counter(),
                       "exit": code, "missing": tracer.missing,
                       "counts": tracer.counts, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
