"""Line-delimited JSON cache for per-change classification results.

One record per (commit, file) pair, in format varxpert-change-cache/4:
the commit, author key, timestamp, path and change kind, the
touched_variable/touched_mandatory flags, saw_variable (whether either
side had a variable line), and the scan warnings the run reported for
the change with their blob oids. That is everything the ledger fold and
warnings.jsonl need, so a warm run skips reading and scanning blobs.

A cache file is valid only for the exact branch tip and analyzer
configuration it was built with, so the file name embeds the tip and a
digest of the configuration and the format string. Files of another
tip, configuration or format (such as /3, which kept only the first
warning of a blob, /2, which lacked the scan warnings, or /1, which
also stored the expressions around each change) are ignored, never
migrated, and the run builds a new file. Writes go to a temp file that
is renamed into place once the run finishes, so an interrupted run
never leaves a half-trusted cache behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from varxpert.preproc import ScanWarning

_FORMAT = "varxpert-change-cache/4"


def analyzer_config_hash(extensions: frozenset[str], exclude_include_guards: bool) -> str:
    payload = json.dumps(
        {
            "format": _FORMAT,
            "extensions": sorted(e.lower() for e in extensions),
            "exclude_include_guards": exclude_include_guards,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CacheRecord:
    commit_id: str
    timestamp: int
    author_key: str
    path_after: str  # for deletions this is the path being removed
    kind: str
    touched_variable: bool
    touched_mandatory: bool
    saw_variable: bool
    scan_warnings: tuple[tuple[str, ScanWarning], ...] = ()  # (blob oid, warning) reported

    def as_json(self) -> str:
        warnings = [[oid, warning.as_dict()] for oid, warning in self.scan_warnings]
        return json.dumps(dict(vars(self), scan_warnings=warnings), sort_keys=True)


class ChangeCache:
    """In-memory view of one cache file plus an append buffer."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self._records: dict[tuple[str, str], CacheRecord] = {}
        self._fresh: list[CacheRecord] = []
        self.hits = 0

    @classmethod
    def open(
        cls,
        cache_dir: Optional[str],
        tip: str,
        extensions: frozenset[str],
        exclude_include_guards: bool,
    ) -> "ChangeCache":
        if cache_dir is None:
            return cls(None)
        os.makedirs(cache_dir, exist_ok=True)
        digest = analyzer_config_hash(extensions, exclude_include_guards)
        path = os.path.join(cache_dir, f"changes-{tip}-{digest}.jsonl")
        cache = cls(path)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        raw = json.loads(line)
                        warnings = tuple(
                            (oid, ScanWarning(**warning))
                            for oid, warning in raw.pop("scan_warnings")
                        )
                        record = CacheRecord(**raw, scan_warnings=warnings)
                    except (ValueError, KeyError, TypeError, AttributeError):
                        continue  # a damaged line costs a recomputation, nothing more
                    cache._records[(record.commit_id, record.path_after)] = record
        return cache

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def get(self, commit_id: str, path: str) -> Optional[CacheRecord]:
        record = self._records.get((commit_id, path))
        if record is not None:
            self.hits += 1
        return record

    def put(self, record: CacheRecord) -> None:
        if not self.enabled:
            return
        key = (record.commit_id, record.path_after)
        if key in self._records:
            return
        self._records[key] = record
        self._fresh.append(record)

    def flush(self) -> None:
        """Atomically persist everything seen this run."""
        if not self.enabled or not self._fresh:
            return
        assert self.path is not None
        directory = os.path.dirname(self.path)
        existing = os.path.exists(self.path)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                if existing:
                    with open(self.path, "r", encoding="utf-8") as previous:
                        handle.write(previous.read())
                for record in self._fresh:
                    handle.write(record.as_json() + "\n")
            os.replace(temp_path, self.path)
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
        self._fresh = []
