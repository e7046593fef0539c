"""Line-delimited JSON cache of per-change and per-blob facts.

A cache file lives in --cache-dir and is named changes-{digest}.jsonl,
where digest hashes the analyzer options (extensions, include-guard
handling) and the format string, varxpert-change-cache/6. The tip is not
part of the key: one file serves every run with those options, so after
a new commit only that commit's changes are mined. Files of other
options or formats (/5 and older, or the tip-named files
changes-{tip}-{digest}.jsonl) are ignored, never migrated.

Two record kinds, one JSON object per line:

- a change record, keyed by (commit, path): author key, timestamp, change
  kind, the touched_variable/touched_mandatory flags, saw_variable
  (whether either side had a variable line) and every scan warning of
  the change's scanned sides with its blob oid. That is everything the
  ledger fold and warnings.jsonl need, so a hit skips reading and
  scanning blobs. A change stopped at a binary side holds that side's
  oid instead, so a hit reports the binary side without reading it.
- a blob record, keyed by oid: the blob's conditional blocks and macros,
  or that it is binary. That is all the final-tree snapshot needs.

Records are context-free: a change record depends only on its commit's
first-parent diff, the blobs and the options; a blob record only on the
oid and the options. A change record keeps all of its warnings, not the
ones a run reported, because which warnings a run reports depends on the
blobs it saw earlier (with --since, for example); the run dedups them by
oid on hits and misses alike.

flush appends the run's new lines to the file in one write. When open
found a damaged line (such as the torn tail of an interrupted run) or a
key listed twice, flush instead writes every record to a temp file and
renames it into place, so the damage is gone after one run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import NamedTuple, Optional, Union

from varxpert.preproc import ScanWarning

_FORMAT = "varxpert-change-cache/6"


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


class CacheRecord(NamedTuple):
    commit_id: str
    timestamp: int
    author_key: str
    path_after: str  # for deletions this is the path being removed
    kind: str
    touched_variable: bool = False
    touched_mandatory: bool = False
    saw_variable: bool = False
    scan_warnings: tuple[tuple[str, ScanWarning], ...] = ()  # (blob oid, warning), all sides
    binary_oid: Optional[str] = None  # the binary side that stopped the change

    @property
    def key(self) -> tuple[str, str]:
        return (self.commit_id, self.path_after)

    def as_json(self) -> str:
        warnings = [[oid, warning._asdict()] for oid, warning in self.scan_warnings]
        return json.dumps(dict(self._asdict(), scan_warnings=warnings), sort_keys=True)


class BlobFacts(NamedTuple):
    """What the final-tree snapshot needs of one blob."""

    oid: str
    blocks: int = 0
    macros: frozenset[str] = frozenset()
    binary: bool = False

    @property
    def key(self) -> str:
        return self.oid

    def as_json(self) -> str:
        return json.dumps(dict(self._asdict(), macros=sorted(self.macros)), sort_keys=True)


def _parse(line: str) -> Union[CacheRecord, BlobFacts]:
    raw = json.loads(line)
    if "oid" in raw:
        return BlobFacts(**dict(raw, macros=frozenset(raw["macros"])))
    warnings = tuple(
        (oid, ScanWarning(**warning)) for oid, warning in raw.pop("scan_warnings")
    )
    return CacheRecord(**raw, scan_warnings=warnings)


def _lines(entries: list[Union[CacheRecord, BlobFacts]]) -> str:
    return "".join(entry.as_json() + "\n" for entry in entries)


class ChangeCache:
    """In-memory view of one cache file plus an append buffer."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self._records: dict[tuple[str, str], CacheRecord] = {}
        self._blobs: dict[str, BlobFacts] = {}
        self._fresh: list[Union[CacheRecord, BlobFacts]] = []
        self._damaged = False  # open saw a bad or repeated line: flush rewrites

    @classmethod
    def open(
        cls,
        cache_dir: Optional[str],
        extensions: frozenset[str],
        exclude_include_guards: bool,
    ) -> "ChangeCache":
        if cache_dir is None:
            return cls(None)
        os.makedirs(cache_dir, exist_ok=True)
        digest = analyzer_config_hash(extensions, exclude_include_guards)
        cache = cls(os.path.join(cache_dir, f"changes-{digest}.jsonl"))
        if os.path.exists(cache.path):
            with open(cache.path, "r", encoding="utf-8", errors="replace") as handle:
                lines = handle.read().split("\n")
            # a file that does not end in a newline was cut mid-line
            cache._damaged = lines.pop() != ""
            for line in lines:
                try:
                    entry = _parse(line)
                except (ValueError, KeyError, TypeError, AttributeError):
                    cache._damaged = True  # a damaged line costs a recomputation
                    continue
                table = cache._table(entry)
                if entry.key in table:
                    cache._damaged = True
                    continue
                table[entry.key] = entry
        return cache

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def _table(self, entry: Union[CacheRecord, BlobFacts]) -> dict:
        return self._blobs if isinstance(entry, BlobFacts) else self._records

    def get(self, commit_id: str, path: str) -> Optional[CacheRecord]:
        return self._records.get((commit_id, path))

    def blob(self, oid: str) -> Optional[BlobFacts]:
        return self._blobs.get(oid)

    def put(self, entry: Union[CacheRecord, BlobFacts]) -> None:
        if not self.enabled:
            return
        table = self._table(entry)
        if entry.key in table:
            return
        table[entry.key] = entry
        self._fresh.append(entry)

    def flush(self) -> None:
        """Append this run's new records, or rewrite a damaged file whole."""
        if not self.enabled or not (self._fresh or self._damaged):
            return
        assert self.path is not None
        if self._damaged:
            fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(self.path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(_lines([*self._records.values(), *self._blobs.values()]))
                os.replace(temp_path, self.path)
            finally:
                if os.path.exists(temp_path):
                    os.unlink(temp_path)
        else:
            with open(self.path, "a", encoding="utf-8", newline="\n") as handle:
                handle.write(_lines(self._fresh))  # one write: a crash tears one tail
        self._fresh = []
        self._damaged = False
