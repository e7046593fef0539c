"""Line-delimited JSON cache of per-change and per-blob facts.

A cache file lives in --cache-dir and is named changes-{digest}.jsonl,
where digest hashes the analyzer options (extensions, include-guard
handling) and the format string, varxpert-change-cache/8. The tip is not
part of the key: one file serves every run with those options, so after
a new commit only that commit's changes are mined. Files of other
options or formats (/7 and older, or the tip-named files
changes-{tip}-{digest}.jsonl) are ignored, never migrated: /7 holds
facts mined from blobs decoded with errors="replace", which merges
lines that differ only in bytes that are not UTF-8.

Two record kinds, one JSON object per line, written by one serializer:

- a change record: the change's ledger.ChangeFacts under its key, the
  fields commit and path. Those facts are the touched_variable and
  touched_mandatory flags, saw_variable (whether either side had a
  variable line) and every scan warning of the change's scanned sides
  as [blob oid, [kind, line_no, detail]]. That is everything the ledger
  fold and warnings.jsonl need, so a hit skips reading and scanning
  blobs. A change stopped at a binary side holds that side's oid,
  binary_oid, so a hit reports the binary side without reading it.
- a blob record, under its key, the field oid: the blob's conditional
  blocks and macros, or that it is binary. That is all the final-tree
  snapshot needs.

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

import json
import os
import tempfile
from typing import NamedTuple, Optional, Union

from varxpert.ledger import ChangeFacts
from varxpert.preproc import ScanWarning

_FORMAT = "varxpert-change-cache/8"


def analyzer_config_hash(extensions: frozenset[str], exclude_include_guards: bool) -> str:
    import hashlib  # here, so that a run without --cache-dir never loads it

    payload = json.dumps(
        {
            "format": _FORMAT,
            "extensions": sorted(e.lower() for e in extensions),
            "exclude_include_guards": exclude_include_guards,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class BlobFacts(NamedTuple):
    """What the final-tree snapshot needs of one blob."""

    blocks: int = 0
    macros: frozenset[str] = frozenset()
    binary: bool = False


Key = Union[tuple[str, str], str]  # (commit, path) of a change, or a blob oid
Entry = Union[ChangeFacts, BlobFacts]


def _line(key: Key, entry: Entry) -> str:
    fields = entry._asdict()
    if isinstance(entry, ChangeFacts):
        fields["commit"], fields["path"] = key
    else:
        fields["oid"] = key
    # default=sorted writes a blob's macros as a sorted list
    return json.dumps(fields, sort_keys=True, default=sorted) + "\n"


# a change record's fields, in the order ChangeFacts takes its own
_CHANGE_FIELDS = ("commit", "path", "touched_variable", "touched_mandatory", "saw_variable",
                  "scan_warnings", "binary_oid")


def _parse(line: str) -> tuple[Key, Entry]:
    """A line's key and record; ValueError unless a change record holds
    exactly the fields _line writes, each of the JSON type it writes."""
    raw = json.loads(line)
    if "oid" in raw:
        return raw.pop("oid"), BlobFacts(**dict(raw, macros=frozenset(raw["macros"])))
    if raw.keys() != set(_CHANGE_FIELDS):
        raise ValueError("not the fields of a change record")
    commit, path, *flags, warnings, binary_oid = map(raw.get, _CHANGE_FIELDS)
    warnings = tuple((oid, ScanWarning(*warning)) for oid, warning in warnings)
    typed = (type(commit) is type(path) is str
             and all(type(flag) is bool for flag in flags)
             and (binary_oid is None or type(binary_oid) is str)
             and all(type(oid) is type(kind) is type(detail) is str and type(line_no) is int
                     for oid, (kind, line_no, detail) in warnings))
    if not typed:
        raise ValueError("a change record field of the wrong type")
    return (commit, path), ChangeFacts(*flags, warnings, binary_oid)


class ChangeCache:
    """In-memory view of one cache file plus an append buffer."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self._entries: dict[Key, Entry] = {}  # a tuple key never equals an oid
        self._fresh: list[tuple[Key, Entry]] = []
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
                    key, entry = _parse(line)
                except (ValueError, KeyError, TypeError, AttributeError):
                    cache._damaged = True  # a damaged line costs a recomputation
                    continue
                if key in cache._entries:
                    cache._damaged = True
                    continue
                cache._entries[key] = entry
        return cache

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def get(self, commit_id: str, path: str) -> Optional[ChangeFacts]:
        return self._entries.get((commit_id, path))

    def blob(self, oid: str) -> Optional[BlobFacts]:
        return self._entries.get(oid)

    def put(self, key: Key, entry: Entry) -> None:
        """Store a change's facts under (commit, path), or a blob's under its oid."""
        if not self.enabled or key in self._entries:
            return
        self._entries[key] = entry
        self._fresh.append((key, entry))

    def flush(self) -> None:
        """Append this run's new records, or rewrite a damaged file whole."""
        if not self.enabled or not (self._fresh or self._damaged):
            return
        assert self.path is not None
        if self._damaged:
            fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(self.path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write("".join(_line(*item) for item in self._entries.items()))
                os.replace(temp_path, self.path)
            finally:
                if os.path.exists(temp_path):
                    os.unlink(temp_path)
        else:
            with open(self.path, "a", encoding="utf-8", newline="\n") as handle:
                # one write: a crash tears one tail
                handle.write("".join(_line(*item) for item in self._fresh))
        self._fresh = []
        self._damaged = False
