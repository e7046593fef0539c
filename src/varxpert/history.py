"""Extract a first-parent change stream from a local git repository.

Everything goes through the git CLI: one `git log --raw` stream for
commit metadata plus per-file change records, and a persistent
`git cat-file --batch` child for blob contents. Merge commits are
yielded with is_merge set and an empty change list so downstream
attribution only ever sees work against the first-parent line. Renames
are detected at a 50 percent similarity threshold; anything below that
shows up as an unrelated delete plus add.

Hunks are recomputed from both file images with difflib rather than
parsed out of patch text. A hunk is four numbers, the 1-based start
and the line count on each side. Hunks come in order and the lines
between them are equal on both sides, so replacing each hunk's old
range with the new lines of its new range rebuilds the new content.

An author clock before 1990 or more than a day after the commit's own
committer clock is treated as misconfigured: the commit takes its
committer time instead, with a clamped_timestamp warning. The rule
reads only the repository, so the stream does not depend on the day it
is mined.

A failing git is never read as empty content. A blob that `git
cat-file` cannot produce, or a `git log` that exits non-zero after its
output ends (a damaged object database, for instance), raises
CorruptRepo with the blob id or git's own message. Gitlink (submodule)
entries name commits of another repository; their sides carry no blob
and are read as absent.
"""

from __future__ import annotations

import difflib
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Optional

from varxpert.errors import BranchNotFound, CorruptRepo, EmptyIdentity, RepoNotFound
from varxpert.util import split_lines

DEFAULT_EXTENSIONS = frozenset({".c", ".h"})

# Author clocks earlier than this, or more than a day after the commit's
# committer clock, are treated as misconfigured.
_EPOCH_FLOOR = 631152000  # 1990-01-01T00:00:00Z
_CLOCK_SKEW = 86400
_NULL_OID = "0" * 40
_GITLINK_MODE = "160000"

WarningSinkFn = Callable[[dict], None]


class ChangeKind(Enum):
    ADDED = "added"
    MODIFIED = "modified"
    DELETED = "deleted"
    RENAMED = "renamed"


@dataclass(frozen=True)
class DeveloperId:
    canonical_key: str
    display_name: str


def resolve_identity(name: str, email: str) -> DeveloperId:
    """Fold an author signature into a canonical identity.

    The key is the lowercased, trimmed email; when the email is blank
    the lowercased name stands in. Blank name and email together have
    no identity at all.
    """
    name = (name or "").strip()
    email = (email or "").strip()
    if email:
        key = email.lower()
    elif name:
        key = name.lower()
    else:
        raise EmptyIdentity("author has neither name nor email")
    return DeveloperId(canonical_key=key, display_name=name if name else email)


def filter_source_files(path: str, extensions: frozenset[str] = DEFAULT_EXTENSIONS) -> bool:
    """True when the path carries one of the wanted extensions, case-insensitively."""
    _, ext = os.path.splitext(path)
    return ext.lower() in {e.lower() for e in extensions}


@dataclass(frozen=True)
class Hunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int


@dataclass(frozen=True)
class FileChange:
    kind: ChangeKind
    path_before: Optional[str]
    path_after: Optional[str]
    old_blob: Optional[str] = None
    new_blob: Optional[str] = None
    hunks: tuple[Hunk, ...] = ()

    @property
    def effective_path(self) -> str:
        path = self.path_after if self.path_after is not None else self.path_before
        assert path is not None
        return path


@dataclass(frozen=True)
class CommitRecord:
    commit_id: str
    author: DeveloperId
    timestamp: int  # effective author time, UTC epoch seconds
    is_merge: bool
    changes: tuple[FileChange, ...]


def diff_hunks(old_lines: list[str], new_lines: list[str]) -> tuple[Hunk, ...]:
    """Line-level edit script between two file images."""
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    return tuple(
        Hunk(old_start=i1 + 1, old_count=i2 - i1, new_start=j1 + 1, new_count=j2 - j1)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes()
        if tag != "equal"
    )


_QUOTED_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r",
                   "a": "\a", "b": "\b", "f": "\f", "v": "\v"}


def unquote_git_path(raw: str) -> str:
    """Undo git's C-style path quoting ("\303\251" octal escapes and friends)."""
    if not (raw.startswith('"') and raw.endswith('"') and len(raw) >= 2):
        return raw
    body = raw[1:-1]
    out = bytearray()
    index = 0
    while index < len(body):
        char = body[index]
        if char != "\\":
            out.extend(char.encode("utf-8"))
            index += 1
            continue
        index += 1
        if index >= len(body):
            break
        esc = body[index]
        if esc in _QUOTED_ESCAPES:
            out.extend(_QUOTED_ESCAPES[esc].encode("utf-8"))
            index += 1
        elif esc.isdigit():
            octal = body[index:index + 3]
            out.append(int(octal, 8) & 0xFF)
            index += 3
        else:
            out.extend(esc.encode("utf-8"))
            index += 1
    return out.decode("utf-8", errors="replace")


def looks_binary(blob: bytes) -> bool:
    return b"\x00" in blob[:8192]


class _BlobReader:
    """A persistent `git cat-file --batch` child, one blob request at a time."""

    def __init__(self, repo_path: str):
        self._proc = subprocess.Popen(
            ["git", "-C", repo_path, "cat-file", "--batch"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )

    def read(self, oid: str) -> bytes:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(f"{oid}\n".encode("ascii"))
        self._proc.stdin.flush()
        header = self._proc.stdout.readline().decode("ascii", errors="replace").split()
        if len(header) < 3 or header[1] != "blob":
            reply = " ".join(header[1:]) or "nothing"
            raise CorruptRepo(f"cannot read blob {oid}: git cat-file replied {reply!r}")
        size = int(header[2])
        payload = self._proc.stdout.read(size)
        self._proc.stdout.read(1)  # trailing newline
        return payload

    def close(self) -> None:
        if self._proc.stdin:
            self._proc.stdin.close()
        if self._proc.stdout:
            self._proc.stdout.close()
        self._proc.terminate()
        self._proc.wait(timeout=10)


@dataclass(frozen=True)
class TreeEntry:
    oid: str
    path: str


_RAW_STATUS_RE = re.compile(r"^([A-Z])(\d*)$")


class GitRepo:
    """Read-only view of a local repository for history mining."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        if not os.path.isdir(self.path):
            raise RepoNotFound(f"not a directory: {self.path}")
        probe = self._run("rev-parse", "--git-dir", check=False)
        if probe.returncode != 0:
            raise RepoNotFound(f"not a git repository: {self.path}")
        self._blobs: Optional[_BlobReader] = None

    def __enter__(self) -> "GitRepo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._blobs is not None:
            self._blobs.close()
            self._blobs = None

    def _run(self, *args: str, check: bool = True) -> subprocess.CompletedProcess:
        result = subprocess.run(
            ["git", "-C", self.path, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if check and result.returncode != 0:
            raise RepoNotFound(
                f"git {' '.join(args)} failed: {result.stderr.decode(errors='replace').strip()}"
            )
        return result

    def resolve_tip(self, branch: str = "HEAD") -> Optional[str]:
        """Commit id for a branch name or revision; None for an empty repo."""
        result = self._run("rev-parse", "--verify", "--quiet", f"{branch}^{{commit}}", check=False)
        if result.returncode == 0:
            return result.stdout.decode("ascii").strip()
        probe = self._run("rev-list", "-n", "1", "--all", check=False)
        if probe.returncode != 0 or not probe.stdout.strip():
            return None  # repository has no commits at all
        raise BranchNotFound(f"cannot resolve {branch!r} in {self.path}")

    def blob_bytes(self, oid: str) -> bytes:
        if self._blobs is None:
            self._blobs = _BlobReader(self.path)
        return self._blobs.read(oid)

    def ls_tree(self, rev: str) -> list[TreeEntry]:
        result = self._run("ls-tree", "-r", "-z", "--full-tree", rev)
        entries = []
        for record in result.stdout.decode("utf-8", errors="replace").split("\0"):
            if not record:
                continue
            meta, _, path = record.partition("\t")
            parts = meta.split()
            if len(parts) >= 3 and parts[1] == "blob":
                entries.append(TreeEntry(oid=parts[2], path=path))
        return entries

    # ------------------------------------------------------------------
    # Commit stream
    # ------------------------------------------------------------------

    def iter_commits(
        self,
        tip: str,
        *,
        since: Optional[int] = None,
        until: Optional[int] = None,
        extensions: frozenset[str] = DEFAULT_EXTENSIONS,
        warn: Optional[WarningSinkFn] = None,
    ) -> Iterator[CommitRecord]:
        """First-parent commits, oldest first, with filtered file changes.

        Changes carry blob ids but no hunks; hydrate_change reads them.
        """
        emit = warn or (lambda record: None)
        # stderr goes to a file: a pipe nobody drains could block git.
        with tempfile.TemporaryFile() as errors:
            log = subprocess.Popen(
                [
                    "git", "-C", self.path,
                    "-c", "core.quotepath=false",
                    "-c", "diff.renameLimit=10000",
                    "log", "--first-parent", "--reverse", "--raw", "--no-abbrev",
                    "--diff-merges=off", "--find-renames=50%",
                    "--format=%x01%H%x1f%P%x1f%an%x1f%ae%x1f%at%x1f%ct",
                    tip, "--",
                ],
                stdout=subprocess.PIPE,
                stderr=errors,
            )
            assert log.stdout is not None
            chunk_lines: list[str] = []
            try:
                for raw_line in log.stdout:
                    line = raw_line.decode("utf-8", errors="replace").rstrip("\n")
                    if line.startswith("\x01"):
                        if chunk_lines:
                            record = self._parse_chunk(
                                chunk_lines, since, until, extensions, emit
                            )
                            if record is not None:
                                yield record
                        chunk_lines = [line[1:]]
                    elif chunk_lines:
                        chunk_lines.append(line)
                if chunk_lines:
                    record = self._parse_chunk(
                        chunk_lines, since, until, extensions, emit
                    )
                    if record is not None:
                        yield record
            finally:
                log.stdout.close()
                log.wait()
            # Reached only when the stream ran to its end, never when the
            # consumer closed the generator early.
            if log.returncode != 0:
                errors.seek(0)
                message = errors.read().decode("utf-8", errors="replace").strip()
                raise CorruptRepo(f"git log failed (exit {log.returncode}): {message}")

    def _parse_chunk(
        self,
        chunk_lines: list[str],
        since: Optional[int],
        until: Optional[int],
        extensions: frozenset[str],
        emit: WarningSinkFn,
    ) -> Optional[CommitRecord]:
        try:
            fields = chunk_lines[0].split("\x1f")
            commit_id, parents, name, email, author_ts, committer_ts = fields
            timestamp = int(author_ts)
            committer = int(committer_ts)
            author = resolve_identity(name, email)
        except EmptyIdentity:
            emit({"kind": "empty_identity", "commit": chunk_lines[0][:40]})
            return None
        except (ValueError, IndexError) as exc:
            emit({"kind": "corrupt_commit", "detail": str(exc)})
            return None

        if timestamp < _EPOCH_FLOOR or timestamp > committer + _CLOCK_SKEW:
            emit({
                "kind": "clamped_timestamp",
                "commit": commit_id,
                "author_timestamp": timestamp,
                "used_timestamp": committer,
            })
            timestamp = committer
        if since is not None and timestamp < since:
            return None
        if until is not None and timestamp > until:
            return None

        is_merge = len(parents.split()) >= 2
        changes: list[FileChange] = []
        if not is_merge:
            for raw in chunk_lines[1:]:
                if not raw.startswith(":") or raw.startswith("::"):
                    continue
                change = _parse_raw_change(raw)
                if change is None:
                    emit({"kind": "corrupt_commit", "commit": commit_id, "detail": raw})
                    continue
                keep_path = change.path_after if change.path_after is not None else change.path_before
                if keep_path is None or not filter_source_files(keep_path, extensions):
                    continue
                changes.append(change)
        return CommitRecord(
            commit_id=commit_id,
            author=author,
            timestamp=timestamp,
            is_merge=is_merge,
            changes=tuple(changes),
        )

    def hydrate_change(
        self,
        change: FileChange,
        *,
        emit: Optional[WarningSinkFn] = None,
        commit_id: str = "",
        binary: Optional[set[str]] = None,
    ) -> Optional[tuple[FileChange, Optional[str], Optional[str]]]:
        """(change with its hunks, old text, new text); None when a side is binary.

        An absent side has no text. The binary side is reported to emit,
        and its oid added to binary.
        """
        texts: list[Optional[str]] = []
        for oid in (change.old_blob, change.new_blob):
            if not oid or oid == _NULL_OID:
                texts.append(None)
                continue
            payload = self.blob_bytes(oid)
            if looks_binary(payload):
                if emit is not None:
                    emit({"kind": "binary_skipped", "commit": commit_id,
                          "path": change.effective_path})
                if binary is not None:
                    binary.add(oid)
                return None
            texts.append(payload.decode("utf-8", errors="replace"))
        old_text, new_text = texts
        old_lines = split_lines(old_text) if old_text is not None else []
        new_lines = split_lines(new_text) if new_text is not None else []
        return replace(change, hunks=diff_hunks(old_lines, new_lines)), old_text, new_text


def _parse_raw_change(raw: str) -> Optional[FileChange]:
    head, *paths = raw.split("\t")
    parts = head[1:].split(" ")
    if len(parts) < 5 or not paths:
        return None
    old_mode, new_mode, old_oid, new_oid, status_field = parts[:5]
    # A gitlink (submodule) side names a commit of another repository,
    # not a blob, so it has no lines to read.
    if old_mode == _GITLINK_MODE:
        old_oid = _NULL_OID
    if new_mode == _GITLINK_MODE:
        new_oid = _NULL_OID
    match = _RAW_STATUS_RE.match(status_field)
    if not match:
        return None
    status = match.group(1)
    decoded = [unquote_git_path(path) for path in paths]
    if status == "A" or status == "C":
        return FileChange(ChangeKind.ADDED, None, decoded[-1], old_blob=None, new_blob=new_oid)
    if status == "D":
        return FileChange(ChangeKind.DELETED, decoded[0], None, old_blob=old_oid, new_blob=None)
    if status == "R":
        if len(decoded) < 2:
            return None
        return FileChange(
            ChangeKind.RENAMED, decoded[0], decoded[1], old_blob=old_oid, new_blob=new_oid
        )
    # M plus oddballs such as typechanges behave like in-place edits.
    return FileChange(ChangeKind.MODIFIED, decoded[0], decoded[0], old_blob=old_oid, new_blob=new_oid)
