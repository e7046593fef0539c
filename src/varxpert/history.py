"""Extract a first-parent change stream from a local git repository.

Everything goes through the git CLI: one `git log -z --raw` stream for
commit metadata plus per-file change records, and a persistent
`git cat-file --batch` child for blob contents. Under -z git writes
every name as it stores it, never quoted, and each record ends in a
NUL; records are decoded as UTF-8 with surrogateescape, so a name that
is not UTF-8 keeps its bytes (os.fsencode gives them back) and two
names that differ in any byte stay two names. Merge commits are
yielded with is_merge set and an empty change list so downstream
attribution only ever sees work against the first-parent line. Renames
are detected at a 50 percent similarity threshold; anything below that
shows up as an unrelated delete plus add.

The stream's changes carry blob ids but no hunks. The pipeline's
per-change step reads both sides through blob_bytes and recomputes the
hunks from the two file images with diff_hunks, rather than parsing
patch text. A hunk is four numbers, the 1-based start and the line
count on each side; hunks come in order, and the lines between them are
equal on both sides. diff_hunks gives exactly the hunks of the standard
library's SequenceMatcher (Ratcliff/Obershelp: split at the longest
common run, recurse on both sides), but finds each longest run by
probing only every L-th old line, where L is a run already known to be
common: any run at least that long covers one of the probed lines.

An author clock before 1990 or more than a day after the commit's own
committer clock is treated as misconfigured: the commit takes its
committer time instead, with a clamped_timestamp warning. The rule
reads only the repository, so the stream does not depend on the day it
is mined.

Every git child runs without the variables `git rev-parse
--local-env-vars` lists (GIT_DIR, GIT_OBJECT_DIRECTORY, GIT_CONFIG_COUNT
and the rest on git 2.39) and without any GIT_TRACE* variable, so a git
hook's GIT_DIR cannot swap in another repository and a caller's trace
cannot reach the warnings; the log pins --no-show-signature, so a
log.showSignature setting writes nothing into the stream.

git log starts when iter_commits is called, so it walks the history
while the caller gets ready; the GitRepo owns that child, and close()
kills and reaps one still running and closes its stderr file.

Blobs are asked for ahead of their reads. GitRepo.ask queues a blob id
and blob_bytes reads the oldest one not yet read, so git reads and
inflates the next blobs on its own process while Python diffs and scans.
Replies are read in the order they were asked for; reading any other
blob, or a blob nobody asked for, is a RuntimeError. _BlobReader's
window keeps the pipe from deadlocking.

A failing git is never read as empty content. A blob that `git
cat-file` cannot produce or sends cut short, a tree `git ls-tree`
cannot list, a `git log` that exits non-zero after its output ends, or
a `git rev-list` that cannot list the commits (a damaged object
database, for instance), raises CorruptRepo with the blob id, the
commit, or git's own message. Each line a `git log` that exits 0 writes
to stderr (past diff.renameLimit, say, where git stops looking for
inexact renames) is a git_stderr warning after the last commit's. A bad
reply to a blob asked for ahead is raised when that blob is read, never
at the ask, so a blob the run never reads cannot fail it. Gitlink (submodule) entries name commits of
another repository; their sides carry no blob and are parsed as absent.
"""

from __future__ import annotations

import io
import itertools
import operator
import os
import re
import subprocess
import tempfile
from collections import deque
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

from varxpert.errors import BranchNotFound, CorruptRepo, EmptyIdentity, RepoNotFound

DEFAULT_EXTENSIONS = frozenset({".c", ".h"})

# Author clocks earlier than this, or more than a day after the commit's
# committer clock, are treated as misconfigured.
_EPOCH_FLOOR = 631152000  # 1990-01-01T00:00:00Z
_CLOCK_SKEW = 86400
# A gitlink (submodule) names a commit of another repository and a
# symlink a path, not lines of code: neither side is read.
_UNREAD_MODES = frozenset({"160000", "120000"})
# `git rev-parse --local-env-vars` on git 2.39: no git child sees them
_LOCAL_ENV_VARS = frozenset({
    "GIT_ALTERNATE_OBJECT_DIRECTORIES", "GIT_CONFIG", "GIT_CONFIG_PARAMETERS",
    "GIT_CONFIG_COUNT", "GIT_OBJECT_DIRECTORY", "GIT_DIR", "GIT_WORK_TREE",
    "GIT_IMPLICIT_WORK_TREE", "GIT_GRAFT_FILE", "GIT_INDEX_FILE", "GIT_NO_REPLACE_OBJECTS",
    "GIT_REPLACE_REF_BASE", "GIT_PREFIX", "GIT_INTERNAL_SUPER_PREFIX", "GIT_SHALLOW_FILE",
    "GIT_COMMON_DIR",
})

WarningSinkFn = Callable[[dict], None]


class ChangeKind(Enum):
    ADDED = "added"
    MODIFIED = "modified"
    DELETED = "deleted"
    RENAMED = "renamed"


def resolve_identity(name: str, email: str) -> str:
    """Fold an author signature into its canonical key.

    The key is the lowercased, trimmed email; when the email is blank
    the lowercased name stands in. Blank name and email together have
    no identity at all.
    """
    key = (email or "").strip() or (name or "").strip()
    if not key:
        raise EmptyIdentity("author has neither name nor email")
    return key.lower()


def filter_source_files(path: str, extensions: frozenset[str] = DEFAULT_EXTENSIONS) -> bool:
    """True when the path carries one of the wanted extensions, given in lower case."""
    _, ext = os.path.splitext(path)
    return ext.lower() in extensions


class Hunk(NamedTuple):
    old_start: int
    old_count: int
    new_start: int
    new_count: int


class FileChange(NamedTuple):
    kind: ChangeKind
    path_before: Optional[str]
    path_after: Optional[str]
    old_blob: Optional[str] = None
    new_blob: Optional[str] = None

    @property
    def effective_path(self) -> str:
        path = self.path_after if self.path_after is not None else self.path_before
        assert path is not None
        return path


class CommitRecord(NamedTuple):
    commit_id: str
    author: str  # canonical key, see resolve_identity
    timestamp: int  # effective author time, UTC epoch seconds
    is_merge: bool
    changes: tuple[FileChange, ...]


def diff_hunks(old_lines: list[str], new_lines: list[str]) -> tuple[Hunk, ...]:
    """Line-level edit script between two file images.

    The non-equal opcodes of SequenceMatcher(autojunk=False): split
    each box at its longest match, then take the gaps between the sorted
    matches.
    """
    matches = []
    queue = [(0, len(old_lines), 0, len(new_lines))]
    while queue:
        alo, ahi, blo, bhi = queue.pop()
        i, j, k = _longest_match(old_lines, new_lines, alo, ahi, blo, bhi)
        if k:
            matches.append((i, j, k))
            if alo < i and blo < j:
                queue.append((alo, i, blo, j))
            if i + k < ahi and j + k < bhi:
                queue.append((i + k, ahi, j + k, bhi))
    matches.sort()
    matches.append((len(old_lines), len(new_lines), 0))
    hunks = []
    i = j = 0
    for ai, bj, size in matches:
        if i < ai or j < bj:
            hunks.append(Hunk(i + 1, ai - i, j + 1, bj - j))
        i, j = ai + size, bj + size
    return tuple(hunks)


_EQUAL_RUN = re.compile(b"\x01+")


def _longest_match(a, b, alo, ahi, blo, bhi) -> tuple[int, int, int]:
    """The longest common run of a[alo:ahi] and b[blo:bhi], earliest in a,
    then earliest in b, as SequenceMatcher.find_longest_match finds it."""
    n = min(ahi - alo, bhi - blo)
    if not n:
        return alo, blo, 0
    floor = 0
    if n >= 16:  # a lower bound: the longest equal run on the corner diagonals
        floor = max(map(len, _EQUAL_RUN.findall(
            bytes(map(operator.eq, a[alo:alo + n], b[blo:blo + n]))
            + b"\0" + bytes(map(operator.eq, a[ahi - n:ahi], b[bhi - n:bhi])))), default=0)
    besti, bestj, bestsize = alo, blo, 0
    if floor < 4:
        # Boxes under 16 lines a side, or corners too unlike to skip many
        # rows: SequenceMatcher's own scan, its line index built over the box.
        # Both forks were measured on every change of the seed-3 bench
        # histories (min of 9, 2-vCPU VM). Probing every row here instead:
        # team-churn 0.029 -> 0.037 s, deep-ifdef 0.015 -> 0.019 s, two
        # unrelated 900-line files 0.0003 -> 0.010 s. Sampling small boxes
        # too: team-churn 0.029 -> 0.034 s. Cut-offs of 2 to 8 for L and
        # 16 to 32 for the size measured the same.
        b2j: dict[str, list[int]] = {}
        for j in range(blo, bhi):
            b2j.setdefault(b[j], []).append(j)
        j2len: dict[int, int] = {}
        for i in range(alo, ahi):
            newj2len = {}
            for j in b2j.get(a[i], ()):
                k = newj2len[j] = j2len.get(j - 1, 0) + 1
                if k > bestsize:
                    besti, bestj, bestsize = i - k + 1, j - k + 1, k
            j2len = newj2len
        return besti, bestj, bestsize
    # Every common run of length >= floor covers one of the rows a[alo::floor],
    # so the longest runs all pass through a probed row.
    ends: dict[int, int] = {}  # diagonal -> end row of the run found on it
    for row in range(alo, ahi, floor):
        j = blo - 1
        while True:
            try:
                j = b.index(a[row], j + 1, bhi)
            except ValueError:
                break
            if ends.get(row - j, alo) > row:
                continue  # inside a run already extended
            if min(row - alo, j - blo) + min(ahi - row, bhi - j) < bestsize:
                continue  # too close to the box's edge to reach the best
            i0, j0, i1, j1 = row, j, row + 1, j + 1
            while i0 > alo and j0 > blo and a[i0 - 1] == b[j0 - 1]:
                i0, j0 = i0 - 1, j0 - 1
            while i1 < ahi and j1 < bhi and a[i1] == b[j1]:
                i1, j1 = i1 + 1, j1 + 1
            ends[row - j] = i1
            k = i1 - i0
            if k > bestsize or (k == bestsize and (i0, j0) < (besti, bestj)):
                besti, bestj, bestsize = i0, j0, k
    return besti, bestj, bestsize


def looks_binary(blob: bytes) -> bool:
    return b"\x00" in blob[:8192]


class _BlobReader:
    """A persistent `git cat-file --batch` child that works ahead.

    ask queues a blob id; requests go to git while fewer than WINDOW are
    outstanding, so git reads the next blobs on its own process while the
    caller works. read takes the reply to the oldest outstanding request,
    so blobs are read in the order they were asked for; reading any other
    blob, or one nobody asked for, raises RuntimeError before a reply is
    taken, since that reply holds another blob's bytes. So every read is
    one that was asked for, and read writes no request of its own.

    The window bounds memory and cannot deadlock. At most WINDOW requests
    are outstanding at any time. git stops reading requests while its
    reply pipe is full and nobody reads it, but WINDOW request lines of
    65 bytes (a SHA-256 id) fit in one 4,096-byte pipe page, the least a
    pipe holds, so writing a request never waits for git. A reply that
    names no blob, or is cut short, is raised as the CorruptRepo of its
    id when that blob is read.
    """

    WINDOW = 48

    def __init__(self, proc: subprocess.Popen):
        self._proc = proc  # a `git cat-file --batch` child with piped stdin and stdout
        self._queued: deque[str] = deque()  # asked, not yet requested
        self._requested: deque[str] = deque()  # requested, reply still in the pipe
        self.reads = 0

    @property
    def asks_unread(self) -> int:
        """Blobs asked for that no read has taken (yet)."""
        return len(self._queued) + len(self._requested)

    def ask(self, oid: str) -> None:
        self._queued.append(oid)
        self._feed()

    def read(self, oid: str) -> bytes:
        if not self._requested:  # nothing outstanding: _feed leaves no ask queued
            raise RuntimeError(f"blob {oid} read, but no blob was asked for")
        if self._requested[0] != oid:
            raise RuntimeError(f"blob {oid} read before {self._requested[0]}, "
                               f"which was asked for first")
        self.reads += 1
        try:
            return self._reply(self._requested.popleft())
        finally:
            self._feed()

    def _feed(self) -> None:
        room = self.WINDOW - len(self._requested)
        if room > 0 and self._queued:
            self._send([self._queued.popleft() for _ in range(min(room, len(self._queued)))])

    def _send(self, oids: list[str]) -> None:
        assert self._proc.stdin is not None
        self._requested.extend(oids)
        try:
            self._proc.stdin.write("".join(f"{oid}\n" for oid in oids).encode("ascii"))
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # git has exited: reading these blobs finds no reply and raises

    def _reply(self, oid: str) -> bytes:
        """The next reply on the pipe, the one to the request for oid."""
        assert self._proc.stdout is not None
        header = self._proc.stdout.readline().decode("ascii", errors="replace").split()
        if len(header) < 3 or header[1] != "blob":
            reply = " ".join(header[1:]) or "nothing"
            raise CorruptRepo(f"cannot read blob {oid}: git cat-file replied {reply!r}")
        size = int(header[2])
        payload = self._proc.stdout.read(size)
        # a child that dies mid-blob leaves a short payload or no newline
        if len(payload) != size or self._proc.stdout.read(1) != b"\n":
            raise CorruptRepo(
                f"cannot read blob {oid}: git cat-file's reply was cut short "
                f"({len(payload)} of {size} bytes)"
            )
        return payload

    def close(self) -> None:
        if self._proc.stdin:
            try:
                self._proc.stdin.close()
            except BrokenPipeError:
                pass  # requests git exited before reading; the pipe is closed anyway
        if self._proc.stdout:
            self._proc.stdout.close()
        self._proc.terminate()
        self._proc.wait(timeout=10)


class TreeEntry(NamedTuple):
    oid: str
    path: str


_RAW_STATUS_RE = re.compile(r"^([A-Z])(\d*)$")


class GitRepo:
    """Read-only view of a local repository for history mining;
    resolve_tip checks that the path is one."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        if not os.path.isdir(self.path):
            raise RepoNotFound(f"not a directory: {self.path}")
        self._blobs: Optional[_BlobReader] = None
        self._streams: list[Iterator] = []  # iter_commits' streams; each owns a git log
        self._env = {name: value for name, value in os.environ.items()
                     if name not in _LOCAL_ENV_VARS and not name.startswith("GIT_TRACE")}

    def __enter__(self) -> "GitRepo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._blobs is not None:
            self._blobs.close()
            self._blobs = None
        for stream in self._streams:
            stream.close()  # ends a git log still running

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", "-C", self.path, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env,
        )

    def resolve_tip(self, branch: str = "HEAD") -> Optional[str]:
        """Commit id for a branch name or revision; None for an empty repo.
        git prints the git directory first, and nothing outside a repository."""
        result = self._run("rev-parse", "--git-dir", "--verify", "--quiet", f"{branch}^{{commit}}")
        lines = result.stdout.splitlines()
        if not lines:
            raise RepoNotFound(f"not a git repository: {self.path}")
        if result.returncode == 0:
            return lines[-1].decode("ascii")
        probe = self._run("rev-list", "-n", "1", "--all")
        if probe.returncode != 0:
            message = probe.stderr.decode("utf-8", errors="replace").strip()
            raise CorruptRepo(f"cannot list the commits of {self.path}: "
                              f"git rev-list failed (exit {probe.returncode}): {message}")
        if not probe.stdout.strip():
            return None  # repository has no commits at all
        raise BranchNotFound(f"cannot resolve {branch!r} in {self.path}")

    def _reader(self) -> _BlobReader:
        if self._blobs is None:
            self._blobs = _BlobReader(subprocess.Popen(
                # git's default 96 MiB delta-base cache makes its memory
                # grow with the history rather than the tree
                ["git", "-C", self.path, "-c", "core.deltaBaseCacheLimit=8m",
                 "cat-file", "--batch"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=self._env,
            ))
        return self._blobs

    def ask(self, oid: str) -> None:
        """Have git start on a blob that blob_bytes will be asked for."""
        self._reader().ask(oid)

    def blob_bytes(self, oid: str) -> bytes:
        return self._reader().read(oid)

    def blob_counts(self) -> tuple[int, int]:
        """(blob_bytes calls, blobs asked for that none of them read) so far."""
        if self._blobs is None:
            return 0, 0
        return self._blobs.reads, self._blobs.asks_unread

    def extends_first_parent(self, base: str, tip: str) -> bool:
        """True when base is a strict first-parent ancestor of tip: one of the
        commits `git rev-list --first-parent base..tip` lists, each of them
        on tip's first-parent chain, has base as its first parent. False on
        any git error, an unknown base for one."""
        result = self._run("rev-list", "--first-parent", "--parents", f"{base}..{tip}", "--")
        return result.returncode == 0 and any(
            line.split()[1:2] == [base.encode("ascii")] for line in result.stdout.splitlines())

    def ls_tree(self, rev: str) -> list[TreeEntry]:
        result = self._run("ls-tree", "-r", "-z", "--full-tree", rev)
        if result.returncode != 0:
            message = result.stderr.decode("utf-8", errors="replace").strip()
            raise CorruptRepo(f"cannot read the tree of {rev}: git ls-tree failed: {message}")
        entries = []
        for record in result.stdout.decode("utf-8", errors="surrogateescape").split("\0"):
            if not record:
                continue
            meta, _, path = record.partition("\t")
            parts = meta.split()
            if len(parts) >= 3 and parts[1] == "blob" and parts[0] not in _UNREAD_MODES:
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
        start: Optional[str] = None,
    ) -> Iterator[CommitRecord]:
        """First-parent commits, oldest first, with file changes filtered by
        extensions, given in lower case; only those after start, a
        first-parent ancestor of tip, when it is given.

        Changes carry blob ids but no hunks. git log starts at this call.
        """
        revisions = f"{start}..{tip}" if start else tip
        stream = self._commits(revisions, since, until, extensions, warn or (lambda record: None))
        next(stream)  # runs up to the first yield, just after git log starts
        self._streams.append(stream)
        return stream

    def _commits(self, revisions: str, since: Optional[int], until: Optional[int],
                 extensions: frozenset[str], emit: WarningSinkFn) -> Iterator:
        # stderr goes to a file: a pipe nobody drains could block git.
        with tempfile.TemporaryFile() as errors:
            log = subprocess.Popen(
                [
                    "git", "-C", self.path,
                    "-c", "diff.renameLimit=10000",
                    "log", "-z", "--first-parent", "--reverse", "--raw", "--no-abbrev",
                    "--diff-merges=off", "--find-renames=50%",
                    # pin what log.showRoot, diff.relative, diff.orderFile,
                    # i18n.logOutputEncoding and log.showSignature change
                    "--root", "--no-relative", f"-O{os.devnull}", "--encoding=UTF-8",
                    "--no-show-signature",
                    "--format=%x01%H%x1f%P%x1f%an%x1f%ae%x1f%at%x1f%ct",
                    revisions, "--",
                ],
                stdout=subprocess.PIPE,
                stderr=errors,
                env=self._env,
            )
            assert log.stdout is not None
            try:
                yield None
                # A commit is its header record (\x01...), then per change a
                # raw head (":modes oids status", the first one after a
                # "\n") and its paths: two for a rename or copy, else one.
                # Paths are taken by count, so no name is read as a head.
                # The sentinel header ends the last commit.
                records = itertools.chain(_nul_records(log.stdout), ["\x01"])
                header, raw_changes = None, []
                for record in records:
                    if record.startswith("\x01"):
                        if header is not None:
                            commit = self._parse_commit(
                                header, raw_changes, since, until, extensions, emit
                            )
                            if commit is not None:
                                yield commit
                        header, raw_changes = record[1:], []
                        continue
                    if header is None:  # else the root commit's changes would be lost
                        raise CorruptRepo(f"git log wrote {record[:60]!r} before its first commit")
                    head = record.lstrip("\n")
                    count = 2 if head.rpartition(" ")[2][:1] in ("R", "C") else 1
                    raw_changes.append((head, [next(records, "") for _ in range(count)]))
                # Reached only when the stream ran to its end, never when the
                # consumer or close() ended the generator early.
                returncode = log.wait()
                errors.seek(0)
                message = errors.read().decode("utf-8", errors="replace")
                if returncode != 0:
                    raise CorruptRepo(f"git log failed (exit {returncode}): {message.strip()}")
                # what git says while exiting 0, such as a rename limit it hit
                for line in message.splitlines():
                    if line.strip():
                        emit({"kind": "git_stderr", "detail": line})
            finally:
                if log.poll() is None:
                    log.kill()
                log.stdout.close()
                log.wait()

    def _parse_commit(
        self,
        header: str,
        raw_changes: list[tuple[str, list[str]]],
        since: Optional[int],
        until: Optional[int],
        extensions: frozenset[str],
        emit: WarningSinkFn,
    ) -> Optional[CommitRecord]:
        try:
            fields = header.split("\x1f")
            commit_id, parents, name, email, author_ts, committer_ts = fields
            timestamp = int(author_ts)
            committer = int(committer_ts)
            author = resolve_identity(name, email)
        except EmptyIdentity:
            emit({"kind": "empty_identity", "commit": header[:40]})
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
            for head, paths in raw_changes:
                change = _parse_raw_change(head, paths)
                if change is None:
                    emit({"kind": "corrupt_commit", "commit": commit_id,
                          "detail": "\t".join([head, *paths])})
                    continue
                if filter_source_files(change.effective_path, extensions):
                    changes.append(change)
        return CommitRecord(
            commit_id=commit_id,
            author=author,
            timestamp=timestamp,
            is_merge=is_merge,
            changes=tuple(changes),
        )


def _nul_records(stream: io.BufferedReader) -> Iterator[str]:
    """The NUL-ended records of a byte stream, read as it arrives in chunks
    of up to 64 KiB and decoded with surrogateescape; bytes after the last
    NUL are dropped."""
    rest = b""
    while chunk := stream.read1(1 << 16):
        rest += chunk
        end = rest.rfind(b"\0") + 1
        if end:
            # a NUL is never inside a UTF-8 sequence, so each run decodes whole
            yield from rest[:end - 1].decode("utf-8", errors="surrogateescape").split("\0")
            rest = rest[end:]


def _parse_raw_change(head: str, paths: list[str]) -> Optional[FileChange]:
    parts = head[1:].split(" ")
    if not head.startswith(":") or len(parts) < 5 or not all(paths):
        return None
    old_mode, new_mode, old_oid, new_oid, status_field = parts[:5]
    old_blob = None if old_mode in _UNREAD_MODES else old_oid
    new_blob = None if new_mode in _UNREAD_MODES else new_oid
    match = _RAW_STATUS_RE.match(status_field)
    if not match:
        return None
    status = match.group(1)
    if status == "A" or status == "C":
        return FileChange(ChangeKind.ADDED, None, paths[-1], new_blob=new_blob)
    if status == "D":
        return FileChange(ChangeKind.DELETED, paths[0], None, old_blob=old_blob)
    if status == "R":
        return FileChange(
            ChangeKind.RENAMED, paths[0], paths[1], old_blob=old_blob, new_blob=new_blob
        )
    # M plus oddballs such as typechanges behave like in-place edits.
    return FileChange(ChangeKind.MODIFIED, paths[0], paths[0], old_blob=old_blob, new_blob=new_blob)
