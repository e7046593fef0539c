"""Classify C source lines as variable or mandatory.

A line is variable when it is a conditional-compilation directive
(#if, #ifdef, #ifndef, #elif, #else, #endif) or when it sits inside an
open conditional block; every other line, including non-conditional
directives such as #define or #include at the top level, is mandatory.

scan_text makes one pass over a file version's lines in two parts. The
lexer (_directives) lists the directives: of the lines holding a `#`,
those with only blank space before it, each with the lines its backslash
continuations take in. The resolver (_resolve) turns that list and the
line count into the result, with a stack of open blocks that decides
each directive; the lines between two directives keep the state the
first one left. The result is a bitmap with one byte per physical line
(1 = variable), the scan warnings, the number of conditional blocks and
the distinct macros they name, which the final-tree snapshot adds up,
the directive list itself and one byte per directive, 1 when a block
other than a transparent guard is open after it. A block names the
first identifier of an #ifdef/#ifndef, every identifier but `defined`
of an #if/#elif expression, and, once it has an #elif or #else branch,
every identifier of its opening expression.

patch_scan gives scan_text's result for a file's next version from the
old one's and the change's hunks, in time that follows the change. The
lexer is line-local except for continuations, so the new list is the
old one shifted through the hunks, minus the directives that start in
deleted ranges, plus those of the added lines, lexed in place. When no
hunk deletes or adds a directive, every directive keeps its state, and
the result is spliced: the old bitmap outside the hunks, each hunk's
added lines in the state after the last directive before it, the
warnings moved with their lines, the blocks and macros as they were.
Otherwise the resolver runs on the new list, as it does for the guard
trap: a hunk between an #ifndef and the #define right after it can make
or break an include guard by the blank lines it adds or deletes. When a
line ending in a backslash sits at a hunk edge (the line before a hunk,
or a hunk's last old or new line), a continuation may cross the edge,
and patch_scan returns None so that the caller scans the new side in
full.

As cpp does, the lexer skips a UTF-8 byte order mark (U+FEFF) at the
start of the file's first line, so a directive there is read; anywhere
else a byte order mark is text, and a line it starts is no directive.

The scanner is purely syntactic: expressions are neither evaluated nor
satisfiability-checked. Comments and string literals are not stripped
before directive detection, so a directive spelled inside a block
comment is counted like any other. The scanner never fails on malformed
input: a stray #endif (or #else/#elif with no open block) is mandatory
with a warning, and an unterminated block extends to the end of the file
with a warning.

Classic include guards (#ifndef X directly followed by #define X, with
the matching #endif as the last directive of the file and no #elif or
#else at guard level) wrap a whole header without expressing product
variability. With exclude_include_guards (the default) a detected
guard is transparent: it makes no line variable and counts as
neither a block nor a macro.
"""

from __future__ import annotations

import bisect
import functools
import re
from typing import Iterable, NamedTuple, Optional


class VariabilityCount(NamedTuple):
    blocks: int
    distinct_macros: int


class ScanWarning(NamedTuple):
    kind: str  # "stray_directive" or "unterminated_block"
    line_no: int
    detail: str


# (first line, last line, keyword, rest) of a directive, 0-based physical lines
Directive = tuple[int, int, Optional[str], str]


class ScanResult(NamedTuple):
    annotations: bytearray  # one byte per physical line: 1 variable, 0 mandatory
    warnings: tuple[ScanWarning, ...]
    blocks: int  # conditional blocks, not counting a transparent include guard
    macros: frozenset[str]
    directives: list[Directive]  # what scan_text's resolver read, for patch_scan
    open_after: bytearray  # per directive: 1 when a non-guard block is open after it


_HEAD_RE = re.compile(r"\s*#\s*([A-Za-z_][A-Za-z0-9_]*)?\s*(.*)")  # rest keeps trailing blanks
_IDENT_RE = re.compile(r"(?<![0-9A-Za-z_])[A-Za-z_][0-9A-Za-z_]*")
_OPENING = frozenset({"if", "ifdef", "ifndef"})
_BRANCHING = frozenset({"elif", "else"})
_CONDITIONAL = _OPENING | _BRANCHING | {"endif"}
_BOM = "\ufeff"  # skipped before the file's first directive only

# Expressions repeat across the blobs of a history, so their identifiers
# are computed once per distinct text; the bound keeps memory flat.
_MACRO_CACHE_SIZE = 1 << 14


def _strip_expression_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text)
    text = re.sub(r"/\*.*$", " ", text)
    return re.sub(r"//.*$", " ", text)


@functools.lru_cache(maxsize=_MACRO_CACHE_SIZE)
def extract_macro_identifiers(expression: str) -> frozenset[str]:
    """Identifiers referenced by a #if/#elif expression, minus `defined`."""
    cleaned = _strip_expression_comments(expression)
    return frozenset(
        name for name in _IDENT_RE.findall(cleaned) if name != "defined"
    )


def _first_identifier(expression: str) -> Optional[str]:
    match = _IDENT_RE.search(_strip_expression_comments(expression))
    return match.group(0) if match else None


@functools.lru_cache(maxsize=_MACRO_CACHE_SIZE)
def _opener_macros(keyword: str, expression: str) -> frozenset[str]:
    if keyword == "if":
        return extract_macro_identifiers(expression)
    first = _first_identifier(expression)
    return frozenset({first}) if first else frozenset()


def _directives(lines: list[str], offset: int = 0) -> list[Directive]:
    """(first line, last line, keyword, rest) of every directive of these
    lines, numbered from offset; a backslash continues a directive onto
    the next line unless it is the last line."""
    found = []
    after = 0  # first line past the directives found so far
    for first in [index for index, line in enumerate(lines) if "#" in line]:
        if first < after:
            continue  # a continuation line
        text = lines[first]
        if first + offset == 0 and text.startswith(_BOM):
            text = text[1:]
        head = _HEAD_RE.match(text)
        if head is None:
            continue
        last = first
        if "\\" in text:  # a cheap test first: few directives are continued
            parts = []
            while last + 1 < len(lines) and _continued(text):
                parts.append(text.rstrip()[:-1])
                last += 1
                text = lines[last]
            if parts:
                head = _HEAD_RE.match("".join(parts) + text)
                assert head is not None  # the first part starts with blank space and `#`
        keyword, rest = head.groups()
        found.append((first + offset, last + offset, keyword, rest.rstrip()))
        after = last + 1
    return found


def _include_guard(directives: list[Directive]) -> Optional[int]:
    """Index of a classic include guard's #ifndef in `directives`, or None.

    The first conditional directive must be #ifndef X, the next physical
    line must be #define X, the matching #endif must be the last
    directive of the file, and the guard block may not have #elif/#else
    branches.
    """
    first = next(
        (pos for pos, head in enumerate(directives) if head[2] in _CONDITIONAL), None
    )
    if first is None or directives[first][2] != "ifndef" or first + 1 >= len(directives):
        return None
    _start, end, _keyword, rest = directives[first]
    macro = _first_identifier(rest)
    define_start, _define_end, define_kw, define_rest = directives[first + 1]
    if macro is None or define_start != end + 1 or define_kw != "define":
        return None
    if _first_identifier(define_rest) != macro:
        return None
    depth = 1
    for pos in range(first + 2, len(directives)):
        keyword = directives[pos][2]
        if keyword in _OPENING:
            depth += 1
        elif keyword in _BRANCHING and depth == 1:
            return None  # a branching guard expresses real variability
        elif keyword == "endif":
            depth -= 1
            if depth == 0:
                return first if pos == len(directives) - 1 else None
    return None


def scan_text(lines: list[str], exclude_include_guards: bool = True) -> ScanResult:
    """Classify every physical line in one pass; never raises on any lines."""
    return _resolve(_directives(lines), len(lines), exclude_include_guards)


def _continued(line: str) -> bool:
    return line.rstrip().endswith("\\")


def _shifted(directives: list[Directive], by: int) -> list[Directive]:
    return [(first + by, last + by, keyword, rest)
            for first, last, keyword, rest in directives] if by else directives


def patch_scan(
    old: ScanResult,
    hunks: Iterable[tuple[int, int, int, int]],
    old_lines: list[str],
    new_lines: list[str],
    exclude_include_guards: bool = True,
) -> Optional[ScanResult]:
    """scan_text of the new side, from the old side's scan and the hunks.

    hunks are (old start, old count, new start, new count), 1-based, in
    order, with equal lines between them; the lines are split_lines of
    each side. None when a line ending in a backslash sits at a hunk
    edge: a continuation may then cross it, so the caller scans in full.
    None too when a hunk at the top meets a first line that starts with
    a byte order mark, since a kept line may then move into or out of
    the first line, the one place the lexer skips the mark.
    """
    kept = old.directives
    directives: list[Directive] = []
    bitmap: Optional[bytearray] = bytearray()  # the splice, None once it cannot be
    ends, shifts = [0], [0]  # each hunk's old end and the shift of the lines from there
    pos = 0
    for old_start, old_count, new_start, new_count in hunks:
        start, end = old_start - 1, old_start - 1 + old_count
        added = new_lines[new_start - 1:new_start - 1 + new_count]
        if ((new_start > 1 and _continued(new_lines[new_start - 2]))
                or (old_count and _continued(old_lines[end - 1]))
                or (added and _continued(added[-1]))
                or (not start and any(side[0].startswith(_BOM)
                                      for side in (old_lines, new_lines) if side))):
            return None
        cut = bisect.bisect_left(kept, (start,), pos)
        directives += _shifted(kept[pos:cut], shifts[-1])
        pos = bisect.bisect_left(kept, (end,), cut)  # drop those starting in the deleted range
        lexed = _directives(added, new_start - 1) if added else []
        directives += lexed
        if bitmap is not None:
            if lexed or pos > cut or (0 < cut < len(kept) and kept[cut - 1][2] == "ifndef"
                                      and kept[cut][2] == "define"):
                bitmap = None  # a directive comes or goes, or a guard may
            else:
                bitmap += old.annotations[ends[-1]:start]
                bitmap += b"\x01" * new_count if cut and old.open_after[cut - 1] else bytes(new_count)
        ends.append(end)
        shifts.append(new_start - 1 + new_count - end)
    directives += _shifted(kept[pos:], shifts[-1])
    if bitmap is None:
        return _resolve(directives, len(new_lines), exclude_include_guards)
    bitmap += old.annotations[ends[-1]:]
    warnings = tuple(warning._replace(
        line_no=warning.line_no + shifts[bisect.bisect_right(ends, warning.line_no - 1) - 1]
    ) for warning in old.warnings)
    return ScanResult(bitmap, warnings, old.blocks, old.macros, directives, old.open_after)


def _resolve(directives: list[Directive], total: int, exclude_include_guards: bool) -> ScanResult:
    """The bitmap, warnings, blocks and macros of a text of `total` lines
    with these directives."""
    bitmap = bytearray(total)
    guard = _include_guard(directives) if exclude_include_guards else None
    warnings: list[ScanWarning] = []
    stack: list[tuple[int, str, bool]] = []  # (opening line, expression, transparent)
    live = 0  # open blocks that are not a transparent guard
    blocks = 0
    macros: set[str] = set()
    cursor = 0  # first line not yet classified
    open_after = bytearray()
    for index, (first, last, keyword, rest) in enumerate(directives):
        if live:  # the lines since the last directive, and this one, are variable
            bitmap[cursor:last + 1] = b"\x01" * (last + 1 - cursor)
        variable = False  # the directive alone is variable, no block being open before it
        if keyword in _OPENING:
            transparent = index == guard
            stack.append((first + 1, rest, transparent))
            if not transparent:
                variable = not live
                live += 1
                blocks += 1
                macros |= _opener_macros(keyword, rest)
        elif keyword in _BRANCHING or keyword == "endif":
            if not stack:
                warnings.append(ScanWarning(
                    "stray_directive", first + 1,
                    f"#{keyword} without an open conditional block",
                ))
            elif keyword == "endif":
                if not stack.pop()[2]:
                    live -= 1
            else:
                variable = not live
                macros |= extract_macro_identifiers(stack[-1][1])
                if keyword == "elif":
                    macros |= extract_macro_identifiers(rest)
        if variable:
            bitmap[first:last + 1] = b"\x01" * (last + 1 - first)
        cursor = last + 1
        open_after.append(live > 0)
    if live and total > cursor:
        bitmap[cursor:] = b"\x01" * (total - cursor)
    for opened_line, _rest, _transparent in stack:
        warnings.append(ScanWarning(
            "unterminated_block", opened_line, "conditional block still open at end of file"
        ))
    return ScanResult(bitmap, tuple(warnings), blocks, frozenset(macros), directives, open_after)
