"""Classify C source lines as variable or mandatory.

A line is variable when it is a conditional-compilation directive
(#if, #ifdef, #ifndef, #elif, #else, #endif) or when it sits inside an
open conditional block; every other line, including non-conditional
directives such as #define or #include at the top level, is mandatory.

scan_text makes one pass over the text. A multiline regex jumps from one
directive line (blank space, then `#`) to the next, following backslash
continuations, and a stack of open blocks decides each directive; the
lines between two directives keep the state the first one left. The
result is a bitmap with one byte per physical line (1 = variable), the
scan warnings, and the number of conditional blocks and the distinct
macros they name, which the final-tree snapshot adds up. A block names
the first identifier of an #ifdef/#ifndef, every identifier but
`defined` of an #if/#elif expression, and, once it has an #elif or
#else branch, every identifier of its opening expression.

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
variability. With AnalyzerOptions.exclude_include_guards (the default) a
detected guard is transparent: it makes no line variable and counts as
neither a block nor a macro.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple, Optional


class VariabilityCount(NamedTuple):
    blocks: int
    distinct_macros: int


class AnalyzerOptions(NamedTuple):
    exclude_include_guards: bool = True


DEFAULT_OPTIONS = AnalyzerOptions()


class ScanWarning(NamedTuple):
    kind: str  # "stray_directive" or "unterminated_block"
    line_no: int
    detail: str


class ScanResult(NamedTuple):
    annotations: bytearray  # one byte per physical line: 1 variable, 0 mandatory
    warnings: tuple[ScanWarning, ...]
    blocks: int  # conditional blocks, not counting a transparent include guard
    macros: frozenset[str]


_DIRECTIVE_RE = re.compile(r"^[^\S\n]*#", re.MULTILINE)
_HEAD_RE = re.compile(r"^\s*#\s*([A-Za-z_][A-Za-z0-9_]*)?\s*(.*?)\s*$")
_IDENT_RE = re.compile(r"(?<![0-9A-Za-z_])[A-Za-z_][0-9A-Za-z_]*")
_OPENING = frozenset({"if", "ifdef", "ifndef"})
_BRANCHING = frozenset({"elif", "else"})
_CONDITIONAL = _OPENING | _BRANCHING | {"endif"}

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


def _directives(content: str) -> list[tuple[int, int, Optional[str], str]]:
    """(first line, last line, keyword, rest) of every directive, with
    0-based physical lines; a backslash continues a directive onto the
    next line unless it is the last line."""
    found = []
    size = len(content)
    line = 0
    counted = 0  # offset up to which newlines are counted into `line`
    search = _DIRECTIVE_RE.search
    match = search(content)
    while match is not None:
        start = match.start()
        line += content.count("\n", counted, start)
        first = line
        eol = content.find("\n", start)
        text = content[start:eol if eol != -1 else size]
        parts = []
        while eol != -1 and eol + 1 < size and text.rstrip().endswith("\\"):
            parts.append(text.rstrip()[:-1])
            start = eol + 1
            eol = content.find("\n", start)
            text = content[start:eol if eol != -1 else size]
            line += 1
        parts.append(text)
        head = _HEAD_RE.match("".join(parts))
        assert head is not None  # every directive text starts with blank space and `#`
        found.append((first, line, head.group(1), head.group(2)))
        if eol == -1:
            break
        counted = eol + 1
        line += 1
        match = search(content, counted)
    return found


def _include_guard(directives: list[tuple[int, int, Optional[str], str]]) -> Optional[int]:
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


def scan_text(content: str, options: AnalyzerOptions = DEFAULT_OPTIONS) -> ScanResult:
    """Classify every physical line in one pass; never raises on any text."""
    total = content.count("\n") + (0 if not content or content.endswith("\n") else 1)
    bitmap = bytearray(total)
    directives = _directives(content)
    guard = _include_guard(directives) if options.exclude_include_guards else None
    warnings: list[ScanWarning] = []
    stack: list[tuple[int, str, bool]] = []  # (opening line, expression, transparent)
    live = 0  # open blocks that are not a transparent guard
    blocks = 0
    macros: set[str] = set()
    cursor = 0  # first line not yet classified
    for index, (first, last, keyword, rest) in enumerate(directives):
        if live and first > cursor:
            bitmap[cursor:first] = b"\x01" * (first - cursor)
        variable = live > 0
        if keyword in _OPENING:
            transparent = index == guard
            stack.append((first + 1, rest, transparent))
            if not transparent:
                live += 1
                blocks += 1
                variable = True
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
                variable = True
                macros |= extract_macro_identifiers(stack[-1][1])
                if keyword == "elif":
                    macros |= extract_macro_identifiers(rest)
        if variable:
            bitmap[first:last + 1] = b"\x01" * (last + 1 - first)
        cursor = last + 1
    if live and total > cursor:
        bitmap[cursor:] = b"\x01" * (total - cursor)
    for opened_line, _rest, _transparent in stack:
        warnings.append(ScanWarning(
            "unterminated_block", opened_line, "conditional block still open at end of file"
        ))
    return ScanResult(bitmap, tuple(warnings), blocks, frozenset(macros))
