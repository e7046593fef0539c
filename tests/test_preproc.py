"""Scanner tests: line bitmaps, block and macro counts, guards,
recovery, and agreement with a naive per-line rescanning oracle."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hydrate, scan
from varxpert import preproc
from varxpert.history import GitRepo, diff_hunks
from varxpert.preproc import extract_macro_identifiers, patch_scan, scan_text
from varxpert.util import split_lines


# ----------------------------------------------------------------------
# naive oracle: classify one line by rescanning from the top of the file
# ----------------------------------------------------------------------

_HEAD_WORD = re.compile(r"^\s*#\s*([A-Za-z_][A-Za-z0-9_]*)")

_OPEN, _BRANCH, _CLOSE, _PLAIN = 0, 1, 2, 3


def _token_of(line):
    match = _HEAD_WORD.match(line)
    word = match.group(1) if match else None
    if word in ("if", "ifdef", "ifndef"):
        return _OPEN
    if word in ("elif", "else"):
        return _BRANCH
    if word == "endif":
        return _CLOSE
    return _PLAIN


def naive_variable(lines, query):
    """True when line `query` (0-based) is conditional, found by walking
    the file from line one with nothing but a depth counter."""
    tokens = [_token_of(line) for line in lines]
    depth = 0
    for index in range(query + 1):
        token = tokens[index]
        if token == _OPEN:
            depth += 1
            if index == query:
                return True
        elif token == _BRANCH:
            if index == query:
                return depth > 0
        elif token == _CLOSE:
            if index == query:
                return depth > 0
            if depth:
                depth -= 1
        else:
            if index == query:
                return depth > 0
    raise AssertionError("query line out of range")


def naive_flags(content):
    lines = split_lines(content)
    return [naive_variable(lines, index) for index in range(len(lines))]


# ----------------------------------------------------------------------
# text oracle for the line lexer: the scanner's former lexer, which
# searched the whole text for directive lines
# ----------------------------------------------------------------------

_TEXT_DIRECTIVE_RE = re.compile(r"^[^\S\n]*#", re.MULTILINE)
_TEXT_HEAD_RE = re.compile(r"^\s*#\s*([A-Za-z_][A-Za-z0-9_]*)?\s*(.*?)\s*$")


def text_directives(content):
    """(first line, last line, keyword, rest) of every directive of a text."""
    found = []
    size = len(content)
    line = 0
    counted = 0  # offset up to which newlines are counted into `line`
    match = _TEXT_DIRECTIVE_RE.search(content)
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
        head = _TEXT_HEAD_RE.match("".join(parts))
        found.append((first, line, head.group(1), head.group(2)))
        if eol == -1:
            break
        counted = eol + 1
        line += 1
        match = _TEXT_DIRECTIVE_RE.search(content, counted)
    return found


_CODE_MENU = (
    "int x = 1;",
    "  call(x);",
    "}",
    "struct k { int v; };",
    "",
    "  /* step */",
    "#define K 1",
    "#include <k.h>",
    "#pragma once",
)


def random_directive_file(rng, max_lines=200, max_depth=5, balanced=True):
    lines = []
    depth = 0
    for _ in range(rng.randint(1, max_lines)):
        roll = rng.random()
        if roll < 0.50:
            lines.append(rng.choice(_CODE_MENU))
        elif roll < 0.65 and depth < max_depth:
            macro = f"M{rng.randrange(8)}"
            lines.append(rng.choice([
                f"#ifdef {macro}",
                f"#ifndef {macro}",
                f"#if defined({macro})",
                f"# if {macro} > {rng.randrange(4)}",
            ]))
            depth += 1
        elif roll < 0.75 and depth > 0:
            lines.append(rng.choice(["#else", f"#elif defined(M{rng.randrange(8)})"]))
        elif roll < 0.92 and depth > 0:
            lines.append("#endif")
            depth -= 1
        elif not balanced and roll < 0.97:
            lines.append(rng.choice(["#endif", "#else", "#elif defined(M0)"]))
        else:
            lines.append(rng.choice(_CODE_MENU))
    while balanced and depth > 0:
        lines.append("#endif")
        depth -= 1
    return "\n".join(lines) + "\n"


def run_oracle_comparison(count, seed, balanced=True):
    """Scan `count` generated files and compare against the oracle
    line-for-line; returns the number of lines checked."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        content = random_directive_file(rng, balanced=balanced)
        got = flags(content, exclude_include_guards=False)
        expected = naive_flags(content)
        assert len(got) == len(expected)
        for line_no, (flag, want) in enumerate(zip(got, expected), start=1):
            assert flag == want, f"line {line_no} of:\n{content}"
        checked += len(expected)
    return checked


def flags(content, exclude_include_guards=True):
    """The scanner's per-line classification as booleans (True = variable)."""
    return [bool(byte) for byte in scan(content, exclude_include_guards).annotations]


V, M = True, False


# ----------------------------------------------------------------------
# worked examples
# ----------------------------------------------------------------------

SEVEN = ("int a;\n#ifdef FOO\nint b;\n#else\nint c;\n#endif\nint d;\n")


def test_seven_line_example_classification():
    assert flags(SEVEN) == [M, V, V, V, V, V, M]


def test_seven_line_example_regions():
    result = scan(SEVEN)
    # one block: the #else branch extends its opener's block
    assert result.blocks == 1
    assert result.macros == {"FOO"}
    assert not result.warnings


def test_nested_conditions_and_depth():
    content = "#if A\n#if B\nint x;\n#endif\n#endif\n"
    result = scan(content)
    # the outer #endif closes last and is still inside block A
    assert flags(content) == [V] * 5
    assert result.blocks == 2
    assert result.macros == {"A", "B"}


def test_elif_carries_negated_predecessors():
    content = "#if A\nint a;\n#elif B\nint b;\n#else\nint c;\n#endif\n"
    result = scan(content)
    assert flags(content) == [V] * 7
    assert result.blocks == 1
    assert result.macros == {"A", "B"}


def test_branches_name_every_identifier_of_an_ifdef_opener():
    # an #ifdef alone names its first identifier; its #else branch names
    # the opener's whole expression, as a negated predecessor
    assert scan("#ifdef A B\nint a;\n#endif\n").macros == {"A"}
    assert scan("#ifdef A B\nint a;\n#else\nint b;\n#endif\n").macros == {"A", "B"}


def test_define_and_include_outside_blocks_are_mandatory():
    assert flags("#define K 1\n#include <k.h>\nint x;\n") == [M, M, M]
    assert scan("#define K 1\n").blocks == 0


def test_define_inside_block_is_variable():
    assert flags("#ifdef FOO\n#define K 1\n#endif\n") == [V, V, V]


def test_line_count_follows_split_lines():
    for content in ("", "\n", "a", "a\n", "a\n\n", "#if A\nb", "#if A\r\nb\r\n"):
        assert len(scan(content).annotations) == len(split_lines(content))


def test_directive_needs_only_blank_space_before_the_hash():
    content = "\t#ifdef A\n\f # if B\nint x;\n  #endif\n\r#endif\nx # y\n"
    assert flags(content) == [V, V, V, V, V, M]


# ----------------------------------------------------------------------
# include guards
# ----------------------------------------------------------------------

GUARDED = "#ifndef H_H\n#define H_H\nint helper(int x);\n#endif\n"


def test_include_guard_folded_by_default():
    result = scan(GUARDED)
    assert flags(GUARDED) == [M] * 4
    assert result.blocks == 0
    assert result.macros == frozenset()


def test_include_guard_counted_when_asked():
    result = scan(GUARDED, exclude_include_guards=False)
    assert flags(GUARDED, exclude_include_guards=False) == [V] * 4
    assert result.blocks == 1
    assert result.macros == {"H_H"}


def test_guard_interior_block_still_variable():
    content = ("#ifndef H_H\n#define H_H\n#ifdef DEBUG\nint d;\n#endif\n"
               "int helper(int x);\n#endif\n")
    result = scan(content)
    assert flags(content) == [M, M, V, V, V, M, M]
    assert result.blocks == 1
    assert result.macros == {"DEBUG"}


def test_not_a_guard_when_define_mismatches():
    content = "#ifndef H_H\n#define OTHER\nint x;\n#endif\n"
    assert flags(content) == [V] * 4
    assert scan(content).blocks == 1


def test_not_a_guard_when_else_at_guard_depth():
    content = "#ifndef H_H\n#define H_H\nint x;\n#else\nint y;\n#endif\n"
    assert flags(content) == [V] * 6
    assert scan(content).blocks == 1


def test_not_a_guard_when_endif_is_not_last_directive():
    content = ("#ifndef H_H\n#define H_H\nint x;\n#endif\n"
               "#ifdef TAIL\nint y;\n#endif\n")
    assert flags(content)[0] is V
    assert scan(content).blocks == 2


def test_guard_define_must_be_next_physical_line():
    content = "#ifndef H_H\nint gap;\n#define H_H\n#endif\n"
    assert flags(content) == [V] * 4
    assert scan(content).blocks == 1


def test_trailing_code_after_guard_endif_is_fine():
    content = "#ifndef H_H\n#define H_H\nint x;\n#endif\nint tail;\n"
    assert flags(content) == [M] * 5
    assert scan(content).blocks == 0


# ----------------------------------------------------------------------
# continuations
# ----------------------------------------------------------------------

def test_backslash_continuation_absorbed():
    content = "#if defined(FOO) && \\\n    defined(BAR)\nint x;\n#endif\n"
    result = scan(content)
    assert flags(content) == [V] * 4
    assert result.blocks == 1
    assert result.macros == {"FOO", "BAR"}


def test_continuation_line_is_not_a_directive():
    # the second physical line continues the #define, so its `#endif`
    # text closes nothing; a backslash on the last line continues nothing
    content = "#ifdef A\n#define X \\\n#endif\nint a;\n#endif\nint b; \\"
    result = scan(content)
    assert flags(content) == [V, V, V, V, V, M]
    assert not result.warnings


@pytest.mark.parametrize("content, spans", [
    ("#define X \\\n\nint a;\n", [(0, 1)]),
    ("#if A \\\r\n  && B\r\nint a;\r\n#endif\r\n", [(0, 1), (3, 3)]),
    ("#define X \\ \t\nY\nint a;\n", [(0, 1)]),
    ("int a;\n#define X \\\n", [(1, 1)]),
    ("int a;\n#define X \\", [(1, 1)]),
], ids=["onto_an_empty_line", "crlf", "trailing_blanks", "last_line", "last_line_unterminated"])
def test_continuation_rules(content, spans):
    # (first, last) physical lines of each directive, 0-based
    assert [(first, last) for first, last, _, _ in scan(content).directives] == spans


_LEX_PIECE = st.sampled_from((
    "#", " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\\", " \\", "\\ \t",
    "if", "ifdef M1", "endif", "define X(a)", "elif A", "else", " # x", "a", "x = 1;", "/* # */",
))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_LEX_PIECE, max_size=5).map("".join), max_size=12),
       st.booleans())
def test_line_lexer_agrees_with_the_text_lexer(lines, final_newline):
    # a backslash on the last line continues nothing, with or without the
    # final newline; only LF ends a line, other line breaks stay in it
    text = "\n".join(lines) + ("\n" if final_newline and lines else "")
    assert preproc._directives(split_lines(text)) == text_directives(text)


@pytest.mark.parametrize("offset", [0, 7])
def test_line_lexer_numbers_from_the_offset(offset):
    lines = ["int a;", "#if A \\", "  && B", "#endif"]
    assert preproc._directives(lines, offset) == [
        (1 + offset, 2 + offset, "if", "A   && B"), (3 + offset, 3 + offset, "endif", "")]


def test_expression_comments_ignored_for_macros():
    assert extract_macro_identifiers("FOO /* BAR */ && BAZ") == {"FOO", "BAZ"}
    assert extract_macro_identifiers("defined(X) // Y") == {"X"}
    assert extract_macro_identifiers("A > 0x1F && B2") == {"A", "B2"}


# ----------------------------------------------------------------------
# a UTF-8 byte order mark, as cpp reads it
# ----------------------------------------------------------------------

def test_a_byte_order_mark_before_the_first_directive_is_skipped():
    # cpp -P skips the mark and drops int a; unless -DX is given
    result = scan("\ufeff#ifdef X\nint a;\n#endif\n")
    assert flags("\ufeff#ifdef X\nint a;\n#endif\n") == [V, V, V]
    assert (result.blocks, result.macros, result.warnings) == (1, {"X"}, ())


def test_a_byte_order_mark_on_a_later_line_is_text():
    # cpp: "#endif without #if", the mark being text there
    result = scan("int b;\n\ufeff#ifdef X\nint a;\n#endif\n")
    assert list(result.annotations) == [0, 0, 0, 0]
    assert [(w.kind, w.line_no) for w in result.warnings] == [("stray_directive", 4)]
    assert result.blocks == 0


@pytest.mark.parametrize("exclude_include_guards, blocks", [(True, 0), (False, 1)],
                         ids=["guards_folded", "include_guards"])
def test_a_byte_order_mark_before_an_include_guard(exclude_include_guards, blocks):
    result = scan("\ufeff" + GUARDED, exclude_include_guards)
    assert result.blocks == blocks
    assert result == scan(GUARDED, exclude_include_guards)


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------

def test_stray_endif_is_mandatory_with_warning():
    result = scan("int a;\n#endif\nint b;\n")
    assert list(result.annotations) == [0, 0, 0]
    assert [w.kind for w in result.warnings] == ["stray_directive"]
    assert result.warnings[0].line_no == 2
    assert result.blocks == 0


def test_stray_else_is_mandatory_with_warning():
    result = scan("#else\nint a;\n")
    assert list(result.annotations) == [0, 0]
    assert [w.kind for w in result.warnings] == ["stray_directive"]


def test_unterminated_block_runs_to_eof_with_warning():
    content = "int a;\n#ifdef FOO\nint b;\nint c;\n"
    result = scan(content)
    assert flags(content) == [M, V, V, V]
    assert [w.kind for w in result.warnings] == ["unterminated_block"]
    assert result.warnings[0].line_no == 2
    assert result.blocks == 1


# ----------------------------------------------------------------------
# block and macro counting
# ----------------------------------------------------------------------

def test_count_variabilities_blocks_and_macros():
    xc = scan("#ifdef X\nint a;\n#else\nint b;\n#endif\n")
    yc = scan("#ifndef Y\nint c;\n#endif\n")
    # an #else branch extends its opener's block, it is not a new one
    assert xc.blocks + yc.blocks == 2
    assert len(xc.macros | yc.macros) == 2


def test_count_variabilities_guard_handling():
    assert scan(GUARDED).blocks == 0
    assert scan(GUARDED, exclude_include_guards=False).blocks == 1
    assert len(scan(GUARDED, exclude_include_guards=False).macros) == 1


def test_macro_union_deduplicates():
    first = scan("#ifdef X\nint a;\n#endif\n")
    second = scan("#if defined(X) && defined(Z)\nint b;\n#endif\n")
    assert first.blocks + second.blocks == 2
    assert len(first.macros | second.macros) == 2


# ----------------------------------------------------------------------
# oracle agreement and structural properties
# ----------------------------------------------------------------------

def test_oracle_agreement_small_batch():
    run_oracle_comparison(count=150, seed=20260816)


def test_oracle_agreement_with_strays():
    run_oracle_comparison(count=100, seed=99, balanced=False)


_LINE_MENU = st.sampled_from(
    _CODE_MENU
    + ("#ifdef M1", "#ifndef M2", "#if defined(M3)", "#elif defined(M4)",
       "#else", "#endif", "# endif", "#if M1 > 2")
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE_MENU, min_size=0, max_size=60))
def test_scan_totality_and_idempotence(lines):
    content = "".join(line + "\n" for line in lines)
    first = scan(content, exclude_include_guards=False)
    assert len(first.annotations) == len(lines)
    assert set(first.annotations) <= {0, 1}
    openers = sum(1 for line in lines if line.startswith("#if"))
    assert first.blocks == openers
    assert scan(content, exclude_include_guards=False) == first


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE_MENU, min_size=1, max_size=60))
def test_scan_agrees_with_oracle(lines):
    content = "".join(line + "\n" for line in lines)
    assert flags(content, exclude_include_guards=False) == naive_flags(content)


# ----------------------------------------------------------------------
# patching a scan through a change's hunks
# ----------------------------------------------------------------------

def patched(old_text, new_text, exclude_include_guards=True):
    """patch_scan of new_text from old_text's scan and the diff_hunks between them."""
    old_lines, new_lines = split_lines(old_text), split_lines(new_text)
    old = scan_text(old_lines, exclude_include_guards)
    return patch_scan(old, diff_hunks(old_lines, new_lines), old_lines, new_lines,
                      exclude_include_guards)


def test_patch_continues_onto_an_empty_added_line():
    # the added range ends on the empty line the backslash continues onto
    new = "a\n#define X \\\n\nb\nc\n"
    result = patched("a\nb\nc\n", new)
    assert result == scan(new)
    assert result.directives == [(1, 2, "define", "X")]


@pytest.mark.parametrize("old, new", [
    ("#define X \\\nint a;\n", "#define X \\\nint b;\n"),
    ("#define X \\\n#ifdef A\nint a;\n", "int b;\n#ifdef A\nint a;\n"),
    ("int b;\n#ifdef A\nint a;\n", "#define X \\\n#ifdef A\nint a;\n"),
    ("int a;\n#define X \\\n", "int a;\n#define X \\\nint b;\n"),
], ids=["line_before_a_hunk", "last_old_line_of_a_hunk", "last_new_line_of_a_hunk",
        "line_before_an_append"])
def test_patch_falls_back_at_a_continuation_edge(old, new):
    assert patched(old, new) is None


@pytest.mark.parametrize("old, new", [
    ("\ufeff#ifdef X\nint a;\n#endif\n", "int b;\n\ufeff#ifdef X\nint a;\n#endif\n"),
    ("int b;\n\ufeff#ifdef X\nint a;\n#endif\n", "\ufeff#ifdef X\nint a;\n#endif\n"),
], ids=["insert_above_a_marked_first_line", "delete_above_a_marked_line"])
def test_patch_falls_back_when_a_marked_line_moves_at_the_top(old, new):
    # the kept #ifdef is a directive on the first line only
    assert patched(old, new) is None
    assert scan(old).blocks != scan(new).blocks


def _count_resolves(monkeypatch):
    """A list that gets one item per preproc._resolve call from now on."""
    calls = []
    resolve = preproc._resolve

    def counted(*args):
        calls.append(None)
        return resolve(*args)

    monkeypatch.setattr(preproc, "_resolve", counted)
    return calls


def test_patched_scans_equal_full_scans_on_histories(history_paths, monkeypatch):
    # every text-to-text change, its new side patched from the old side's
    # scan, which is itself a patched one when the history gave it one:
    # the chain the pipeline's live table follows
    scans = {}
    compared = fallbacks = spliced = 0
    resolves = _count_resolves(monkeypatch)
    for path in history_paths:
        with GitRepo(path) as repo:
            for commit in repo.iter_commits(repo.resolve_tip("HEAD")):
                for change in commit.changes:
                    hydrated = hydrate(repo, change)
                    if hydrated is None or None in hydrated[1:]:
                        continue
                    hunks, old_lines, new_lines = hydrated
                    base = scans.get(change.old_blob) or scan_text(old_lines)
                    before = len(resolves)
                    result = patch_scan(base, hunks, old_lines, new_lines)
                    spliced += len(resolves) == before
                    full = scan_text(new_lines)
                    if result is None:
                        fallbacks += 1
                    else:
                        assert result == full, (path, commit.commit_id, change.effective_path)
                        compared += 1
                    scans[change.new_blob] = full if result is None else result
    # no change of these histories has a continuation at a hunk edge, and
    # most leave every directive line alone, so the bitmap is spliced
    assert compared > 1500 and fallbacks == 0
    assert spliced > compared * 0.7, (spliced, compared)


_EDIT_LINE = st.builds(
    lambda line, crlf: line + "\r" if crlf else line,
    st.sampled_from((
        "int x = 1;", "", "  call(x);", "int y = \\", "#ifdef M1", "#if defined(M2) && \\",
        "    defined(M3)", "#elif M2", "#else", "#endif", "# endif", "#define K(x) \\",
        "#define E \\  ", "#endif \\", "#ifndef G", "#define G", "#define W 1 \\\t",
        "\ufeff#ifdef M4",
    )),
    st.booleans(),
)


def _file(lines, guard, final_newline):
    # guard 1 wraps the lines in an include guard, 2 in one broken by a
    # blank line between its #ifndef and its #define
    if guard:
        lines = ["#ifndef G"] + [""] * (guard - 1) + ["#define G"] + lines + ["#endif"]
    text = "\n".join(lines)
    return text + "\n" if final_newline and lines else text


@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(_EDIT_LINE, max_size=24),
    edits=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 4),
                             st.lists(_EDIT_LINE, max_size=4)), max_size=4),
    guarded=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    final_newline=st.tuples(st.booleans(), st.booleans()),
    fold_guards=st.booleans(),
)
def test_patch_scan_is_none_or_scan_text(body, edits, guarded, final_newline, fold_guards):
    # each edit replaces, inserts or deletes a range; the guard and the
    # final newline may come or go, and a blank line may come or go
    # between the guard's #ifndef and its #define
    edited = list(body)
    for at, deleted, inserted in edits:
        edited[at:at + deleted] = inserted
    new_text = _file(edited, guarded[1], final_newline[1])
    result = patched(_file(body, guarded[0], final_newline[0]), new_text, fold_guards)
    assert result is None or result == scan(new_text, fold_guards)


@pytest.mark.parametrize("old, new", [
    ("#ifndef G\n#define G\nint x;\n#endif\n", "#ifndef G\n\n#define G\nint x;\n#endif\n"),
    ("#ifndef G\n\n#define G\nint x;\n#endif\n", "#ifndef G\n#define G\nint x;\n#endif\n"),
], ids=["blank_line_breaks_the_guard", "deleted_blank_line_makes_a_guard"])
def test_patch_resolves_an_edit_between_a_guard_ifndef_and_define(old, new):
    assert patched(old, new) == scan(new)
    assert scan(old).annotations != scan(new).annotations


def test_splice_shifts_warning_lines(monkeypatch):
    # no directive line comes or goes, so the bitmap is spliced without
    # resolving, and the stray #endif's warning moves down with its line
    old = "int a;\n#endif\nint b;\n#ifdef A\nint c;\n"
    new = "int z;\nint a;\n#endif\nint b;\n#ifdef A\nint c;\nint d;\n"
    expected = scan(new)
    resolves = _count_resolves(monkeypatch)
    result = patched(old, new)
    assert result == expected and len(resolves) == 1  # patched's scan of the old side
    assert [(w.kind, w.line_no) for w in result.warnings] == [
        ("stray_directive", 3), ("unterminated_block", 5)]
    assert list(result.annotations) == [0, 0, 0, 0, 1, 1, 1]
