"""Every function under src/varxpert runs on the command line's verbs.

A function that no verb enters is either dead or kept only for the
tests, and belongs in tests/ (as metric_reference.py and
timeline_reference.py are). The test runs cli.main in-process under a
trace function that records each code object entered, on the one
test history that reaches every def.
"""

import ast
import functools
import os
import sys

import varxpert
from varxpert.cli import main

SRC = os.path.dirname(os.path.abspath(varxpert.__file__))
# read only by perfbench/trace_cli.py, which the tests do not run here
UNREACHED = {("ledger.py", "FileRecord.total_events")}


def defined_functions():
    """(file name, qualified name) -> (path, first line) of every def under SRC,
    the first line being a decorator's where there is one, as in co_firstlineno."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(name, prefix + child.name)] = (path, first)
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
        visit(tree, "")
    return found


def clear_lru_caches():
    """Empty every functools.lru_cache under varxpert, so a hit left by an
    earlier test cannot keep a cached function from being entered."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("varxpert."):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()


def test_every_function_in_src_runs(synth_histories, tmp_path, capsys):
    # of the histories the differentials run on, perfbench's deep-ifdef at
    # seed 1 reaches every def on its own: renames, deletes, a binary file,
    # merges, include guards, patched and fully scanned sides
    repo = synth_histories[0]
    out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
    runs = [
        ("report", repo, "--out", str(tmp_path / "cold")),
        ("analyze", repo, "--cache-dir", cache, "--out", out),
        ("analyze", repo, "--cache-dir", cache, "--out", out),
        ("report", repo, "--out", out),
        ("specialization", repo, "--out", out),
        ("evaluate", repo, "--out", out),
        ("plot-data", repo, "--out", out),
        ("analyze", repo, "--since", "1998-01-01", "--out", str(tmp_path / "since")),
        # an advance into an --out written at HEAD~1 folds on from it
        ("analyze", repo, "--branch", "HEAD~1", "--out", str(tmp_path / "advance")),
        ("analyze", repo, "--out", str(tmp_path / "advance")),
    ]
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    clear_lru_caches()
    previous = sys.gettrace()
    sys.settrace(record)
    try:
        codes = [main(list(args)) for args in runs]
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    entered = {(os.path.abspath(path), line) for path, line in entered}
    never = sorted(key for key, where in defined_functions().items()
                   if where not in entered and key not in UNREACHED)
    assert never == []
