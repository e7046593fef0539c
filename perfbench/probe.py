"""Calibration probe: a fixed pure-Python job that never touches varxpert.

run.py runs it in a fresh interpreter before every timed operation and
once after the last, and scales each operation's wall time by the mean of
the probe times around it. The speed of the shared virtual machines this
benchmark runs on drifts by 20% or more within a minute, and the probe
slows down with the operation next to it, so the scaling takes most of that
drift out of the reported times. It uses what varxpert's hot paths use:
interpreter start, line regexes, dicts, JSON and difflib. Changing it
changes every reported time.
"""

import difflib
import json
import re

LINES = [f"    v{i} = f{i % 97}(v{i // 3}, {i % 1000});" for i in range(3000)]
EDITED = [line + " /* x */" if i % 37 == 0 else line for i, line in enumerate(LINES)]
DIRECTIVE = re.compile(r"^\s*#\s*(\w+)")

for _ in range(3):
    sum(1 for line in LINES if DIRECTIVE.match(line))
    json.loads(json.dumps({line: i for i, line in enumerate(LINES)}))
    difflib.SequenceMatcher(a=LINES, b=EDITED, autojunk=False).get_opcodes()
