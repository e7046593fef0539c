"""Seeded synthetic C histories for the varxpert benchmark.

A history is written in one `git fast-import` stream from explicit author
and committer identities and fixed dates (1996 onwards), so the same
(workload, seed) pair gives the same commit ids on any host and under any
user git configuration. Next to the repository the generator writes
`truth.json`: its own counts of first-parent non-merge commits, merges,
active developers (emails case-folded), final-tree source files,
conditional blocks (include guards excluded) and distinct macros, for the
tip and for the tip's first parent.

Every first-parent commit changes at least one text line of a `.c`/`.h`
file, so each of its authors is an active developer. Side-branch commits
only add files that the merge commit then carries onto the first-parent
line; their authors are not counted unless they also commit there.

Usage: python3 perfbench/synth.py WORKLOAD SEED DEST
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass

GENERATOR_VERSION = "perfbench-synth/1"

_EPOCH_START = 820454400  # 1996-01-01T00:00:00Z
_MONTH_S = 2629746  # mean Gregorian month


@dataclass(frozen=True)
class Shape:
    commits: int  # first-parent non-merge commits
    authors: int  # distinct first-parent authors, each with at least one commit
    c_files: int
    h_files: int
    file_lines: int  # approximate lines per initial file
    block_every: int  # one conditional block per this many code lines
    max_depth: int  # deepest #if nesting inside a file
    files_per_commit: int  # upper bound on files edited per commit
    edits_per_file: int  # upper bound on edits per edited file
    merges: int
    renames: int
    deletes: int
    macro_pool: int
    span_months: int
    email_variants: bool  # same person commits under mixed-case emails


SHAPES = {
    "deep-ifdef": Shape(
        commits=40, authors=40, c_files=16, h_files=8, file_lines=900,
        block_every=12, max_depth=4, files_per_commit=2, edits_per_file=4,
        merges=4, renames=3, deletes=2, macro_pool=400, span_months=48,
        email_variants=False,
    ),
    "team-churn": Shape(
        commits=1600, authors=1200, c_files=200, h_files=100, file_lines=30,
        block_every=40, max_depth=1, files_per_commit=1, edits_per_file=2,
        merges=6, renames=6, deletes=4, macro_pool=60, span_months=300,
        email_variants=True,
    ),
}

_BINARY_PATH = "src/tables/crc_table.c"
_WORDS = ("net", "io", "mem", "fs", "log", "ssl", "zip", "usb", "gpu", "dbg",
          "irq", "dma", "pci", "cpu", "acl", "tty")


class Block:
    """A conditional block: branches of (keyword, expression, body)."""

    __slots__ = ("branches",)

    def __init__(self, branches: list):
        self.branches = branches


class SourceFile:
    def __init__(self, path: str, nodes: list):
        self.path = path
        self.nodes = nodes  # code lines (str) and Blocks

    @property
    def guard(self) -> str | None:
        if not self.path.endswith(".h"):
            return None
        stem = os.path.basename(self.path)[:-2].upper()
        return f"GUARD_{stem}_H"

    def render(self) -> bytes:
        out: list[str] = []
        guard = self.guard
        if guard:
            out += [f"#ifndef {guard}", f"#define {guard}"]
        _render(self.nodes, out)
        if guard:
            out.append(f"#endif /* {guard} */")
        return ("\n".join(out) + "\n").encode("ascii")

    def counts(self) -> tuple[int, set]:
        """(conditional blocks, macros) below the include guard."""
        blocks = 0
        macros: set = set()
        stack = [self.nodes]
        while stack:
            for node in stack.pop():
                if isinstance(node, Block):
                    blocks += 1
                    for keyword, expr, body in node.branches:
                        macros |= _expression_macros(keyword, expr)
                        stack.append(body)
        return blocks, macros


def _render(nodes: list, out: list) -> None:
    for node in nodes:
        if isinstance(node, str):
            out.append(node)
            continue
        for keyword, expr, body in node.branches:
            out.append(f"#{keyword} {expr}" if expr else f"#{keyword}")
            _render(body, out)
        out.append("#endif")


def _size(node) -> int:
    """Rendered line count of a node."""
    if isinstance(node, str):
        return 1
    return 1 + sum(1 + sum(_size(child) for child in body)
                   for _keyword, _expr, body in node.branches)


def _expression_macros(keyword: str, expr: str) -> set:
    if keyword == "else":
        return set()
    return {token for token in expr.replace("(", " ").replace(")", " ").split()
            if token.startswith("CFG_")}


class History:
    """Mutable model of the first-parent tree plus the fast-import stream."""

    def __init__(self, workload: str, seed: int):
        self.shape = SHAPES[workload]
        self.rng = random.Random(f"{GENERATOR_VERSION}:{workload}:{seed}")
        self.files: dict[str, SourceFile] = {}
        self.binary: bytes | None = None
        self.stream: list[bytes] = []
        self.mark = 0
        self.main_mark = 0
        self.uid = 0
        self.commits = 0
        self.merges = 0
        self.devs: set = set()
        self.states: list[dict] = []  # truth after each first-parent commit
        shape = self.shape
        self.macros = [f"CFG_{self.rng.choice(_WORDS).upper()}_{i}"
                       for i in range(shape.macro_pool)]
        self.people = [self._person(i) for i in range(shape.authors)]
        # Every author commits once; the remaining commits go mostly to a few
        # prolific authors, as in real projects.
        extra = self.rng.choices(self.people, k=shape.commits - shape.authors,
                                 weights=[1 / (i + 1) for i in range(shape.authors)])
        self.authorship = self.people + extra
        self.rng.shuffle(self.authorship)
        total = shape.commits + shape.merges
        self.clock = [_EPOCH_START + (shape.span_months * _MONTH_S * i) // total
                      for i in range(total + 1)]

    # -- content ---------------------------------------------------------

    def _person(self, index: int) -> tuple[str, list]:
        first = self.rng.choice(("ana", "bo", "chen", "dara", "eli", "femi", "gus",
                                 "hana", "ivo", "jun", "kai", "lea", "mo", "nia"))
        email = f"{first}.{index}@dev{index % 7}.example.org"
        variants = [email]
        if self.shape.email_variants:
            variants += [email.capitalize(), email.upper(),
                         email.replace("example", "Example")]
        return f"{first.capitalize()} Dev{index}", variants

    def _line(self) -> str:
        self.uid += 1
        rng = self.rng
        return (f"    v{self.uid} = f{rng.randrange(500)}(v{rng.randrange(self.uid)}, "
                f"{rng.randrange(1000)});")

    def _expression(self) -> str:
        rng = self.rng
        a, b = rng.sample(self.macros, 2)
        return rng.choice((
            f"defined({a})",
            f"defined({a}) && {b} > {rng.randrange(9)}",
            f"{a} || !defined({b})",
            f"{a} >= {rng.randrange(1, 5)}",
        ))

    def _block(self, depth: int) -> Block:
        rng = self.rng
        opener = rng.choice(("if", "if", "ifdef", "ifndef"))
        expr = self._expression() if opener == "if" else rng.choice(self.macros)
        branches = [[opener, expr, self._body(depth)]]
        for _ in range(rng.randrange(3)):
            branches.append(["elif", self._expression(), self._body(depth)])
        if rng.random() < 0.5:
            branches.append(["else", "", self._body(depth)])
        return Block(branches)

    def _body(self, depth: int) -> list:
        body: list = [self._line() for _ in range(self.rng.randint(1, 4))]
        if depth + 1 < self.shape.max_depth and self.rng.random() < 0.35:
            body.insert(self.rng.randrange(len(body) + 1), self._block(depth + 1))
        return body

    def _new_file(self, path: str) -> SourceFile:
        shape = self.shape
        nodes: list = [f'#include "{os.path.basename(path)[:-2]}_priv.h"'] \
            if path.endswith(".c") else []
        lines = len(nodes)
        while lines < shape.file_lines:
            node = self._block(0) if self.rng.randrange(shape.block_every) == 0 \
                else self._line()
            nodes.append(node)
            lines += _size(node)
        return SourceFile(path, nodes)

    def _containers(self, nodes: list, depth: int, out: list) -> list:
        out.append((nodes, depth))
        for node in nodes:
            if isinstance(node, Block):
                for branch in node.branches:
                    self._containers(branch[2], depth + 1, out)
        return out

    def _edit(self, source: SourceFile) -> None:
        """One small edit that always changes at least one line."""
        rng = self.rng
        containers = self._containers(source.nodes, 0, [])
        nodes, depth = rng.choice(containers)
        lines = [i for i, node in enumerate(nodes) if isinstance(node, str)
                 and not node.startswith("#")]
        blocks = [i for i, node in enumerate(nodes) if isinstance(node, Block)]
        roll = rng.random()
        if roll < 0.1 and depth < self.shape.max_depth:
            nodes.insert(rng.randrange(len(nodes) + 1), self._block(depth))
        elif roll < 0.15 and blocks:
            block = nodes[rng.choice(blocks)]
            branch = rng.choice([b for b in block.branches if b[0] != "else"])
            old = branch[1]
            while branch[1] == old:
                branch[1] = self._expression() if branch[0] in ("if", "elif") \
                    else rng.choice(self.macros)
        elif roll < 0.18 and blocks:
            del nodes[rng.choice(blocks)]
        elif roll < 0.35 and len(lines) > 1:
            del nodes[rng.choice(lines)]
        elif roll < 0.6 or not lines:
            at = rng.randrange(len(nodes) + 1)
            nodes[at:at] = [self._line() for _ in range(rng.randint(1, 3))]
        else:
            nodes[rng.choice(lines)] = self._line()
        if not any(isinstance(node, str) and not node.startswith("#")
                   for node in source.nodes):
            source.nodes.append(self._line())  # an edit never empties a file

    # -- stream ----------------------------------------------------------

    def _data(self, payload: bytes) -> None:
        self.stream.append(b"data %d\n" % len(payload) + payload + b"\n")

    def _header(self, ref: str, person: tuple, when: int, message: str,
                parent: int | None) -> str:
        """Start a commit; return the author email it used."""
        self.mark += 1
        name, variants = person
        email = self.rng.choice(variants)
        ident = f"{name} <{email}> {when} +0000\n"
        self.stream.append(f"commit {ref}\nmark :{self.mark}\n"
                           f"author {ident}committer {ident}".encode("ascii"))
        self._data(message.encode("ascii"))
        if parent:
            self.stream.append(b"from :%d\n" % parent)
        return email

    def _modify(self, path: str, payload: bytes) -> None:
        self.stream.append(f"M 100644 inline {path}\n".encode("ascii"))
        self._data(payload)

    def _commit(self, tick: int, touched: list, *, removed=(), moved=(),
                binary: bool = False) -> None:
        """A first-parent commit by the next author in authorship order."""
        person = self.authorship[self.commits]
        email = self._header("refs/heads/main", person, self.clock[tick],
                             f"change {self.commits}", self.main_mark)
        self.main_mark = self.mark
        for old, new in moved:
            self.stream.append(f"R {old} {new}\n".encode("ascii"))
        for path in removed:
            self.stream.append(f"D {path}\n".encode("ascii"))
        for path in touched:
            self._modify(path, self.files[path].render())
        if binary:
            self._modify(_BINARY_PATH, self.binary)
        self.commits += 1
        self.devs.add(email.lower())
        self.states.append(self.truth())

    def _merge(self, tick: int) -> None:
        """A side branch that adds one file, merged onto the first-parent line."""
        path = f"side/feature_{self.merges}.c"
        source = self._new_file(path)
        source.nodes = source.nodes[: max(8, len(source.nodes) // 8)]
        payload = source.render()
        self._header("refs/heads/side", self.rng.choice(self.people),
                     self.clock[tick] - 60, f"side {self.merges}", self.main_mark)
        self._modify(path, payload)
        side = self.mark
        self._header("refs/heads/main", self.rng.choice(self.people),
                     self.clock[tick], f"merge side {self.merges}", self.main_mark)
        self.stream.append(b"merge :%d\n" % side)
        self._modify(path, payload)
        self.main_mark = self.mark
        self.files[path] = source
        self.merges += 1

    def truth(self) -> dict:
        blocks = 0
        macros: set = set()
        for source in self.files.values():
            file_blocks, file_macros = source.counts()
            blocks += file_blocks
            macros |= file_macros
        return {
            "commits": self.commits,
            "merges": self.merges,
            "devs": len(self.devs),
            "files": len(self.files) + (self.binary is not None),
            "variability_blocks": blocks,
            "distinct_macros": len(macros),
        }

    def build(self) -> None:
        shape, rng = self.shape, self.rng
        dirs = ("src/core", "src/net", "src/drivers", "include")
        paths = [f"{dirs[i % 3]}/mod_{i}.c" for i in range(shape.c_files)]
        paths += [f"include/mod_{i}_priv.h" for i in range(shape.h_files)]
        # Ticks: the files arrive over the first commits, then edits follow;
        # the last commit is always a plain edit so the tip's parent exists.
        specials = shape.renames + shape.deletes + 2
        schedule = ["edit"] * (shape.commits - 2 - specials)
        for kind, count in (("merge", shape.merges), ("rename", shape.renames),
                            ("delete", shape.deletes), ("binary", 2)):
            for _ in range(count):
                schedule.insert(rng.randrange(len(schedule) // 4, len(schedule)), kind)
        per_commit = max(1, -(-len(paths) // max(1, shape.commits // 10)))
        pending = list(paths)
        tick = 0
        # The first commit creates the binary source file next to text files.
        self.binary = bytes(rng.randrange(256) for _ in range(2048)).replace(b"\0", b"\1")
        self.binary = b"\0" + self.binary
        for kind in ["create"] + schedule + ["edit"]:
            if kind == "merge":
                self._merge(tick)
                tick += 1
                continue
            live = sorted(self.files)
            if kind == "create" or (pending and kind == "edit"):
                batch, pending = pending[:per_commit], pending[per_commit:]
                for path in batch:
                    self.files[path] = self._new_file(path)
                self._commit(tick, batch, binary=(tick == 0))
            elif kind == "rename":
                old = rng.choice([p for p in live if not p.startswith("side/")])
                new = old.replace("mod_", f"mod_r{self.uid}_", 1)
                source = self.files.pop(old)
                source.path = new
                self.files[new] = source
                self._edit(source)
                self._commit(tick, [new], moved=[(old, new)])
            elif kind == "delete":
                victims = [p for p in live if p.endswith(".c") and not p.startswith("side/")]
                gone = rng.choice(victims)
                del self.files[gone]
                other = rng.choice(sorted(self.files))
                self._edit(self.files[other])
                self._commit(tick, [other], removed=[gone])
            else:
                touched = rng.sample(live, min(len(live), rng.randint(1, shape.files_per_commit)))
                for path in touched:
                    source = self.files[path]
                    before = source.render()
                    for _ in range(rng.randint(1, shape.edits_per_file)):
                        self._edit(source)
                    while source.render() == before:  # later edits undid earlier ones
                        self._edit(source)
                if kind == "binary":
                    self.binary = self.binary[:-64] + bytes(
                        rng.randrange(1, 256) for _ in range(64))
                self._commit(tick, sorted(touched), binary=(kind == "binary"))
            tick += 1
        self.stream.append(b"done\n")


def git_env(home: str) -> dict:
    """Environment that keeps git away from the host's and user's config."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("GIT_")}
    env.update(HOME=home, XDG_CONFIG_HOME=home, GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull, LC_ALL="C", TZ="UTC")
    return env


def generate(workload: str, seed: int, dest: str) -> dict:
    """Write the repository at DEST/<workload> and DEST/truth.json; return truth."""
    history = History(workload, seed)
    history.build()
    repo = os.path.join(dest, workload)
    home = os.path.join(dest, "home")
    os.makedirs(home, exist_ok=True)
    env = git_env(home)
    subprocess.run(["git", "init", "-q", "--bare", "--initial-branch=main", repo],
                   check=True, env=env)
    subprocess.run(["git", "-C", repo, "fast-import", "--quiet", "--done",
                    "--date-format=raw"],
                   input=b"".join(history.stream), check=True, env=env)
    tip, prev = subprocess.run(
        ["git", "-C", repo, "rev-parse", "main", "main~1"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout.split()
    truth = {
        "generator": GENERATOR_VERSION,
        "workload": workload,
        "seed": seed,
        "shape": asdict(history.shape),
        "repo": repo,
        "tip_commit": tip,
        "prev_commit": prev,
        "tip": history.states[-1],
        "prev": history.states[-2],
    }
    with open(os.path.join(dest, "truth.json"), "w", encoding="utf-8") as handle:
        json.dump(truth, handle, indent=2, sort_keys=True)
    return truth


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in SHAPES:
        sys.exit(f"usage: synth.py {{{'|'.join(SHAPES)}}} SEED DEST")
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2]), sys.argv[3]), indent=2))
