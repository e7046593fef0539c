"""Five micro-repositories with hand-computed expected values.

Every expected number below was worked out by hand (with a calculator
for the logarithms) before the production code ran against these repos:
authorship scores use 3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1+AC),
ownership is the developer's share of the file's change events, and the
timeline tuples are (year_month, generalist, specialist, mixed).

RepoBuilder writes them; it needs git and the standard library only, so
tools/contract.py builds the same repositories without pytest.
"""

import os
import subprocess


class RepoBuilder:
    """Builds small git repositories one commit at a time."""

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self.git("init", "-q", "-b", "main")
        self.git("config", "user.name", "Fixture User")
        self.git("config", "user.email", "fixture@example.com")
        self.git("config", "commit.gpgsign", "false")
        self.git("config", "core.autocrlf", "false")

    def git(self, *args, env=None):
        merged = dict(os.environ)
        if env:
            merged.update(env)
        proc = subprocess.run(
            ["git", "-C", self.path, *args],
            check=True,
            capture_output=True,
            text=True,
            env=merged,
        )
        return proc.stdout

    def write(self, rel, content):
        full = os.path.join(self.path, rel)
        parent = os.path.dirname(full)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(full, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)

    def write_bytes(self, rel, payload):
        with open(os.path.join(self.path, rel), "wb") as handle:
            handle.write(payload)

    def delete(self, rel):
        os.remove(os.path.join(self.path, rel))

    def move(self, old, new):
        os.rename(os.path.join(self.path, old), os.path.join(self.path, new))

    def commit(self, message, author, email, date, committer_date=None):
        self.git("add", "-A")
        env = {
            "GIT_AUTHOR_DATE": date,
            "GIT_COMMITTER_DATE": committer_date or date,
        }
        self.git(
            "commit", "-q", "--allow-empty", "-m", message,
            f"--author={author} <{email}>", env=env,
        )
        return self.git("rev-parse", "HEAD").strip()

    def checkout(self, branch, create=False):
        args = ["checkout", "-q"]
        if create:
            args.append("-b")
        args.append(branch)
        self.git(*args)

    def merge(self, branch, date):
        env = {"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
        self.git("merge", "-q", "--no-ff", "--no-edit", branch, env=env)
        return self.git("rev-parse", "HEAD").strip()

# ----------------------------------------------------------------------
# basic: one file, two developers, a variable block added then edited
# ----------------------------------------------------------------------

def build_basic(repo):
    shas = {}
    repo.write("f.c", "#include <stdio.h>\nint main(void) {\n  return 0;\n}\n")
    shas["c1"] = repo.commit("add main", "Alice", "alice@example.com",
                             "2020-01-15T10:00:00 +0000")
    repo.write("f.c", "#include <stdio.h>\n#ifdef FOO\nstatic int foo = 1;\n"
                      "#endif\nint main(void) {\n  return 0;\n}\n")
    shas["c2"] = repo.commit("feature block", "Alice", "alice@example.com",
                             "2020-02-10T10:00:00 +0000")
    repo.write("f.c", "#include <stdio.h>\n#ifdef FOO\nstatic int foo = 1;\n"
                      "#endif\nint main(void) {\n  return 1;\n}\n")
    shas["c3"] = repo.commit("tweak return", "Bob", "bob@example.com",
                             "2020-03-05T10:00:00 +0000")
    repo.write("f.c", "#include <stdio.h>\n#ifdef FOO\nstatic int foo = 2;\n"
                      "#endif\nint main(void) {\n  return 1;\n}\n")
    shas["c4"] = repo.commit("bump foo", "Alice", "alice@example.com",
                             "2020-04-20T10:00:00 +0000")
    return shas


BASIC = {
    "alice": "alice@example.com",
    "bob": "bob@example.com",
    "fa_dl_ac": {"alice@example.com": (1, 3, 1), "bob@example.com": (0, 1, 3)},
    "doa_abs": {
        "alice@example.com": 4.660499755040258,
        "bob@example.com": 3.0119995100805155,
    },
    "doa_abs_4dp": {"alice@example.com": 4.6605, "bob@example.com": 3.0120},
    "doa_norm": {"alice@example.com": 1.0, "bob@example.com": 0.6462825165526691},
    "ownership": {"alice@example.com": 0.75, "bob@example.com": 0.25},
    "authors": {"alice@example.com"},
    "majors": {"alice@example.com", "bob@example.com"},
    "alice_variable_months": {"2020-02", "2020-04"},
    "alice_mandatory_months": {"2020-01"},
    "bob_mandatory_months": {"2020-03"},
    "timeline": [
        ("2020-01", 1, 0, 0),
        ("2020-02", 0, 0, 1),
        ("2020-03", 1, 0, 1),
        ("2020-04", 1, 0, 1),
    ],
    "summary": (50.0, 0.0, 50.0),
    "doa_eval": {"precision": 1.0, "recall": 1.0, "dev_pct": 50.0},
    "ownership_eval": {"precision": 0.5, "recall": 1.0, "dev_pct": 100.0},
    "report": {"files": 1, "blocks": 1, "macros": 1, "commits": 4, "devs": 2},
}


# ----------------------------------------------------------------------
# rename: lineage follows a rename, then a deletion-only variable change
# ----------------------------------------------------------------------

_RENAME_V1 = ("int add(int a, int b) {\n  return a + b;\n}\n"
              "int sub(int a, int b) {\n  return a - b;\n}\n")
_RENAME_V2 = ("#if defined(A) && !defined(B)\nint mode = 1;\n#endif\n"
              + _RENAME_V1)
_RENAME_V3 = ("#if defined(A) && !defined(B)\nint mode = 1;\n#endif\n"
              "int add(int a, int b) {\n  return (a + b);\n}\n"
              "int sub(int a, int b) {\n  return a - b;\n}\n")
_RENAME_V4 = ("int add(int a, int b) {\n  return (a + b);\n}\n"
              "int sub(int a, int b) {\n  return a - b;\n}\n")
_RENAME_V5 = ("int add(int a, int b) {\n  return (a + b);\n}\n"
              "int sub(int a, int b) {\n  return (a - b);\n}\n")


def build_rename(repo):
    shas = {}
    repo.write("a.c", _RENAME_V1)
    shas["c1"] = repo.commit("math helpers", "Alice", "alice@example.com",
                             "2021-01-10T09:00:00 +0000")
    repo.write("a.c", _RENAME_V2)
    shas["c2"] = repo.commit("optional mode", "Bob", "bob@example.com",
                             "2021-02-15T09:00:00 +0000")
    repo.move("a.c", "b.c")
    repo.write("b.c", _RENAME_V3)
    shas["c3"] = repo.commit("rename and parenthesize", "Carol",
                             "carol@example.com", "2021-03-20T09:00:00 +0000")
    repo.write("b.c", _RENAME_V4)
    shas["c4"] = repo.commit("drop mode block", "Bob", "bob@example.com",
                             "2021-04-05T09:00:00 +0000")
    repo.write("b.c", _RENAME_V5)
    shas["c5"] = repo.commit("parenthesize sub", "Alice", "alice@example.com",
                             "2021-05-12T09:00:00 +0000")
    return shas


RENAME = {
    "fa_dl_ac": {
        "alice@example.com": (1, 2, 3),
        "bob@example.com": (0, 2, 3),
        "carol@example.com": (0, 1, 4),
    },
    "doa_abs": {
        "alice@example.com": 4.2739995100805155,
        "bob@example.com": 3.175999510080515,
        "carol@example.com": 2.940370430108654,
    },
    "doa_norm": {
        "alice@example.com": 1.0,
        "bob@example.com": 0.7430977712069705,
        "carol@example.com": 0.6879669553479341,
    },
    "ownership": {
        "alice@example.com": 0.4,
        "bob@example.com": 0.4,
        "carol@example.com": 0.2,
    },
    "authors": {"alice@example.com"},
    "majors": {"alice@example.com", "bob@example.com", "carol@example.com"},
    "bob_variable_months": {"2021-02", "2021-04"},
    "expression": "defined(A) && !defined(B)",
    "timeline": [
        ("2021-01", 1, 0, 0),
        ("2021-02", 1, 1, 0),
        ("2021-03", 2, 1, 0),
        ("2021-04", 2, 1, 0),
        ("2021-05", 2, 1, 0),
    ],
    "summary": (200.0 / 3.0, 100.0 / 3.0, 0.0),
    "doa_eval": {"precision": 0.0, "recall": 0.0, "dev_pct": 100.0 / 3.0},
    "ownership_eval": {"precision": 1.0 / 3.0, "recall": 1.0, "dev_pct": 100.0},
    "report": {"files": 1, "blocks": 0, "macros": 0, "commits": 5, "devs": 3},
}


# ----------------------------------------------------------------------
# guard: an include-guarded header plus an implementation with #ifdef
# ----------------------------------------------------------------------

_GUARD_H1 = "#ifndef H_H\n#define H_H\nint helper(int x);\n#endif\n"
_GUARD_H2 = ("#ifndef H_H\n#define H_H\nint helper(int x);\n"
             "int helper2(int x);\n#endif\n")
_GUARD_IMPL = ('#include "h.h"\nint helper(int x) {\n#ifdef DEBUG\n'
               "  x = x + 1;\n#endif\n  return x;\n}\n")


def build_guard(repo):
    shas = {}
    repo.write("h.h", _GUARD_H1)
    shas["c1"] = repo.commit("guarded header", "Dora", "dora@example.com",
                             "2022-01-08T12:00:00 +0000")
    repo.write("impl.c", _GUARD_IMPL)
    shas["c2"] = repo.commit("implementation", "Erin", "erin@example.com",
                             "2022-02-14T12:00:00 +0000")
    repo.write("h.h", _GUARD_H2)
    shas["c3"] = repo.commit("second prototype", "Dora", "dora@example.com",
                             "2022-03-21T12:00:00 +0000")
    return shas


GUARD = {
    "header_doa": {"dora@example.com": 4.719},
    "impl_doa": {"erin@example.com": 4.555},
    "timeline": [
        ("2022-01", 1, 0, 0),
        ("2022-02", 1, 0, 1),
        ("2022-03", 1, 0, 1),
    ],
    "summary": (50.0, 0.0, 50.0),
    "doa_eval": {"precision": 1.0, "recall": 1.0, "dev_pct": 50.0},
    "ownership_eval": {"precision": 1.0, "recall": 1.0, "dev_pct": 50.0},
    "report": {"files": 2, "blocks": 1, "macros": 1, "commits": 3, "devs": 2},
    # counting guards as variability flips dora to specialist
    "guards_counted": {
        "summary": (0.0, 50.0, 50.0),
        "blocks": 2,
        "macros": 2,
    },
}


# ----------------------------------------------------------------------
# multifile: an #else branch, a late #ifndef block, three developers
# ----------------------------------------------------------------------

_X1 = ("#ifdef X\nint mode = 1;\n#else\nint mode = 0;\n#endif\n"
       "int x_main(void) {\n  return mode;\n}\n")
_X2 = ("#ifdef X\nint mode = 1;\n#else\nint mode = -1;\n#endif\n"
       "int x_main(void) {\n  return mode;\n}\n")
_X3 = ("#ifdef X\nint mode = 1;\n#else\nint mode = -1;\n#endif\n"
       "int x_main(void) {\n  return mode + 0;\n}\n")
_Y1 = "int y_helper(void) {\n  return 2;\n}\n"
_Y2 = "int y_helper(void) {\n  return 3;\n}\n"
_Y3 = "#ifndef Y\nint y_default = 1;\n#endif\n" + _Y2


def build_multifile(repo):
    shas = {}
    repo.write("x.c", _X1)
    shas["c1"] = repo.commit("mode switch", "Frank", "frank@example.com",
                             "2023-01-05T08:00:00 +0000")
    repo.write("y.c", _Y1)
    shas["c2"] = repo.commit("helper", "Gina", "gina@example.com",
                             "2023-02-12T08:00:00 +0000")
    repo.write("x.c", _X2)
    shas["c3"] = repo.commit("negative fallback", "Henry", "henry@example.com",
                             "2023-03-18T08:00:00 +0000")
    repo.write("y.c", _Y2)
    shas["c4"] = repo.commit("bump helper", "Gina", "gina@example.com",
                             "2023-04-02T08:00:00 +0000")
    repo.write("y.c", _Y3)
    shas["c5"] = repo.commit("default block", "Frank", "frank@example.com",
                             "2023-05-25T08:00:00 +0000")
    repo.write("x.c", _X3)
    shas["c6"] = repo.commit("noop arithmetic", "Henry", "henry@example.com",
                             "2023-06-30T08:00:00 +0000")
    return shas


MULTIFILE = {
    "x_fa_dl_ac": {"frank@example.com": (1, 1, 2), "henry@example.com": (0, 2, 1)},
    "y_fa_dl_ac": {"gina@example.com": (1, 2, 1), "frank@example.com": (0, 1, 2)},
    "x_doa": {
        "frank@example.com": 4.202345455337537,
        "henry@example.com": 3.3984997550402576,
    },
    "x_norm": {"frank@example.com": 1.0, "henry@example.com": 0.8087149881320945},
    "y_doa": {
        "gina@example.com": 4.496499755040258,
        "frank@example.com": 3.104345455337537,
    },
    "y_norm": {"gina@example.com": 1.0, "frank@example.com": 0.6903915544213665},
    "x_authors": {"frank@example.com", "henry@example.com"},
    "y_authors": {"gina@example.com"},
    "timeline": [
        ("2023-01", 0, 0, 1),
        ("2023-02", 1, 0, 1),
        ("2023-03", 1, 1, 1),
        ("2023-04", 1, 1, 1),
        ("2023-05", 1, 1, 1),
        ("2023-06", 1, 0, 2),
    ],
    "summary": (100.0 / 3.0, 0.0, 200.0 / 3.0),
    "doa_micro": {"precision": 2.0 / 3.0, "recall": 2.0 / 3.0, "dev_pct": 100.0},
    "doa_macro": {"precision": 0.5, "recall": 0.5},
    "ownership_micro": {"precision": 0.75, "recall": 1.0, "dev_pct": 100.0},
    "ownership_macro": {"precision": 0.75, "recall": 1.0},
    "report": {"files": 2, "blocks": 2, "macros": 2, "commits": 6, "devs": 3},
}


# ----------------------------------------------------------------------
# identity: author spellings fold together, a file dies, a clock lies
# ----------------------------------------------------------------------

_M1 = ("#include <stdlib.h>\n#ifdef OPT\nint opt = 1;\n#endif\n"
       "int run(void) {\n  return 0;\n}\n")
_M2 = ("#include <stdlib.h>\n#ifdef OPT\nint opt = 1;\n#endif\n"
       "int run(void) {\n  return 4;\n}\n")
_TMP = "int scratch(void) {\n  return 9;\n}\n"


def build_identity(repo):
    shas = {}
    repo.write("m.c", _M1)
    shas["c1"] = repo.commit("optional runner", "Ivy", "IVY@x.COM",
                             "2024-01-10T11:00:00 +0000")
    repo.write("tmp.c", _TMP)
    shas["c2"] = repo.commit("scratch file", "Jack", "jack@y.com",
                             "2024-02-14T11:00:00 +0000")
    repo.delete("tmp.c")
    shas["c3"] = repo.commit("drop scratch", "Jack", "jack@y.com",
                             "2024-03-10T11:00:00 +0000")
    repo.write("m.c", _M2)
    # author clock far in the future; the committer clock is sane
    shas["c4"] = repo.commit("new exit code", "ivy smith", "ivy@X.com",
                             "2088-01-01T00:00:00 +0000",
                             committer_date="2024-04-20T09:00:00 +0000")
    return shas


IDENTITY = {
    "ivy_key": "ivy@x.com",
    "jack_key": "jack@y.com",
    "m_fa_dl_ac": {"ivy@x.com": (1, 2, 0)},
    "m_doa": {"ivy@x.com": 4.719},
    "ivy_months": {"variable": {"2024-01"}, "mandatory": {"2024-01", "2024-04"}},
    "timeline": [
        ("2024-01", 0, 0, 1),
        ("2024-02", 1, 0, 1),
        ("2024-03", 1, 0, 1),
        ("2024-04", 1, 0, 1),
    ],
    "summary": (50.0, 0.0, 50.0),
    "doa_eval": {"precision": 1.0, "recall": 1.0, "dev_pct": 50.0},
    "ownership_eval": {"precision": 1.0, "recall": 1.0, "dev_pct": 50.0},
    "report": {"files": 1, "blocks": 1, "macros": 1, "commits": 4, "devs": 2},
}
