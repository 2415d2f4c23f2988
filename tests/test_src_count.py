"""tools/src_count.py, which every size claim about src/ quotes, on two
tiny modules written for the test."""

from pathlib import Path

from test_bench_contract import _load

SRC_COUNT = _load("src_count", Path(__file__).resolve().parents[1] / "tools")

ALPHA = '''"""A module."""
import os
from sys import path as syspath

CONST = 1
_HIDDEN = 2
LIMIT: int = 3
_TYPED: int = 4
LEFT, (RIGHT, _SKIP) = 4, (5, 6)


def public():
    def nested():
        pass

    INNER = 1
    return nested


def _private():
    pass


class Thing:
    attr = 1

    def method(self):
        pass
'''

BETA = "ANSWER = 42\nANSWER = 43"  # one name bound twice; no final newline


def _run(tmp_path, capsys):
    (tmp_path / "alpha.py").write_text(ALPHA)
    (tmp_path / "beta.py").write_text(BETA)
    (tmp_path / "notes.txt").write_text("NOT = 1\n")
    SRC_COUNT.main([str(tmp_path)])
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        name, n_lines, _, n_names, *_ = line.split()
        rows[name] = (int(n_lines), int(n_names))
    return rows


def test_counts_newlines_and_public_names(tmp_path, capsys):
    rows = _run(tmp_path, capsys)
    assert list(rows) == ["alpha.py", "beta.py", "total"]
    assert rows["alpha.py"] == (ALPHA.count("\n"), 6)
    assert rows["beta.py"] == (1, 1)
    assert rows["total"] == (ALPHA.count("\n") + 1, 7)


def test_public_names_skip_private_imports_and_nested_defs():
    import ast

    names = SRC_COUNT.public_names(ast.parse(ALPHA))
    # Assign, AnnAssign and both names of the tuple target; no import,
    # no _name, nothing bound inside a function or class body
    assert names == ["CONST", "LEFT", "LIMIT", "RIGHT", "Thing", "public"]


def test_counts_public_members_of_top_level_classes(tmp_path, capsys):
    import ast

    (tmp_path / "alpha.py").write_text(ALPHA)
    (tmp_path / "beta.py").write_text(BETA)
    SRC_COUNT.main([str(tmp_path)])
    members = {line.split()[0]: int(line.split()[6]) for line in capsys.readouterr().out.splitlines()}
    assert members == {"alpha.py": 2, "beta.py": 0, "total": 2}
    # a class-level name and a method; nothing from the module or a function body
    assert SRC_COUNT.public_members(ast.parse(ALPHA)) == ["Thing.attr", "Thing.method"]
