"""Count the source lines, public module-level names and public class
members of steinerlab.

    python3 tools/src_count.py [SRC_DIR]

SRC_DIR defaults to src/steinerlab next to this script.  For every
module it prints the number of newlines, the number of public
module-level names (top-level functions and classes, and names bound by
a top-level assignment) and the number of public members of its
top-level classes (methods, properties, nested classes and names bound
in the class body, dataclass fields included).  A name is public when it
does not start with an underscore; imports are not counted.  The last
line is the total over all modules.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def public_names(scope: ast.Module | ast.ClassDef) -> list[str]:
    """The public names the statements of a module or class body bind at
    their own level."""
    names = []
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted({n for n in names if not n.startswith("_")})


def public_members(tree: ast.Module) -> list[str]:
    """Class.member for the public members of each top-level class."""
    return [
        f"{node.name}.{member}"
        for node in tree.body if isinstance(node, ast.ClassDef)
        for member in public_names(node)
    ]


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else ROOT / "src" / "steinerlab"
    lines = names = members = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        n_lines, n_names, n_members = text.count("\n"), len(public_names(tree)), len(public_members(tree))
        print(f"{path.name:16} {n_lines:5} lines {n_names:4} public names {n_members:4} public members")
        lines, names, members = lines + n_lines, names + n_names, members + n_members
    print(f"{'total':16} {lines:5} lines {names:4} public names {members:4} public members")


if __name__ == "__main__":
    main(sys.argv[1:])
