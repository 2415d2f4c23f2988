"""Count the source lines and public module-level names of steinerlab.

    python3 tools/src_count.py [SRC_DIR]

SRC_DIR defaults to src/steinerlab next to this script.  For every
module it prints the number of newlines and the number of public
module-level names: top-level functions and classes, and names bound by
a top-level assignment, that do not start with an underscore.  Imports
are not counted.  The last line is the total over all modules.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted({n for n in names if not n.startswith("_")})


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else ROOT / "src" / "steinerlab"
    lines = names = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        n_lines, n_names = text.count("\n"), len(public_names(ast.parse(text)))
        print(f"{path.name:16} {n_lines:5} lines {n_names:4} public names")
        lines, names = lines + n_lines, names + n_names
    print(f"{'total':16} {lines:5} lines {names:4} public names")


if __name__ == "__main__":
    main(sys.argv[1:])
