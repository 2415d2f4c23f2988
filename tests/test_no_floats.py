"""No floating point in the library source: float64 carries exact integers
only inside linalg.mulmod_sub, and no module writes a float constant or
names float."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "steinerlab"
FLOAT64_ALLOWED = {("linalg.py", "mulmod_sub")}


def float_uses(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) for each float constant, each use of the name float, and
    each float64 outside the (module, function) pairs in FLOAT64_ALLOWED."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, float):
                found.append((child.lineno, f"float constant {child.value!r}"))
            elif isinstance(child, ast.Name) and child.id == "float":
                found.append((child.lineno, "float"))
            elif "float64" in (getattr(child, "id", None), getattr(child, "attr", None)):
                if (module, func) not in FLOAT64_ALLOWED:
                    found.append((child.lineno, "float64"))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if defines else func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_floats(path):
    assert float_uses(path.read_text(), path.name) == []


def test_float_uses_finds_each_kind():
    source = (
        "import numpy as np\n"
        "INF = float('inf')\n"
        "def mulmod_sub(a):\n"
        "    return a.astype(np.float64) * 0.5\n"
        "def other(a) -> float64:\n"
        "    return a.astype(np.float64)\n"
    )
    assert sorted(float_uses(source, "linalg.py")) == [
        (2, "float"), (4, "float constant 0.5"), (5, "float64"), (6, "float64"),
    ]
    assert (4, "float64") in float_uses(source, "slopes.py")
