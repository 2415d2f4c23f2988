"""No module of the library reads the environment: run parameters come
from the command line alone, so the invocation a certificate records
reproduces it byte for byte in any shell."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "steinerlab"
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for each os.environ / os.getenv (or their bytes forms),
    whether reached as an attribute, a bare name or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_READERS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT_READERS]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []


def test_environment_reads_finds_each_kind():
    source = (
        "import os\n"
        "from os import environ, getenv as g\n"
        "PRIME = os.environ.get('PRIME')\n"
        "SEED = os.getenv('SEED')\n"
        "TRIALS = environ['TRIALS']\n"
        "DEVNULL = os.devnull\n"
    )
    assert sorted(environment_reads(source)) == [
        (2, "environ"), (2, "getenv"), (3, "environ"), (4, "getenv"), (5, "environ"),
    ]
