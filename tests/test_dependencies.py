"""Every package the test suite imports is declared in pyproject.toml.

The test files are parsed, not imported: each import's top-level name must be
the standard library's, ``uwbnav``'s, a test module's of this directory, or a
requirement of the project or one of its extras.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def imported_names(path) -> set:
    """The top-level names of every absolute import in the file, nested ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def declared_names(project: dict) -> set:
    """The distribution names of the project's requirements and every extra's, normalised as import names."""
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_") for req in requirements}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_test_import_is_declared_in_pyproject():
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    allowed = declared_names(project) | {project["name"]} | {p.stem for p in TESTS.glob("*.py")}
    undeclared = {
        path.name: sorted(name for name in imported_names(path) if name not in sys.stdlib_module_names | allowed)
        for path in sorted(TESTS.glob("*.py"))
    }
    assert {name: missing for name, missing in undeclared.items() if missing} == {}
