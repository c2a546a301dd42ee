"""Package-wide source checks."""

import ast
import inspect
from pathlib import Path

import conelight

PACKAGE = Path(conelight.__file__).parent


def _nodes():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a check that carries proof
    # weight must raise explicitly
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


ENVIRONMENT_ACCESS = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _reads_environment(node) -> bool:
    if isinstance(node, ast.Attribute):  # os.environ, os.getenv(...)
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT_ACCESS
        )
    if isinstance(node, ast.ImportFrom):  # from os import environ
        return node.module == "os" and any(a.name in ENVIRONMENT_ACCESS for a in node.names)
    return False


def test_package_reads_no_environment_variable():
    # identical flags must give identical output, whatever the environment
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _reads_environment(node)]
    assert found == []


def test_all_lists_every_public_name():
    # the imports and __all__ in __init__ are kept by hand and must agree
    public = [
        name
        for name, value in vars(conelight).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(conelight.__all__) == sorted(public)
