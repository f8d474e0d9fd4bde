"""Every public name is used: by the package outside its own definition,
or by another test file.

An exported name that only its own definition mentions is API that
nothing calls or tests; deleting a helper should delete its export too.
"""

import ast
import warnings
from pathlib import Path

import pytest

import equiblow

SRC = Path(equiblow.__file__).parent
TESTS = Path(__file__).parent


def _names_read(path: Path) -> set[str]:
    """Names and attributes the file reads, except where a function or
    class reads its own name inside its definition."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return found


def test_every_exported_name_is_used_outside_its_definition():
    used = set()
    # the package's __init__ only re-exports, so it counts as no use
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_read(path)
    for path in TESTS.glob("*.py"):
        if path.name != Path(__file__).name:
            used |= _names_read(path)
    public = [nm for nm in equiblow.__all__ if not nm.startswith("__")]
    assert public
    assert [nm for nm in public if nm not in used] == []


def test_the_distribution_reads_its_version_from_the_package():
    # pyproject.toml names no version of its own: setuptools reads
    # equiblow.__version__, so the package holds the one version string
    pytest.importorskip("setuptools")
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = TESTS.parent / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is still beta
        raw = read_configuration(pyproject, expand=False)["project"]
        expanded = read_configuration(pyproject, expand=True)["project"]
    assert "version" not in raw and raw["dynamic"] == ["version"]
    assert expanded["version"] == equiblow.__version__
