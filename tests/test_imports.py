"""No unused imports in the package, checked with the standard library,
no heavy standard-library module imported at start-up, no argparse
for a well-formed command line, one builder of blowup charts, one
home for chart facts, reference
oracles in ``tests/ref.py`` that import nothing from the package, and
no test module that imports from another.

A name that a module of ``src/equiblow`` imports at module level must be
read somewhere in that module, or be listed in its ``__all__`` (the
package ``__init__`` re-exports that way).  A name the module reads
counts even when other modules import it from there too: ``groebner``
imports ``divmod_multi`` for ``normal_form``, which is a use, not a bare
re-export, and the division loop's kernel ``_divide`` for Buchberger's
reductions and ``lift_certificate``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import equiblow

SRC = Path(equiblow.__file__).parent


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each name bound by an import at module level,
    including imports inside a module-level ``if`` or ``try``."""
    bound = {}

    def visit(body):
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
            elif isinstance(node, (ast.If, ast.Try)):
                for part in ("body", "orelse", "finalbody"):
                    visit(getattr(node, part, []))
                for handler in getattr(node, "handlers", []):
                    visit(handler.body)

    visit(tree.body)
    return bound


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module loads, annotations written as strings too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        for field in ("annotation", "returns"):
            text = getattr(node, field, None)
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                found |= _names_read(ast.parse(text.value, mode="eval"))
    return found


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _names_read(tree) | _exported(tree)
    unused = {nm: line for nm, line in _module_imports(tree).items() if nm not in used}
    assert unused == {}, f"{path.name} imports names it never reads: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from fractions import Fraction\nimport re\nfrom typing import Sequence\n"
        "def f(x: 'Sequence'):\n    return re.sub('a', 'b', x)\n"
    )
    read = _names_read(tree)
    assert {nm for nm in _module_imports(tree) if nm not in read} == {"Fraction"}


def test_the_cli_imports_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, which cost the
    # start-up of every command and which nothing in the package needs
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import equiblow.cli; "
        "print(sorted(set(sys.modules) - before & set(sys.argv[2:])))"
    )
    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize"]
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent), *heavy],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_a_well_formed_command_line_imports_no_argparse():
    # argparse, and gettext with it, is imported only to build the parser
    # for a line the table scan refuses: usage, help or an error
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import equiblow.cli; "
        "equiblow.cli.main(['crit', sys.argv[2], '--point', '-1,0']); "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent), str(SRC / "corpus" / "square.kb")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The innermost enclosing function or class of each call of
    ``name`` in the module, or "" for a call at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _package_callers(name: str) -> dict[str, list[str]]:
    """Module file -> ``_callers`` of ``name``, for each module of the
    package that calls it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        callers = _callers(ast.parse(path.read_text(), str(path)), name)
        if callers:
            found[path.name] = callers
    return found


def test_make_charts_is_the_one_chart_builder():
    # every chart of an atlas shares its columns and holds the atlas, so
    # only make_charts, which builds a whole atlas, constructs a chart
    tree = ast.parse(
        "class A:\n    def f(self):\n        return BlowupChart(1)\n"
        "BlowupChart(2)\nblowup.BlowupChart(3)\nchart_name(4)\n"
    )
    assert _callers(tree, "BlowupChart") == ["f", "", ""]
    assert _package_callers("BlowupChart") == {"blowup.py": ["make_charts"]}


def test_chart_facts_are_computed_only_by_tree_nodes():
    # a node computes each chart fact under its budget and keeps it, so
    # every reader (the tree, both commutation checks) reads a node, and
    # only desing builds one; blowup_local_model is the test-only
    # transport of one chart
    assert _package_callers("intrinsic_ideal") == {"desing.py": ["ideal"]}
    assert _package_callers("blowup_section") == {
        "blowup.py": ["blowup_local_model"],
        "desing.py": ["section"],
    }
    assert set(_package_callers("ChartOutcome")) == {"desing.py"}


def test_the_reference_oracles_import_nothing_from_the_package():
    # sympy, like any module outside the standard library, is imported
    # in the body of the oracle that uses it, so the others load without it
    path = Path(__file__).with_name("ref.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    anywhere, top = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots = {(node.module or "").split(".")[0]}
        else:
            continue
        anywhere |= roots
        if node in tree.body:
            top |= roots
    assert "equiblow" not in anywhere
    assert top <= set(sys.stdlib_module_names), top


def _imports_from_test_modules(tree: ast.Module) -> list[int]:
    """Lines of the imports, at any depth, that name a ``test_*`` module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0].startswith("test_") for m in modules):
            lines.append(node.lineno)
    return lines


def test_no_test_module_imports_from_another():
    # a shared oracle or fixture lives in a module without the test_
    # prefix (ref, scalars, chart_maps), so no test runs another's body
    tree = ast.parse("import ref\ndef f():\n    from test_x import y\n    import test_z.w\n")
    assert _imports_from_test_modules(tree) == [3, 4]
    found = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = _imports_from_test_modules(tree)
        if lines:
            found[path.name] = lines
    assert found == {}
