"""The certifiers stay in `oracle`; the runtime modules neither define nor import them.

The runtime also stays off `dataclasses`, which loads `inspect` and
generates code for each class at import: every CLI call would pay for it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import classrecon
from classrecon import oracle

PACKAGE = Path(classrecon.__file__).parent
RUNTIME = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "oracle"]
CERTIFIERS = {"ClassGroupModel", "sublattice_columns", "lattice_quotient", "class_group_model"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _oracle_imports(tree: ast.Module) -> list[str | None]:
    """The enclosing function of every import of the oracle module (None at top level)."""
    found: list[str | None] = []

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                module = child.module or ""
                names = {a.name for a in child.names}
                if module.split(".")[-1] == "oracle" or (
                    module in ("", "classrecon") and "oracle" in names
                ):
                    found.append(func)
            elif isinstance(child, ast.Import):
                if any(a.name == "classrecon.oracle" for a in child.names):
                    found.append(func)
            visit(child, func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_only_oracle_defines_the_certifiers(path):
    defined = {
        node.name
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert not defined & CERTIFIERS


def _imported_modules(tree: ast.Module) -> set[str]:
    """The absolute modules a tree imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module or "")
    return found


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_no_runtime_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(_parse(path))


def test_scan_finds_dataclasses_imports():
    tree = ast.parse(
        "import dataclasses\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
        "from .dataclasses import x\n"
    )
    assert _imported_modules(tree) == {"dataclasses"}


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    code = (
        "import classrecon.cli, sys; "
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_no_runtime_module_imports_oracle(path):
    imports = _oracle_imports(_parse(path))
    if path.stem == "__init__":
        assert imports == ["__getattr__"]
    else:
        assert imports == []


def test_scan_finds_imports_inside_functions():
    tree = ast.parse(
        "from .oracle import x\n"
        "def f():\n"
        "    from . import oracle\n"
        "    import classrecon.oracle\n"
        "    from classrecon.oracle import y\n"
    )
    assert _oracle_imports(tree) == [None, "f", "f", "f"]


def test_top_level_forwards_the_two_certifiers():
    assert classrecon.lattice_quotient is oracle.lattice_quotient
    assert classrecon.class_group_model is oracle.class_group_model
    # the import the benchmark's ground truth makes
    from classrecon import (  # noqa: F401
        QuadraticSpec,
        class_group_model,
        enumerate_prime_ideals,
        lattice_quotient,
    )

    with pytest.raises(AttributeError, match="no_such_name"):
        classrecon.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from classrecon import sublattice_columns  # noqa: F401


def test_package_import_leaves_oracle_unloaded():
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    code = "import classrecon, sys; assert 'classrecon.oracle' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
