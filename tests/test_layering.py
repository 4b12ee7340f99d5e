"""The layering of the package, pinned by its import graph.

The certifiers stay in `oracle`; the runtime modules neither define nor
import them.  The blind consumer (`reconstruct`, with the shared `abgroup`
and `errors`) imports no producer module (`fields`, `lattice`, `oracle`),
so the blinding rule holds by construction.  No module imports `cli`, and
each subcommand loads exactly the modules it runs: nothing is compiled that
a call does not use.  The modules that each cold command loads stay within
a budget of AST nodes, so code it does not run does not creep back into
them, and the README's table states each budget.

Every public top-level function and class of a runtime module, and every
public method of its classes, is read by runtime code or by the benchmark
under `perfbench/` (a handler counts as read by the row of `cli.COMMANDS`
that names it), and so is every private top-level function, outside its
own body: code that only tests call is deleted.  For the same reason some
runtime or benchmark call passes every defaulted parameter of a runtime
function: a default that only tests override is a knob no run turns.

The runtime also stays off `dataclasses`, which loads `inspect` and
generates code for each class at import: every CLI call would pay for it.
A record with no checks is a `typing.NamedTuple`: no runtime class lists
`__slots__` beside an `__init__` that only assigns fields of `self`, while
a `SlotRecord` subclass whose `__init__` checks its input stays allowed.
No source file imports `argparse` or `gettext` either.
And only `codec._write_output` opens a file for writing: it overwrites in
place, where `open(path, "w")` would truncate to zero and make the
filesystem flush the file on close.  No runtime module calls `json.dump`
or `json.dumps`, which run the pure-Python encoder whenever they indent:
every output is laid out from fixed templates.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import classrecon
from classrecon import cli, oracle

PACKAGE = Path(classrecon.__file__).parent
RUNTIME = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "oracle"]
PERFBENCH = Path(__file__).parent.parent / "perfbench"
CERTIFIERS = {"ClassGroupModel", "sublattice_columns", "lattice_quotient", "class_group_model"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _enclosing_functions(tree: ast.Module, matches) -> list[str | None]:
    """The enclosing function of every node that `matches` (None at top level)."""
    found: list[str | None] = []

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append(func)
            visit(child, func)

    visit(tree, None)
    return found


def _imports_oracle(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        names = {a.name for a in node.names}
        return module.split(".")[-1] == "oracle" or (
            module in ("", "classrecon") and "oracle" in names
        )
    if isinstance(node, ast.Import):
        return any(a.name == "classrecon.oracle" for a in node.names)
    return False


def _oracle_imports(tree: ast.Module) -> list[str | None]:
    """The enclosing function of every import of the oracle module."""
    return _enclosing_functions(tree, _imports_oracle)


def _opens_for_writing(node: ast.AST) -> bool:
    """Whether a call may open a file for writing.

    `os.open`, `write_text` and `write_bytes` always count.  An `open` call
    counts when its mode is not a constant or holds "w", "a", "x" or "+";
    the mode is the second argument of `open(...)` and `io.open(...)`, the
    first of a method such as `Path.open(...)`, or the `mode` keyword.
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    owner = getattr(func, "value", None)
    owner = owner.id if isinstance(owner, ast.Name) else None
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes") or (name == "open" and owner == "os"):
        return True
    if name != "open":
        return False
    skip = 1 if isinstance(func, ast.Name) or owner in ("io", "builtins", "codecs") else 0
    modes = node.args[skip : skip + 1] + [k.value for k in node.keywords if k.arg == "mode"]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str))
        or bool(set(m.value) & set("wax+"))
        for m in modes
    )


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_only_oracle_defines_the_certifiers(path):
    defined = {
        node.name
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert not defined & CERTIFIERS


def _public_definitions(tree: ast.Module) -> set[str]:
    """The public functions and classes a module defines at its top level,
    and the public methods of its classes, as `Class.method`."""
    found = set()
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found |= {
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            }
    return found


def _unused_definitions(tree: ast.Module, used: set[str]) -> set[str]:
    """The public definitions of a module that `used` does not name; a
    method counts as used when any attribute of its name is read."""
    return {name for name in _public_definitions(tree) if name.rpartition(".")[2] not in used}


def _private_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """The private functions a module defines at its top level; dunders do not count."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a tree reads, bare or as an attribute, outside the node `skip`.

    Docstrings do not count.
    """
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unread_private_functions(tree: ast.Module, elsewhere: set[str]) -> set[str]:
    """The private functions of a module that neither `elsewhere` nor the
    module outside their own bodies reads."""
    return {
        name
        for name, node in _private_functions(tree).items()
        if name not in elsewhere and name not in _references(tree, skip=node)
    }


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_runtime_defines_nothing_only_tests_call(path):
    # `cli.main` imports each handler by the module and name its row gives
    used = {name for _, name, *_ in cli.COMMANDS.values()}
    for user in [*RUNTIME, *sorted(PERFBENCH.rglob("*.py"))]:
        used |= _references(_parse(user))
    unused = _unused_definitions(_parse(path), used)
    assert unused == set()


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_runtime_reads_every_private_function(path):
    elsewhere = set()
    for user in [*RUNTIME, *sorted(PERFBENCH.rglob("*.py"))]:
        if user != path:
            elsewhere |= _references(_parse(user))
    assert _unread_private_functions(_parse(path), elsewhere) == set()


def test_scan_finds_unreferenced_definitions():
    tree = ast.parse(
        "import m\n"
        "from m import imported_only\n"
        "def called(): pass\n"
        "def mentioned():\n"
        "    '''Not called: mentioned() appears only here.'''\n"
        "async def _private(): pass\n"
        "class Read:\n"
        "    def method(self): pass\n"
        "    @classmethod\n"
        "    def build(cls): pass\n"
        "    def _helper(self): pass\n"
        "class _Hidden:\n"
        "    def shown(self): pass\n"
        "def f():\n"
        "    return called() + Read.attr + m.attribute + Read.build()\n"
    )
    assert _public_definitions(tree) == {
        "called", "mentioned", "Read", "Read.method", "Read.build", "_Hidden.shown", "f"
    }
    assert _unused_definitions(tree, _references(tree)) == {
        "mentioned", "Read.method", "_Hidden.shown", "f"
    }
    assert {"m", "attribute", "attr"} <= _references(tree)
    assert "imported_only" not in _references(tree)


def test_scan_finds_unread_private_functions():
    tree = ast.parse(
        "def _called(): pass\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "def _read_elsewhere(): pass\n"
        "def __getattr__(name): pass\n"
        "def _outer():\n"
        "    def _nested(): pass\n"
        "    return _nested()\n"
        "class _Private:\n"
        "    def _method(self): pass\n"
        "def public():\n"
        "    return _called()\n"
    )
    assert set(_private_functions(tree)) == {
        "_called", "_recursive", "_read_elsewhere", "_outer"
    }
    assert _unread_private_functions(tree, {"_read_elsewhere"}) == {"_recursive", "_outer"}


def _defaulted_parameters(tree: ast.Module) -> set[tuple[str, str, int | None]]:
    """Every parameter with a default of a function that a tree defines, at
    any depth, as (the name a call uses, parameter, its index among a call's
    positional arguments, or None when keyword-only).  A method's first
    parameter is not counted, and `__init__` is called by its class's name."""
    found = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = (args.posonlyargs + args.args)[1 if owner else 0 :]
                name = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.update(
                    (name, a.arg, i) for i, a in enumerate(positional) if i >= first
                )
                found.update(
                    (name, a.arg, None)
                    for a, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )
            visit(child, None)

    visit(tree, None)
    return found


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether a call may pass the parameter `param`, at `index` if positional."""
    return (
        any(k.arg in (param, None) for k in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (index is not None and len(call.args) > index)
    )


def _unpassed_defaults(tree: ast.Module, callers: list[ast.Module]) -> set[str]:
    """The defaulted parameters of `tree`'s functions, as `function(parameter)`,
    that no call in `callers` to a function of that name may pass."""
    calls: dict[str, list[ast.Call]] = {}
    for caller in callers:
        for node in ast.walk(caller):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    return {
        f"{name}({param})"
        for name, param, index in _defaulted_parameters(tree)
        if not any(_passes(call, param, index) for call in calls.get(name, []))
    }


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_runtime_passes_every_defaulted_parameter(path):
    callers = [_parse(user) for user in [*RUNTIME, *sorted(PERFBENCH.rglob("*.py"))]]
    assert _unpassed_defaults(_parse(path), callers) == set()


def test_scan_finds_unpassed_defaults():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(a=1): pass\n"
        "def h(a=1, b=2): pass\n"
        "def unused(x=0): pass\n"
        "class K:\n"
        "    def __init__(self, a, b=None): pass\n"
        "    def m(self, a=0, b=0): pass\n"
        "def caller(args, kw, k):\n"
        "    def inner(y=1): pass\n"
        "    f(0, 1, c=2)\n"
        "    g(**kw)\n"
        "    h(*args)\n"
        "    K(0)\n"
        "    k.m(1)\n"
    )
    assert _defaulted_parameters(tree) == {
        ("f", "b", 1), ("f", "c", None), ("f", "d", None), ("g", "a", 0), ("h", "a", 0),
        ("h", "b", 1), ("unused", "x", 0), ("K", "b", 1), ("m", "a", 0), ("m", "b", 1),
        ("inner", "y", 0),
    }
    assert _unpassed_defaults(tree, [tree]) == {
        "f(d)", "unused(x)", "K(b)", "m(b)", "inner(y)"
    }


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
def test_only_the_output_writer_opens_files_for_writing(path):
    writers = _enclosing_functions(_parse(path), _opens_for_writing)
    assert writers == (["_write_output"] if path.stem == "codec" else [])


def test_the_output_writer_opens_without_truncating():
    writer = next(
        node
        for node in ast.walk(_parse(PACKAGE / "codec.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "_write_output"
    )
    [call] = [ast.unparse(n) for n in ast.walk(writer) if _opens_for_writing(n)]
    assert call.startswith("os.open(") and "O_TRUNC" not in call


def test_scan_finds_opens_for_writing():
    tree = ast.parse(
        "open(p)\n"
        "open(p, encoding='utf-8')\n"
        "open(p, 'rb')\n"
        "Path(p).open()\n"
        "def f():\n"
        "    open(p, 'w')\n"
        "    io.open(p, mode='ab')\n"
        "    Path(p).open('r+')\n"
        "    open(p, mode)\n"
        "    os.open(p, os.O_RDONLY)\n"
        "    Path(p).write_text('')\n"
        "    with codecs.open(p, 'x') as fh:\n"
        "        pass\n"
    )
    assert _enclosing_functions(tree, _opens_for_writing) == ["f"] * 7


def _assigned(stmt: ast.stmt) -> list[ast.expr]:
    """The targets a plain or annotated assignment writes, tuples unpacked;
    none for any other statement."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]


def _assigns_only_self_fields(stmt: ast.stmt) -> bool:
    targets = _assigned(stmt)
    return bool(targets) and all(
        isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
        for t in targets
    )


def _unchecked_slot_classes(tree: ast.Module) -> list[str]:
    """The classes, at any depth, that list `__slots__` and whose `__init__`,
    its docstring aside, only assigns fields of `self`: records that check
    nothing."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        slots = any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for item in node.body
            for t in _assigned(item)
        )
        inits = [item.body for item in node.body
                 if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
        if not (slots and inits):
            continue
        body = inits[0]
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if body and all(map(_assigns_only_self_fields, body)):
            found.append(node.name)
    return found


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_records_without_checks_are_named_tuples(path):
    assert _unchecked_slot_classes(_parse(path)) == []


def test_scan_finds_unchecked_slot_classes():
    tree = ast.parse(
        "class Plain:\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        'Only assigns.'\n"
        "        self.a, self.b = a, b\n"
        "class Annotated(SlotRecord):\n"
        "    __slots__: tuple = ('a',)\n"
        "    def __init__(self, a):\n"
        "        self.a: int = a\n"
        "class Checked(SlotRecord):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        if a < 0:\n"
        "            raise ValueError(a)\n"
        "        self.a = a\n"
        "class Calls:\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        _check(a)\n"
        "        self.a = a\n"
        "class NoSlots:\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
        "class Elsewhere:\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, other, a):\n"
        "        other.a = a\n"
        "class Base:\n"
        "    __slots__ = ()\n"
        "def f():\n"
        "    class Inner:\n"
        "        __slots__ = ('a',)\n"
        "        def __init__(self, a):\n"
        "            self.a = a\n"
    )
    assert _unchecked_slot_classes(tree) == ["Plain", "Annotated", "Inner"]


def _json_dumps(node: ast.AST) -> bool:
    """Whether a node calls `json.dump` or `json.dumps`, or imports either
    from `json` (so that a bare or renamed call would reach it)."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(a.name in ("dump", "dumps") for a in node.names)
    func = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call)
        and isinstance(func, ast.Attribute)
        and func.attr in ("dump", "dumps")
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    )


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.stem)
def test_no_runtime_module_calls_json_dumps(path):
    assert _enclosing_functions(_parse(path), _json_dumps) == []


def test_scan_finds_json_dumps():
    tree = ast.parse(
        "import json\n"
        "from json import loads\n"
        "from json.encoder import encode_basestring_ascii\n"
        "json.loads(s)\n"
        "json.load(fh)\n"
        "text.dumps()\n"
        "json.dumps(doc)\n"
        "def f():\n"
        "    json.dump(doc, fh)\n"
        "    from json import dumps as d\n"
        "    return json.dumps(doc, indent=2)\n"
    )
    assert _enclosing_functions(tree, _json_dumps) == [None, "f", "f", "f"]


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


@pytest.mark.parametrize("path", sorted(PACKAGE.parent.rglob("*.py")), ids=lambda p: p.stem)
def test_no_source_module_imports_argparse_or_gettext(path):
    # `cli` parses argv from its command table: building an argparse parser
    # and its gettext lookups cost more than the parse of a whole call.
    assert not {"argparse", "gettext"} & _imported_modules(_parse(path))


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    code = (
        # `cli` imports the rest on demand, so every runtime module is imported
        "import classrecon.cli, classrecon.codec, classrecon.lattice, sys; "
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


GOLDEN = Path(__file__).parent / "golden"
SRC = os.path.dirname(os.path.dirname(classrecon.__file__))
CONSUMER = {"abgroup", "errors", "reconstruct"}


def _package_imports(tree: ast.Module) -> set[str]:
    """The `classrecon` submodules a tree imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("classrecon.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module == "classrecon" or module.startswith("classrecon."):
                base = module.split(".")[-1] if module and module != "classrecon" else None
                found.update([base] if base else [a.name for a in node.names])
    return found


def test_scan_finds_package_imports():
    tree = ast.parse(
        "import json\n"
        "from .abgroup import x\n"
        "from . import fields as home\n"
        "def f():\n"
        "    import classrecon.lattice\n"
        "    from classrecon.codec import y\n"
        "    from classrecon import oracle\n"
        "from json.encoder import z\n"
    )
    assert _package_imports(tree) == {"abgroup", "fields", "lattice", "codec", "oracle"}


@pytest.mark.parametrize("name", sorted(CONSUMER))
def test_consumer_imports_no_producer(name):
    # `reconstruct` sees only the bundle: it cannot reach the field data,
    # the quotient producer or the certifiers, even in a deferred import.
    assert _package_imports(_parse(PACKAGE / f"{name}.py")) <= CONSUMER - {name}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_cli(path):
    # Under `python -m classrecon.cli` an import of `classrecon.cli` would
    # compile the module a second time, and runpy would warn about it.
    assert "cli" not in _package_imports(_parse(path))


def _loaded_by(*argv: str) -> tuple[list[str], bool]:
    """The `classrecon` modules and whether `json` is loaded after a call.

    A fresh interpreter runs `cli.main(argv)`; with no argv it runs only
    `import classrecon`.
    """
    call = "from classrecon.cli import main; assert main(sys.argv[1:]) == 0\n" if argv else ""
    code = (
        "import sys\n"
        "import classrecon\n"
        f"{call}"
        "names = sorted(m for m in sys.modules if m.split('.')[0] == 'classrecon')\n"
        "print(' '.join(names), 'json' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    *names, json_loaded = proc.stdout.splitlines()[-1].split()
    return sorted(n.removeprefix("classrecon.") for n in names), json_loaded == "True"


# `invariants`, `roundtrip` and `compare` produce bundles and reconstruct them blind
EVERY_RUNTIME_MODULE = [
    "abgroup", "classrecon", "cli", "codec", "errors", "fields", "forms", "lattice",
    "reconstruct",
]

# What each command loads, and so compiles (the package ships no bytecode):
# its argv, the modules, and the most AST nodes they may hold together.  A
# call pays about 2 us of compile per node.
COLD_PATHS = {
    "classgroup-D": (
        ["classgroup", "-D", "-84"], ["abgroup", "classrecon", "cli", "errors", "forms"], 6465,
    ),
    "classgroup-synthetic": (
        ["classgroup", "--synthetic", str(GOLDEN / "synthetic_248.json")],
        ["abgroup", "classrecon", "cli", "codec", "errors", "fields", "forms"],
        9115,
    ),
    "reconstruct": (
        ["reconstruct", str(GOLDEN / "invariants_1031.out")],
        ["abgroup", "classrecon", "cli", "codec", "errors", "reconstruct"],
        6789,
    ),
    "invariants": (["invariants", "-D", "-84", "--primes", "30"], EVERY_RUNTIME_MODULE, 14056),
    "roundtrip": (["roundtrip", "-D", "-84", "--primes", "30"], EVERY_RUNTIME_MODULE, 14056),
    "compare": (
        ["compare", "-D", "-84", "-D2", "-84", "--bound", "30"], EVERY_RUNTIME_MODULE, 14056,
    ),
    "help": (["--help"], ["classrecon", "cli", "errors", "usage"], 1886),
}


@pytest.mark.parametrize(
    ("argv", "modules"),
    [([], ["classrecon"]), *(path[:2] for path in COLD_PATHS.values())],
    ids=["import", *COLD_PATHS],
)
def test_each_command_loads_only_what_it_runs(argv, modules):
    loaded, json_loaded = _loaded_by(*argv)
    assert loaded == modules
    # JSON is read or written only through the codec
    assert json_loaded == ("codec" in modules)


def _ast_nodes(module: str) -> int:
    path = PACKAGE / ("__init__.py" if module == "classrecon" else f"{module}.py")
    return sum(1 for _ in ast.walk(_parse(path)))


@pytest.mark.parametrize("command", sorted(COLD_PATHS))
def test_cold_paths_compile_no_more_than_their_budget(command):
    # Code that a command does not run lives outside the modules it loads:
    # the general Smith normal form in `oracle`, the column echelon in
    # `lattice`, the prime ideals in `fields`, each handler beside its work
    # and the help text in `usage`.  A move back, or new code on these
    # paths, shows up here.
    _, modules, budget = COLD_PATHS[command]
    assert sum(map(_ast_nodes, modules)) <= budget


# The README's name of each command whose name differs from its key above.
README_COMMAND_NAMES = {
    "classgroup-D": "classgroup -D",
    "classgroup-synthetic": "classgroup --synthetic",
    "help": "--help",
}


def test_readme_ast_table_states_each_budget():
    # each row of the README's table names its commands in backticks in the
    # first cell, and gives their budget in the last; `-h` shares `--help`'s
    text = (PERFBENCH.parent / "README.md").read_text()
    table = text.split("| command | modules loaded | AST nodes, at most |\n")[1]
    stated = {}
    for line in table.split("\n\n")[0].splitlines()[1:]:
        first, *_, last = line.strip("|").split("|")
        if last.strip():
            stated.update(dict.fromkeys(re.findall(r"`([^`]+)`", first), int(last)))
    want = {README_COMMAND_NAMES.get(key, key): path[2] for key, path in COLD_PATHS.items()}
    assert stated == {**want, "-h": COLD_PATHS["help"][2]}


def test_run_as_a_module_writes_nothing_to_stderr():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "classrecon.cli", "classgroup", "-D", "-84"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "Z/2 x Z/2; forms: (1,0,21),(2,2,11),(3,0,7),(5,4,5)\n"


# The tracer's targets whose functions moved before this test was written
# (ROADMAP item 12 re-points them); every other target must resolve.
ABSENT_TRACER_TARGETS = {
    "abgroup.smith_normal_form",
    "fields.class_group_model",
    "lattice.lattice_quotient",
    "lattice.predicted_quotient",
    "lattice.singleton_quotient",
}


def test_cli_forwards_the_names_the_benchmark_reads():
    # `perfbench/` reads these names where they are read here; a move that
    # dropped one would fail its run or turn a per-layer metric "absent".
    from classrecon import codec, fields, forms, lattice, reconstruct

    for name in ("bundle_from_json", "report_to_json"):
        assert getattr(cli, name) is getattr(codec, name)
    assert cli.bundle_to_json is lattice.bundle_to_json
    assert cli.synthetic_spec_from_json is fields.synthetic_spec_from_json
    assert cli.reconstruct_all is reconstruct.reconstruct_all
    assert callable(cli.main)
    assert classrecon.build_bundle is lattice.build_bundle
    assert classrecon.QuadraticSpec is forms.QuadraticSpec
    assert classrecon.class_group is forms.class_group
    assert classrecon.enumerate_prime_ideals is fields.enumerate_prime_ideals
    assert classrecon.class_group_model is oracle.class_group_model
    assert classrecon.lattice_quotient is oracle.lattice_quotient
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018
    # `perfbench/tracer.py` wraps each target by module and attribute path,
    # and reports one it cannot find as absent, with its metrics at 0
    [targets] = [
        ast.literal_eval(node.value)
        for node in _parse(PERFBENCH / "tracer.py").body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    absent = set()
    for name, (module_name, path) in targets.items():
        module = importlib.import_module(f"classrecon.{module_name}")
        owner, _, attr = path.rpartition(".")
        if owner:  # a method, defined on the class itself
            found = attr in vars(getattr(module, owner))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            absent.add(name)
    assert absent == ABSENT_TRACER_TARGETS
