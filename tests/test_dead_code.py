"""A guard against dead code in the package: every top-level function and
class in src/sain/*.py (but __init__.py) must be referenced from src/sain
outside its own definition, every class member (method, property or
dataclass field) must be read as an attribute somewhere in src/sain, and
every name that a module-level import binds there must be used in its own
module. Tests do not count, so a helper that only the tests call belongs in
the tests. The README's documented entry points and the members listed in
EXEMPT_MEMBERS, each with its reason, are the only exceptions.

The match is by name: a reference is any ast.Name or ast.Attribute carrying
the name, wherever it appears. So a function whose name is also an attribute
name used elsewhere passes unreferenced; the trace fields `score_content` and
`score_preference` hid the scoring functions of that name this way. A member
is read when some ast.Attribute in a load context carries its name, on any
object; dunder methods, which Python calls itself, are not checked. So a
member sharing its name with a read member of another class passes unread:
`TrainResult.seed` stayed unread this way, because the CLI reads
`CaseReport.seed`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sain"
ENTRY_POINTS = {"find_ml100k", "convert_ml100k"}
EXEMPT_MEMBERS = {
    # perfbench hashes it to compare traced and untraced training.
    "training.TrainResult.final_params",
    # perfbench counts the fields of the run's dataset from it.
    "data.PreparedData.manifest",
    # DatasetSplit.select reads the split by name through getattr.
    "data.DatasetSplit.validation",
    "data.DatasetSplit.test",
    # argparse calls it on a usage error, on the parser and its subparsers.
    "cli._Parser.error",
}


def _referenced_names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _trees(src: pathlib.Path) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}


def unreferenced(src: pathlib.Path = SRC) -> list[str]:
    """module.name of each top-level definition that nothing else in `src`
    references, in file and line order."""
    trees = _trees(src)
    definitions = [(module, node) for module, tree in trees.items()
                   if module != "__init__" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))]
    statements = [(stmt, _referenced_names(stmt)) for tree in trees.values()
                  for stmt in tree.body]
    return [f"{module}.{node.name}" for module, node in definitions
            if node.name not in ENTRY_POINTS
            and not any(node.name in names for stmt, names in statements
                        if stmt is not node)]


def _member_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        name = node.name
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        name = node.target.id
    else:
        return None
    return None if name.startswith("__") and name.endswith("__") else name


def unread_members(src: pathlib.Path = SRC) -> list[str]:
    """module.Class.member of each method, property and annotated field that
    no attribute load in `src` reads, in file and line order."""
    trees = _trees(src)
    loads = {n.attr for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{module}.{cls.name}.{name}" for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name in map(_member_name, cls.body)
            if name is not None and name not in loads
            and f"{module}.{cls.name}.{name}" not in EXEMPT_MEMBERS]


def unused_imports(src: pathlib.Path = SRC) -> list[str]:
    """module.name of each name that a module-level import in `src` (but in
    __init__.py, which re-exports) binds and no ast.Name in that module
    reads, in file and line order. `from __future__` imports bind nothing."""
    out = []
    for module, tree in _trees(src).items():
        if module == "__init__":
            continue
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [f"{module}.{bound}" for alias in node.names
                        if (bound := alias.asname or alias.name.split(".")[0]) not in names]
    return out


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced() == []


def test_every_class_member_is_read_in_the_package():
    assert unread_members() == []


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def test_the_entry_points_exist():
    names = {node.name for p in SRC.glob("*.py") for node in ast.parse(p.read_text()).body
             if isinstance(node, ast.FunctionDef)}
    assert ENTRY_POINTS <= names


def test_the_exempt_members_exist():
    members = {f"{p.stem}.{cls.name}.{_member_name(node)}" for p in SRC.glob("*.py")
               for cls in ast.parse(p.read_text()).body if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    assert EXEMPT_MEMBERS <= members


def test_a_function_only_the_tests_call_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import helper\n")
    (tmp_path / "a.py").write_text(
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Box:\n    value = used()\n")
    (tmp_path / "b.py").write_text("from .a import Box\n\nBOX = Box()\n")
    assert unreferenced(tmp_path) == ["a.helper"]


def test_a_method_only_the_tests_call_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Box\n")
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class Box:\n"
        "    size: int\n"
        "    label: str\n\n"
        "    def __post_init__(self):\n        self.area = self.size * self.size\n\n"
        "    @property\n    def side(self):\n        return self.size\n\n"
        "    def grow(self):\n        return Box(self.side + 1, '')\n\n"
        "    def shrink(self):\n        return Box(self.side - 1, '')\n")
    (tmp_path / "b.py").write_text(
        "from .a import Box\n\n\ndef use(box):\n    box.label = 'x'\n"
        "    return box.grow()\n")
    # `label` is only written, and `shrink` only defined.
    assert unread_members(tmp_path) == ["a.Box.label", "a.Box.shrink"]


def test_an_unused_import_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import size\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import json as js\n"
        "from itertools import chain, compress, repeat\n\n\n"
        "def size(path):\n"
        "    return os.path.getsize(path), list(repeat(js, 2))\n\n\n"
        "def other(x):\n"
        "    return x.compress\n")
    # `compress` is only an attribute name, and `chain` is never read.
    assert unused_imports(tmp_path) == ["a.chain", "a.compress"]
