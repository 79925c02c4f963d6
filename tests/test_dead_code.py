"""A guard against dead code in the package: every top-level function and
class in src/sain/*.py (but __init__.py) must be referenced from src/sain
outside its own definition. Tests do not count, so a helper that only the
tests call belongs in the tests. The README's documented entry points are
the only exceptions.

The match is by name: a reference is any ast.Name or ast.Attribute carrying
the name, wherever it appears. So a function whose name is also an attribute
name used elsewhere passes unreferenced; the trace fields `score_content` and
`score_preference` hid the scoring functions of that name this way."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sain"
ENTRY_POINTS = {"find_ml100k", "convert_ml100k"}


def _referenced_names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreferenced(src: pathlib.Path = SRC) -> list[str]:
    """module.name of each top-level definition that nothing else in `src`
    references, in file and line order."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
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


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced() == []


def test_the_entry_points_exist():
    names = {node.name for p in SRC.glob("*.py") for node in ast.parse(p.read_text()).body
             if isinstance(node, ast.FunctionDef)}
    assert ENTRY_POINTS <= names


def test_a_function_only_the_tests_call_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import helper\n")
    (tmp_path / "a.py").write_text(
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Box:\n    value = used()\n")
    (tmp_path / "b.py").write_text("from .a import Box\n\nBOX = Box()\n")
    assert unreferenced(tmp_path) == ["a.helper"]
