"""The one JSON value rule, `sain.errors.is_json` and `json_value`, and a
guard that keeps it the only one: no module of src/sain but errors.py may
call isinstance(..., bool) or compare type(...) with is, is not, in, not in,
== or !=. Each hand-written copy of the rule once differed from the others
(bare int(), bool("false"), a float accepted as a count)."""

import ast
import pathlib

import numpy as np
import pytest

from sain.errors import is_json, json_value
from sain.model import ModelConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sain"
TYPE_COMPARISONS = (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.Eq, ast.NotEq)


def _names(node: ast.AST) -> set[str]:
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    return {e.id for e in elements if isinstance(e, ast.Name)}


def _is_type_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def hand_written_type_checks(src: pathlib.Path = SRC) -> list[str]:
    """module:line of each isinstance(..., bool) call and each comparison of
    type(...) in `src`'s modules but errors.py, in file and line order."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        lines = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            bool_check = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "isinstance" and len(node.args) == 2
                          and "bool" in _names(node.args[1]))
            type_check = (isinstance(node, ast.Compare)
                          and any(isinstance(op, TYPE_COMPARISONS) for op in node.ops)
                          and any(map(_is_type_call, [node.left, *node.comparators])))
            if bool_check or type_check:
                lines.add(node.lineno)
        found += [f"{path.stem}:{line}" for line in sorted(lines)]
    return found


def test_errors_py_is_the_only_home_of_the_json_rule():
    assert hand_written_type_checks() == []


def test_the_guard_flags_each_hand_written_form(tmp_path):
    (tmp_path / "errors.py").write_text("def f(v):\n    return isinstance(v, bool)\n")
    (tmp_path / "a.py").write_text(
        "def f(v, w):\n"
        "    a = isinstance(v, bool)\n"
        "    b = isinstance(v, (int, bool))\n"
        "    c = type(v) is int\n"
        "    d = type(v) not in (int, float)\n"
        "    e = int is not type(w)\n"
        "    g = type(v) == str\n"
        "    h = isinstance(v, int) and type(v).__name__\n"
        "    return a, b, c, d, e, g, h\n")
    assert hand_written_type_checks(tmp_path) == [f"a:{n}" for n in range(2, 8)]


@pytest.mark.parametrize("value, kinds", [
    (3, {"integer", "count", "number"}), (0, {"integer", "count", "number"}),
    (-2, {"integer", "number"}), (np.int64(4), {"integer", "count", "number"}),
    (2.5, {"number"}), (3.0, {"number"}), (float("nan"), {"number"}),
    (np.float64(0.5), {"number"}), (True, {"bool"}), (False, {"bool"}),
    ("x", {"string"}), ("", {"string"}), ({}, {"object"}), ({"a": 1}, {"object"}),
    ([], {"list", "strings"}), (["a", "b"], {"list", "strings"}), ([1], {"list"}),
    (None, set())],
    ids=repr)
def test_each_value_is_of_exactly_its_kinds(value, kinds):
    every = {"integer", "count", "number", "bool", "string", "object", "list", "strings"}
    assert {kind for kind in every if is_json(value, kind)} == kinds


@pytest.mark.parametrize("value, kind, message", [
    (True, "integer", "x must be an integer, got True"),
    (-1, "count", "x must be an integer >= 0, got -1"),
    ("0.9", "number", "x must be a number, got '0.9'"),
    ("false", "bool", "x must be true or false, got 'false'"),
    (5, "string", "x must be a string, got 5"),
    ([1], "object", "x must be a JSON object, got [1]"),
    ({}, "list", "x must be a list, got {}"),
    (["a", 1], "strings", "x must be a list of strings, got ['a', 1]")])
def test_json_value_names_the_value_it_refuses(value, kind, message):
    with pytest.raises(ValueError) as got:
        json_value("x", value, kind)
    assert str(got.value) == message


def test_json_value_returns_what_it_accepts():
    value = ["a"]
    assert json_value("x", value, "strings") is value


def test_the_layer_count_goes_through_the_rule():
    # A numpy integer 1 is the integer 1 under the rule; the message for any
    # other count is unchanged.
    assert ModelConfig.from_dict({"num_attention_layers": np.int64(1)}) == ModelConfig()
    with pytest.raises(ValueError, match="^num_attention_layers is fixed at 1$"):
        ModelConfig.from_dict({"num_attention_layers": np.int64(2)})
