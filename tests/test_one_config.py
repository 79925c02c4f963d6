"""A guard that keeps a model's params the only holder of its config: no
function in src/sain may take both a `params` parameter and a `config` or
`mcfg` one. A second config beside the params could disagree with
`params.config` and quietly run another model (another K, renormalization,
dropout, batch-norm setting or loss weights), or fail on a head the params
do not have; the passes and their stages read `params.config` instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sain"
CONFIG_NAMES = {"config", "mcfg"}


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    a = fn.args
    return {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}


def second_configs(src: pathlib.Path = SRC) -> list[str]:
    """module:line of each function or lambda in `src` that takes `params`
    and a config, in file and line order."""
    found = []
    for path in sorted(src.glob("*.py")):
        lines = sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                       and "params" in (names := _parameters(node)) and names & CONFIG_NAMES)
        found += [f"{path.stem}:{line}" for line in lines]
    return found


def test_no_function_takes_params_and_a_config():
    assert second_configs() == []


def test_the_guard_flags_each_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "def forward(x, params, config):\n    return x\n\n\n"
        "def backward(trace, params, *, mcfg=None):\n    return trace\n\n\n"
        "class Engine:\n"
        "    def step(self, params, config):\n        return params\n\n"
        "    def fine(self, params):\n        return params.config\n\n\n"
        "SCALE = lambda params, config: 1.0\n"
        "MAKE = lambda config: config\n")
    (tmp_path / "b.py").write_text(
        "def init(layout, config, rng):\n    return layout\n\n\n"
        "def train(data, mcfg, tcfg):\n    return data\n")
    assert second_configs(tmp_path) == ["a:1", "a:5", "a:10", "a:17"]
