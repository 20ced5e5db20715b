"""No module of genil compares anything with an environment's name.

What differs between environments lives in each environment's object in
genil.envs, which envs.environment looks up by name; a comparison with
"GridNav" or "PointChase" anywhere else would be a second place that
decides by name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "genil"
NAME_CONSTANTS = {"ENV_GRIDNAV", "ENV_POINTCHASE"}
NAME_LITERALS = {"GridNav", "PointChase"}


def is_env_name(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):  # name in (ENV_GRIDNAV, ...)
        return any(map(is_env_name, node.elts))
    if isinstance(node, ast.Name):
        return node.id in NAME_CONSTANTS
    if isinstance(node, ast.Attribute):  # envs.ENV_GRIDNAV
        return node.attr in NAME_CONSTANTS
    return isinstance(node, ast.Constant) and node.value in NAME_LITERALS


def env_name_comparisons(source: str) -> list[int]:
    """Line numbers of the comparisons and match cases with an
    environment's name as an operand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(map(is_env_name, operands)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_each_form_of_comparison():
    source = "\n".join([
        "if spec.name == ENV_GRIDNAV: pass",
        "x = 'PointChase' != name",
        "y = name in (a, envs.ENV_POINTCHASE) or b",
        "match name:\n    case 'GridNav': pass",
        "z = {ENV_GRIDNAV: 1}[name] == other",
    ])
    assert env_name_comparisons(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_comparison_with_an_environment_name(path):
    assert env_name_comparisons(path.read_text()) == []
