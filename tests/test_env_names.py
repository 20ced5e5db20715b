"""No module of genil compares anything with an environment's name or a
compare method's name, picks a policy derivation outside genil.envs, or
turns an environment back into itself by its name.

What differs between environments lives in each environment's object in
genil.envs, which envs.environment looks up by name; a comparison with
"GridNav" or "PointChase" anywhere else would be a second place that
decides by name.  That object is also the environment's spec, so a
module holding a spec holds the environment, and a policy keeps the one
it was derived in: only a name that comes from outside the program (a
config's [env] name in genil.config, a policy.json's env in
genil.policy_opt.load_policy) is looked up.  Each environment's
derive_policy is likewise the one place that calls value iteration or
CEM, so no module calls either elsewhere or reads a flag (once
`tabular`) to choose between them.
What differs between compare's methods lives in their entries in
genil.pipeline.COMPARE_METHODS, looked up by name.
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


def name_comparisons(source: str, is_name) -> list[int]:
    """Line numbers of the comparisons and match cases with an operand
    that is_name accepts."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(map(is_name, operands)):
            lines.append(node.lineno)
    return sorted(lines)


def env_name_comparisons(source: str) -> list[int]:
    """Line numbers of the comparisons and match cases with an
    environment's name as an operand."""
    return name_comparisons(source, is_env_name)


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


METHOD_NAMES = {"GenIL", "T-REX-2", "T-REX-multi", "D-REX", "BC"}


def is_method_name(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):  # method in ("BC", ...)
        return any(map(is_method_name, node.elts))
    return isinstance(node, ast.Constant) and node.value in METHOD_NAMES


def method_name_comparisons(source: str) -> list[int]:
    """Line numbers of the comparisons and match cases with a compare
    method's name as an operand."""
    return name_comparisons(source, is_method_name)


def test_the_check_finds_each_form_of_method_comparison():
    source = "\n".join([
        "if method == 'GenIL': pass",
        "x = 'BC' != method",
        "y = method in ('T-REX-2', 'T-REX-multi') or b",
        "match method:\n    case 'D-REX': pass",
        "z = {'GenIL': 1}[method] == other",
        "row = policy_table_row('GenIL', returns)",
    ])
    assert method_name_comparisons(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_comparison_with_a_method_name(path):
    assert method_name_comparisons(path.read_text()) == []


DERIVATIONS = {"value_iteration", "cem_search"}
FLAGS = {"tabular"}


def derivation_choices(source: str) -> tuple[list[int], list[int]]:
    """Line numbers of the calls to a policy derivation, and of the reads
    of an attribute that once chose one (by name, or through getattr)."""
    calls, reads = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FLAGS:
            reads.append(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called in DERIVATIONS:
            calls.append(node.lineno)
        named = {a.value for a in node.args[1:2] if isinstance(a, ast.Constant)}
        if called == "getattr" and named & FLAGS:
            reads.append(node.lineno)
    return sorted(calls), sorted(reads)


def test_the_check_finds_each_derivation_choice():
    source = "\n".join([
        "if environment(name).tabular: pass",
        "art = value_iteration(spec, reward)",
        "art = policy_opt.cem_search(spec, reward, cfg, 0)",
        "flag = getattr(env, 'tabular', False)",
        "art = env.derive_policy(reward, section, 0)",
        "from .policy_opt import value_iteration",
    ])
    assert derivation_choices(source) == ([2, 3], [1, 4])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_envs_derives_a_policy(path):
    calls, reads = derivation_choices(path.read_text())
    assert reads == []
    assert calls == [] or path.name == "envs.py"


# The spec that once stood apart from its environment, and its lookups.
SPEC_NAMES = {"EnvSpec", "make_spec", "true_reward_fn"}
# Where a name arrives from outside the program: a module, and the one
# top-level function in it that looks the name up (None: anywhere in it).
NAME_SOURCES = {"config.py": None, "policy_opt.py": "load_policy"}


def spec_lookups(source: str) -> tuple[list[int], list[int]]:
    """Line numbers of the definitions, imports, names and attributes
    spelled as one of SPEC_NAMES, and of the calls to environment."""
    names, calls = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            spelled = node.id
        elif isinstance(node, ast.Attribute):
            spelled = node.attr
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.alias)):
            spelled = node.name
        else:
            spelled = None
        if spelled in SPEC_NAMES:
            names.append(node.lineno)
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "environment":
                calls.append(node.lineno)
    return sorted(names), sorted(calls)


def test_the_check_finds_each_spec_lookup():
    source = "\n".join([
        "from .envs import EnvSpec",
        "def f(spec: EnvSpec): pass",
        "s = envs.make_spec(name)",
        "env = environment(spec.name)",
        "r = envs.environment(name).true_reward",
        "def true_reward_fn(spec): pass",
        "r = spec.true_reward(states)",
        "x = environments[name]",
    ])
    assert spec_lookups(source) == ([1, 2, 3, 6], [4, 5])


def lines_outside(source: str, lines: list[int], function: str | None) -> list[int]:
    """Those of lines outside source's top-level function called function;
    none if function is None."""
    if function is None:
        return []
    (node,) = [
        n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    return [line for line in lines if not node.lineno <= line <= node.end_lineno]


def test_the_check_places_each_lookup_in_its_function():
    source = "\n".join([
        "spec = environment(name)",
        "def load_policy(path):",
        "    return environment(name)",
        "def other():",
        "    return environment(name)",
    ])
    _, calls = spec_lookups(source)
    assert lines_outside(source, calls, "load_policy") == [1, 5]
    assert lines_outside(source, calls, None) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_an_environment_is_its_own_spec(path):
    source = path.read_text()
    names, calls = spec_lookups(source)
    assert names == []
    assert path.name in NAME_SOURCES or calls == []
    assert lines_outside(source, calls, NAME_SOURCES.get(path.name)) == []
