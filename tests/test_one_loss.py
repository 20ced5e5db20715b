"""Reward training has one ranking loss, one batch stream and one loop.

The loss, its gradient and its divergence check live in
reward_net._ranking_loss, the per-model batch draws in
reward_net._batch_blocks, and one loop, reward_net.train_stacked,
steps through both for one model or a stack of K.  A use of
np.logaddexp, _expit or the "train-batches" seed label anywhere else in
genil would be a second copy of the loss or of the batch stream, one that
criterion 03's one-step checks might not cover.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "genil"
# each marker of the loss or the batch stream, and the one function it belongs in
HOMES = {
    "logaddexp": "_ranking_loss",
    "_expit": "_ranking_loss",
    "train-batches": "_batch_blocks",
}


def marker(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr == "logaddexp":  # np.logaddexp
        return node.attr
    if isinstance(node, ast.Name) and node.id == "_expit":
        return node.id
    if isinstance(node, ast.alias) and node.name.split(".")[-1] in HOMES:
        return node.name.split(".")[-1]  # from numpy import logaddexp
    if isinstance(node, ast.Constant) and node.value == "train-batches":
        return node.value
    return None


def marker_sites(source: str) -> list[tuple[str, str | None, int]]:
    """(marker, innermost enclosing function or None, line) of each use of
    a marker in source."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        found = marker(node)
        if found is not None:
            sites.append((found, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def training_loops(source: str) -> list[str]:
    """Functions in source that iterate over _batch_blocks(...) and call
    _ranking_loss by name."""

    def called(node) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name)

    loops = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, ast.FunctionDef):
            continue
        nodes = list(ast.walk(function))
        iterates = any(
            isinstance(n, ast.For) and called(n.iter) and n.iter.func.id == "_batch_blocks"
            for n in nodes
        )
        if iterates and any(called(n) and n.func.id == "_ranking_loss" for n in nodes):
            loops.append(function.name)
    return loops


def test_the_check_finds_each_form_of_use():
    source = "\n".join([
        "def train():",
        "    loss = np.logaddexp(0.0, z)",
        "    g = _expit(z)",
        "    rng = make(derive_seed(seed, 'train-batches'))",
        "from numpy import logaddexp",
        "def _ranking_loss():",
        "    return np.logaddexp(0.0, z)",
    ])
    assert marker_sites(source) == [
        ("logaddexp", "train", 2),
        ("_expit", "train", 3),
        ("train-batches", "train", 4),
        ("logaddexp", None, 5),
        ("logaddexp", "_ranking_loss", 7),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_loss_and_batch_stream_are_used_only_in_their_homes(path):
    strays = [
        site for site in marker_sites(path.read_text()) if site[1] != HOMES[site[0]]
    ]
    assert strays == []


def test_the_check_finds_each_training_loop():
    source = "\n".join([
        "def train():",
        "    for first, batches in _batch_blocks(n, cfg, seeds):",
        "        loss, grad = _ranking_loss(sums, first)",
        "def draws_only():",
        "    for first, batches in _batch_blocks(n, cfg, seeds):",
        "        pass",
        "def loss_only():",
        "    return _ranking_loss(sums, 0)",
        "def train_lockstep():",
        "    for first, batches in _batch_blocks(n, cfg, seeds):",
        "        _ranking_loss(sums, first)",
    ])
    assert training_loops(source) == ["train", "train_lockstep"]


def test_each_marker_is_used_once():
    source = (SRC / "reward_net.py").read_text()
    sites = [site[:2] for site in marker_sites(source)]
    assert sorted(sites) == sorted(HOMES.items())


def test_one_function_runs_the_training_loop():
    """One model and a stack of K train through the same loop."""
    assert training_loops((SRC / "reward_net.py").read_text()) == ["train_stacked"]
