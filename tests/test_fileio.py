"""The one write path: fileio.write_lines writes every artifact whole or
not at all, and no other code in genil opens a file for writing."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import genil
from genil.envs import environment
from genil.fileio import write_lines
from genil.metrics import ExtrapolationReport, write_summary_csv, write_sweep_csv
from genil.pipeline import F_MANIFEST, RunManifest
from genil.policy_opt import PolicyArtifact, save_policy
from genil.snippets import Snippet, SnippetPair, save_pairs


def test_write_lines_ends_each_line_with_lf(tmp_path):
    path = tmp_path / "a.txt"
    write_lines(path, iter(["x", "", "y\r"]))
    assert path.read_bytes() == b"x\n\ny\r\n"
    write_lines(path, [])
    assert path.read_bytes() == b""


# ---------------------------------------------------------------------------
# A writer whose lines fail part way leaves the target as it was


def report(accuracy):
    return ExtrapolationReport([], accuracy, 1.0, 1.0, 0.0, pred_degenerate=False)


def pair(parent_id, rank):
    states = np.zeros((2, 3))
    return SnippetPair(Snippet(parent_id, 0, 2, states, rank), Snippet("hi", 0, 2, states, 9.0))


SWEEP_RECORD = {"step_size": 1, "trial": 0, "model": 0, "gt_return": 1.5, "trial_std": 0.0,
                "step_mean": 1.5}
POLICY = PolicyArtifact(environment("PointChase"), np.array([0.0, -2.0, 4.0]))

# target: (a write that succeeds, one that raises after its first line or
# while it formats its one line, what it raises)
WRITES = {
    "summary.csv": (
        lambda p: write_summary_csv(p, [("GenIL", report(0.5))]),
        lambda p: write_summary_csv(p, [("GenIL", report(0.25)), ("T-REX-2", "no report")]),
        AttributeError,
    ),
    "sweep.csv": (
        lambda p: write_sweep_csv(p, [SWEEP_RECORD]),
        lambda p: write_sweep_csv(p, [SWEEP_RECORD, {"step_size": 2}]),
        KeyError,
    ),
    "pairs.jsonl": (
        lambda p: save_pairs(p, [pair("lo", 0.0)]),
        lambda p: save_pairs(p, [pair("lo", 1.0), pair(b"not text", 0.0)]),
        TypeError,
    ),
    "policy.json": (
        lambda p: save_policy(POLICY, p),
        lambda p: save_policy(PolicyArtifact(POLICY.spec, POLICY.parameters, meta={"x": {1j}}), p),
        TypeError,
    ),
    F_MANIFEST: (
        lambda p: RunManifest("gen-demos", {}, 1).save(p.parent),
        lambda p: RunManifest("gen-demos", {}, 2, meta={"x": object()}).save(p.parent),
        TypeError,
    ),
}


@pytest.mark.parametrize("target", WRITES)
def test_a_failed_write_leaves_no_partial_file(tmp_path, target):
    """A write that raises leaves the target absent, or byte for byte as
    it was, and no temporary file beside it."""
    good, bad, error = WRITES[target]
    path = tmp_path / target
    with pytest.raises(error):
        bad(path)
    assert os.listdir(tmp_path) == []
    good(path)
    before = path.read_bytes()
    with pytest.raises(error):
        bad(path)
    assert os.listdir(tmp_path) == [target]
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# No module but fileio writes a file, and fileio only in write_lines

# modules whose open takes its mode second, as the builtin does; any other
# .open(...) is taken for pathlib's, whose mode comes first
MODE_SECOND = {"io", "builtins", "codecs", "os"}


def _opens_to_write(call: ast.Call) -> bool:
    """Whether call is open(...), module.open(...) or path.open(...) with a
    mode holding w, a, x or +, or one that is not a string literal."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        module = func.value.id if isinstance(func.value, ast.Name) else None
        at = 1 if module in MODE_SECOND else 0
    else:
        return False
    given = [k.value for k in call.keywords if k.arg in ("mode", "flags")]
    mode = call.args[at] if len(call.args) > at else (given[0] if given else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def writes(source: str, exempt: str | None = None) -> list[tuple[int, str]]:
    """(line, code) of each mention of atomic_write in source, and of each
    call that opens a file to write or calls write_text or write_bytes,
    outside the function named exempt."""
    tree = ast.parse(source)
    allowed = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        named = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
            else None
        )
        if named == "atomic_write":
            found.append((node.lineno, "atomic_write"))
        elif isinstance(node, ast.Call) and (
            _opens_to_write(node)
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes")
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_check_finds_each_way_to_write_a_file():
    source = "\n".join([
        "from .fileio import atomic_write, parsing",  # 1
        "def save(path, mode):",
        "    with atomic_write(path) as fh: pass",  # 3
        "    with fileio.atomic_write(path) as fh: pass",  # 4
        "    with open(path) as fh, open(path, 'rb') as fb: pass",
        "    open(path, 'w')",  # 6
        "    open(path, mode='a')",  # 7
        "    open(path, 'xb')",  # 8
        "    open(path, 'r+')",  # 9
        "    open(path, mode)",  # 10
        "    io.open(path, 'w', newline='')",  # 11
        "    os.open(path, os.O_WRONLY)",  # 12
        "    Path(path).open('a')",  # 13
        "    Path(path).open(), io.open(path, 'r'), path.read_text(), path.read_bytes()",
        "    path.write_text('x')",  # 15
        "    path.write_bytes(b'x')",  # 16
        "def write_lines(path, lines):",
        "    with open(tmp, 'w', newline='\\n') as fh: pass",  # 18
    ])
    flagged = [
        (1, "atomic_write"), (3, "atomic_write"), (4, "atomic_write"), (6, "open(path, 'w')"),
        (7, "open(path, mode='a')"), (8, "open(path, 'xb')"), (9, "open(path, 'r+')"),
        (10, "open(path, mode)"), (11, "io.open(path, 'w', newline='')"),
        (12, "os.open(path, os.O_WRONLY)"), (13, "Path(path).open('a')"),
        (15, "path.write_text('x')"), (16, "path.write_bytes(b'x')"),
    ]
    assert writes(source, exempt="write_lines") == flagged
    assert writes(source) == flagged + [(18, "open(tmp, 'w', newline='\\n')")]


def test_only_write_lines_writes_a_file():
    package = Path(genil.__file__).resolve().parent
    found = {
        path.name: writes(path.read_text(), "write_lines" if path.name == "fileio.py" else None)
        for path in sorted(package.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert writes((package / "fileio.py").read_text()), "write_lines opens no file to write"
