"""Tests for the benchmark's output checks: real outputs pass, and each
tampering is caught by the check written for it.

    python3 -m pytest benchmarks/test_checks.py

Tiny configs keep the genil runs to a few seconds each.  Everything is
written under .bench_runs/tests in the checkout.  Tampered copies
get their manifest hashes refreshed, so that the check under test, not the
hash check, is what catches the edit.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run

TINY = """
[data]
n_snippets = 200
n_pairs = 400
[train]
steps = 800
learning_rate = 1e-3
[policy]
cem_population_size = 8
cem_n_iters = 3
[eval]
n_per_quality = 2
n_eval_episodes = 2
n_trials = 1
n_models_per_trial = 1
[seeds]
base = 3
[output]
dir = out
"""


@pytest.fixture
def tmp_path(request):
    path = run.RUNS / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _module_dir(name):
    path = run.RUNS / "tests" / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def genil(tmp, env: str, command: str, extra: str = ""):
    tmp.mkdir(parents=True, exist_ok=True)
    (tmp / "config.ini").write_text(f"[env]\nname = {env}\n" + TINY + extra)
    proc = subprocess.run(
        [sys.executable, "-m", "genil.cli", "--config", "config.ini", command],
        cwd=tmp, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    return proc, tmp / "out"


@pytest.fixture(scope="module")
def gridnav():
    proc, out = genil(_module_dir("gridnav"), "GridNav", "run-all")
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def pointchase():
    proc, out = genil(_module_dir("pointchase"), "PointChase", "run-all")
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def compare():
    proc, out = genil(_module_dir("compare"), "GridNav", "compare")
    assert proc.returncode == 0, proc.stderr
    return out


GRID = {"env": "GridNav", "seed": 3}
POINT = {"env": "PointChase", "seed": 3}


def failures(results):
    return {name for name, err in results if err is not None}


def tampered(src, tmp_path, name, edit, rehash=True):
    """Copy of a run's outputs with ``edit(text) -> text`` applied to one file."""
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = out / name
    path.write_text(edit(path.read_text()))
    if rehash:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"][name] = checks.sha256_file(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def edit_csv(column, row_filter, value):
    def edit(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            if row_filter(row):
                row[column] = value(row[column])
                break
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()

    return edit


def edit_json(fn):
    def edit(text):
        data = json.loads(text)
        fn(data)
        return json.dumps(data)

    return edit


def edit_line(index, fn):
    def edit(text):
        lines = text.splitlines()
        record = json.loads(lines[index])
        fn(record)
        lines[index] = json.dumps(record)
        return "\n".join(lines) + "\n"

    return edit


def test_real_outputs_pass(gridnav, pointchase, compare):
    assert failures(checks.check_run_all(gridnav, GRID)) == set()
    assert failures(checks.check_run_all(pointchase, POINT)) == set()
    assert failures(checks.check_compare(compare, GRID)) == set()
    assert len(checks.check_compare(compare, GRID)) == checks.COMPARE_CHECKS


def test_any_edit_without_rehash_breaks_the_manifest_hash(gridnav, tmp_path):
    out = tampered(gridnav, tmp_path, "loss_curve.csv", lambda t: t + "\n", rehash=False)
    assert failures(checks.check_run_all(out, GRID)) == {"manifest.hashes"}


def test_wrong_seed_in_the_config_echo_is_caught(gridnav):
    assert "manifest.config" in failures(checks.check_run_all(gridnav, {**GRID, "seed": 4}))


def test_flipped_gridnav_action_is_caught(gridnav, tmp_path):
    model = json.loads((gridnav / "model.json").read_text())
    policy = json.loads((gridnav / "policy.json").read_text())
    q = checks.grid_q_values(model, policy["meta"]["discount"], policy["meta"]["tol"])
    gap = q.max(axis=1, keepdims=True) - q
    cell, action = np.unravel_index(np.argmax(gap), gap.shape)
    assert gap[cell, action] > 1e-3

    def flip(p):
        p["parameters"][int(cell)] = int(action)

    out = tampered(gridnav, tmp_path, "policy.json", edit_json(flip))
    assert "policy.greedy" in failures(checks.check_run_all(out, GRID))


def test_edited_spearman_cell_is_caught(gridnav, tmp_path):
    edit = edit_csv("spearman", lambda r: r["method"] == "GenIL", lambda v: f"{float(v) - 0.01:.9g}")
    out = tampered(gridnav, tmp_path, "summary.csv", edit)
    assert failures(checks.check_run_all(out, GRID)) == {"summary.spearman"}


def test_edited_bin_std_cell_is_caught(gridnav, tmp_path):
    edit = edit_csv("mean_bin_std", lambda r: True, lambda v: f"{float(v) * 0.9:.9g}")
    out = tampered(gridnav, tmp_path, "summary.csv", edit)
    assert failures(checks.check_run_all(out, GRID)) == {"summary.bin_std"}


def test_pair_pushed_below_min_margin_is_caught(gridnav, tmp_path):
    def collapse(record):
        record["hi"] = dict(record["lo"])

    out = tampered(gridnav, tmp_path, "pairs.jsonl", edit_line(0, collapse))
    assert failures(checks.check_run_all(out, GRID)) == {"pairs.margin"}


def test_stored_pair_label_that_disagrees_with_the_slice_is_caught(gridnav, tmp_path):
    def relabel(record):
        record["lo"]["rank"] += 0.25

    out = tampered(gridnav, tmp_path, "pairs.jsonl", edit_line(0, relabel))
    assert {"pairs.labels", "pairs.margin"} <= failures(checks.check_run_all(out, GRID))


def test_offspring_moved_to_an_end_bucket_is_caught(gridnav, tmp_path):
    def move(manifest):
        ranks = manifest["ranks"]
        tid = ranks["1"].pop(0)
        ranks["0"].append(tid)

    out = tampered(gridnav, tmp_path, "ranked_manifest.json", edit_json(move))
    assert failures(checks.check_run_all(out, GRID)) == {"ranked.buckets"}


def test_provenance_tag_naming_the_wrong_parent_is_caught(gridnav, tmp_path):
    lines = (gridnav / "ranked.jsonl").read_text().splitlines()
    by_id = {json.loads(line)["id"]: json.loads(line) for line in lines}
    for index, line in enumerate(lines):
        t = json.loads(line)
        if t["source"] != "offspring":
            continue
        x, y = (by_id[p] for p in t["meta"]["parents"])
        for k, tag in enumerate(t["meta"]["provenance"]):
            if tag == "x" and x["states"][k] != y["states"][k]:
                break
        else:
            continue
        break
    else:
        pytest.skip("no step where the two parents differ")

    def retag(record):
        prov = record["meta"]["provenance"]
        record["meta"]["provenance"] = prov[:k] + "y" + prov[k + 1:]

    out = tampered(gridnav, tmp_path, "ranked.jsonl", edit_line(index, retag))
    assert "ranked.provenance" in failures(checks.check_run_all(out, GRID))


def test_edited_pred_return_is_caught(gridnav, tmp_path):
    edit = edit_csv("pred_return", lambda r: True, lambda v: f"{float(v) + 0.5:.9g}")
    out = tampered(gridnav, tmp_path, "extrapolation.csv", edit)
    assert failures(checks.check_run_all(out, GRID)) == {"extrapolation.pred_return"}


def test_edited_eval_reward_is_caught(gridnav, tmp_path):
    def bump(record):
        record["gt_step_rewards"][3] += 1.0

    out = tampered(gridnav, tmp_path, "eval.jsonl", edit_line(0, bump))
    found = failures(checks.check_run_all(out, GRID))
    assert {"trajectories.dynamics", "extrapolation.gt_return"} <= found


def test_flipped_demo_action_is_caught(gridnav, tmp_path):
    def flip(record):
        record["actions"][0] = (record["actions"][0] + 2) % 4

    out = tampered(gridnav, tmp_path, "demos.jsonl", edit_line(0, flip))
    assert failures(checks.check_run_all(out, GRID)) == {"trajectories.dynamics"}


def test_non_finite_loss_is_caught(gridnav, tmp_path):
    edit = edit_csv("loss", lambda r: True, lambda v: "nan")
    out = tampered(gridnav, tmp_path, "loss_curve.csv", edit)
    assert failures(checks.check_run_all(out, GRID)) == {"loss.curve"}


def test_pointchase_return_that_the_gains_do_not_give_is_caught(pointchase, tmp_path):
    def negate(policy):
        policy["parameters"] = [-g for g in policy["parameters"]]

    out = tampered(pointchase, tmp_path, "policy.json", edit_json(negate))
    assert failures(checks.check_run_all(out, POINT)) == {"policy.return"}


def test_compare_table_missing_a_row_is_caught(compare, tmp_path):
    def drop(text):
        return "".join(line for line in text.splitlines(True) if not line.startswith("D-REX,"))

    out = tampered(compare, tmp_path, "policy_table.csv", drop)
    assert failures(checks.check_compare(out, GRID)) == {"compare.policy_table"}


def test_compare_failure_hidden_behind_exit_zero_counts_as_failed(tmp_path):
    proc, out = genil(tmp_path, "GridNav", "compare", "[ga]\nmax_attempts = 1\n")
    assert proc.returncode == 0  # the program reports success
    manifest = json.loads((out / "manifest.json").read_text())
    results = checks.check_compare(out, GRID, failed_methods=manifest["meta"]["method_errors"])
    attempted, failed = run.compare_counts(manifest, 0, results, n_trials=1)
    assert "GenIL" in manifest["meta"]["method_errors"]
    assert failed == 1 and attempted == len(checks.COMPARE_METHODS) + checks.COMPARE_CHECKS
    assert failures(results) == set()
