"""benchmarks/tracer.py runs a genil command to its end.

A traced run-all writes the untraced run's artifacts byte for byte, and
its per-layer numbers time value iteration on GridNav and CEM on
PointChase.  Its spans include every load of a stage input, which
pipeline.LOADERS makes by module-global name when it runs, where the
tracer's wrappers stand.  A traced compare on one CPU counts every
unit's reward training, stacked or not.  A change that moved an argument
the tracer's counts read (cem_search's cfg, for one), trained outside
reward_net.train or loaded through a reference taken before the tracer
wrapped it fails here, not first in a traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"

SMALL = """
[data]
n_snippets = 60
min_len = 5
max_len = 10
n_pairs = 120

[train]
steps = 50

[eval]
qualities = 0.0, 0.3, 0.6
n_per_quality = 2
n_trials = 2
n_models_per_trial = 2
n_eval_episodes = 3

[policy]
cem_n_iters = 2
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("genil_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def launch(first_args, cfg, cwd, command="run-all", preexec_fn=None):
    """command (run-all by default) into cwd/out, launched as python3
    FIRST_ARGS... genil-arguments."""
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    argv = [sys.executable, *first_args, "--config", str(cfg), "--out", "out", "--quiet", command]
    return subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=preexec_fn,
    )


def artifacts(out):
    """Every file's bytes, with manifest.json's stage_seconds taken out."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["stage_seconds"]
    return files, manifest


@pytest.mark.parametrize(
    "env, timed, idle",
    [
        ("GridNav", "policy_opt.value_iteration_s", "policy_opt.cem_iter_ms"),
        ("PointChase", "policy_opt.cem_iter_ms", "policy_opt.value_iteration_s"),
    ],
)
def test_traced_run_all_writes_the_untraced_artifacts_and_times_its_policy_search(
    tmp_path, env, timed, idle
):
    cfg = tmp_path / "config.ini"
    cfg.write_text(SMALL + f"\n[env]\nname = {env}\n")
    plain = launch(["-m", "genil.cli"], cfg, tmp_path / "plain")
    spans = tmp_path / "spans.json"
    traced = launch([str(TRACER), str(spans)], cfg, tmp_path / "traced")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
    assert artifacts(tmp_path / "traced" / "out") == artifacts(tmp_path / "plain" / "out")
    metrics = load_tracer().layer_metrics(spans)
    assert metrics[timed] > 0
    assert metrics[idle] == 0
    loads = {"trajectory.load_trajectories", "genetics.load", "reward_net.load_model",
             "policy_opt.load_policy"}
    assert loads <= set(json.loads(spans.read_text())["names"])
    assert metrics["trajectory.load_s"] > 0
    assert metrics["trajectory.bytes"] > 0


def test_one_cpu_trace_of_compare_counts_every_units_training(tmp_path):
    """On one CPU compare runs every unit in the command's process, where
    the tracer sees it.  Each of the 2 trials x 4 reward methods trains its 2
    models in one reward_net.train call of 50 steps, whether they step as
    one stack (GridNav's tables) or one at a time, and the trace writes
    the untraced run's artifacts."""
    cfg = tmp_path / "config.ini"
    cfg.write_text(SMALL + "\n[env]\nname = GridNav\n")
    cpu = min(os.sched_getaffinity(0))

    def one_cpu():
        os.sched_setaffinity(0, {cpu})

    plain = launch(["-m", "genil.cli"], cfg, tmp_path / "plain", "compare", one_cpu)
    spans = tmp_path / "spans.json"
    traced = launch([str(TRACER), str(spans)], cfg, tmp_path / "traced", "compare", one_cpu)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
    assert artifacts(tmp_path / "traced" / "out") == artifacts(tmp_path / "plain" / "out")
    metrics = load_tracer().layer_metrics(spans)
    assert metrics["reward_net.train_calls"] == 8
    assert metrics["reward_net.train_steps"] == 400
