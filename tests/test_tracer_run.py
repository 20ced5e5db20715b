"""benchmarks/tracer.py runs a genil command to its end.

A traced run-all writes the untraced run's artifacts byte for byte, and
its per-layer numbers time value iteration on GridNav and CEM on
PointChase.  A change that moved an argument the tracer's counts read
(cem_search's cfg, for one) fails here, not first in a traced benchmark
run.
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


def run_all(first_args, cfg, cwd):
    """run-all into cwd/out, launched as python3 FIRST_ARGS... genil-arguments."""
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    argv = [sys.executable, *first_args, "--config", str(cfg), "--out", "out", "--quiet", "run-all"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


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
    plain = run_all(["-m", "genil.cli"], cfg, tmp_path / "plain")
    spans = tmp_path / "spans.json"
    traced = run_all([str(TRACER), str(spans)], cfg, tmp_path / "traced")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
    assert artifacts(tmp_path / "traced" / "out") == artifacts(tmp_path / "plain" / "out")
    metrics = load_tracer().layer_metrics(spans)
    assert metrics[timed] > 0
    assert metrics[idle] == 0
