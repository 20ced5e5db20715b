"""File-artifact orchestration: stage chaining, manifests, reproducibility,
method comparison, the step-size sweep, and the command-line wrapper."""

import ast
import csv
import dataclasses
import functools
import hashlib
import importlib.util
import inspect
import json
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import genil
from genil import pipeline, reward_net
from genil.cli import main
from genil.config import config_to_dict, parse_config_text
from genil.envs import environment, make_demo_pair, make_eval_set
from genil.errors import (
    ConfigError,
    CorruptArtifactError,
    DivergenceError,
    MissingArtifactError,
    ReproductionStalledError,
)
from genil.genetics import reproduce
from genil.metrics import extrapolation_report, predicted_returns_report
from genil.policy_opt import cem_search, evaluate_policy, value_iteration
from genil.mlp import MLP
from genil.reward_net import (
    CompiledPairs,
    RewardModel,
    lockstep_pays,
    make_reward_model,
    predict_states,
    train,
)
from genil.seeding import derive_seed
from genil.snippets import make_pairs, subsample
from genil.pipeline import (
    COMPARE_METHODS,
    F_DEMOS,
    F_EVAL,
    F_EXTRAPOLATION,
    F_MANIFEST,
    F_MODEL,
    F_POLICY,
    F_POLICY_TABLE,
    F_RANKED,
    F_RANKED_MANIFEST,
    F_SUMMARY,
    F_SWEEP,
    file_sha256,
    run_command,
)
from genil.trajectory import load_trajectories, save_trajectories
from reference_training import reference_train_whole_table

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
n_eval_episodes = 1

[sweep]
step_sizes = 1, 5

[seeds]
base = 5
"""


@pytest.fixture()
def small_cfg():
    return parse_config_text(SMALL)


# ---------------------------------------------------------------------------
# Helpers


def test_file_sha256(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert file_sha256(path) == hashlib.sha256(b"abc").hexdigest()


# ---------------------------------------------------------------------------
# Stages and manifests


def test_gen_demos_artifacts_and_manifest(small_cfg, tmp_path):
    manifest = run_command("gen-demos", small_cfg, tmp_path)
    assert manifest.command == "gen-demos"
    assert manifest.config == config_to_dict(small_cfg)
    assert manifest.base_seed == 5
    assert set(manifest.artifacts) == {F_DEMOS, F_EVAL}
    for name, digest in manifest.artifacts.items():
        assert digest == file_sha256(tmp_path / name)
    assert set(manifest.seeds) == {"trial0/demos", "eval_set"}
    assert "gen-demos" in manifest.stage_seconds
    on_disk = json.loads((tmp_path / F_MANIFEST).read_text())
    assert on_disk["format_version"] == 1
    assert on_disk["artifacts"] == manifest.artifacts
    # json turns tuples into lists, so compare through a round-trip
    assert on_disk["config"] == json.loads(json.dumps(manifest.config))


def test_run_all_records_one_seed_per_draw(small_run):
    # the evaluation rollout draws nothing, so it records no seed
    seeds = json.loads((small_run / "out" / F_MANIFEST).read_text())["seeds"]
    assert set(seeds) == {
        "trial0/demos",
        "eval_set",
        "trial0/ga",
        "trial0/data",
        "trial0/model0",
        "trial0/policy0",
    }


def test_stages_require_predecessors(small_cfg, tmp_path):
    with pytest.raises(MissingArtifactError):
        run_command("reproduce", small_cfg, tmp_path / "a")
    with pytest.raises(MissingArtifactError):
        run_command("train-reward", small_cfg, tmp_path / "b")
    with pytest.raises(MissingArtifactError):
        run_command("train-policy", small_cfg, tmp_path / "c")
    with pytest.raises(MissingArtifactError):
        run_command("evaluate", small_cfg, tmp_path / "d")


def test_reproduce_validates_demo_file(small_cfg, tmp_path):
    spec = environment("GridNav")
    good, bad = make_demo_pair(spec, 0.1, 0.5, seed=0)
    three = tmp_path / "three"
    three.mkdir()
    extra = make_eval_set(spec, [0.2], 1, seed=0)
    save_trajectories(three / F_DEMOS, [good, bad] + extra)
    with pytest.raises(CorruptArtifactError, match="exactly 2"):
        run_command("reproduce", small_cfg, three)

    wrong_env = tmp_path / "env"
    wrong_env.mkdir()
    pc = environment("PointChase")
    save_trajectories(wrong_env / F_DEMOS, list(make_demo_pair(pc, 0.1, 0.5, seed=0)))
    with pytest.raises(ConfigError, match="not from GridNav"):
        run_command("reproduce", small_cfg, wrong_env)


def test_staged_chain_matches_run_all(small_cfg, tmp_path):
    staged = tmp_path / "staged"
    run_command("gen-demos", small_cfg, staged)
    run_command("reproduce", small_cfg, staged)
    run_command("train-reward", small_cfg, staged)
    run_command("train-policy", small_cfg, staged)
    last = run_command("evaluate", small_cfg, staged)
    for name, digest in last.artifacts.items():
        assert digest == file_sha256(staged / name)

    combined = tmp_path / "all"
    total = run_command("run-all", small_cfg, combined)
    assert set(total.stage_seconds) == {
        "gen-demos",
        "reproduce",
        "train-reward",
        "train-policy",
        "evaluate",
    }
    # stage-by-stage and one-shot runs must produce identical artifacts
    for name in total.artifacts:
        assert (staged / name).read_bytes() == (combined / name).read_bytes(), name


def test_run_all_is_bit_reproducible(small_cfg, tmp_path):
    # compare and sweep are covered here too: two runs of one command write
    # the same bytes
    for command in ("run-all", "compare", "sweep"):
        a = run_command(command, small_cfg, tmp_path / command / "a")
        b = run_command(command, small_cfg, tmp_path / command / "b")
        assert a.artifacts == b.artifacts, command
        for name in a.artifacts:
            assert (tmp_path / command / "a" / name).read_bytes() == (
                tmp_path / command / "b" / name
            ).read_bytes(), (command, name)


# ---------------------------------------------------------------------------
# compare


def test_compare_all_methods_share_one_eval_set(small_cfg, tmp_path):
    manifest = run_command("compare", small_cfg, tmp_path)
    assert manifest.meta["method_errors"] == {}

    with open(tmp_path / F_POLICY_TABLE) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == list(COMPARE_METHODS)
    for r in rows:
        assert r["n_trials"] == "2" and r["n_models"] == "2"
        float(r["avg"])  # filled, parseable

    with open(tmp_path / F_SUMMARY) as fh:
        srows = list(csv.DictReader(fh))
    # BC learns no reward model, so it has no extrapolation row
    assert [r["method"] for r in srows] == [m for m in COMPARE_METHODS if m != "BC"]
    for r in srows:
        assert -1.0 <= float(r["spearman"]) <= 1.0


def test_compare_isolates_a_failing_method(small_cfg, tmp_path):
    import dataclasses

    from genil.genetics import GAConfig

    # one GA attempt cannot fill any middle bucket, so GenIL stalls while
    # the GA-free baselines still complete
    cfg = dataclasses.replace(small_cfg, ga=GAConfig(max_attempts=1))
    manifest = run_command("compare", cfg, tmp_path)
    assert set(manifest.meta["method_errors"]) == {"GenIL"}
    assert "ReproductionStalledError" in manifest.meta["method_errors"]["GenIL"]
    lines = (tmp_path / F_POLICY_TABLE).read_text().splitlines()
    assert lines[1] == "GenIL,,,,,"
    assert lines[2].startswith("T-REX-2,") and "," in lines[2].rstrip(",")
    summary_lines = (tmp_path / F_SUMMARY).read_text().splitlines()
    assert summary_lines[1] == "GenIL,,,,"


def test_compare_propagates_programming_errors(small_cfg, tmp_path, monkeypatch):
    # only GenilError marks a method as failed; anything else is a bug
    def broken(*args):
        raise TypeError("not a method failure")

    monkeypatch.setattr(pipeline, "_run_method_trial", broken)
    with pytest.raises(TypeError, match="not a method failure"):
        run_command("compare", small_cfg, tmp_path)


def literal_bands(cfg) -> tuple[list[float], list[float]]:
    """D-REX's four noise levels and T-REX-multi's five qualities as compare
    spread them over the demo quality band by literal fractions."""
    lo, hi = cfg.env.demo_quality_good, cfg.env.demo_quality_bad
    return (
        [round(lo + f * (hi - lo), 10) for f in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)],
        [round(lo + f * (hi - lo), 10) for f in (0.0, 0.25, 0.5, 0.75, 1.0)],
    )


def test_quality_band_keeps_the_literal_fractions(small_cfg):
    from genil.config import ExperimentConfig

    qualities = sorted({i / 40 for i in range(41)} | {1 / 3, 2 / 3, 0.1 + 0.2, 0.7 / 3})
    configs = [ExperimentConfig(), small_cfg] + [
        dataclasses.replace(
            small_cfg,
            env=dataclasses.replace(small_cfg.env, demo_quality_good=good, demo_quality_bad=bad),
        )
        for good in qualities
        for bad in qualities
        if good < bad
    ]
    for cfg in configs:
        got = (pipeline._quality_band(cfg, 4), pipeline._quality_band(cfg, 5))
        want = literal_bands(cfg)
        assert [[q.hex() for q in band] for band in got] == [
            [q.hex() for q in band] for band in want
        ], (cfg.env.demo_quality_good, cfg.env.demo_quality_bad)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_preconditions(small_cfg, tmp_path):
    import dataclasses

    from genil.config import EvalSection, SweepSection

    with pytest.raises(ConfigError, match=">= 2 step sizes"):
        run_command(
            "sweep",
            dataclasses.replace(small_cfg, sweep=SweepSection(step_sizes=(3,))), tmp_path
        )
    lone_trial = dataclasses.replace(
        small_cfg,
        eval=dataclasses.replace(small_cfg.eval, n_trials=1),
    )
    with pytest.raises(ConfigError, match="n_trials >= 2"):
        run_command("sweep", lone_trial, tmp_path)
    lone_model = dataclasses.replace(
        small_cfg,
        eval=dataclasses.replace(small_cfg.eval, n_models_per_trial=1),
    )
    with pytest.raises(ConfigError, match="n_models_per_trial >= 2"):
        run_command("sweep", lone_model, tmp_path)
    assert not (tmp_path / F_SWEEP).exists()
    # EvalSection referenced so the import is exercised even if the
    # replace() path changes shape later
    assert EvalSection().n_trials == 5


def test_sweep_csv_is_internally_consistent(small_cfg, tmp_path):
    manifest = run_command("sweep", small_cfg, tmp_path)
    # step 5 reaches min_len 5, so the degenerate-crossover warning fires
    assert any("crossover segments span whole snippets" in w for w in manifest.warnings)
    with open(tmp_path / F_SWEEP) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # steps x trials x models
    keys = [(int(r["step_size"]), int(r["trial"]), int(r["model"])) for r in rows]
    assert keys == sorted(keys)
    by_step: dict[int, list[float]] = {}
    for r in rows:
        by_step.setdefault(int(r["step_size"]), []).append(float(r["gt_return"]))
        trial_rows = [
            float(q["gt_return"])
            for q in rows
            if q["step_size"] == r["step_size"] and q["trial"] == r["trial"]
        ]
        assert float(r["trial_std"]) == pytest.approx(
            float(np.std(trial_rows)), abs=1e-8
        )
    for step, values in by_step.items():
        step_rows = [r for r in rows if int(r["step_size"]) == step]
        for r in step_rows:
            assert float(r["step_mean"]) == pytest.approx(
                float(np.mean(values)), abs=1e-8
            )


def python_env(**env_vars):
    """The environment for a fresh interpreter with genil importable and the
    BLAS thread variables unset apart from env_vars."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env.update(PYTHONPATH=str(Path(genil.__file__).resolve().parents[1]), **env_vars)
    return env


def run_python(code, *argv, **env_vars):
    """Run code in a fresh interpreter (see python_env); return its stdout."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=python_env(**env_vars), check=True, capture_output=True, text=True, timeout=600,
    ).stdout


def test_sweep_identical_across_thread_counts(tmp_path):
    # each worker process may run BLAS on several threads; the sweep must
    # write the same bytes at any count. BLAS fixes its count when numpy
    # loads, so each run is its own process.
    cfg_path = write_cfg(tmp_path, SMALL)
    for threads in ("1", "2"):
        argv = ["--config", cfg_path, "--out", str(tmp_path / threads), "--quiet", "sweep"]
        run_python(
            "from genil.cli import entry; entry()", *argv,
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
        )
    assert (tmp_path / "1" / F_SWEEP).read_bytes() == (tmp_path / "2" / F_SWEEP).read_bytes()


# ---------------------------------------------------------------------------
# Trials on every usable CPU: the units of compare and sweep run in forked
# workers, and the output must not depend on how many there are.

STALL = "\n[ga]\nmax_attempts = 1\n"
POINTCHASE = "\n[env]\nname = PointChase\n\n[policy]\ncem_n_iters = 2\n"


def output_files(out):
    """Every file a run wrote, the manifest without its timings."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == F_MANIFEST:
            manifest = json.loads(path.read_text())
            manifest.pop("stage_seconds")
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "command, extra, code, err",
    [
        ("compare", "", 0, ""),
        ("compare", STALL, 0, "genil: warning: GenIL failed: ReproductionStalledError: "),
        ("compare", POINTCHASE, 0, ""),
        ("sweep", "", 0, ""),
        ("sweep", STALL, 4, "genil: reproduction stalled: "),
    ],
    ids=["compare", "compare-stalled", "compare-pointchase", "sweep", "sweep-stalled"],
)
def test_same_output_at_one_and_two_workers(
    tmp_path, monkeypatch, capsys, command, extra, code, err
):
    cfg_path = write_cfg(tmp_path, SMALL + extra)
    runs = []
    for n_cpus in (1, 2):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: n_cpus)
        out = tmp_path / str(n_cpus)
        assert main(["--config", cfg_path, "--out", str(out), "--quiet", command]) == code
        runs.append((capsys.readouterr(), output_files(out)))
    assert runs[0] == runs[1]
    assert runs[0][0].err.startswith(err) if err else runs[0][0].err == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run on Linux only")
def test_workers_inherit_a_unit_function_that_cannot_pickle(monkeypatch):
    # a closure over a lock cannot be pickled: it reaches the workers only
    # because they inherit it
    lock = threading.Lock()

    def unit(i):
        with lock:
            return i * i, os.getpid()

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    results = pipeline._map_units(unit, [(i,) for i in range(6)])
    assert [r[0] for r in results] == [i * i for i in range(6)]
    assert os.getpid() not in {r[1] for r in results}


def test_errors_with_fields_survive_pickling():
    # a worker's exception reaches the parent through pickle
    stalled = pickle.loads(
        pickle.dumps(ReproductionStalledError("stalled", {1: 2, 3: 0}, quota=4, attempts=9))
    )
    assert type(stalled) is ReproductionStalledError and str(stalled) == "stalled"
    assert (stalled.bucket_fill, stalled.quota, stalled.attempts) == ({1: 2, 3: 0}, 4, 9)
    diverged = pickle.loads(pickle.dumps(DivergenceError("non-finite", step=17)))
    assert type(diverged) is DivergenceError and str(diverged) == "non-finite"
    assert diverged.step == 17


def test_train_and_score_compiles_its_pairs_once(small_cfg, grid_dataset, monkeypatch):
    built = []

    class CountedPairs(pipeline.CompiledPairs):
        def __init__(self, pairs):
            built.append(len(pairs))
            super().__init__(pairs)

    monkeypatch.setattr(pipeline, "CompiledPairs", CountedPairs)
    monkeypatch.setattr(reward_net, "CompiledPairs", CountedPairs)
    returns, models = pipeline._train_and_score(
        small_cfg, small_cfg.spec(), grid_dataset.trajectories, ("trial", 0, "GenIL")
    )
    assert len(models) == 2 and built == [small_cfg.data.n_pairs]


# Stands in for `python -m genil.cli`, with two workers on any machine.
TWO_WORKER_CLI = """
import sys
from genil import pipeline
from genil.cli import main
pipeline._usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def live_children(pid):
    """Pids of the processes whose parent is pid, zombies left out."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the directory was read
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            kids.append(int(stat.parent.name))
    return kids


def is_live(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run on Linux only")
def test_workers_exit_when_the_command_is_killed(tmp_path):
    # long enough training that the workers are busy when the kill comes
    cfg_path = write_cfg(tmp_path, SMALL.replace("steps = 50", "steps = 50000"))
    argv = ["--config", cfg_path, "--out", str(tmp_path / "out"), "--quiet", "compare"]
    proc = subprocess.Popen([sys.executable, "-c", TWO_WORKER_CLI, *argv], env=python_env())
    workers = []
    try:
        deadline = time.monotonic() + 120
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = live_children(proc.pid)
        assert len(workers) == 2
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(is_live, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [w for w in workers if is_live(w)] == []
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for w in workers:
            if is_live(w):
                os.kill(w, signal.SIGKILL)


# ---------------------------------------------------------------------------
# The command's process: scipy never loads, and BLAS is held to one thread
# unless the caller chose a count. Each check needs a fresh interpreter.


SCIPY_FREE_RUN = """
import importlib, pkgutil, sys
import genil
from genil.cli import main
for module in pkgutil.iter_modules(genil.__path__):
    importlib.import_module("genil." + module.name)
grid_cfg, point_cfg, out = sys.argv[1:]
runs = ((grid_cfg, "run-all"), (point_cfg, "run-all"), (grid_cfg, "compare"))
for i, (cfg, command) in enumerate(runs):
    assert main(["--config", cfg, "--out", f"{out}/{i}", "--quiet", command]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_never_load_scipy(tmp_path):
    # catches a module-level and a deferred (in-function) scipy import alike
    grid_cfg = write_cfg(tmp_path, SMALL)
    point_cfg = write_cfg(tmp_path, SMALL + "\n[env]\nname = PointChase\n", name="point.cfg")
    stdout = run_python(SCIPY_FREE_RUN, grid_cfg, point_cfg, str(tmp_path))
    assert stdout.splitlines()[-1] == "[]"


def test_no_scipy_import_in_source():
    package = Path(genil.__file__).resolve().parent
    scipy_import = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert [p.name for p in package.rglob("*.py") if scipy_import.search(p.read_text())] == []


# A meta-path finder that sees the environment at the moment numpy (and so
# OpenBLAS) is first looked up, while genil.cli runs as `python -m` runs it.
BLAS_AT_NUMPY_LOAD = """
import os, runpy, sys
seen = []
class NumpyLoadSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])
sys.meta_path.insert(0, NumpyLoadSpy())
sys.argv = ["genil", "--help"]
try:
    runpy.run_module("genil.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(seen)
"""


@pytest.mark.parametrize(
    "env_vars, expected",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, "2")],
    ids=["unset", "set-to-2"],
)
def test_cli_holds_blas_to_one_thread_unless_set(env_vars, expected):
    stdout = run_python(BLAS_AT_NUMPY_LOAD, **env_vars)
    assert stdout.splitlines()[-1] == str([[expected, expected]])


# ---------------------------------------------------------------------------
# The train-and-score unit against reference copies of the two chains it
# replaced: the step-size sweep trial and the GenIL compare trial, as they
# were written before compare and sweep shared one unit.


def reference_policy(cfg, spec, model, policy_seed):
    reward = functools.partial(predict_states, model)
    if spec.name == "GridNav":
        return value_iteration(spec, reward, discount=cfg.policy.discount, tol=cfg.policy.tol)
    return cem_search(spec, reward, cfg.policy.cem(), seed=policy_seed)


def reference_unit_model(cfg, spec, pairs, model_seed):
    """One reward model of a unit, trained alone: by the whole-table loop
    of models in lockstep when the unit has more than one and lockstep
    pays on its pairs, else by train."""
    model = make_reward_model(spec.feature_dim, seed=model_seed)
    lockstep = lockstep_pays(CompiledPairs(pairs), cfg.train.batch_size)
    if cfg.eval.n_models_per_trial == 1 or not lockstep:
        return train([model], pairs, cfg.train, [model_seed])[0].model
    net, _ = reference_train_whole_table(model, pairs, cfg.train, model_seed)
    return RewardModel(MLP(model.net.widths, net.weights, net.biases))


def reference_sweep_trial(cfg, spec, step, trial):
    """(per-model returns, models) for one (step size, trial)."""
    base = cfg.base_seed
    ga = dataclasses.replace(cfg.ga, max_crossover_step=step + 1)
    demo_seed = derive_seed(base, "sweep", step, "trial", trial, "demos")
    good, bad = make_demo_pair(
        spec, cfg.env.demo_quality_good, cfg.env.demo_quality_bad, seed=demo_seed
    )
    dataset = reproduce(good, bad, ga, seed=derive_seed(base, "sweep", step, "trial", trial, "ga"))
    data_seed = derive_seed(base, "sweep", step, "trial", trial, "data")
    snips = subsample(
        dataset.trajectories,
        cfg.data.n_snippets,
        cfg.data.min_len,
        cfg.data.max_len,
        seed=data_seed,
    )
    pairs = make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=data_seed)
    returns, models = [], []
    for m in range(cfg.eval.n_models_per_trial):
        model_seed = derive_seed(base, "sweep", step, "trial", trial, "model", m)
        model = reference_unit_model(cfg, spec, pairs, model_seed)
        models.append(model)
        artifact = reference_policy(
            cfg, spec, model,
            derive_seed(base, "sweep", step, "trial", trial, "policy", m),
        )
        stats = evaluate_policy(artifact, cfg.eval.n_eval_episodes)
        returns.append(stats.mean)
    return returns, models


def reference_genil_trial(cfg, spec, trial, good, bad):
    """(per-model returns, models) of GenIL for one compare trial."""
    base = cfg.base_seed
    dataset = reproduce(good, bad, cfg.ga, seed=derive_seed(base, "trial", trial, "ga"))
    data_seed = derive_seed(base, "trial", trial, "GenIL", "data")
    snips = subsample(
        dataset.trajectories,
        cfg.data.n_snippets,
        cfg.data.min_len,
        cfg.data.max_len,
        seed=data_seed,
    )
    pairs = make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=data_seed)
    returns, models = [], []
    for m in range(cfg.eval.n_models_per_trial):
        model_seed = derive_seed(base, "trial", trial, "GenIL", "model", m)
        model = reference_unit_model(cfg, spec, pairs, model_seed)
        models.append(model)
        artifact = reference_policy(
            cfg, spec, model, derive_seed(base, "trial", trial, "GenIL", "policy", m)
        )
        stats = evaluate_policy(artifact, cfg.eval.n_eval_episodes)
        returns.append(stats.mean)
    return returns, models


def assert_same_models(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a.net.weights + a.net.biases, b.net.weights + b.net.biases):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("env", ["GridNav", "PointChase"])
def test_train_and_score_keeps_the_seeds(small_cfg, env, monkeypatch):
    cfg = dataclasses.replace(small_cfg, env=dataclasses.replace(small_cfg.env, name=env))
    spec = cfg.spec()

    # the sweep trial returns only its returns; catch the unit's models too
    unit, seen = pipeline._train_and_score, []
    monkeypatch.setattr(pipeline, "_train_and_score", lambda *a: seen.append(unit(*a)) or seen[-1])
    want_returns, want_models = reference_sweep_trial(cfg, spec, 5, 1)
    assert pipeline._sweep_trial(cfg, spec, 5, 1) == want_returns
    assert_same_models(seen[-1][1], want_models)

    good, bad = make_demo_pair(spec, 0.1, 0.5, seed=derive_seed(5, "trial", 1, "demos"))
    want_returns, want_models = reference_genil_trial(cfg, spec, 1, good, bad)
    returns, models = pipeline._run_method_trial("GenIL", cfg, spec, 1, good, bad)
    assert returns == want_returns
    assert_same_models(models, want_models)


@pytest.mark.parametrize("env", ["GridNav", "PointChase"])
def test_compare_reports_from_scores_match_the_ensemble_reports(small_cfg, env):
    # the reports compare builds from the scores its units send back, against
    # the report of the uniform ensemble of the units' models (the member mean
    # of their per-state rewards), as compare built it when the units sent
    # back their models
    cfg = dataclasses.replace(small_cfg, env=dataclasses.replace(small_cfg.env, name=env))
    spec = cfg.spec()
    eval_set = make_eval_set(spec, list(cfg.eval.qualities), cfg.eval.n_per_quality, seed=3)
    demo_pairs = [
        make_demo_pair(spec, 0.1, 0.5, seed=derive_seed(5, "trial", t, "demos"))
        for t in range(cfg.eval.n_trials)
    ]
    for method in [m for m, build in COMPARE_METHODS.items() if build is not None]:
        units = [
            pipeline._compare_trial(cfg, spec, demo_pairs, eval_set, method, t)
            for t in range(cfg.eval.n_trials)
        ]
        scores = np.concatenate([u[1] for u in units])
        got = predicted_returns_report(
            pipeline._ensemble_returns(scores, eval_set), eval_set, spec.discount, n_bins=4
        )
        models = [
            model
            for t in range(cfg.eval.n_trials)
            for model in pipeline._run_method_trial(method, cfg, spec, t, *demo_pairs[t])[1]
        ]
        assert len(models) == len(scores) == cfg.eval.n_trials * cfg.eval.n_models_per_trial
        ensemble = lambda s: np.mean([predict_states(m, s) for m in models], axis=0)
        want = extrapolation_report(ensemble, eval_set, spec.discount, n_bins=4)
        assert got == want


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_gen_demos_ok(small_cfg, tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out), "gen-demos"])
    assert code == 0
    assert (out / F_DEMOS).is_file() and (out / F_EVAL).is_file()
    stdout = capsys.readouterr().out
    assert f"genil: gen-demos: wrote 2 artifacts to {out}" in stdout


def test_cli_quiet_suppresses_output(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out), "--quiet", "gen-demos"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_seed_override(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out), "--seed", "77", "gen-demos"]) == 0
    manifest = json.loads((out / F_MANIFEST).read_text())
    assert manifest["base_seed"] == 77
    assert manifest["config"]["seeds"]["base"] == 77


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "[nope]\nx = 1\n")
    assert main(["--config", cfg_path, "--quiet", "gen-demos"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "absent.cfg"), "--quiet", "gen-demos"]) == 2
    # each model's training seed is derived, never set
    cfg_path = write_cfg(tmp_path, "[train]\nseed = 3\n", name="seed.cfg")
    assert main(["--config", cfg_path, "--quiet", "gen-demos"]) == 2
    assert "unknown key 'seed' in [train]" in capsys.readouterr().err


def test_cli_config_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"\xff\xfe[seeds]\nbase = 2\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet", "gen-demos"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"genil: config error: cannot read config file {path}: ")
    assert not out.exists()


def test_cli_batch_larger_than_the_pair_pool_exit_2(tmp_path, capsys):
    # refused at config load, before gen-demos and reproduce run
    cfg_path = write_cfg(tmp_path, "[train]\nbatch_size = 10000000000\n")
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "genil: config error: [train] batch_size 10000000000 exceeds [data] n_pairs 4000"
    ]
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_cli_out_blocked_by_a_file_exit_2(tmp_path, capsys, sub):
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    out = blocker / sub if sub else blocker
    assert main(["--out", str(out), "--quiet", "gen-demos"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"genil: config error: output directory {out} is blocked by a file")
    assert blocker.read_text() == "keep\n"


def test_cli_missing_artifacts_exit_3(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "empty"
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 3
    assert "evaluate failed" in capsys.readouterr().err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run on Linux only")
def test_cli_dead_worker_exit_3(tmp_path, monkeypatch, capsys):
    # a worker killed mid-unit, as by the OOM killer or SIGKILL, leaves no result
    compare_trial = pipeline._compare_trial

    def dies_in_drex(cfg, spec, demo_pairs, eval_set, method, trial):
        if method == "D-REX":
            os._exit(9)
        return compare_trial(cfg, spec, demo_pairs, eval_set, method, trial)

    monkeypatch.setattr(pipeline, "_compare_trial", dies_in_drex)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    cfg_path = write_cfg(tmp_path, SMALL)
    assert main(["--config", cfg_path, "--out", str(tmp_path / "out"), "--quiet", "compare"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "genil: compare failed: a worker process ended without a result"
    ]


class OutOfMemory(MemoryError):
    pass


@pytest.mark.parametrize(
    "error, reason",
    [
        (MemoryError(), "MemoryError"),
        (OutOfMemory("Unable to allocate 224. GiB"), "OutOfMemory: Unable to allocate 224. GiB"),
    ],
    ids=["bare", "with-message"],
)
def test_cli_out_of_memory_exit_3(tmp_path, monkeypatch, capsys, error, reason):
    # raised, not provoked: a kernel that always overcommits would page an
    # oversized allocation in rather than refuse it
    def run_out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr("genil.cli.run_command", run_out_of_memory)
    assert main(["--out", str(tmp_path / "out"), "--quiet", "run-all"]) == 3
    assert capsys.readouterr().err.splitlines() == [f"genil: run-all failed: {reason}"]


def test_cli_stalled_reproduction_exit_4(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL + "\n[ga]\nmax_attempts = 1\n")
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "gen-demos"]) == 0
    capsys.readouterr()
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "reproduce"]) == 4
    err = capsys.readouterr().err
    assert "reproduction stalled" in err
    assert "bucket" in err
    assert "attempts used: 1" in err


def test_failed_command_leaves_the_manifest_of_its_finished_stages(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    stalls = write_cfg(tmp_path, SMALL + STALL, name="stall.cfg")
    out = tmp_path / "out"
    for path, seed, code in ((cfg_path, "1", 0), (stalls, "9", 4)):
        argv = ["--config", path, "--out", str(out), "--seed", seed, "--quiet", "run-all"]
        assert main(argv) == code
    assert "reproduction stalled" in capsys.readouterr().err
    manifest = json.loads((out / F_MANIFEST).read_text())
    assert (manifest["command"], manifest["base_seed"]) == ("run-all", 9)
    assert manifest["config"]["ga"]["max_attempts"] == 1
    assert set(manifest["stage_seconds"]) == {"gen-demos"}
    assert manifest["artifacts"] == {
        name: file_sha256(out / name) for name in (F_DEMOS, F_EVAL)
    }


def test_cli_sweep_emits_warnings(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out), "sweep"]) == 0
    stdout = capsys.readouterr().out
    assert "genil: warning:" in stdout
    assert (out / F_SWEEP).is_file()


def test_cli_compare_warns_about_a_failed_method(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL + "\n[ga]\nmax_attempts = 1\n")
    out = tmp_path / "out"
    # GenIL stalls; the other methods finish and the command still exits 0
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "compare"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("genil: warning: GenIL failed: ReproductionStalledError: ")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished run-all at SMALL; tests copy it before they edit it."""
    root = tmp_path_factory.mktemp("small-run")
    cfg_path = write_cfg(root, SMALL)
    assert main(["--config", cfg_path, "--out", str(root / "out"), "--quiet", "run-all"]) == 0
    return root


SMALL_PC = SMALL + POINTCHASE


@pytest.fixture(scope="module")
def small_pc_run(tmp_path_factory):
    """A finished run-all at SMALL on PointChase, with two CEM iterations."""
    root = tmp_path_factory.mktemp("small-pc-run")
    cfg_path = write_cfg(root, SMALL_PC)
    assert main(["--config", cfg_path, "--out", str(root / "out"), "--quiet", "run-all"]) == 0
    return root


def copy_run(small_run, tmp_path, text=SMALL):
    shutil.copytree(small_run / "out", tmp_path / "out")
    return write_cfg(tmp_path, text), tmp_path / "out"


def file_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


TRAJECTORY_FILES = [(F_DEMOS, "reproduce"), (F_RANKED, "train-reward"), (F_EVAL, "evaluate")]


def write_nan_model(out):
    payload = json.loads((out / F_MODEL).read_text())
    payload["params"][0] = float("nan")
    (out / F_MODEL).write_text(json.dumps(payload))


def test_cli_train_policy_refuses_a_nan_reward(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    write_nan_model(out)
    t0 = time.perf_counter()
    code = main(["--config", cfg_path, "--out", str(out), "--quiet", "train-policy"])
    assert code == 3 and time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genil: train-policy failed: malformed artifact {out / F_MODEL}: "
                   "non-finite parameters"]


def test_cli_evaluate_refuses_a_nan_model(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    write_nan_model(out)
    summary = (out / F_SUMMARY).read_bytes()
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genil: evaluate failed: malformed artifact {out / F_MODEL}: "
                   "non-finite parameters"]
    assert (out / F_SUMMARY).read_bytes() == summary


# one step at this rate makes a reward model whose predictions overflow
DIVERGED = SMALL.replace("steps = 50", "steps = 1\nlearning_rate = 1e300")


def run_cli(*argv):
    """Run genil's command line in a fresh interpreter (see python_env), so
    that numpy's warnings reach its stderr; its exit code and stderr lines."""
    done = subprocess.run(
        [sys.executable, "-c", "from genil.cli import entry; entry()", *argv],
        env=python_env(), capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stderr.splitlines()


@pytest.mark.parametrize("env, reason", [
    ("GridNav", "non-finite cell reward: value iteration cannot converge"),
    ("PointChase", "non-finite candidate fitness at CEM iteration 0"),
], ids=["GridNav", "PointChase"])
def test_cli_run_all_refuses_a_diverged_reward_in_one_line(tmp_path, env, reason):
    cfg_path = write_cfg(tmp_path, DIVERGED + f"\n[env]\nname = {env}\n")
    code, err = run_cli("--config", cfg_path, "--out", str(tmp_path / "out"), "--quiet", "run-all")
    assert (code, err) == (3, [f"genil: run-all failed: {reason}"])


def test_cli_compare_warns_only_that_diverged_methods_failed(tmp_path):
    cfg_path = write_cfg(tmp_path, DIVERGED)
    code, err = run_cli("--config", cfg_path, "--out", str(tmp_path / "out"), "--quiet", "compare")
    reason = "DivergenceError: non-finite cell reward: value iteration cannot converge"
    assert (code, err) == (0, [
        f"genil: warning: {method} failed: {reason}"
        for method, build in COMPARE_METHODS.items() if build is not None
    ])


def test_cli_evaluate_refuses_a_diverged_reward_model(small_run, tmp_path):
    """evaluate writes no table of NaNs from a model whose predictions
    overflow, and says why in one line."""
    cfg_path, out = copy_run(small_run, tmp_path)
    diverged = write_cfg(tmp_path, DIVERGED, name="diverged.cfg")
    assert main(["--config", diverged, "--out", str(out), "--quiet", "train-reward"]) == 0
    tables = [F_EXTRAPOLATION, F_SUMMARY, F_POLICY_TABLE]
    before = [(out / name).read_bytes() for name in tables]
    code, err = run_cli("--config", cfg_path, "--out", str(out), "--quiet", "evaluate")
    assert (code, err) == (3, [
        "genil: evaluate failed: non-finite predicted return nan of eval trajectory 'eval-q0-0'"
    ])
    assert [(out / name).read_bytes() for name in tables] == before


@pytest.mark.parametrize(
    "run_env, model_env", [("GridNav", "PointChase"), ("PointChase", "GridNav")]
)
def test_cli_train_policy_refuses_a_model_from_the_other_env(
    small_run, tmp_path, capsys, run_env, model_env
):
    _, out = copy_run(small_run, tmp_path)
    cfg_path = write_cfg(tmp_path, SMALL + f"\n[env]\nname = {run_env}\n")
    n_in = environment(model_env).feature_dim
    reward_net.save_model(make_reward_model(n_in, seed=0), out / F_MODEL)
    policy = (out / F_POLICY).read_bytes()
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "train-policy"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genil: config error: {out / F_MODEL}: reward model takes {n_in} "
                   f"features, {run_env} states have {environment(run_env).feature_dim}"]
    assert (out / F_POLICY).read_bytes() == policy


@pytest.mark.parametrize("name, stage", TRAJECTORY_FILES)
@pytest.mark.parametrize("relabel", [False, True], ids=["other-env", "wrong-width"])
def test_cli_refuses_trajectories_from_the_other_env(
    small_run, small_pc_run, tmp_path, capsys, name, stage, relabel
):
    """PointChase trajectories in a GridNav run are refused, naming the
    file, whether they say PointChase or claim GridNav with 3-wide states."""
    cfg_path, out = copy_run(small_run, tmp_path)
    if name == F_RANKED:
        shutil.copy(small_pc_run / "out" / F_RANKED_MANIFEST, out / F_RANKED_MANIFEST)
    trajectories = load_trajectories(small_pc_run / "out" / name)
    if relabel:
        trajectories = [dataclasses.replace(t, env="GridNav") for t in trajectories]
    save_trajectories(out / name, trajectories)
    before = file_bytes(out)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", stage]) == 2
    err = capsys.readouterr().err.splitlines()
    reason = (
        f"trajectory {trajectories[0].id!r} has 3 features, GridNav states have 66"
        if relabel
        else "trajectories are not from GridNav"
    )
    assert err == [f"genil: config error: {out / name}: {reason}"]
    assert file_bytes(out) == before


def test_cli_evaluate_refuses_step_rewards_that_are_not_the_true_reward(
    small_run, tmp_path, capsys
):
    cfg_path, out = copy_run(small_run, tmp_path)
    trajectories = load_trajectories(out / F_EVAL)
    first = trajectories[0]
    trajectories[0] = dataclasses.replace(
        first, gt_step_rewards=np.full(len(first), 5.0)
    )
    save_trajectories(out / F_EVAL, trajectories)
    before = file_bytes(out)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genil: evaluate failed: malformed artifact {out / F_EVAL}: trajectory "
                   f"{first.id!r}: step rewards are not GridNav's true reward of its states"]
    assert file_bytes(out) == before


def set_actions(trajectory, values):
    """trajectory with its first actions replaced by values, in the dtype
    the loader gives such a list."""
    actions = list(trajectory.actions)
    actions[: len(values)] = values
    dtype = np.int64 if all(isinstance(a, (int, np.integer)) for a in actions) else np.float64
    return dataclasses.replace(trajectory, actions=np.array(actions, dtype=dtype))


GRID_ACTIONS = "GridNav actions must be integers in [0, 4)"
PC_ACTIONS = "PointChase actions must be finite numbers in [-1, 1]"


@pytest.mark.parametrize(
    "env, name, stage, values, reason",
    [
        ("GridNav", F_DEMOS, "reproduce", [7] * 50, GRID_ACTIONS),
        ("GridNav", F_EVAL, "evaluate", [1.5], GRID_ACTIONS),
        ("PointChase", F_EVAL, "evaluate", [3] * 100, PC_ACTIONS),
    ],
    ids=["grid-all-7", "grid-1.5", "pointchase-grid-action"],
)
def test_cli_refuses_actions_the_environment_cannot_take(
    small_run, small_pc_run, tmp_path, capsys, env, name, stage, values, reason
):
    """Out-of-range GridNav actions, a float among them, and GridNav's
    integer action ids in a PointChase file are refused, naming the file
    and the trajectory."""
    run, text = (small_run, SMALL) if env == "GridNav" else (small_pc_run, SMALL_PC)
    cfg_path, out = copy_run(run, tmp_path, text)
    trajectories = load_trajectories(out / name)
    trajectories[0] = set_actions(trajectories[0], values)
    save_trajectories(out / name, trajectories)
    before = file_bytes(out)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", stage]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genil: {stage} failed: malformed artifact {out / name}: "
                   f"trajectory {trajectories[0].id!r}: {reason}"]
    assert file_bytes(out) == before


def edit_policy(out, **fields):
    payload = json.loads((out / F_POLICY).read_text())
    (out / F_POLICY).write_text(json.dumps({**payload, **fields}))


def parameters(out):
    return json.loads((out / F_POLICY).read_text())["parameters"]


TABLE = "ValueError: GridNav policy parameters must be 64 integers in [0, 4)"
GAINS = "ValueError: PointChase policy parameters must be 3 finite numbers"
TOO_LARGE = "OverflowError: int too large to convert to float"


@pytest.mark.parametrize(
    "env, edit, reason",
    [
        ("GridNav", lambda out: edit_policy(out, parameters=parameters(out)[:10]), TABLE),
        ("GridNav", lambda out: edit_policy(out, parameters=[7] + parameters(out)[1:]), TABLE),
        ("GridNav", lambda out: edit_policy(out, parameters=[1.5] + parameters(out)[1:]), TABLE),
        (
            "GridNav",
            lambda out: edit_policy(out, env="Atlantis"),
            "ValueError: unknown policy environment 'Atlantis'",
        ),
        ("PointChase", lambda out: edit_policy(out, parameters=parameters(out)[:2]), GAINS),
        (
            "PointChase",
            lambda out: edit_policy(out, parameters=[float("nan")] + parameters(out)[1:]),
            GAINS,
        ),
        ("PointChase", lambda out: edit_policy(out, parameters=[True, 0.0, 1.0]), GAINS),
        (
            "PointChase",
            lambda out: edit_policy(out, parameters=[10**400] + parameters(out)[1:]),
            TOO_LARGE,
        ),
    ],
    ids=["short-table", "action-7", "float-action", "unknown-env",
         "two-gains", "nan-gain", "bool-gain", "huge-gain"],
)
def test_cli_evaluate_refuses_a_malformed_policy(
    small_run, small_pc_run, tmp_path, capsys, env, edit, reason
):
    run, text = (small_run, SMALL) if env == "GridNav" else (small_pc_run, SMALL_PC)
    cfg_path, out = copy_run(run, tmp_path, text)
    edit(out)
    before = file_bytes(out)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genil: evaluate failed: malformed artifact {out / F_POLICY}: {reason}"]
    assert file_bytes(out) == before


@pytest.mark.parametrize(
    "env, kind", [("GridNav", "greedy_tabular"), ("PointChase", "linear_gaussian")]
)
def test_cli_evaluate_ignores_the_kind_an_older_policy_file_holds(
    small_run, small_pc_run, tmp_path, env, kind
):
    run, text = (small_run, SMALL) if env == "GridNav" else (small_pc_run, SMALL_PC)
    written = {}
    for label in ("new", "old"):
        cfg_path, out = copy_run(run, tmp_path / label, text)
        if label == "old":
            payload = json.loads((out / F_POLICY).read_text())
            older = {"format_version": payload["format_version"], "kind": kind, **payload}
            (out / F_POLICY).write_text(json.dumps(older) + "\n")
        assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 0
        written[label] = {
            name: data
            for name, data in file_bytes(out).items()
            if name not in (F_POLICY, F_MANIFEST)
        }
    assert written["old"] == written["new"]


@pytest.mark.parametrize("run_env", ["GridNav", "PointChase"])
def test_cli_evaluate_refuses_a_policy_from_the_other_env(
    small_run, small_pc_run, tmp_path, capsys, run_env
):
    run, other, text = (
        (small_run, small_pc_run, SMALL)
        if run_env == "GridNav"
        else (small_pc_run, small_run, SMALL_PC)
    )
    cfg_path, out = copy_run(run, tmp_path, text)
    shutil.copy(other / "out" / F_POLICY, out / F_POLICY)
    before = file_bytes(out)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 2
    other_env = "PointChase" if run_env == "GridNav" else "GridNav"
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: config error: {out / F_POLICY}: policy is for {other_env}, not {run_env}"
    ]
    assert file_bytes(out) == before


def truncate(path):
    """Cut a file at half its length, off a line end, so it cannot parse."""
    data = path.read_bytes()
    cut = len(data) // 2
    if data[cut - 1 : cut] == b"\n":
        cut -= 1
    path.write_bytes(data[:cut])


@pytest.mark.parametrize(
    "name, stage",
    [
        (F_DEMOS, "reproduce"),
        (F_RANKED, "train-reward"),
        (F_RANKED_MANIFEST, "train-reward"),
        (F_MODEL, "train-policy"),
        (F_MODEL, "evaluate"),
        (F_POLICY, "evaluate"),
        (F_EVAL, "evaluate"),
    ],
)
def test_cli_refuses_a_truncated_artifact(small_run, tmp_path, capsys, name, stage):
    cfg_path, out = copy_run(small_run, tmp_path)
    truncate(out / name)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", stage]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"genil: {stage} failed: malformed artifact {out / name}: ")


def test_cli_refuses_a_ranked_file_cut_at_a_line_end(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    lines = (out / F_RANKED).read_bytes().splitlines(keepends=True)
    (out / F_RANKED).write_bytes(b"".join(lines[:-4]))
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "train-reward"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: train-reward failed: malformed artifact {out / F_RANKED}: "
        f"its trajectories do not rank as {out / F_RANKED_MANIFEST} lists them"
    ]


def test_cli_refuses_ranked_step_ranks_moved_out_of_their_bucket(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    records = [json.loads(line) for line in (out / F_RANKED).read_text().splitlines()]
    for record in records:
        if record["id"] == "off-000":
            record["step_ranks"] = [4.0] * len(record["step_ranks"])
    (out / F_RANKED).write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "train-reward"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: train-reward failed: malformed artifact {out / F_RANKED}: "
        f"its trajectories do not rank as {out / F_RANKED_MANIFEST} lists them"
    ]


def test_cli_refuses_a_ranked_manifest_that_lacks_a_ga_key(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    manifest = json.loads((out / F_RANKED_MANIFEST).read_text())
    del manifest["config"]["mutation_rate"], manifest["config"]["max_attempts"]
    (out / F_RANKED_MANIFEST).write_text(json.dumps(manifest))
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "train-reward"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: train-reward failed: malformed artifact {out / F_RANKED_MANIFEST}: "
        "GA config lacks mutation_rate, max_attempts"
    ]


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "name, stage, edit",
    [
        (F_MODEL, "train-policy", lambda p: p.update(widths=[66, 0, 1])),
        (F_MODEL, "train-policy", lambda p: p.update(params=p["params"][:-1])),
        (F_MODEL, "train-policy", lambda p: p.update(widths=[66])),
        (F_MODEL, "train-policy", lambda p: p.update(activation="tanh")),
        (F_MODEL, "train-policy", lambda p: p.update(kind="x")),
        (F_MODEL, "train-policy", lambda p: p.update(format_version=7)),
        (F_POLICY, "evaluate", lambda p: p.update(format_version=2)),
        (F_MODEL, "train-policy", lambda p: p.update(params=[10**400] + p["params"][1:])),
    ],
    ids=["zero-width", "params-one-short", "one-width", "tanh", "kind", "model-version",
         "policy-version", "huge-param"],
)
def test_cli_refuses_a_malformed_model_or_policy_naming_the_file(
    small_run, tmp_path, capfd, name, stage, edit
):
    cfg_path, out = copy_run(small_run, tmp_path)
    edit_json(out / name, edit)
    before = file_bytes(out)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", stage]) == 3
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith(f"genil: {stage} failed: malformed artifact {out / name}: ")
    assert file_bytes(out) == before


def load_checks():
    """benchmarks/checks.py, which recomputes what a run must satisfy
    without importing genil."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "checks.py"
    spec = importlib.util.spec_from_file_location("genil_bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_run_all_files_the_demos_in_the_end_buckets_for_any_rank_low(tmp_path):
    # rank_high defaults to 6: the demos' mean step ranks 2 and 6 are buckets 0 and 4
    cfg_path = write_cfg(tmp_path, SMALL + "\n[ga]\nrank_low = 2\n")
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "run-all"]) == 0
    ranks = json.loads((out / F_RANKED_MANIFEST).read_text())["ranks"]
    assert (ranks["0"], ranks["4"]) == (["demo-bad"], ["demo-good"])
    results = load_checks().check_run_all(out, {"env": "GridNav", "seed": 5})
    assert "ranked.buckets" in dict(results)
    assert [r for r in results if r[1] is not None] == []


def test_cli_refuses_a_demo_file_cut_at_a_line_end(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    first = (out / F_DEMOS).read_bytes().splitlines(keepends=True)[0]
    (out / F_DEMOS).write_bytes(first)
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "reproduce"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: reproduce failed: malformed artifact {out / F_DEMOS}: "
        "must hold exactly 2 trajectories, got 1"
    ]


def test_cli_refuses_an_eval_file_cut_at_a_line_end(small_run, tmp_path, capsys):
    cfg_path, out = copy_run(small_run, tmp_path)
    lines = (out / F_EVAL).read_bytes().splitlines(keepends=True)
    (out / F_EVAL).write_bytes(b"".join(lines[:-1]))
    summary = (out / F_SUMMARY).read_bytes()
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: evaluate failed: malformed artifact {out / F_EVAL}: "
        f"{len(lines) - 1} trajectories, the eval config makes {len(lines)}"
    ]
    assert (out / F_SUMMARY).read_bytes() == summary


META = "trajectory {id!r}: meta must be an object"


def huge_state(record):
    record["states"][0][0] = 10**400


@pytest.mark.parametrize(
    "name, stage, edit, reason",
    [(n, s, lambda r: r.update(meta=[]), META) for n, s in TRAJECTORY_FILES]
    + [(n, s, huge_state, TOO_LARGE) for n, s in TRAJECTORY_FILES],
    ids=[f"{n}-{s}" for n, s in TRAJECTORY_FILES]
    + [f"{n}-{s}-huge-state" for n, s in TRAJECTORY_FILES],
)
def test_cli_refuses_a_trajectory_field_of_the_wrong_type_naming_the_file(
    small_run, tmp_path, capsys, name, stage, edit, reason
):
    cfg_path, out = copy_run(small_run, tmp_path)
    first, *rest = (out / name).read_text().splitlines(keepends=True)
    record = json.loads(first)
    edit(record)
    (out / name).write_text(json.dumps(record) + "\n" + "".join(rest))
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", stage]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"genil: {stage} failed: malformed artifact {out / name}: "
        + reason.format(id=record["id"])
    ]


@pytest.mark.parametrize("command", sorted(pipeline.COMMANDS))
def test_command_writes_exactly_its_stages_declared_outputs(small_run, tmp_path, command):
    # inputs a command reads before any of its own stages writes them come
    # from a finished run-all
    needed, written = set(), set()
    for stage in pipeline.COMMANDS[command][0]:
        _, reads, writes = pipeline.STAGES[stage]
        needed |= set(reads) - written
        written |= set(writes)
    out = tmp_path / "out"
    out.mkdir()
    for name in needed:
        shutil.copy(small_run / "out" / name, out / name)
    manifest = run_command(command, parse_config_text(SMALL), out)
    assert set(manifest.artifacts) == written
    assert {p.name for p in out.iterdir()} == needed | written | {F_MANIFEST}
    assert set(manifest.stage_seconds) == set(pipeline.COMMANDS[command][0])


# ---------------------------------------------------------------------------
# One read path: run_command loads every stage input through LOADERS

READERS = {"open", "read_text", "read_bytes", "load_trajectories", "load_model", "load_policy",
           "RankedDataset.load"}


def stage_reads(source: str) -> dict[str, list[str]]:
    """Each stage_* function's calls to a reader of READERS, by name or as
    a module's or object's attribute, sorted."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("stage_"):
            called = [ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)]
            found[node.name] = sorted(
                c for c in called if c in READERS or any(c.endswith("." + r) for r in READERS)
            )
    return found


def test_the_check_finds_each_read_in_a_stage():
    source = "\n".join([
        "def stage_a(cfg, out, manifest):",
        "    demos = load_trajectories(out / F_DEMOS)",
        "    with open(out / F_MODEL) as fh: pass",
        "    data = genetics.RankedDataset.load(out / F_RANKED, out / F_RANKED_MANIFEST)",
        "    text = (out / F_EVAL).read_text()",
        "def stage_b(cfg, out, manifest, model, policy):",
        "    save_policy(policy, out / F_POLICY)",
        "def _helper(path):",
        "    return load_policy(path)",
    ])
    assert stage_reads(source) == {
        "stage_a": ["(out / F_EVAL).read_text", "genetics.RankedDataset.load",
                    "load_trajectories", "open"],
        "stage_b": [],
    }


def test_no_stage_opens_a_file_it_reads():
    reads = stage_reads(Path(pipeline.__file__).read_text())
    assert set(reads) == {run.__name__ for run, _, _ in pipeline.STAGES.values()}
    assert {stage: calls for stage, calls in reads.items() if calls} == {}


def test_every_declared_read_has_one_loader_and_one_stage_parameter():
    """The ranked manifest is read with the ranked dataset, by its loader."""
    declared = {name for _, reads, _ in pipeline.STAGES.values() for name in reads}
    assert set(pipeline.LOADERS) == declared - {F_RANKED_MANIFEST}
    for run, reads, _ in pipeline.STAGES.values():
        inputs = list(inspect.signature(run).parameters)[3:]
        assert len(inputs) == len([name for name in reads if name in pipeline.LOADERS])
