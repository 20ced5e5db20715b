"""File-artifact orchestration: stage chaining, manifests, reproducibility,
method comparison, the step-size sweep, and the command-line wrapper."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genil
from genil import pipeline
from genil.cli import main
from genil.config import config_to_dict, parse_config_text
from genil.envs import make_demo_pair, make_eval_set, make_spec
from genil.errors import ConfigError, MissingArtifactError
from genil.genetics import relabel_demos, reproduce
from genil.policy_opt import cem_search, evaluate_policy, value_iteration
from genil.reward_net import make_reward_model, train
from genil.seeding import derive_seed
from genil.snippets import make_pairs, subsample
from genil.pipeline import (
    COMPARE_METHODS,
    F_DEMOS,
    F_EVAL,
    F_MANIFEST,
    F_MODEL,
    F_POLICY,
    F_POLICY_TABLE,
    F_RANKED,
    F_SUMMARY,
    F_SWEEP,
    file_sha256,
    run_command,
)
from genil.trajectory import save_trajectories

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
    spec = make_spec("GridNav")
    good, bad = make_demo_pair(spec, 0.1, 0.5, seed=0)
    three = tmp_path / "three"
    three.mkdir()
    extra = make_eval_set(spec, [0.2], 1, seed=0)
    save_trajectories(three / F_DEMOS, [good, bad] + extra)
    with pytest.raises(ConfigError, match="exactly 2"):
        run_command("reproduce", small_cfg, three)

    wrong_env = tmp_path / "env"
    wrong_env.mkdir()
    pc = make_spec("PointChase")
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
    eval_hash = manifest.artifacts[F_EVAL]
    assert set(manifest.meta["method_eval_hash"]) == set(COMPARE_METHODS)
    assert set(manifest.meta["method_eval_hash"].values()) == {eval_hash}

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


def test_sweep_identical_across_thread_counts(tmp_path):
    # trials run serially, but BLAS may use several threads; the sweep must
    # write the same bytes at any count. BLAS fixes its count when numpy
    # loads, so each run is its own process.
    cfg_path = write_cfg(tmp_path, SMALL)
    src = str(Path(genil.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=src,
        )
        argv = ["--config", cfg_path, "--out", str(tmp_path / threads), "--quiet", "sweep"]
        subprocess.run(
            [sys.executable, "-c", "from genil.cli import entry; entry()", *argv],
            env=env,
            check=True,
            timeout=600,
        )
    assert (tmp_path / "1" / F_SWEEP).read_bytes() == (tmp_path / "2" / F_SWEEP).read_bytes()


# ---------------------------------------------------------------------------
# The train-and-score unit against reference copies of the two chains it
# replaced: the step-size sweep trial and the GenIL compare trial, as they
# were written before compare and sweep shared one unit.


def reference_policy(cfg, spec, reward, policy_seed):
    if spec.name == "GridNav":
        return value_iteration(
            spec, reward, discount=cfg.policy.discount, tol=cfg.policy.tol, source_model=None
        )
    return cem_search(spec, reward, cfg.policy.cem(), seed=policy_seed, source_model=None)


def reference_sweep_trial(cfg, spec, step, trial):
    """(per-model returns, models) for one (step size, trial)."""
    base = cfg.base_seed
    ga = dataclasses.replace(cfg.ga, max_crossover_step=step + 1)
    demo_seed = derive_seed(base, "sweep", step, "trial", trial, "demos")
    good, bad = make_demo_pair(
        spec, cfg.env.demo_quality_good, cfg.env.demo_quality_bad, seed=demo_seed
    )
    g, b = relabel_demos(good, bad, ga)
    dataset = reproduce([g, b], ga, seed=derive_seed(base, "sweep", step, "trial", trial, "ga"))
    data_seed = derive_seed(base, "sweep", step, "trial", trial, "data")
    snips = subsample(
        dataset, cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len, seed=data_seed
    )
    pairs = make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=data_seed)
    returns, models = [], []
    for m in range(cfg.eval.n_models_per_trial):
        model_seed = derive_seed(base, "sweep", step, "trial", trial, "model", m)
        train_cfg = dataclasses.replace(cfg.train, seed=model_seed)
        result = train(make_reward_model(spec.feature_dim, seed=model_seed), pairs, train_cfg)
        models.append(result.model)
        artifact = reference_policy(
            cfg, spec, result.model,
            derive_seed(base, "sweep", step, "trial", trial, "policy", m),
        )
        stats = evaluate_policy(
            artifact, spec, cfg.eval.n_eval_episodes,
            seed=derive_seed(base, "sweep", step, "trial", trial, "policy-eval", m),
        )
        returns.append(stats.mean)
    return returns, models


def reference_genil_trial(cfg, spec, trial, good, bad):
    """(per-model returns, models) of GenIL for one compare trial."""
    base = cfg.base_seed
    g, b = relabel_demos(good, bad, cfg.ga)
    dataset = reproduce([g, b], cfg.ga, seed=derive_seed(base, "trial", trial, "ga"))
    data_seed = derive_seed(base, "trial", trial, "GenIL", "data")
    snips = subsample(
        dataset, cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len, seed=data_seed
    )
    pairs = make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=data_seed)
    returns, models = [], []
    for m in range(cfg.eval.n_models_per_trial):
        model_seed = derive_seed(base, "trial", trial, "GenIL", "model", m)
        train_cfg = dataclasses.replace(cfg.train, seed=model_seed)
        result = train(make_reward_model(spec.feature_dim, seed=model_seed), pairs, train_cfg)
        models.append(result.model)
        artifact = reference_policy(
            cfg, spec, result.model, derive_seed(base, "trial", trial, "GenIL", "policy", m)
        )
        stats = evaluate_policy(
            artifact, spec, cfg.eval.n_eval_episodes,
            seed=derive_seed(base, "trial", trial, "GenIL", "policy-eval", m),
        )
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


def test_cli_missing_artifacts_exit_3(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "empty"
    assert main(["--config", cfg_path, "--out", str(out), "--quiet", "evaluate"]) == 3
    assert "evaluate failed" in capsys.readouterr().err


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
