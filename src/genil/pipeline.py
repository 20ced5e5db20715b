"""End-to-end experiment orchestration over file artifacts.

Every stage reads and writes files under one output directory, so any
stage can be rerun in isolation.  A run manifest records the config
echo, a content hash for every emitted artifact, per-stage wall-clock,
and the derived seeds, which makes bit-level reproducibility checkable
from the manifest alone.  STAGES maps each stage name to its function,
COMMANDS maps each command to the stages it runs in order, and
run_command runs one command under one manifest.

Seed discipline: each unit of work owns a seed derived from
(base_seed, labels..., kind[, model]), so no stage's RNG consumption can
perturb another's stream.  The single-lineage stages (gen-demos through
evaluate) are trial 0 of the "genil" method; compare and sweep span
their full trial/model grids and score every trial of a reward-learning
method with the same train-and-score unit.  Their units share nothing,
so they run on every CPU the process may use, with identical output at
any count.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import (
    BCConfig,
    build_drex_dataset,
    build_trex2_dataset,
    build_trex_dataset,
    train_bc,
)
from .config import ExperimentConfig, config_to_dict
from .envs import ENV_GRIDNAV, EnvSpec, make_demo_pair, make_eval_set
from .errors import ConfigError, GenilError, MissingArtifactError
from .fileio import atomic_write
from .genetics import RankedDataset, relabel_demos, reproduce
from .metrics import (
    extrapolation_report,
    policy_table_row,
    write_extrapolation_csv,
    write_loss_csv,
    write_policy_table_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .policy_opt import (
    PolicyArtifact,
    cem_search,
    evaluate_policy,
    load_policy,
    policy_returns,
    save_policy,
    value_iteration,
)
from .reward_net import (
    CompiledPairs,
    RewardEnsemble,
    TrainResult,
    load_model,
    make_reward_model,
    save_model,
    train,
)
from .seeding import derive_seed
from .snippets import make_pairs, save_pairs, subsample
from .trajectory import load_trajectories, save_trajectories

MANIFEST_VERSION = 1

# canonical artifact names within an output directory
F_DEMOS = "demos.jsonl"
F_EVAL = "eval.jsonl"
F_RANKED = "ranked.jsonl"
F_RANKED_MANIFEST = "ranked_manifest.json"
F_PAIRS = "pairs.jsonl"
F_MODEL = "model.json"
F_LOSS = "loss_curve.csv"
F_POLICY = "policy.json"
F_EXTRAPOLATION = "extrapolation.csv"
F_SUMMARY = "summary.csv"
F_POLICY_TABLE = "policy_table.csv"
F_SWEEP = "sweep.csv"
F_MANIFEST = "manifest.json"

COMPARE_METHODS = ("GenIL", "T-REX-2", "T-REX-multi", "D-REX", "BC")

def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Record of one command run: config echo, artifact hashes, timings."""

    command: str
    config: dict
    base_seed: int
    artifacts: dict[str, str] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    seeds: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_artifact(self, out_dir: Path, name: str) -> None:
        self.artifacts[name] = file_sha256(out_dir / name)

    def save(self, out_dir: Path) -> None:
        payload = {
            "format_version": MANIFEST_VERSION,
            "command": self.command,
            "config": self.config,
            "base_seed": self.base_seed,
            "artifacts": self.artifacts,
            "stage_seconds": self.stage_seconds,
            "seeds": self.seeds,
            "warnings": self.warnings,
            "meta": self.meta,
        }
        with atomic_write(out_dir / F_MANIFEST) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _require(out: Path, *names: str) -> None:
    for name in names:
        if not (out / name).is_file():
            raise MissingArtifactError(
                f"missing {name} in {out}; run the producing stage first"
            )


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where units stay in-process."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _exit_with_parent(parent_pid: int) -> None:
    """Pool worker initializer: exit once the parent is gone.

    A worker blocked on its task queue would otherwise outlive a parent
    killed by SIGKILL, which runs no clean-up.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _map_units(fn, units: list[tuple]) -> list:
    """[fn(*u) for u in units], spread over the usable CPUs.

    Results come back in unit order, and the first unit in that order
    that raises decides the exception.  Units must share no state, as the
    seeds derived from their own labels make them.  Workers are forked:
    they inherit the loaded modules, and need no __main__ guard in a
    calling script, which spawn and forkserver do.  genil starts no thread
    of its own before the fork.
    """
    n_workers = min(len(units), _usable_cpus())
    if n_workers <= 1:
        return [fn(*u) for u in units]
    # imported here: they would add a tenth to every command's start-up
    import concurrent.futures
    import multiprocessing

    with concurrent.futures.ProcessPoolExecutor(
        n_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    ) as pool:
        # a failing unit cancels those not yet started
        return list(pool.map(fn, *zip(*units)))


class _Timed:
    def __init__(self, manifest: RunManifest, stage: str):
        self.manifest = manifest
        self.stage = stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.stage_seconds[self.stage] = time.perf_counter() - self.t0
        return False


# ---------------------------------------------------------------------------
# Shared steps.  A seed is derive_seed(base, *labels, kind[, model]): the
# single-lineage stages use the labels _LINEAGE, compare ("trial", t,
# method), and sweep ("sweep", step, "trial", t); demos and GA draws hang
# off the trial's labels without the method.

_LINEAGE = ("trial", 0, "genil")


def _demo_pair(cfg: ExperimentConfig, spec: EnvSpec, seed: int):
    return make_demo_pair(
        spec, cfg.env.demo_quality_good, cfg.env.demo_quality_bad, seed=seed
    )


def _write_eval_set(cfg: ExperimentConfig, spec: EnvSpec, out: Path, manifest: RunManifest):
    """Generate and save the evaluation set, recording its seed and hash."""
    seed = derive_seed(cfg.base_seed, "eval-set")
    eval_set = make_eval_set(spec, list(cfg.eval.qualities), cfg.eval.n_per_quality, seed)
    save_trajectories(out / F_EVAL, eval_set)
    manifest.seeds["eval_set"] = seed
    manifest.add_artifact(out, F_EVAL)
    return eval_set


def _grow(good, bad, ga, seed: int) -> RankedDataset:
    """GenIL's ranked dataset: relabel the demo pair, then reproduce it."""
    return reproduce(list(relabel_demos(good, bad, ga)), ga, seed=seed)


def _pairs(cfg: ExperimentConfig, dataset: RankedDataset, seed: int):
    snips = subsample(
        dataset, cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len, seed=seed
    )
    return make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=seed)


def _train(cfg: ExperimentConfig, pairs, seed: int) -> TrainResult:
    """One reward model; the seed drives both its initialisation and batches."""
    train_cfg = dataclasses.replace(cfg.train, seed=seed)
    return train(make_reward_model(cfg.spec().feature_dim, seed=seed), pairs, train_cfg)


def _derive_policy(
    cfg: ExperimentConfig, spec: EnvSpec, reward, policy_seed: int, source: str | None
) -> PolicyArtifact:
    if spec.name == ENV_GRIDNAV:
        return value_iteration(
            spec, reward, discount=cfg.policy.discount, tol=cfg.policy.tol, source_model=source
        )
    return cem_search(spec, reward, cfg.policy.cem(), seed=policy_seed, source_model=source)


def _train_and_score(cfg: ExperimentConfig, spec: EnvSpec, dataset: RankedDataset, labels):
    """Pairs from a ranked dataset, then per model: train, derive, evaluate.

    The unit of work shared by compare and sweep.  Returns (per-model
    mean ground-truth returns, reward models).
    """

    def seed(*kind) -> int:
        return derive_seed(cfg.base_seed, *labels, *kind)

    pairs = CompiledPairs(_pairs(cfg, dataset, seed("data")))
    returns, models = [], []
    for m in range(cfg.eval.n_models_per_trial):
        model = _train(cfg, pairs, seed("model", m)).model
        artifact = _derive_policy(cfg, spec, model, seed("policy", m), None)
        stats = evaluate_policy(
            artifact, spec, cfg.eval.n_eval_episodes, seed=seed("policy-eval", m)
        )
        returns.append(stats.mean)
        models.append(model)
    return returns, models


# ---------------------------------------------------------------------------
# Single-lineage stages (trial 0 of the "genil" method)


def stage_gen_demos(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    spec = cfg.spec()
    with _Timed(manifest, "gen-demos"):
        demo_seed = derive_seed(cfg.base_seed, "trial", 0, "demos")
        save_trajectories(out / F_DEMOS, list(_demo_pair(cfg, spec, demo_seed)))
        _write_eval_set(cfg, spec, out, manifest)
    manifest.seeds["trial0/demos"] = demo_seed
    manifest.add_artifact(out, F_DEMOS)


def stage_reproduce(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    _require(out, F_DEMOS)
    spec = cfg.spec()
    with _Timed(manifest, "reproduce"):
        demos = load_trajectories(out / F_DEMOS)
        if len(demos) != 2:
            raise ConfigError(f"{F_DEMOS} must hold exactly 2 trajectories, got {len(demos)}")
        if any(t.env != spec.name for t in demos):
            raise ConfigError(f"{F_DEMOS} trajectories are not from {spec.name}")
        ga_seed = derive_seed(cfg.base_seed, "trial", 0, "ga")
        dataset = _grow(demos[0], demos[1], cfg.ga, ga_seed)
        dataset.save(out / F_RANKED, out / F_RANKED_MANIFEST)
    manifest.seeds["trial0/ga"] = ga_seed
    manifest.warnings.extend(dataset.warnings)
    manifest.add_artifact(out, F_RANKED)
    manifest.add_artifact(out, F_RANKED_MANIFEST)


def stage_train_reward(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    _require(out, F_RANKED, F_RANKED_MANIFEST)
    with _Timed(manifest, "train-reward"):
        dataset = RankedDataset.load(out / F_RANKED, out / F_RANKED_MANIFEST)
        data_seed = derive_seed(cfg.base_seed, *_LINEAGE, "data")
        pairs = _pairs(cfg, dataset, data_seed)
        save_pairs(out / F_PAIRS, pairs)
        model_seed = derive_seed(cfg.base_seed, *_LINEAGE, "model", 0)
        result = _train(cfg, pairs, model_seed)
        save_model(result.model, out / F_MODEL, train_config=result.config)
        write_loss_csv(out / F_LOSS, result.losses)
    manifest.seeds["trial0/data"] = data_seed
    manifest.seeds["trial0/model0"] = model_seed
    manifest.add_artifact(out, F_PAIRS)
    manifest.add_artifact(out, F_MODEL)
    manifest.add_artifact(out, F_LOSS)


def stage_train_policy(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    _require(out, F_MODEL)
    spec = cfg.spec()
    with _Timed(manifest, "train-policy"):
        model = load_model(out / F_MODEL)
        policy_seed = derive_seed(cfg.base_seed, *_LINEAGE, "policy", 0)
        artifact = _derive_policy(cfg, spec, model, policy_seed, F_MODEL)
        save_policy(artifact, out / F_POLICY)
    manifest.seeds["trial0/policy0"] = policy_seed
    manifest.add_artifact(out, F_POLICY)


def stage_evaluate(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    """Extrapolation and policy metrics for the single-lineage artifacts.

    The policy table's model axis holds evaluation episodes here, since
    exactly one policy is being scored.
    """
    _require(out, F_MODEL, F_POLICY, F_EVAL)
    spec = cfg.spec()
    with _Timed(manifest, "evaluate"):
        model = load_model(out / F_MODEL)
        artifact = load_policy(out / F_POLICY)
        eval_set = load_trajectories(out / F_EVAL)
        report = extrapolation_report(model, eval_set, spec.discount, n_bins=cfg.eval.n_bins)
        write_extrapolation_csv(out / F_EXTRAPOLATION, report)
        write_summary_csv(out / F_SUMMARY, [("GenIL", report)])
        eval_seed = derive_seed(cfg.base_seed, *_LINEAGE, "policy-eval", 0)
        stats = evaluate_policy(artifact, spec, cfg.eval.n_eval_episodes, seed=eval_seed)
        row = policy_table_row("GenIL", np.asarray(stats.returns)[None, :])
        write_policy_table_csv(out / F_POLICY_TABLE, [("GenIL", row)])
    manifest.seeds["trial0/policy_eval0"] = eval_seed
    if report.pred_degenerate:
        manifest.warnings.append("degenerate predictions: zero spread on the eval set")
    manifest.add_artifact(out, F_EXTRAPOLATION)
    manifest.add_artifact(out, F_SUMMARY)
    manifest.add_artifact(out, F_POLICY_TABLE)


# ---------------------------------------------------------------------------
# Method comparison


def _drex_noise_levels(cfg: ExperimentConfig) -> list[float]:
    # spread noise injection across the demo quality band
    lo, hi = cfg.env.demo_quality_good, cfg.env.demo_quality_bad
    return [round(lo + f * (hi - lo), 10) for f in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)]


def _trex_multi_qualities(cfg: ExperimentConfig) -> list[float]:
    # five rollout qualities evenly spaced across the demo quality band
    lo, hi = cfg.env.demo_quality_good, cfg.env.demo_quality_bad
    return [round(lo + f * (hi - lo), 10) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]


def _method_ranked_dataset(
    method: str, cfg: ExperimentConfig, spec: EnvSpec, trial: int, good, bad
) -> RankedDataset:
    base = cfg.base_seed
    if method == "GenIL":
        return _grow(good, bad, cfg.ga, derive_seed(base, "trial", trial, "ga"))
    if method == "T-REX-2":
        return build_trex2_dataset(good, bad)
    if method == "T-REX-multi":
        return build_trex_dataset(
            spec,
            _trex_multi_qualities(cfg),
            n_per_quality=1,
            seed=derive_seed(base, "trial", trial, "trex-multi"),
        )
    if method == "D-REX":
        bc_cfg = BCConfig(seed=derive_seed(base, "trial", trial, "drex-bc"))
        cloned = train_bc([good, bad], spec, bc_cfg)
        return build_drex_dataset(
            cloned,
            spec,
            _drex_noise_levels(cfg),
            n_per_level=2,
            seed=derive_seed(base, "trial", trial, "drex"),
        )
    raise ConfigError(f"unknown reward method {method!r}")


def _run_method_trial(method, cfg, spec, trial, good, bad):
    """One (method, trial): (per-model ground-truth returns, reward models).

    BC learns no reward model: it clones one policy per model seed.
    """
    if method != "BC":
        dataset = _method_ranked_dataset(method, cfg, spec, trial, good, bad)
        return _train_and_score(cfg, spec, dataset, ("trial", trial, method))
    labels = ("trial", trial, "bc")
    returns = []
    for m in range(cfg.eval.n_models_per_trial):
        bc_cfg = BCConfig(seed=derive_seed(cfg.base_seed, *labels, "model", m))
        policy = train_bc([good, bad], spec, bc_cfg)
        episodes = policy_returns(
            policy,
            spec,
            cfg.eval.n_eval_episodes,
            derive_seed(cfg.base_seed, *labels, "policy-eval", m),
        )
        returns.append(float(np.mean(episodes)))
    return returns, []


def _compare_trial(cfg, spec, demo_pairs, method, trial):
    """One (method, trial) unit of compare.

    A GenilError is returned rather than raised, so that it marks only
    its method as failed.
    """
    try:
        return _run_method_trial(method, cfg, spec, trial, *demo_pairs[trial])
    except GenilError as exc:
        return exc


def stage_compare(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    """All methods on shared demos and one shared eval set.

    Each trial draws one demo pair consumed by every pair-based method;
    every method's metrics use the identical eval set.  A method that
    raises a GenilError keeps its rows, with empty cells, and the error of
    its first failing trial in meta.method_errors while the rest proceed.
    BC appears in the policy table only (it learns no reward), and only
    when the demos carry actions.
    """
    spec = cfg.spec()
    with _Timed(manifest, "compare/setup"):
        eval_set = _write_eval_set(cfg, spec, out, manifest)
        demo_pairs = []
        for t in range(cfg.eval.n_trials):
            seed = derive_seed(cfg.base_seed, "trial", t, "demos")
            manifest.seeds[f"trial{t}/demos"] = seed
            good, bad = _demo_pair(cfg, spec, seed)
            demo_pairs.append(
                (
                    dataclasses.replace(good, id=f"trial{t}-demo-good"),
                    dataclasses.replace(bad, id=f"trial{t}-demo-bad"),
                )
            )
        save_trajectories(out / F_DEMOS, [traj for pair in demo_pairs for traj in pair])
        manifest.add_artifact(out, F_DEMOS)

    methods = list(COMPARE_METHODS)
    has_actions = all(t.actions is not None for pair in demo_pairs for t in pair)
    if not has_actions:
        methods = [m for m in methods if m not in ("BC", "D-REX")]
        manifest.warnings.append("demos carry no actions: BC and D-REX rows skipped")

    table_entries = []
    summary_entries = []
    method_errors: dict[str, str] = {}
    method_eval_hash: dict[str, str] = {}
    n_trials = cfg.eval.n_trials
    with _Timed(manifest, "compare/trials"):
        units = [(method, t) for method in methods for t in range(n_trials)]
        outcomes = _map_units(functools.partial(_compare_trial, cfg, spec, demo_pairs), units)
        for i, method in enumerate(methods):
            results = outcomes[i * n_trials : (i + 1) * n_trials]
            try:
                for r in results:
                    if isinstance(r, GenilError):
                        raise r
                row = policy_table_row(method, np.array([r[0] for r in results]))
                report = None
                if method != "BC":
                    ensemble = RewardEnsemble([mdl for r in results for mdl in r[1]])
                    report = extrapolation_report(
                        ensemble, eval_set, spec.discount, n_bins=cfg.eval.n_bins
                    )
                method_eval_hash[method] = manifest.artifacts[F_EVAL]
            except GenilError as exc:
                method_errors[method] = f"{type(exc).__name__}: {exc}"
                row = report = None
            table_entries.append((method, row))
            if method != "BC":
                summary_entries.append((method, report))

    with _Timed(manifest, "compare/emit"):
        write_policy_table_csv(out / F_POLICY_TABLE, table_entries)
        write_summary_csv(out / F_SUMMARY, summary_entries)
        manifest.add_artifact(out, F_POLICY_TABLE)
        manifest.add_artifact(out, F_SUMMARY)
    manifest.meta["method_errors"] = method_errors
    manifest.meta["method_eval_hash"] = method_eval_hash


# ---------------------------------------------------------------------------
# Crossover step-size sweep


def _sweep_trial(cfg: ExperimentConfig, spec: EnvSpec, step: int, trial: int) -> list[float]:
    """Per-model ground-truth returns for one (step size, trial)."""
    labels = ("sweep", step, "trial", trial)
    ga = dataclasses.replace(cfg.ga, max_crossover_step=step + 1)
    good, bad = _demo_pair(cfg, spec, derive_seed(cfg.base_seed, *labels, "demos"))
    dataset = _grow(good, bad, ga, derive_seed(cfg.base_seed, *labels, "ga"))
    return _train_and_score(cfg, spec, dataset, labels)[0]


def stage_sweep(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    """Crossover step-size sweep: n_trials x n_models policies per size.

    Emits one row per (step_size, trial, model) with that trial's
    across-model spread and the step's grand mean.  A step size reaching
    the snippet minimum length triggers a warning: crossover segments
    then span entire comparison windows and labels lose gradation.
    """
    if len(cfg.sweep.step_sizes) < 2:
        raise ConfigError(f"sweep needs >= 2 step sizes, got {list(cfg.sweep.step_sizes)}")
    if cfg.eval.n_trials < 2 or cfg.eval.n_models_per_trial < 2:
        raise ConfigError(
            "sweep needs n_trials >= 2 and n_models_per_trial >= 2, got "
            f"{cfg.eval.n_trials} and {cfg.eval.n_models_per_trial}"
        )
    spec = cfg.spec()
    steps, n_trials = cfg.sweep.step_sizes, cfg.eval.n_trials
    records = []
    with _Timed(manifest, "sweep"):
        for step in steps:
            if step >= cfg.data.min_len:
                manifest.warnings.append(
                    f"step size {step} >= snippet min length {cfg.data.min_len}: "
                    "crossover segments span whole snippets"
                )
        units = [(step, t) for step in steps for t in range(n_trials)]
        returns = _map_units(functools.partial(_sweep_trial, cfg, spec), units)
        for i, step in enumerate(steps):
            grid = np.array(returns[i * n_trials : (i + 1) * n_trials])
            step_mean = float(grid.mean())
            for t in range(n_trials):
                trial_std = float(grid[t].std())
                for m in range(cfg.eval.n_models_per_trial):
                    records.append(
                        {
                            "step_size": step,
                            "trial": t,
                            "model": m,
                            "gt_return": float(grid[t, m]),
                            "trial_std": trial_std,
                            "step_mean": step_mean,
                        }
                    )
        records.sort(key=lambda r: (r["step_size"], r["trial"], r["model"]))
        write_sweep_csv(out / F_SWEEP, records)
    manifest.add_artifact(out, F_SWEEP)


# ---------------------------------------------------------------------------
# Commands: each runs its stages in order under one manifest

STAGES = {
    "gen-demos": stage_gen_demos,
    "reproduce": stage_reproduce,
    "train-reward": stage_train_reward,
    "train-policy": stage_train_policy,
    "evaluate": stage_evaluate,
    "compare": stage_compare,
    "sweep": stage_sweep,
}

# command -> (the stages it runs, in order; its one-line help)
COMMANDS = {
    "gen-demos": (("gen-demos",), "generate the demo pair and the evaluation set"),
    "reproduce": (("reproduce",), "grow the ranked dataset from the demo pair"),
    "train-reward": (("train-reward",), "train the reward model on ranked snippets"),
    "train-policy": (("train-policy",), "derive a policy from the reward model"),
    "evaluate": (("evaluate",), "score the model and policy, emit csv reports"),
    "compare": (("compare",), "run every method on shared demos and eval set"),
    "sweep": (("sweep",), "vary the crossover step size, emit sweep.csv"),
    "run-all": (
        ("gen-demos", "reproduce", "train-reward", "train-policy", "evaluate"),
        "full pipeline: demos through evaluation",
    ),
}


def run_command(command: str, cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    """Run a command's stages in order and save the run manifest.

    out_dir defaults to the config's output directory.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=command, config=config_to_dict(cfg), base_seed=cfg.base_seed)
    for name in COMMANDS[command][0]:
        STAGES[name](cfg, out, manifest)
    manifest.save(out)
    return manifest
