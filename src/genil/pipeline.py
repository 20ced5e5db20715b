"""End-to-end experiment orchestration over file artifacts.

Every stage reads and writes files under one output directory, so any
stage can be rerun in isolation.  A run manifest records the config
echo, a content hash for every emitted artifact, per-stage wall-clock,
and the derived seeds, which makes bit-level reproducibility checkable
from the manifest alone.  STAGES maps each stage name to its function
and the artifacts it reads and writes, LOADERS each artifact read to its
loader, COMMANDS each command to the stages it runs in order, and
run_command runs one command under one manifest: it alone loads and
checks every stage's inputs, and times and hashes every stage's outputs.

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

from .baselines import build_drex_dataset, build_trex2_dataset, build_trex_dataset, train_bc
from .config import ExperimentConfig, config_to_dict
from .envs import Environment, make_demo_pair, make_eval_set
from .errors import ConfigError, CorruptArtifactError, GenilError, MissingArtifactError
from .fileio import write_lines
from .genetics import RankedDataset, reproduce
from .metrics import (
    extrapolation_report,
    policy_table_row,
    predicted_returns_report,
    write_extrapolation_csv,
    write_loss_csv,
    write_policy_table_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .policy_opt import PolicyArtifact, evaluate_policy, load_policy, save_policy
from .reward_net import (
    CompiledPairs,
    TrainResult,
    load_model,
    make_reward_model,
    predict_states,
    save_model,
    train,
)
from .seeding import derive_seed
from .snippets import make_pairs, save_pairs, subsample
from .trajectory import Trajectory, load_trajectories, save_trajectories

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

    def save(self, out_dir: Path) -> None:
        payload = {"format_version": MANIFEST_VERSION, **dataclasses.asdict(self)}
        write_lines(out_dir / F_MANIFEST, [json.dumps(payload, indent=2, sort_keys=True)])


def _checked(cfg: ExperimentConfig, path: Path, trajectories, n=None, refusal=""):
    """trajectories, checked as loaded from path.  If n is given and there
    are not n, they are malformed (refusal.format(n=n, got=the count)).
    They must be of the config's environment and width (else a
    ConfigError), their actions ones it can take, and their step rewards,
    bit for bit, its true reward of their states, as genil records every
    reward and GA offspring copy rewards with states (else malformed)."""
    if n is not None and len(trajectories) != n:
        got = len(trajectories)
        raise CorruptArtifactError(f"malformed artifact {path}: " + refusal.format(n=n, got=got))
    spec = cfg.spec()
    if any(t.env != spec.name for t in trajectories):
        raise ConfigError(f"{path}: trajectories are not from {spec.name}")
    for t in trajectories:
        if t.states.shape[1] != spec.feature_dim:
            raise ConfigError(
                f"{path}: trajectory {t.id!r} has {t.states.shape[1]} features, "
                f"{spec.name} states have {spec.feature_dim}"
            )
        try:
            if t.actions is not None:
                spec.check_actions(t.actions)
        except ValueError as exc:
            raise CorruptArtifactError(
                f"malformed artifact {path}: trajectory {t.id!r}: {exc}"
            ) from exc
        if t.gt_step_rewards.tobytes() != spec.true_reward(t.states).tobytes():
            raise CorruptArtifactError(
                f"malformed artifact {path}: trajectory {t.id!r}: step rewards are not "
                f"{spec.name}'s true reward of its states"
            )
    return trajectories


def _load_model_for(cfg: ExperimentConfig, path: Path):
    """The reward function of the model at path, refused unless it scores cfg's states."""
    model, spec = load_model(path), cfg.spec()
    if model.feature_dim != spec.feature_dim:
        raise ConfigError(
            f"{path}: reward model takes {model.feature_dim} features, "
            f"{spec.name} states have {spec.feature_dim}"
        )
    return functools.partial(predict_states, model)


def _load_policy_for(cfg: ExperimentConfig, path: Path) -> PolicyArtifact:
    """The policy at path, refused unless it acts in the config's environment."""
    artifact, name = load_policy(path), cfg.spec().name
    if artifact.spec.name != name:
        raise ConfigError(f"{path}: policy is for {artifact.spec.name}, not {name}")
    return artifact


# artifact -> the function of (cfg, path) that loads it, checked against
# cfg; the ranked dataset's also reads the ranked manifest beside it.  Like
# COMPARE_METHODS, an entry looks up what it calls when it runs.
LOADERS = {
    F_DEMOS: lambda cfg, path: _checked(
        cfg, path, load_trajectories(path), 2, "must hold exactly {n} trajectories, got {got}"
    ),
    F_RANKED: lambda cfg, path: _checked(
        cfg, path, RankedDataset.load(path, path.with_name(F_RANKED_MANIFEST)).trajectories
    ),
    F_MODEL: _load_model_for,
    F_POLICY: _load_policy_for,
    F_EVAL: lambda cfg, path: _checked(
        cfg, path, load_trajectories(path), len(cfg.eval.qualities) * cfg.eval.n_per_quality,
        "{got} trajectories, the eval config makes {n}",
    ),
}


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where units stay in-process."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


# A pool worker's unit function: set by _start_worker, in workers only.
_unit_fn = None


def _start_worker(parent_pid: int, fn) -> None:
    """Pool worker initializer: keep the unit function, and exit once the
    parent is gone.

    A worker blocked on its task queue would otherwise outlive a parent
    killed by SIGKILL, which runs no clean-up.
    """
    global _unit_fn
    _unit_fn = fn

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run_unit(unit: tuple):
    return _unit_fn(*unit)


def _map_units(fn, units: list[tuple]) -> list:
    """[fn(*u) for u in units], spread over the usable CPUs.

    Results come back in unit order, and the first unit in that order
    that raises decides the exception; a worker that dies without a
    result, killed by a signal or the OOM killer, is a GenilError.  Units
    must share no state, as the seeds derived from their own labels make
    them.  Workers are forked:
    they inherit the loaded modules and fn, with every input it closes
    over, so fn need not pickle and is never sent.  Only the unit tuples
    and the results cross the pipes.  Forked workers also need no
    __main__ guard in a calling script, which spawn and forkserver do.
    genil starts no thread of its own before the fork.
    """
    n_workers = min(len(units), _usable_cpus())
    if n_workers <= 1:
        return [fn(*u) for u in units]
    # imported here: they would add a tenth to every command's start-up
    import concurrent.futures
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    try:
        with concurrent.futures.ProcessPoolExecutor(
            n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(os.getpid(), fn),
        ) as pool:
            # a failing unit cancels those not yet started
            return list(pool.map(_run_unit, units))
    except BrokenProcessPool as exc:
        raise GenilError("a worker process ended without a result") from exc


# ---------------------------------------------------------------------------
# Shared steps.  A seed is derive_seed(base, *labels, kind[, model]): the
# single-lineage stages use the labels _LINEAGE, compare ("trial", t,
# method), and sweep ("sweep", step, "trial", t); demos and GA draws hang
# off the trial's labels without the method.

_LINEAGE = ("trial", 0, "genil")


def _demo_pair(cfg: ExperimentConfig, spec: Environment, seed: int):
    return make_demo_pair(
        spec, cfg.env.demo_quality_good, cfg.env.demo_quality_bad, seed=seed
    )


def _write_eval_set(cfg: ExperimentConfig, spec: Environment, out: Path, manifest: RunManifest):
    """Generate and save the evaluation set, recording its seed."""
    seed = derive_seed(cfg.base_seed, "eval-set")
    eval_set = make_eval_set(spec, list(cfg.eval.qualities), cfg.eval.n_per_quality, seed)
    save_trajectories(out / F_EVAL, eval_set)
    manifest.seeds["eval_set"] = seed
    return eval_set


def _pairs(cfg: ExperimentConfig, trajectories: list[Trajectory], seed: int):
    snips = subsample(
        trajectories, cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len, seed=seed
    )
    return make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=seed)


def _train(cfg: ExperimentConfig, pairs, seeds: list[int]) -> list[TrainResult]:
    """One reward model per seed, trained together; a seed drives both its
    model's initialisation and its batches."""
    models = [make_reward_model(cfg.spec().feature_dim, seed=seed) for seed in seeds]
    return train(models, pairs, cfg.train, seeds)


def _train_and_score(
    cfg: ExperimentConfig, spec: Environment, trajectories: list[Trajectory], labels
):
    """Pairs from rank-labeled trajectories, the unit's reward models
    trained together on them, then per model: derive, evaluate.

    The unit of work shared by compare and sweep.  Where lockstep pays
    (reward_net.lockstep_pays), two or more models per trial train as one
    stack, and their parameters differ from lone models' in the last place.
    Returns (per-model mean ground-truth returns, reward models).
    """

    def seed(*kind) -> int:
        return derive_seed(cfg.base_seed, *labels, *kind)

    pairs = CompiledPairs(_pairs(cfg, trajectories, seed("data")))
    model_seeds = [seed("model", m) for m in range(cfg.eval.n_models_per_trial)]
    returns, models = [], []
    for m, result in enumerate(_train(cfg, pairs, model_seeds)):
        model = result.model
        reward = functools.partial(predict_states, model)
        artifact = spec.derive_policy(reward, cfg.policy, seed("policy", m))
        stats = evaluate_policy(artifact, cfg.eval.n_eval_episodes)
        returns.append(stats.mean)
        models.append(model)
    return returns, models


# ---------------------------------------------------------------------------
# Single-lineage stages (trial 0 of the "genil" method)


def stage_gen_demos(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    spec = cfg.spec()
    demo_seed = derive_seed(cfg.base_seed, "trial", 0, "demos")
    save_trajectories(out / F_DEMOS, list(_demo_pair(cfg, spec, demo_seed)))
    _write_eval_set(cfg, spec, out, manifest)
    manifest.seeds["trial0/demos"] = demo_seed


def stage_reproduce(cfg: ExperimentConfig, out: Path, manifest: RunManifest, demos) -> None:
    ga_seed = derive_seed(cfg.base_seed, "trial", 0, "ga")
    dataset = reproduce(demos[0], demos[1], cfg.ga, ga_seed)
    dataset.save(out / F_RANKED, out / F_RANKED_MANIFEST)
    manifest.seeds["trial0/ga"] = ga_seed


def stage_train_reward(cfg: ExperimentConfig, out: Path, manifest: RunManifest, ranked) -> None:
    data_seed = derive_seed(cfg.base_seed, *_LINEAGE, "data")
    pairs = _pairs(cfg, ranked, data_seed)
    save_pairs(out / F_PAIRS, pairs)
    model_seed = derive_seed(cfg.base_seed, *_LINEAGE, "model", 0)
    (result,) = _train(cfg, pairs, [model_seed])
    save_model(result.model, out / F_MODEL, train_config=cfg.train)
    write_loss_csv(out / F_LOSS, result.losses)
    manifest.seeds["trial0/data"] = data_seed
    manifest.seeds["trial0/model0"] = model_seed


def stage_train_policy(cfg: ExperimentConfig, out: Path, manifest: RunManifest, reward) -> None:
    policy_seed = derive_seed(cfg.base_seed, *_LINEAGE, "policy", 0)
    artifact = cfg.spec().derive_policy(reward, cfg.policy, policy_seed)
    artifact.source_model = F_MODEL
    save_policy(artifact, out / F_POLICY)
    manifest.seeds["trial0/policy0"] = policy_seed


def stage_evaluate(
    cfg: ExperimentConfig, out: Path, manifest: RunManifest, reward, artifact, eval_set
) -> None:
    """Extrapolation and policy metrics for the single-lineage artifacts.

    The policy table's model axis holds evaluation episodes here, since
    exactly one policy is being scored.
    """
    report = extrapolation_report(reward, eval_set, cfg.spec().discount, n_bins=cfg.eval.n_bins)
    write_extrapolation_csv(out / F_EXTRAPOLATION, report)
    write_summary_csv(out / F_SUMMARY, [("GenIL", report)])
    stats = evaluate_policy(artifact, cfg.eval.n_eval_episodes)
    row = policy_table_row("GenIL", stats.returns[None, :])
    write_policy_table_csv(out / F_POLICY_TABLE, [("GenIL", row)])
    if report.pred_degenerate:
        manifest.warnings.append("degenerate predictions: zero spread on the eval set")


# ---------------------------------------------------------------------------
# Method comparison


def _quality_band(cfg: ExperimentConfig, n: int) -> list[float]:
    """n values evenly spaced across the demo quality band, good to bad."""
    lo, hi = cfg.env.demo_quality_good, cfg.env.demo_quality_bad
    return [round(lo + i / (n - 1) * (hi - lo), 10) for i in range(n)]


# Each method of compare, in the order of its rows, and the function that
# builds the rank-labeled trajectories its reward models train on for one
# trial from (cfg, spec, good, bad, seed), seed(kind) being the trial's seed
# of that kind; BC's None marks that it clones policies and learns no
# reward.  An entry looks up what it calls in this module when it runs, so
# a wrapper put in place of one of those names here (as a tracer's) sees it.
COMPARE_METHODS = {
    "GenIL": lambda cfg, spec, good, bad, seed: reproduce(
        good, bad, cfg.ga, seed("ga")
    ).trajectories,
    "T-REX-2": lambda cfg, spec, good, bad, seed: build_trex2_dataset(good, bad),
    "T-REX-multi": lambda cfg, spec, good, bad, seed: build_trex_dataset(
        spec, _quality_band(cfg, 5), n_per_quality=1, seed=seed("trex-multi")
    ),
    "D-REX": lambda cfg, spec, good, bad, seed: build_drex_dataset(
        train_bc([good, bad], spec, [seed("drex-bc")])[0],
        _quality_band(cfg, 4),
        n_per_level=2,
        seed=seed("drex"),
    ),
    "BC": None,
}


def _run_method_trial(method, cfg, spec, trial, good, bad):
    """One (method, trial): (per-model ground-truth returns, reward models).

    BC learns no reward model: it clones one policy per model seed, the
    clones trained together.
    """

    def seed(*kind) -> int:
        return derive_seed(cfg.base_seed, "trial", trial, *kind)

    build = COMPARE_METHODS[method]
    if build is not None:
        trajectories = build(cfg, spec, good, bad, seed)
        return _train_and_score(cfg, spec, trajectories, ("trial", trial, method))
    model_seeds = [seed("bc", "model", m) for m in range(cfg.eval.n_models_per_trial)]
    policies = train_bc([good, bad], spec, model_seeds)
    return [evaluate_policy(policy, cfg.eval.n_eval_episodes).mean for policy in policies], []


def _compare_trial(cfg, spec, demo_pairs, eval_set, method, trial):
    """One (method, trial) unit of compare: (per-model ground-truth returns,
    eval-set scores).

    The scores hold one row per reward model: its predict_states over each
    eval trajectory in turn, end to end (None for BC).  A GenilError is
    returned rather than raised, so that it marks only its method as failed.
    """
    try:
        returns, models = _run_method_trial(method, cfg, spec, trial, *demo_pairs[trial])
    except GenilError as exc:
        return exc
    if not models:
        return returns, None
    return returns, np.array(
        [np.concatenate([predict_states(m, t.states) for t in eval_set]) for m in models]
    )


def _ensemble_returns(scores: np.ndarray, eval_set) -> list[float]:
    """Each eval trajectory's predicted return under the uniform ensemble of
    the models whose _compare_trial score rows these are: the member mean,
    in row order, of their per-state rewards, summed over the trajectory."""
    ends = np.cumsum([len(t) for t in eval_set]).tolist()
    return [
        float(np.mean([row[a:b] for row in scores], axis=0).sum())
        for a, b in zip([0] + ends, ends)
    ]


def stage_compare(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    """All methods on shared demos and one shared eval set.

    Each trial draws one demo pair consumed by every pair-based method;
    every method's metrics use the identical eval set.  A method that
    raises a GenilError keeps its rows, with empty cells, and the error of
    its first failing trial in meta.method_errors while the rest proceed.
    BC appears in the policy table only (it learns no reward).
    """
    spec = cfg.spec()
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

    table_entries = []
    summary_entries = []
    method_errors: dict[str, str] = {}
    n_trials = cfg.eval.n_trials
    units = [(method, t) for method in COMPARE_METHODS for t in range(n_trials)]
    outcomes = _map_units(
        functools.partial(_compare_trial, cfg, spec, demo_pairs, eval_set), units
    )
    for i, (method, build) in enumerate(COMPARE_METHODS.items()):
        results = outcomes[i * n_trials : (i + 1) * n_trials]
        try:
            for r in results:
                if isinstance(r, GenilError):
                    raise r
            row = policy_table_row(method, np.array([r[0] for r in results]))
            if build is not None:
                scores = np.concatenate([r[1] for r in results])
                report = predicted_returns_report(
                    _ensemble_returns(scores, eval_set),
                    eval_set,
                    spec.discount,
                    n_bins=cfg.eval.n_bins,
                )
        except GenilError as exc:
            method_errors[method] = f"{type(exc).__name__}: {exc}"
            row = report = None
        table_entries.append((method, row))
        if build is not None:
            summary_entries.append((method, report))

    write_policy_table_csv(out / F_POLICY_TABLE, table_entries)
    write_summary_csv(out / F_SUMMARY, summary_entries)
    manifest.meta["method_errors"] = method_errors


# ---------------------------------------------------------------------------
# Crossover step-size sweep


def _sweep_trial(cfg: ExperimentConfig, spec: Environment, step: int, trial: int) -> list[float]:
    """Per-model ground-truth returns for one (step size, trial)."""
    labels = ("sweep", step, "trial", trial)
    ga = dataclasses.replace(cfg.ga, max_crossover_step=step + 1)
    good, bad = _demo_pair(cfg, spec, derive_seed(cfg.base_seed, *labels, "demos"))
    trajectories = reproduce(good, bad, ga, derive_seed(cfg.base_seed, *labels, "ga")).trajectories
    return _train_and_score(cfg, spec, trajectories, labels)[0]


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
    for step in steps:
        if step >= cfg.data.min_len:
            manifest.warnings.append(
                f"step size {step} >= snippet min length {cfg.data.min_len}: "
                "crossover segments span whole snippets"
            )
    units = [(step, t) for step in steps for t in range(n_trials)]
    returns = _map_units(functools.partial(_sweep_trial, cfg, spec), units)
    for i, step in enumerate(steps):
        grid = returns[i * n_trials : (i + 1) * n_trials]
        row = policy_table_row(str(step), grid)
        for t in range(n_trials):
            for m in range(cfg.eval.n_models_per_trial):
                records.append(
                    {
                        "step_size": step,
                        "trial": t,
                        "model": m,
                        "gt_return": grid[t][m],
                        "trial_std": row.per_trial_std[t],
                        "step_mean": row.avg,
                    }
                )
    records.sort(key=lambda r: (r["step_size"], r["trial"], r["model"]))
    write_sweep_csv(out / F_SWEEP, records)


# ---------------------------------------------------------------------------
# Commands: each runs its stages in order under one manifest

# stage -> (its function, the artifacts it reads, the artifacts it writes)
STAGES = {
    "gen-demos": (stage_gen_demos, (), (F_DEMOS, F_EVAL)),
    "reproduce": (stage_reproduce, (F_DEMOS,), (F_RANKED, F_RANKED_MANIFEST)),
    "train-reward": (
        stage_train_reward, (F_RANKED, F_RANKED_MANIFEST), (F_PAIRS, F_MODEL, F_LOSS)
    ),
    "train-policy": (stage_train_policy, (F_MODEL,), (F_POLICY,)),
    "evaluate": (
        stage_evaluate,
        (F_MODEL, F_POLICY, F_EVAL),
        (F_EXTRAPOLATION, F_SUMMARY, F_POLICY_TABLE),
    ),
    "compare": (stage_compare, (), (F_DEMOS, F_EVAL, F_POLICY_TABLE, F_SUMMARY)),
    "sweep": (stage_sweep, (), (F_SWEEP,)),
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
    """Run a command's stages in order under one run manifest.

    Every artifact a stage reads must be there (else a MissingArtifactError)
    before LOADERS loads and checks each, in STAGES' order, for the stage:
    no stage opens a file, and each reads from disk what the last wrote.
    Once it returns, its wall-clock, loads included, and the hashes of the
    artifacts it writes go into the manifest, which is saved then, so a
    command that fails part way leaves a manifest of the stages it
    finished.  out_dir defaults to the config's output directory; one that
    a file blocks is a ConfigError.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {out} is blocked by a file ({exc.strerror})") from exc
    manifest = RunManifest(command=command, config=config_to_dict(cfg), base_seed=cfg.base_seed)
    for name in COMMANDS[command][0]:
        run, reads, writes = STAGES[name]
        for r in reads:
            if not (out / r).is_file():
                raise MissingArtifactError(f"missing {r} in {out}; run the producing stage first")
        t0 = time.perf_counter()
        run(cfg, out, manifest, *[LOADERS[r](cfg, out / r) for r in reads if r in LOADERS])
        manifest.stage_seconds[name] = time.perf_counter() - t0
        manifest.artifacts.update({a: file_sha256(out / a) for a in writes})
        manifest.save(out)
    return manifest
