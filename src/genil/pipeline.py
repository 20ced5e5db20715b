"""End-to-end experiment orchestration over file artifacts.

Every stage reads and writes files under one output directory, so any
stage can be rerun in isolation.  A run manifest records the config
echo, a content hash for every emitted artifact, per-stage wall-clock,
and the derived seeds, which makes bit-level reproducibility checkable
from the manifest alone.

Seed discipline: each unit of work owns a seed derived from
(base_seed, stage labels..., trial, model), so no stage's RNG
consumption can perturb another's stream.  The single-lineage commands
(gen-demos through evaluate) are trial 0 of the "genil" method; compare
and sweep span their full trial/model grids.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
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
from .errors import ConfigError, MissingArtifactError
from .genetics import RankedDataset, relabel_demos, reproduce
from .metrics import (
    extrapolation_report,
    fmt9,
    policy_table_row,
    write_extrapolation_csv,
    write_loss_csv,
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
    RewardEnsemble,
    load_model,
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

POLICY_TABLE_HEADER = "method,avg,std,n_trials,n_models,per_trial_std_mean\n"
SUMMARY_HEADER = "method,accuracy_ratio,spearman,pearson,mean_bin_std\n"


def n_threads() -> int:
    """Worker cap from GENIL_THREADS; 1 (fully serial) by default."""
    raw = os.environ.get("GENIL_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"GENIL_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"GENIL_THREADS must be >= 1, got {value}")
    return value


def _map_units(fn, keys, threads: int):
    """Run fn over keys, possibly in parallel; results in key order."""
    if threads <= 1 or len(keys) <= 1:
        return [fn(k) for k in keys]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, keys))


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
        with open(out_dir / F_MANIFEST, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _new_manifest(command: str, cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(command=command, config=config_to_dict(cfg), base_seed=cfg.base_seed)


def _prepare_out(cfg: ExperimentConfig, out_dir) -> Path:
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(out: Path, *names: str) -> None:
    for name in names:
        if not (out / name).is_file():
            raise MissingArtifactError(
                f"missing {name} in {out}; run the producing stage first"
            )


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
# Seed derivations


def _eval_set_seed(base: int) -> int:
    return derive_seed(base, "eval-set")


def _demo_seed(base: int, trial: int) -> int:
    return derive_seed(base, "trial", trial, "demos")


def _ga_seed(base: int, trial: int) -> int:
    return derive_seed(base, "trial", trial, "ga")


def _data_seed(base: int, trial: int, method: str) -> int:
    return derive_seed(base, "trial", trial, method, "data")


def _model_seed(base: int, trial: int, method: str, model: int) -> int:
    return derive_seed(base, "trial", trial, method, "model", model)


def _policy_seed(base: int, trial: int, method: str, model: int) -> int:
    return derive_seed(base, "trial", trial, method, "policy", model)


def _policy_eval_seed(base: int, trial: int, method: str, model: int) -> int:
    return derive_seed(base, "trial", trial, method, "policy-eval", model)


# ---------------------------------------------------------------------------
# Single-lineage stages (trial 0 of the "genil" method)


def stage_gen_demos(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    spec = cfg.spec()
    with _Timed(manifest, "gen-demos"):
        demo_seed = _demo_seed(cfg.base_seed, 0)
        good, bad = make_demo_pair(
            spec, cfg.env.demo_quality_good, cfg.env.demo_quality_bad, seed=demo_seed
        )
        save_trajectories(out / F_DEMOS, [good, bad])
        eval_seed = _eval_set_seed(cfg.base_seed)
        eval_set = make_eval_set(spec, list(cfg.eval.qualities), cfg.eval.n_per_quality, eval_seed)
        save_trajectories(out / F_EVAL, eval_set)
    manifest.seeds["trial0/demos"] = demo_seed
    manifest.seeds["eval_set"] = eval_seed
    manifest.add_artifact(out, F_DEMOS)
    manifest.add_artifact(out, F_EVAL)


def stage_reproduce(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    _require(out, F_DEMOS)
    spec = cfg.spec()
    with _Timed(manifest, "reproduce"):
        demos = load_trajectories(out / F_DEMOS)
        if len(demos) != 2:
            raise ConfigError(f"{F_DEMOS} must hold exactly 2 trajectories, got {len(demos)}")
        if any(t.env != spec.name for t in demos):
            raise ConfigError(f"{F_DEMOS} trajectories are not from {spec.name}")
        good, bad = relabel_demos(demos[0], demos[1], cfg.ga)
        ga_seed = _ga_seed(cfg.base_seed, 0)
        dataset = reproduce([good, bad], cfg.ga, seed=ga_seed)
        dataset.save(out / F_RANKED, out / F_RANKED_MANIFEST)
    manifest.seeds["trial0/ga"] = ga_seed
    manifest.warnings.extend(dataset.warnings)
    manifest.add_artifact(out, F_RANKED)
    manifest.add_artifact(out, F_RANKED_MANIFEST)


def stage_train_reward(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    _require(out, F_RANKED, F_RANKED_MANIFEST)
    with _Timed(manifest, "train-reward"):
        dataset = RankedDataset.load(out / F_RANKED, out / F_RANKED_MANIFEST)
        data_seed = _data_seed(cfg.base_seed, 0, "genil")
        snips = subsample(
            dataset, cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len, seed=data_seed
        )
        pairs = make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=data_seed)
        save_pairs(out / F_PAIRS, pairs)
        model_seed = _model_seed(cfg.base_seed, 0, "genil", 0)
        train_cfg = dataclasses.replace(cfg.train, seed=model_seed)
        result = train(_fresh_model(cfg, model_seed), pairs, train_cfg)
        save_model(result.model, out / F_MODEL, train_config=train_cfg)
        write_loss_csv(out / F_LOSS, result.losses)
    manifest.seeds["trial0/data"] = data_seed
    manifest.seeds["trial0/model0"] = model_seed
    manifest.add_artifact(out, F_PAIRS)
    manifest.add_artifact(out, F_MODEL)
    manifest.add_artifact(out, F_LOSS)


def _fresh_model(cfg: ExperimentConfig, seed: int):
    from .reward_net import make_reward_model

    return make_reward_model(cfg.spec().feature_dim, seed=seed)


def _derive_policy(
    cfg: ExperimentConfig, spec: EnvSpec, reward, policy_seed: int, source: str
) -> PolicyArtifact:
    if spec.name == ENV_GRIDNAV:
        return value_iteration(
            spec, reward, discount=cfg.policy.discount, tol=cfg.policy.tol, source_model=source
        )
    return cem_search(spec, reward, cfg.policy.cem(), seed=policy_seed, source_model=source)


def stage_train_policy(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> None:
    _require(out, F_MODEL)
    spec = cfg.spec()
    with _Timed(manifest, "train-policy"):
        model = load_model(out / F_MODEL)
        policy_seed = _policy_seed(cfg.base_seed, 0, "genil", 0)
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
        eval_seed = _policy_eval_seed(cfg.base_seed, 0, "genil", 0)
        stats = evaluate_policy(artifact, spec, cfg.eval.n_eval_episodes, seed=eval_seed)
        row = policy_table_row("GenIL", np.asarray(stats.returns)[None, :])
        _write_policy_table(out / F_POLICY_TABLE, [(row, None)])
    manifest.seeds["trial0/policy_eval0"] = eval_seed
    if report.pred_degenerate:
        manifest.warnings.append("degenerate predictions: zero spread on the eval set")
    manifest.add_artifact(out, F_EXTRAPOLATION)
    manifest.add_artifact(out, F_SUMMARY)
    manifest.add_artifact(out, F_POLICY_TABLE)


# ---------------------------------------------------------------------------
# Command wrappers: stage(s) + manifest emission


def run_gen_demos(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("gen-demos", cfg)
    stage_gen_demos(cfg, out, manifest)
    manifest.save(out)
    return manifest


def run_reproduce(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("reproduce", cfg)
    stage_reproduce(cfg, out, manifest)
    manifest.save(out)
    return manifest


def run_train_reward(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("train-reward", cfg)
    stage_train_reward(cfg, out, manifest)
    manifest.save(out)
    return manifest


def run_train_policy(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("train-policy", cfg)
    stage_train_policy(cfg, out, manifest)
    manifest.save(out)
    return manifest


def run_evaluate(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("evaluate", cfg)
    stage_evaluate(cfg, out, manifest)
    manifest.save(out)
    return manifest


def run_all(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("run-all", cfg)
    stage_gen_demos(cfg, out, manifest)
    stage_reproduce(cfg, out, manifest)
    stage_train_reward(cfg, out, manifest)
    stage_train_policy(cfg, out, manifest)
    stage_evaluate(cfg, out, manifest)
    manifest.save(out)
    return manifest


# ---------------------------------------------------------------------------
# Method comparison


def _write_policy_table(path, entries) -> None:
    """entries: (PolicyTableRow | None with method name, error | None).

    A failed method keeps its row with empty numeric cells; the schema
    (header and column count) never changes.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(POLICY_TABLE_HEADER)
        for row, error in entries:
            if error is not None:
                fh.write(f"{row},,,,,\n")
            else:
                fh.write(
                    f"{row.method},{fmt9(row.avg)},{fmt9(row.std)},{row.n_trials},"
                    f"{row.n_models},{fmt9(row.per_trial_std_mean)}\n"
                )


def _write_summary(path, entries) -> None:
    """entries: (method, ExtrapolationReport | None)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(SUMMARY_HEADER)
        for method, rep in entries:
            if rep is None:
                fh.write(f"{method},,,,\n")
            else:
                fh.write(
                    f"{method},{fmt9(rep.accuracy_ratio)},{fmt9(rep.spearman_rho)},"
                    f"{fmt9(rep.pearson_r)},{fmt9(rep.mean_bin_std)}\n"
                )


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
        g, b = relabel_demos(good, bad, cfg.ga)
        return reproduce([g, b], cfg.ga, seed=_ga_seed(base, trial))
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


def _run_method_trial(method, cfg, spec, trial, good, bad, eval_set):
    """One (method, trial): models, policies, ground-truth returns.

    Returns (per-model gt returns, reward models).  BC trains one policy
    per model seed and learns no reward model.
    """
    base = cfg.base_seed
    n_models = cfg.eval.n_models_per_trial
    returns = []
    models = []
    if method == "BC":
        for m in range(n_models):
            bc_cfg = BCConfig(seed=_model_seed(base, trial, "bc", m))
            policy = train_bc([good, bad], spec, bc_cfg)
            episodes = policy_returns(
                policy, spec, cfg.eval.n_eval_episodes, _policy_eval_seed(base, trial, "bc", m)
            )
            returns.append(float(np.mean(episodes)))
        return returns, models

    dataset = _method_ranked_dataset(method, cfg, spec, trial, good, bad)
    data_seed = _data_seed(base, trial, method)
    snips = subsample(
        dataset, cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len, seed=data_seed
    )
    pairs = make_pairs(snips, cfg.data.n_pairs, cfg.data.min_margin, seed=data_seed)
    for m in range(n_models):
        model_seed = _model_seed(base, trial, method, m)
        train_cfg = dataclasses.replace(cfg.train, seed=model_seed)
        result = train(_fresh_model(cfg, model_seed), pairs, train_cfg)
        models.append(result.model)
        artifact = _derive_policy(
            cfg, spec, result.model, _policy_seed(base, trial, method, m), None
        )
        stats = evaluate_policy(
            artifact, spec, cfg.eval.n_eval_episodes, seed=_policy_eval_seed(base, trial, method, m)
        )
        returns.append(stats.mean)
    return returns, models


def run_compare(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    """All methods on shared demos and one shared eval set.

    Each trial draws one demo pair consumed by every pair-based method;
    every method's metrics use the identical eval set.  A method that
    fails keeps its row with an error marker while the rest proceed.
    BC appears in the policy table only (it learns no reward), and only
    when the demos carry actions.
    """
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("compare", cfg)
    spec = cfg.spec()
    base = cfg.base_seed

    with _Timed(manifest, "compare/setup"):
        eval_seed = _eval_set_seed(base)
        eval_set = make_eval_set(spec, list(cfg.eval.qualities), cfg.eval.n_per_quality, eval_seed)
        save_trajectories(out / F_EVAL, eval_set)
        manifest.seeds["eval_set"] = eval_seed
        manifest.add_artifact(out, F_EVAL)
        eval_hash = manifest.artifacts[F_EVAL]

        demo_pairs = []
        for t in range(cfg.eval.n_trials):
            seed = _demo_seed(base, t)
            manifest.seeds[f"trial{t}/demos"] = seed
            good, bad = make_demo_pair(
                spec, cfg.env.demo_quality_good, cfg.env.demo_quality_bad, seed=seed
            )
            demo_pairs.append(
                (
                    dataclasses.replace(good, id=f"trial{t}-demo-good"),
                    dataclasses.replace(bad, id=f"trial{t}-demo-bad"),
                )
            )
        save_trajectories(
            out / F_DEMOS, [traj for pair in demo_pairs for traj in pair]
        )
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
    threads = n_threads()

    for method in methods:
        with _Timed(manifest, f"compare/{method}"):
            try:
                unit = lambda t: _run_method_trial(
                    method, cfg, spec, t, demo_pairs[t][0], demo_pairs[t][1], eval_set
                )
                results = _map_units(unit, list(range(cfg.eval.n_trials)), threads)
                grid = np.array([r[0] for r in results])
                table_entries.append((policy_table_row(method, grid), None))
                all_models = [mdl for r in results for mdl in r[1]]
                if all_models:
                    report = extrapolation_report(
                        RewardEnsemble(all_models), eval_set, spec.discount, n_bins=cfg.eval.n_bins
                    )
                    summary_entries.append((method, report))
                method_eval_hash[method] = eval_hash
            except Exception as exc:  # noqa: BLE001 - per-method isolation
                method_errors[method] = f"{type(exc).__name__}: {exc}"
                table_entries.append((method, str(exc)))
                if method != "BC":
                    summary_entries.append((method, None))

    with _Timed(manifest, "compare/emit"):
        _write_policy_table(out / F_POLICY_TABLE, table_entries)
        _write_summary(out / F_SUMMARY, summary_entries)
        manifest.add_artifact(out, F_POLICY_TABLE)
        manifest.add_artifact(out, F_SUMMARY)
    manifest.meta["method_errors"] = method_errors
    manifest.meta["method_eval_hash"] = method_eval_hash
    manifest.save(out)
    return manifest


# ---------------------------------------------------------------------------
# Crossover step-size sweep


def _sweep_trial(cfg: ExperimentConfig, spec: EnvSpec, step: int, trial: int) -> list[float]:
    """Per-model ground-truth returns for one (step size, trial)."""
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
    returns = []
    for m in range(cfg.eval.n_models_per_trial):
        model_seed = derive_seed(base, "sweep", step, "trial", trial, "model", m)
        train_cfg = dataclasses.replace(cfg.train, seed=model_seed)
        result = train(_fresh_model(cfg, model_seed), pairs, train_cfg)
        artifact = _derive_policy(
            cfg, spec, result.model,
            derive_seed(base, "sweep", step, "trial", trial, "policy", m), None,
        )
        stats = evaluate_policy(
            artifact, spec, cfg.eval.n_eval_episodes,
            seed=derive_seed(base, "sweep", step, "trial", trial, "policy-eval", m),
        )
        returns.append(stats.mean)
    return returns


def run_sweep(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
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
    out = _prepare_out(cfg, out_dir)
    manifest = _new_manifest("sweep", cfg)
    spec = cfg.spec()
    threads = n_threads()

    records = []
    with _Timed(manifest, "sweep"):
        for step in cfg.sweep.step_sizes:
            if step >= cfg.data.min_len:
                manifest.warnings.append(
                    f"step size {step} >= snippet min length {cfg.data.min_len}: "
                    "crossover segments span whole snippets"
                )
            unit = lambda t: _sweep_trial(cfg, spec, step, t)
            per_trial = _map_units(unit, list(range(cfg.eval.n_trials)), threads)
            grid = np.array(per_trial)
            step_mean = float(grid.mean())
            for t in range(cfg.eval.n_trials):
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
    manifest.save(out)
    return manifest
