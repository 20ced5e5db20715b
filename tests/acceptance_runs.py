"""The per-seed runs behind the acceptance criteria's ten-seed protocols,
each a function of its base seed, so that a script can run them on other
seeds than the criteria do.

- one_seed(s): criteria 04-06's pipeline for base seed s;
- sweep_seed(s, out): criterion 08's step-size sweep for base seed s.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from genil.baselines import build_trex2_dataset
from genil.config import parse_config_text
from genil.envs import environment, make_demo_pair, make_eval_set
from genil.genetics import GAConfig, reproduce
from genil.metrics import extrapolation_report
from genil.pipeline import run_command
from genil.policy_opt import evaluate_policy, value_iteration
from genil.reward_net import (
    CompiledPairs,
    TrainConfig,
    make_reward_model,
    predict_states,
    train,
)
from genil.seeding import derive_seed
from genil.snippets import make_pairs, subsample
from genil.trajectory import gt_return

# sweep protocol: snippet windows [20, 40] so the largest step size
# spans whole windows, short training, 2 trials x 2 models per size
SWEEP_CONFIG = """
[data]
n_snippets = 800
min_len = 20
max_len = 40
n_pairs = 1500

[train]
steps = 1500

[eval]
n_trials = 2
n_models_per_trial = 2
n_eval_episodes = 1
"""


@dataclass
class SeedOutcome:
    rho_genil: float
    bin_std_genil: float
    bin_std_trex2: float
    policy_return: float
    good_return: float
    bad_return: float
    seconds: float


def ensemble_reward(models):
    """The uniform ensemble's reward: the member mean of per-state rewards."""
    return lambda states: np.mean([predict_states(m, states) for m in models], axis=0)


def one_seed(s: int) -> SeedOutcome:
    """Criteria 04-06's pipeline for base seed s on GridNav: 5-model
    ensembles for both ranking methods on shared demos and a shared eval
    set, each trained by one train call as compare trains a unit's models,
    plus the greedy policy from the learned reward; timed as a whole."""
    t0 = time.perf_counter()
    spec = environment("GridNav")
    good, bad = make_demo_pair(spec, 0.1, 0.5, seed=s)
    datasets = {
        "genil": reproduce(good, bad, GAConfig(), seed=s).trajectories,
        "trex2": build_trex2_dataset(good, bad),
    }
    eval_set = make_eval_set(spec, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 15, seed=s + 1000)
    reports = {}
    ensembles = {}
    for name, dataset in datasets.items():
        snips = subsample(dataset, 2000, 15, 30, seed=s)
        pairs = CompiledPairs(make_pairs(snips, 4000, 0.5, seed=s))
        seeds = [derive_seed(s, "model", m) for m in range(5)]
        cfg = TrainConfig(learning_rate=3e-4, steps=6000, batch_size=16)
        models = [make_reward_model(spec.feature_dim, seed=ms) for ms in seeds]
        results = train(models, pairs, cfg, seeds)
        ensembles[name] = ensemble_reward([r.model for r in results])
        reports[name] = extrapolation_report(ensembles[name], eval_set, spec.discount, n_bins=8)
    artifact = value_iteration(spec, ensembles["genil"], discount=0.99)
    return SeedOutcome(
        rho_genil=reports["genil"].spearman_rho,
        bin_std_genil=reports["genil"].mean_bin_std,
        bin_std_trex2=reports["trex2"].mean_bin_std,
        policy_return=evaluate_policy(artifact, 1).mean,
        good_return=gt_return(good, spec.discount),
        bad_return=gt_return(bad, spec.discount),
        seconds=time.perf_counter() - t0,
    )


@dataclass
class SweepOutcome:
    spread_5: float
    spread_20: float
    schema_ok: bool
    warnings_ok: bool


def sweep_seed(s: int, out) -> SweepOutcome:
    """Criterion 08's sweep at SWEEP_CONFIG and base seed s, written to
    out: the mean per-trial spread at step sizes 5 and 20, whether
    sweep.csv has its header and every step size, and whether the sweep
    warned that crossover segments span whole snippets."""
    cfg = parse_config_text(SWEEP_CONFIG + f"\n[seeds]\nbase = {s}\n")
    manifest = run_command("sweep", cfg, out)
    warnings_ok = any("crossover segments span whole snippets" in w for w in manifest.warnings)
    lines = (out / "sweep.csv").read_text().splitlines()
    schema_ok = lines[0] == "step_size,trial,model,gt_return,trial_std,step_mean"
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    schema_ok &= {int(r["step_size"]) for r in rows} == {1, 2, 5, 10, 20}

    def mean_trial_std(step):
        per_trial = {
            int(r["trial"]): float(r["trial_std"]) for r in rows if int(r["step_size"]) == step
        }
        return float(np.mean(list(per_trial.values())))

    return SweepOutcome(mean_trial_std(5), mean_trial_std(20), schema_ok, warnings_ok)
