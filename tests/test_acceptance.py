"""Acceptance gate: ten end-to-end checks with stated tolerances.

Each test prints exactly one PASS/FAIL summary line (visible even when
pytest captures output).  The two heavy fixtures run the full pipeline
over ten base seeds and are shared by every criterion that consumes
them; everything else runs in seconds.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np
import pytest

from genil.baselines import build_trex2_dataset
from genil.config import parse_config_text
from genil.envs import (
    gridnav_all_features,
    gridnav_optimal_actions,
    gridnav_optimal_return,
    make_demo_pair,
    make_eval_set,
    make_spec,
    true_reward_fn,
)
from genil.genetics import (
    GAConfig,
    MutationPool,
    bucket_interval,
    crossover,
    decomposition_sums,
    mutate,
    relabel_demos,
    reproduce,
)
from genil.metrics import extrapolation_report
from genil.mlp import MLP
from genil.pipeline import run_command
from genil.policy_opt import (
    CEMConfig,
    KIND_LINEAR_GAUSSIAN,
    PolicyArtifact,
    cem_search,
    evaluate_policy,
    load_policy,
    save_policy,
    value_iteration,
)
from genil.reward_net import (
    RewardEnsemble,
    RewardModel,
    TrainConfig,
    load_model,
    make_reward_model,
    pair_grad,
    pair_loss,
    predict_states,
    save_model,
    train,
)
from genil.seeding import derive_seed
from genil.snippets import Snippet, SnippetPair, make_pairs, subsample
from genil.trajectory import (
    gt_return,
    load_trajectories,
    save_trajectories,
    trajectories_equal,
)

LN2 = float(np.log(2.0))

SMALL_CONFIG = """
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

[seeds]
base = 5
"""

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


def emit(capsys, number, ok, detail):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    return line


# ---------------------------------------------------------------------------
# Shared ten-seed pipeline runs (criteria 4, 5, 6)


@dataclass
class SeedOutcome:
    rho_genil: float
    bin_std_genil: float
    bin_std_trex2: float
    policy_return: float
    good_return: float
    bad_return: float
    seconds: float


@pytest.fixture(scope="module")
def ten_seed_runs():
    """Full pipeline per base seed: 5-model ensembles for both ranking
    methods on shared demos and a shared eval set, plus the greedy policy
    from the learned reward."""
    spec = make_spec("GridNav")
    ga = GAConfig()
    qualities = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    outcomes = []
    for s in range(10):
        t0 = time.perf_counter()
        good, bad = make_demo_pair(spec, 0.1, 0.5, seed=s)
        datasets = {
            "genil": reproduce(relabel_demos(good, bad, ga), ga, seed=s),
            "trex2": build_trex2_dataset(good, bad),
        }
        eval_set = make_eval_set(spec, qualities, 15, seed=s + 1000)
        reports = {}
        ensembles = {}
        for name, dataset in datasets.items():
            snips = subsample(dataset, 2000, 15, 30, seed=s)
            pairs = make_pairs(snips, 4000, 0.5, seed=s)
            models = []
            for m in range(5):
                ms = derive_seed(s, "model", m)
                cfg = TrainConfig(learning_rate=3e-4, steps=6000, batch_size=16, seed=ms)
                models.append(
                    train(make_reward_model(spec.feature_dim, seed=ms), pairs, cfg).model
                )
            ensembles[name] = RewardEnsemble(models)
            reports[name] = extrapolation_report(
                ensembles[name], eval_set, spec.discount, n_bins=8
            )
        artifact = value_iteration(spec, ensembles["genil"], discount=0.99)
        policy_return = evaluate_policy(artifact, spec, 1, seed=s + 2000).mean
        outcomes.append(
            SeedOutcome(
                rho_genil=reports["genil"].spearman_rho,
                bin_std_genil=reports["genil"].mean_bin_std,
                bin_std_trex2=reports["trex2"].mean_bin_std,
                policy_return=policy_return,
                good_return=gt_return(good, spec.discount),
                bad_return=gt_return(bad, spec.discount),
                seconds=time.perf_counter() - t0,
            )
        )
    return outcomes


# ---------------------------------------------------------------------------


def test_criterion_01_rank_decomposition(capsys):
    """Offspring rank sums split exactly into per-provenance contributions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    total = exact = 0
    for env_name in ("GridNav", "PointChase"):
        spec = make_spec(env_name)
        good, bad = make_demo_pair(spec, 0.1, 0.5, seed=7)
        for _ in range(10):
            cfg = GAConfig(
                n_ranks=int(rng.integers(3, 7)),
                max_crossover_step=int(rng.integers(2, 13)),
                crossover_rate=float(rng.uniform(0.0, 1.0)),
                mutation_rate=float(rng.uniform(0.0, 0.5)),
            )
            g, b = relabel_demos(good, bad, cfg)
            pool = MutationPool.from_trajectories([g, b])
            for _ in range(50):
                off = crossover(g, b, cfg, rng)
                if rng.random() < 0.5:
                    off = mutate(off, pool, cfg, rng)
                x, y, m = decomposition_sums(off)
                total += 1
                exact += off.rank_sum == x + y + m
    elapsed = time.perf_counter() - t0
    ok = total == 1000 and exact == total and elapsed < 10.0
    line = emit(
        capsys, 1, ok,
        f"rank decomposition exact for {exact}/{total} offspring, "
        f"{elapsed:.1f}s < 10s",
    )
    assert ok, line


def test_criterion_02_selection_soundness(capsys):
    """Accepted offspring sit inside their bucket interval, never in an
    end bucket, never beyond the per-bucket quota."""
    t0 = time.perf_counter()
    cfg = GAConfig()
    runs = checked = 0
    problems = []
    for env_name in ("GridNav", "PointChase"):
        spec = make_spec(env_name)
        for s in range(50):
            good, bad = make_demo_pair(spec, 0.1, 0.5, seed=s)
            dataset = reproduce(relabel_demos(good, bad, cfg), cfg, seed=s)
            runs += 1
            by_rank = dataset.by_rank()
            for end in (0, cfg.n_ranks - 1):
                ids = by_rank.get(end, [])
                if len(ids) != 1 or dataset.get(ids[0]).source != "demo":
                    problems.append(f"{env_name} seed {s}: end bucket {end} not demo-only")
            for bucket in cfg.intermediate_buckets:
                ids = by_rank.get(bucket, [])
                if len(ids) > cfg.bucket_quota:
                    problems.append(f"{env_name} seed {s}: bucket {bucket} over quota")
                lo, hi = bucket_interval(bucket, cfg)
                for tid in ids:
                    mean = float(dataset.get(tid).step_ranks.mean())
                    checked += 1
                    if not lo <= mean < hi:
                        problems.append(
                            f"{env_name} seed {s}: {tid} mean {mean} outside [{lo}, {hi})"
                        )
    elapsed = time.perf_counter() - t0
    ok = runs == 100 and not problems and elapsed < 30.0
    line = emit(
        capsys, 2, ok,
        f"selection sound in {runs}/100 runs ({checked} offspring), "
        f"{len(problems)} violations, {elapsed:.1f}s < 30s",
    )
    assert ok, line


def _min_preactivation(net, pair):
    """Smallest |hidden pre-activation| over both snippets of a pair."""
    smallest = np.inf
    for snip in (pair.lo, pair.hi):
        x = snip.states
        for i, (W, b) in enumerate(zip(net.weights, net.biases)):
            x = x @ W + b
            if i < len(net.weights) - 1:
                smallest = min(smallest, float(np.abs(x).min()))
                x = np.maximum(x, 0.0)
    return smallest


def test_criterion_03_ranking_loss(capsys):
    """Tie loss is ln 2; extreme margins stay finite; analytic gradients
    match central finite differences."""
    t0 = time.perf_counter()
    states = np.random.default_rng(0).normal(size=(6, 4))
    model = make_reward_model(4, hidden_width=8, n_hidden=2, seed=0)
    tie = SnippetPair(
        lo=Snippet("a", 0, 6, states, 0.0),
        hi=Snippet("b", 0, 6, states.copy(), 3.0),
    )
    tie_err = abs(pair_loss(model, tie) - LN2)

    scorer = RewardModel(net=MLP([1, 1], [np.array([[1.0]])], [np.zeros(1)]))
    right = SnippetPair(
        lo=Snippet("lo", 0, 1, np.array([[0.0]]), 0.0),
        hi=Snippet("hi", 0, 1, np.array([[500.0]]), 3.0),
    )
    wrong = SnippetPair(
        lo=Snippet("lo2", 0, 1, np.array([[500.0]]), 0.0),
        hi=Snippet("hi2", 0, 1, np.array([[0.0]]), 3.0),
    )
    losses = [pair_loss(scorer, right), pair_loss(scorer, wrong)]
    stable = (
        all(np.isfinite(losses))
        and losses[0] < 1e-100
        and losses[1] == pytest.approx(500.0, rel=1e-9)
    )

    rng = np.random.default_rng(42)
    worst_rel = 0.0
    draws = attempts = 0
    while draws < 20 and attempts < 200:
        attempts += 1
        d = int(rng.integers(2, 6))
        probe = make_reward_model(
            d, hidden_width=int(rng.integers(4, 10)), n_hidden=int(rng.integers(1, 3)),
            seed=attempts,
        )
        pair = SnippetPair(
            lo=Snippet(f"l{attempts}", 0, 5, rng.normal(size=(5, d)), 0.0),
            hi=Snippet(f"h{attempts}", 0, 7, rng.normal(size=(7, d)), 3.0),
        )
        # saturated pairs have gradients at float-noise level, where a
        # central difference carries no signal; redraw into the curved
        # region of the loss
        if not 1e-3 < pair_loss(probe, pair) < 5.0:
            continue
        # the loss is non-differentiable on relu kinks, and zero-init
        # biases put fully-clamped rows exactly there; only probe where
        # every pre-activation clears the finite-difference step
        if _min_preactivation(probe.net, pair) < 1e-5:
            continue
        draws += 1
        analytic = pair_grad(probe, pair)
        base = probe.net.get_flat()
        eps = 1e-6
        numeric = np.empty_like(base)
        for i in range(len(base)):
            vec = base.copy()
            vec[i] += eps
            probe.net.set_flat(vec)
            up = pair_loss(probe, pair)
            vec[i] -= 2 * eps
            probe.net.set_flat(vec)
            down = pair_loss(probe, pair)
            numeric[i] = (up - down) / (2 * eps)
        probe.net.set_flat(base)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = tie_err <= 1e-12 and stable and draws == 20 and worst_rel <= 1e-4 and elapsed < 30.0
    line = emit(
        capsys, 3, ok,
        f"tie loss off ln2 by {tie_err:.1e} <= 1e-12, margins +-500 finite, "
        f"{draws} gradient checks worst rel {worst_rel:.1e} <= 1e-4, {elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_criterion_04_extrapolation_quality(capsys, ten_seed_runs):
    """Learned reward ranks an eval set spanning better-than-demo
    trajectories: Spearman rho >= 0.85 on at least 8 of 10 seeds."""
    rhos = [o.rho_genil for o in ten_seed_runs]
    hits = sum(r >= 0.85 for r in rhos)
    slowest = max(o.seconds for o in ten_seed_runs)
    ok = hits >= 8 and slowest < 300.0
    line = emit(
        capsys, 4, ok,
        f"spearman >= 0.85 on {hits}/10 seeds (min {min(rhos):.3f}), "
        f"slowest seed {slowest:.0f}s < 300s",
    )
    assert ok, line


def test_criterion_05_better_than_demonstrator(capsys, ten_seed_runs):
    """Greedy policy from the learned reward matches or beats the good
    demo on >= 7 of 10 seeds and beats the bad demo on all 10."""
    beats_good = sum(o.policy_return >= o.good_return for o in ten_seed_runs)
    beats_bad = sum(o.policy_return > o.bad_return for o in ten_seed_runs)
    ok = beats_good >= 7 and beats_bad == 10
    line = emit(
        capsys, 5, ok,
        f"policy >= good demo on {beats_good}/10 seeds (need 7), "
        f"> bad demo on {beats_bad}/10 (need 10)",
    )
    assert ok, line


def test_criterion_06_compactness(capsys, ten_seed_runs):
    """Genetic-dataset ensembles predict more compactly than two-demo
    ranking on shared eval sets: lower median per-bin spread, worst-case
    ratio at most 1.1."""
    genil = np.array([o.bin_std_genil for o in ten_seed_runs])
    trex2 = np.array([o.bin_std_trex2 for o in ten_seed_runs])
    med_g, med_t = float(np.median(genil)), float(np.median(trex2))
    worst_ratio = float(np.max(genil / trex2))
    ok = med_g < med_t and worst_ratio <= 1.1
    line = emit(
        capsys, 6, ok,
        f"median bin std {med_g:.4f} < {med_t:.4f}, "
        f"worst ratio {worst_ratio:.3f} <= 1.1",
    )
    assert ok, line


def test_criterion_07_policy_oracles(capsys):
    """On true rewards: value iteration recovers the enumerated optimal
    policy; CEM lands within 10% of a hand-tuned feedback controller."""
    spec = make_spec("GridNav")
    artifact = value_iteration(spec, true_reward_fn(spec))
    table_ok = np.array_equal(artifact.parameters, gridnav_optimal_actions(spec.discount))
    vi_return = evaluate_policy(artifact, spec, 1, seed=0).mean
    return_gap = abs(vi_return - gridnav_optimal_return(spec))

    pc = make_spec("PointChase")
    controller = PolicyArtifact(
        kind=KIND_LINEAR_GAUSSIAN, env="PointChase", parameters=np.array([0.0, -2.0, 4.0])
    )
    pd_mean = evaluate_policy(controller, pc, 20, seed=0).mean
    cem_artifact = cem_search(pc, true_reward_fn(pc), CEMConfig(), seed=0)
    cem_mean = evaluate_policy(cem_artifact, pc, 20, seed=0).mean
    cem_ok = cem_mean >= pd_mean - 0.1 * abs(pd_mean)

    ok = table_ok and return_gap <= 1e-9 and cem_ok
    line = emit(
        capsys, 7, ok,
        f"value iteration optimal (table exact, return gap {return_gap:.1e}), "
        f"cem {cem_mean:.2f} within 10% of controller {pd_mean:.2f}",
    )
    assert ok, line


def test_criterion_08_step_size_sweep(capsys, tmp_path):
    """Across ten base seeds, large crossover steps destabilize training:
    mean per-trial spread at step 20 beats step 5 on >= 6 seeds."""
    t0 = time.perf_counter()
    wins = 0
    schema_ok = True
    warnings_ok = True
    for s in range(10):
        cfg = parse_config_text(SWEEP_CONFIG + f"\n[seeds]\nbase = {s}\n")
        out = tmp_path / str(s)
        manifest = run_command("sweep", cfg, out)
        warnings_ok &= any(
            "crossover segments span whole snippets" in w for w in manifest.warnings
        )
        lines = (out / "sweep.csv").read_text().splitlines()
        schema_ok &= lines[0] == "step_size,trial,model,gt_return,trial_std,step_mean"
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        schema_ok &= {int(r["step_size"]) for r in rows} == {1, 2, 5, 10, 20}

        def mean_trial_std(step):
            per_trial = {
                int(r["trial"]): float(r["trial_std"])
                for r in rows
                if int(r["step_size"]) == step
            }
            return float(np.mean(list(per_trial.values())))

        wins += mean_trial_std(20) > mean_trial_std(5)
    elapsed = time.perf_counter() - t0
    ok = wins >= 6 and schema_ok and warnings_ok
    line = emit(
        capsys, 8, ok,
        f"step-20 spread > step-5 spread on {wins}/10 seeds (need 6), "
        f"schema and warnings intact, {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_09_determinism(capsys, tmp_path):
    """Two identical runs produce byte-identical artifacts and matching
    manifest hashes."""
    cfg = parse_config_text(SMALL_CONFIG)
    a = run_command("run-all", cfg, tmp_path / "a")
    b = run_command("run-all", cfg, tmp_path / "b")
    hashes_ok = a.artifacts == b.artifacts
    diverged = [
        name
        for name in a.artifacts
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = hashes_ok and not diverged and len(a.artifacts) == 11
    line = emit(
        capsys, 9, ok,
        f"run-all twice: {len(a.artifacts)} artifacts byte-identical, "
        f"manifest hashes equal ({len(diverged)} diverged)",
    )
    assert ok, line


def test_criterion_10_serialization_round_trip(capsys, tmp_path):
    """Trajectories, model checkpoints, and policies reload bit-identical;
    predictions are unchanged by a save/load cycle."""
    failures = []

    for env_name in ("GridNav", "PointChase"):
        spec = make_spec(env_name)
        pair = list(make_demo_pair(spec, 0.1, 0.5, seed=4))
        first = tmp_path / f"{env_name}.jsonl"
        save_trajectories(first, pair)
        back = load_trajectories(first)
        if not all(trajectories_equal(x, y) for x, y in zip(pair, back)):
            failures.append(f"{env_name} trajectories differ after reload")
        second = tmp_path / f"{env_name}-again.jsonl"
        save_trajectories(second, back)
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{env_name} trajectory file not byte-stable")

    spec = make_spec("GridNav")
    ga = GAConfig()
    dataset = reproduce(relabel_demos(*make_demo_pair(spec, 0.1, 0.5, seed=4), ga), ga, seed=4)
    snips = subsample(dataset, 60, 5, 10, seed=4)
    pairs = make_pairs(snips, 120, 0.5, seed=4)
    model = train(
        make_reward_model(spec.feature_dim, seed=4), pairs, TrainConfig(steps=50, seed=4)
    ).model
    probe_states = gridnav_all_features()
    before = predict_states(model, probe_states)
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    back_model = load_model(model_path)
    if not np.array_equal(model.net.get_flat(), back_model.net.get_flat()):
        failures.append("model parameters differ after reload")
    if not np.array_equal(before, predict_states(back_model, probe_states)):
        failures.append("model predictions differ after reload")
    model_again = tmp_path / "model-again.json"
    save_model(back_model, model_again)
    if model_path.read_bytes() != model_again.read_bytes():
        failures.append("model checkpoint not byte-stable")

    pc = make_spec("PointChase")
    artifacts = [
        value_iteration(spec, true_reward_fn(spec)),
        cem_search(pc, true_reward_fn(pc), CEMConfig(population_size=16, n_iters=2), seed=1),
    ]
    for i, artifact in enumerate(artifacts):
        first = tmp_path / f"policy{i}.json"
        save_policy(artifact, first)
        back = load_policy(first)
        if not np.array_equal(artifact.parameters, back.parameters):
            failures.append(f"{artifact.kind} parameters differ after reload")
        second = tmp_path / f"policy{i}-again.json"
        save_policy(back, second)
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{artifact.kind} file not byte-stable")

    ok = not failures
    line = emit(
        capsys, 10, ok,
        "trajectories, model checkpoint, and policies bit-identical after reload"
        if ok
        else "; ".join(failures),
    )
    assert ok, line
