"""Checks on the files a genil command writes, computed apart from genil.

Nothing here imports genil.  Every check recomputes a quantity from the
run's own inputs (the config echo in manifest.json, the trajectories, the
model parameters) with numpy, or tests a property the method must have.
No check compares against a stored copy of an earlier run's output.

Each ``check_*`` function returns a list of ``(name, error)`` tuples, one
per named check, with ``error`` None when the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Environment definitions, written out here so that the checks do not
# depend on genil's own tables.
GRID = 8
GRID_CELLS = GRID * GRID
GRID_GOAL = GRID * 7 + 7
GRID_PITS = (2 * GRID + 2, 5 * GRID + 3, 3 * GRID + 5)  # (x, y) = (2,2), (3,5), (5,3)
GRID_HORIZON = 50
GRID_DISCOUNT = 0.95
PC_DT, PC_TARGET, PC_ACC_MAX, PC_VEL_MAX, PC_POS_MAX = 0.1, 1.0, 1.0, 2.0, 4.0
PC_HORIZON = 100
PC_DISCOUNT = 0.99

RUN_ALL_ARTIFACTS = (
    "demos.jsonl", "eval.jsonl", "ranked.jsonl", "ranked_manifest.json", "pairs.jsonl",
    "model.json", "loss_curve.csv", "policy.json", "extrapolation.csv", "summary.csv",
    "policy_table.csv",
)
COMPARE_ARTIFACTS = ("demos.jsonl", "eval.jsonl", "policy_table.csv", "summary.csv")
COMPARE_METHODS = ("GenIL", "T-REX-2", "T-REX-multi", "D-REX", "BC")
REWARD_METHODS = COMPARE_METHODS[:-1]

# fmt9 cells carry 9 significant digits
CSV_RTOL = 2e-8


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= CSV_RTOL * max(abs(a), abs(b), scale) + 1e-12


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def discounted(rewards, discount: float) -> float:
    rewards = np.asarray(rewards, dtype=np.float64)
    return float(discount ** np.arange(len(rewards)) @ rewards)


# ---------------------------------------------------------------------------
# Environment models


def grid_reward_field() -> np.ndarray:
    field = np.full(GRID_CELLS, -0.01)
    field[list(GRID_PITS)] = -1.0
    field[GRID_GOAL] = 1.0
    return field


def grid_next() -> np.ndarray:
    """(64, 4) next cell for actions up, right, down, left; the goal absorbs."""
    nxt = np.empty((GRID_CELLS, 4), dtype=np.int64)
    for cell in range(GRID_CELLS):
        x, y = cell % GRID, cell // GRID
        moves = ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y))
        for a, (mx, my) in enumerate(moves):
            mx, my = min(max(mx, 0), GRID - 1), min(max(my, 0), GRID - 1)
            nxt[cell, a] = cell if cell == GRID_GOAL else my * GRID + mx
    return nxt


def grid_features() -> np.ndarray:
    feats = np.zeros((GRID_CELLS, 2 + GRID_CELLS))
    for cell in range(GRID_CELLS):
        feats[cell, 0] = (cell % GRID) / (GRID - 1)
        feats[cell, 1] = (cell // GRID) / (GRID - 1)
        feats[cell, 2 + cell] = 1.0
    return feats


def grid_cells(states: np.ndarray) -> np.ndarray:
    """Cell of each GridNav feature row; raises if a row is not a grid state."""
    cells = np.argmax(states[:, 2:], axis=1)
    _expect(np.allclose(states, grid_features()[cells], rtol=0, atol=1e-12),
            "a GridNav state is not the feature vector of any cell")
    return cells


def pc_reward(states: np.ndarray) -> np.ndarray:
    return -np.abs(states[:, 0] - PC_TARGET)


def pc_step(pos: float, vel: float, action: float) -> tuple[float, float]:
    a = min(max(action, -PC_ACC_MAX), PC_ACC_MAX)
    vel = min(max(vel + a * PC_DT, -PC_VEL_MAX), PC_VEL_MAX)
    pos = min(max(pos + vel * PC_DT, -PC_POS_MAX), PC_POS_MAX)
    return pos, vel


def true_rewards(env: str, states: np.ndarray) -> np.ndarray:
    if env == "GridNav":
        return grid_reward_field()[grid_cells(states)]
    return pc_reward(states)


def grid_policy_return(table) -> float:
    nxt, field = grid_next(), grid_reward_field()
    cell, rewards = 0, []
    for _ in range(GRID_HORIZON):
        rewards.append(field[cell])
        cell = int(nxt[cell, int(table[cell])])
    return discounted(rewards, GRID_DISCOUNT)


def pc_policy_return(gains) -> float:
    g0, g1, g2 = (float(v) for v in gains)
    pos, vel, rewards = 0.0, 0.0, []
    for _ in range(PC_HORIZON):
        rewards.append(-abs(pos - PC_TARGET))
        a = min(max(g0 * pos + g1 * vel + g2 * (PC_TARGET - pos), -PC_ACC_MAX), PC_ACC_MAX)
        pos, vel = pc_step(pos, vel, a)
    return discounted(rewards, PC_DISCOUNT)


# ---------------------------------------------------------------------------
# Reward model and statistics


def mlp_forward(model: dict, states: np.ndarray) -> np.ndarray:
    """Per-state output of a model.json checkpoint: relu hiddens, linear out."""
    _expect(model.get("activation") == "relu", "model.json activation is not relu")
    widths, params = model["widths"], np.asarray(model["params"], dtype=np.float64)
    h, offset = np.asarray(states, dtype=np.float64), 0
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        w = params[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset:offset + fan_out]
        offset += fan_out
        h = h @ w + b
        if i < len(widths) - 2:
            h = np.maximum(h, 0.0)
    _expect(offset == len(params), "model.json parameter count does not match its widths")
    return h[:, 0]


def average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx, ry = average_ranks(np.asarray(x)), average_ranks(np.asarray(y))
    rx, ry = rx - rx.mean(), ry - ry.mean()
    return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))


def mean_bin_std(gt: np.ndarray, pred: np.ndarray, n_bins: int) -> float:
    gt_norm = (gt - gt.min()) / (gt.max() - gt.min())
    pred_norm = (pred - pred.min()) / (pred.max() - pred.min())
    bins = np.minimum((gt_norm * n_bins).astype(int), n_bins - 1)
    return float(np.mean([pred_norm[bins == b].std() for b in range(n_bins) if np.any(bins == b)]))


# ---------------------------------------------------------------------------
# Individual checks


def _manifest_hashes(out: Path, manifest: dict, names) -> None:
    artifacts = manifest["artifacts"]
    _expect(sorted(artifacts) == sorted(names),
            f"manifest lists {sorted(artifacts)}, expected {sorted(names)}")
    for name in names:
        _expect(sha256_file(out / name) == artifacts[name], f"{name} does not match its manifest hash")


def _trajectory_dynamics(trajs: list[dict]) -> None:
    """Rewards are the true rewards of the states; steps follow the recorded actions."""
    nxt = grid_next()
    for t in trajs:
        states = np.asarray(t["states"], dtype=np.float64)
        actions = t["actions"]
        _expect(np.array_equal(true_rewards(t["env"], states), np.asarray(t["gt_step_rewards"])),
                f"{t['id']}: step rewards are not the true rewards of its states")
        if t["env"] == "GridNav":
            _expect(len(states) == GRID_HORIZON, f"{t['id']}: length {len(states)}")
            cells = grid_cells(states)
            _expect(cells[0] == 0, f"{t['id']}: does not start at the start cell")
            for k in range(len(cells) - 1):
                _expect(cells[k + 1] == nxt[cells[k], actions[k]],
                        f"{t['id']}: step {k} does not follow action {actions[k]}")
        else:
            _expect(len(states) == PC_HORIZON, f"{t['id']}: length {len(states)}")
            pos, vel = 0.0, 0.0
            for k in range(len(states)):
                want = (pos, vel, PC_TARGET - pos)
                _expect(np.allclose(states[k], want, rtol=0, atol=1e-9),
                        f"{t['id']}: state {k} breaks the double-integrator dynamics")
                pos, vel = pc_step(pos, vel, float(actions[k]))


def _demo_order(trajs: list[dict], discount: float, n_pairs: int = 1) -> None:
    by_id = {t["id"]: t for t in trajs}
    goods = [i for i in by_id if i.endswith("demo-good")]
    _expect(len(trajs) == 2 * n_pairs and len(goods) == n_pairs,
            f"{len(trajs)} demos with {len(goods)} good ones, expected {n_pairs} pairs")
    for good in goods:
        bad = good[: -len("good")] + "bad"
        _expect(bad in by_id, f"no bad demo next to {good}")
        g = discounted(by_id[good]["gt_step_rewards"], discount)
        b = discounted(by_id[bad]["gt_step_rewards"], discount)
        _expect(g > b, f"{good} return {g} does not beat {bad} return {b}")


def _ranked_buckets(ranked: list[dict], rmanifest: dict, ga: dict) -> None:
    low, high, n_ranks = ga["rank_low"], ga["rank_high"], ga["n_ranks"]
    width = (high - low) / n_ranks
    tol = ga["bucket_tolerance"]
    rank_of = {tid: int(r) for r, ids in rmanifest["ranks"].items() for tid in ids}
    _expect(sorted(rank_of) == sorted(t["id"] for t in ranked),
            "ranked_manifest.json and ranked.jsonl list different trajectories")
    quota = math.ceil(ga["n_offspring"] / (n_ranks - 2))
    fill: dict[int, int] = {}
    for t in ranked:
        rank = rank_of[t["id"]]
        mean = float(np.mean(t["step_ranks"]))
        if t["source"] == "demo":
            _expect(rank in (0, n_ranks - 1), f"demo {t['id']} sits in bucket {rank}")
            _expect(mean == (high if rank == n_ranks - 1 else low),
                    f"demo {t['id']} ranks are not constant at its end of the range")
            continue
        _expect(t["source"] == "offspring", f"{t['id']}: unexpected source {t['source']}")
        _expect(0 < rank < n_ranks - 1, f"offspring {t['id']} sits in end bucket {rank}")
        _expect(t["meta"]["bucket"] == rank, f"{t['id']}: meta bucket differs from its rank")
        lo = low + rank * width
        _expect(lo + tol - 1e-9 <= mean < lo + width - tol + 1e-9,
                f"{t['id']}: mean rank {mean} outside bucket {rank} [{lo}, {lo + width})")
        fill[rank] = fill.get(rank, 0) + 1
    _expect(sum(t["source"] == "demo" for t in ranked) == 2, "ranked set must hold exactly 2 demos")
    _expect(sum(fill.values()) == ga["n_offspring"],
            f"{sum(fill.values())} offspring, expected {ga['n_offspring']}")
    _expect(all(v <= quota for v in fill.values()), f"bucket fill {fill} exceeds quota {quota}")


def _ranked_provenance(ranked: list[dict], ga: dict) -> None:
    """Each step comes from the parent its tag names, or is an integer-rank mutation;
    so each rank sum equals the parent-x + parent-y + mutated split."""
    by_id = {t["id"]: t for t in ranked}
    for t in ranked:
        if t["source"] != "offspring":
            continue
        prov = t["meta"]["provenance"]
        ranks = np.asarray(t["step_ranks"])
        states = np.asarray(t["states"])
        _expect(len(prov) == len(ranks), f"{t['id']}: provenance length differs from length")
        parents = [by_id[p] for p in t["meta"]["parents"]]
        parts = [0.0, 0.0, 0.0]
        for k, tag in enumerate(prov):
            if tag == "m":
                r = ranks[k]
                _expect(r == int(r) and ga["rank_low"] <= r <= ga["rank_high"],
                        f"{t['id']}: mutated step {k} has rank {r}")
                parts[2] += r
                continue
            src = parents["xy".index(tag)]
            _expect(np.array_equal(states[k], src["states"][k]),
                    f"{t['id']}: step {k} state differs from parent {src['id']}")
            parts["xy".index(tag)] += src["step_ranks"][k]
        _expect(abs(sum(parts) - ranks.sum()) <= 1e-9,
                f"{t['id']}: rank sum {ranks.sum()} != provenance split {parts}")


def _ranked_rewards(ranked: list[dict]) -> None:
    for t in ranked:
        states = np.asarray(t["states"], dtype=np.float64)
        _expect(np.array_equal(true_rewards(t["env"], states), np.asarray(t["gt_step_rewards"])),
                f"{t['id']}: step rewards are not the true rewards of its states")


def _pair_refs(pairs: list[dict], ranked: list[dict], data: dict):
    by_id = {t["id"]: t for t in ranked}
    _expect(len(pairs) == data["n_pairs"], f"{len(pairs)} pairs, expected {data['n_pairs']}")
    for i, pair in enumerate(pairs):
        labels = []
        for side in ("lo", "hi"):
            ref = pair[side]
            traj = by_id[ref["parent_id"]]
            start, length = ref["start"], ref["length"]
            _expect(data["min_len"] <= length <= data["max_len"]
                    and 0 <= start and start + length <= len(traj["step_ranks"]),
                    f"pair {i} {side}: window [{start}, +{length}) out of range")
            label = float(np.mean(traj["step_ranks"][start:start + length]))
            _expect(abs(label - ref["rank"]) <= 1e-12,
                    f"pair {i} {side}: stored label {ref['rank']} != recomputed {label}")
            labels.append(label)
        yield i, labels[0], labels[1]


def _pairs_labels(pairs, ranked, data) -> None:
    for _ in _pair_refs(pairs, ranked, data):
        pass


def _pairs_margin(pairs, ranked, data) -> None:
    for i, lo, hi in _pair_refs(pairs, ranked, data):
        _expect(hi > lo and hi - lo >= data["min_margin"] - 1e-12,
                f"pair {i}: margin {hi - lo} below min_margin {data['min_margin']}")


def _loss_curve(rows: list[dict], steps: int) -> None:
    losses = np.array([float(r["loss"]) for r in rows])
    _expect(len(losses) == steps, f"{len(losses)} loss rows, expected {steps}")
    _expect(bool(np.all(np.isfinite(losses))), "loss curve has a non-finite entry")
    tail = losses[-max(1, steps // 10):].mean()
    _expect(tail < math.log(2), f"mean loss of the last tenth {tail} is not below ln 2")


def _eval_returns(eval_set: list[dict], model: dict):
    discount = GRID_DISCOUNT if eval_set[0]["env"] == "GridNav" else PC_DISCOUNT
    gt = np.array([discounted(t["gt_step_rewards"], discount) for t in eval_set])
    pred = np.array([mlp_forward(model, np.asarray(t["states"])).sum() for t in eval_set])
    return gt, pred


def _extrapolation_gt(rows, eval_set, gt) -> None:
    _expect([r["traj_id"] for r in rows] == [t["id"] for t in eval_set],
            "extrapolation.csv rows do not follow eval.jsonl")
    scale = float(np.abs(gt).max())
    for r, g in zip(rows, gt):
        _expect(_close(float(r["gt_return"]), g, scale), f"{r['traj_id']}: gt_return {r['gt_return']} != {g}")


def _extrapolation_pred(rows, pred) -> None:
    scale = float(np.abs(pred).max())
    for r, p in zip(rows, pred):
        _expect(_close(float(r["pred_return"]), p, scale),
                f"{r['traj_id']}: pred_return {r['pred_return']} != numpy forward pass {p}")


def genil_row(rows: list[dict]) -> dict:
    found = [r for r in rows if r["method"] == "GenIL"]
    _expect(len(found) == 1, "summary.csv has no single GenIL row")
    return found[0]


def _summary_spearman(summary, gt, pred) -> None:
    want = spearman(gt, pred)
    got = float(genil_row(summary)["spearman"])
    _expect(abs(got - want) <= 1e-7, f"summary spearman {got} != recomputed {want}")


def _summary_bin_std(summary, gt, pred, n_bins) -> None:
    want = mean_bin_std(gt, pred, n_bins)
    got = float(genil_row(summary)["mean_bin_std"])
    _expect(abs(got - want) <= 1e-7, f"summary mean_bin_std {got} != recomputed {want}")


def grid_q_values(model: dict, discount: float, tol: float) -> np.ndarray:
    """Q table from value iteration on the model's cell rewards."""
    rewards = mlp_forward(model, grid_features())
    nxt = grid_next()
    values = np.zeros(GRID_CELLS)
    for _ in range(100000):
        new = (rewards[:, None] + discount * values[nxt]).max(axis=1)
        done = np.abs(new - values).max() < tol
        values = new
        if done:
            break
    else:
        raise CheckFailed("value iteration on the model's cell rewards did not converge")
    return rewards[:, None] + discount * values[nxt]


def _policy_greedy(policy: dict, model: dict, pol_cfg: dict) -> None:
    q = grid_q_values(model, pol_cfg["discount"], pol_cfg["tol"])
    table = policy["parameters"]
    _expect(len(table) == GRID_CELLS, f"policy table has {len(table)} cells")
    slack = 1e-6 * (1.0 + float(np.abs(q).max()))
    for cell, action in enumerate(table):
        _expect(q[cell, action] >= q[cell].max() - slack,
                f"cell {cell}: action {action} is not greedy (Q {q[cell, action]} < {q[cell].max()})")


def _policy_table_shape(rows, methods, n_trials, n_models, failed=()) -> None:
    _expect([r["method"] for r in rows] == list(methods),
            f"policy_table.csv methods {[r['method'] for r in rows]}, expected {list(methods)}")
    for r in rows:
        if r["method"] in failed:
            _expect(r["avg"] == "", f"{r['method']} failed but has a policy-table value")
            continue
        _expect((int(r["n_trials"]), int(r["n_models"])) == (n_trials, n_models),
                f"{r['method']}: {r['n_trials']} x {r['n_models']}, expected {n_trials} x {n_models}")
        _expect(all(math.isfinite(float(r[k])) for k in ("avg", "std", "per_trial_std_mean")),
                f"{r['method']}: non-finite policy-table value")
        _expect(float(r["std"]) >= 0 and float(r["per_trial_std_mean"]) >= 0,
                f"{r['method']}: negative spread")


def _policy_return(policy: dict, table_rows, env: str) -> None:
    if env == "GridNav":
        ret = grid_policy_return(policy["parameters"])
    else:
        ret = pc_policy_return(policy["parameters"])
    got = float(table_rows[0]["avg"])
    _expect(_close(got, ret), f"policy_table avg {got} != simulated policy return {ret}")


def _summary_shape(rows, methods, failed=()) -> None:
    _expect([r["method"] for r in rows] == list(methods),
            f"summary.csv methods {[r['method'] for r in rows]}, expected {list(methods)}")
    for r in rows:
        if r["method"] in failed:
            continue
        vals = {k: float(r[k]) for k in ("accuracy_ratio", "spearman", "pearson", "mean_bin_std")}
        _expect(all(math.isfinite(v) for v in vals.values()), f"{r['method']}: non-finite summary value")
        _expect(-1 - 1e-9 <= vals["spearman"] <= 1 + 1e-9 and -1 - 1e-9 <= vals["pearson"] <= 1 + 1e-9,
                f"{r['method']}: correlation outside [-1, 1]")
        _expect(vals["mean_bin_std"] >= 0, f"{r['method']}: negative bin std")


# ---------------------------------------------------------------------------
# Per-command check lists


def _run(checks) -> list[tuple[str, str | None]]:
    results = []
    for name, fn in checks:
        try:
            fn()
            results.append((name, None))
        except CheckFailed as exc:
            results.append((name, str(exc)))
        except (KeyError, IndexError, ValueError, TypeError, OSError) as exc:
            results.append((name, f"malformed output: {type(exc).__name__}: {exc}"))
    return results


def check_run_all(out, expected: dict) -> list[tuple[str, str | None]]:
    """Checks for a run-all output directory; ``expected`` holds the env name
    and base seed the benchmark put in the config."""
    out = Path(out)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        env = cfg["env"]["name"]
        demos = load_jsonl(out / "demos.jsonl")
        eval_set = load_jsonl(out / "eval.jsonl")
        ranked = load_jsonl(out / "ranked.jsonl")
        rmanifest = json.loads((out / "ranked_manifest.json").read_text())
        pairs = load_jsonl(out / "pairs.jsonl")
        model = json.loads((out / "model.json").read_text())
        policy = json.loads((out / "policy.json").read_text())
        extrap = read_csv(out / "extrapolation.csv")
        summary = read_csv(out / "summary.csv")
        table = read_csv(out / "policy_table.csv")
        losses = read_csv(out / "loss_curve.csv")
        gt, pred = _eval_returns(eval_set, model)
    except (OSError, KeyError, IndexError, ValueError, TypeError, CheckFailed) as exc:
        return [("outputs.readable", f"{type(exc).__name__}: {exc}")]
    discount = GRID_DISCOUNT if env == "GridNav" else PC_DISCOUNT
    checks = [
        ("manifest.hashes", lambda: _manifest_hashes(out, manifest, RUN_ALL_ARTIFACTS)),
        ("manifest.config", lambda: _expect(
            (env, manifest["base_seed"]) == (expected["env"], expected["seed"]),
            f"manifest echoes {env} seed {manifest['base_seed']}, expected {expected}")),
        ("trajectories.dynamics", lambda: _trajectory_dynamics(demos + eval_set)),
        ("demos.order", lambda: _demo_order(demos, discount)),
        ("ranked.buckets", lambda: _ranked_buckets(ranked, rmanifest, cfg["ga"])),
        ("ranked.provenance", lambda: _ranked_provenance(ranked, cfg["ga"])),
        ("ranked.rewards", lambda: _ranked_rewards(ranked)),
        ("pairs.labels", lambda: _pairs_labels(pairs, ranked, cfg["data"])),
        ("pairs.margin", lambda: _pairs_margin(pairs, ranked, cfg["data"])),
        ("loss.curve", lambda: _loss_curve(losses, cfg["train"]["steps"])),
        ("extrapolation.gt_return", lambda: _extrapolation_gt(extrap, eval_set, gt)),
        ("extrapolation.pred_return", lambda: _extrapolation_pred(extrap, pred)),
        ("summary.spearman", lambda: _summary_spearman(summary, gt, pred)),
        ("summary.bin_std", lambda: _summary_bin_std(summary, gt, pred, cfg["eval"]["n_bins"])),
        ("policy_table.shape", lambda: _policy_table_shape(
            table, ["GenIL"], 1, cfg["eval"]["n_eval_episodes"])),
        ("policy.return", lambda: _policy_return(policy, table, env)),
    ]
    if env == "GridNav":
        checks.append(("policy.greedy", lambda: _policy_greedy(policy, model, cfg["policy"])))
    return _run(checks)


def check_compare(out, expected: dict, failed_methods=()) -> list[tuple[str, str | None]]:
    """Checks for a compare output directory.  Rows of methods listed in
    ``failed_methods`` (from manifest meta.method_errors) must be empty."""
    out = Path(out)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        env = cfg["env"]["name"]
        demos = load_jsonl(out / "demos.jsonl")
        eval_set = load_jsonl(out / "eval.jsonl")
        summary = read_csv(out / "summary.csv")
        table = read_csv(out / "policy_table.csv")
    except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
        return [("outputs.readable", f"{type(exc).__name__}: {exc}")]
    discount = GRID_DISCOUNT if env == "GridNav" else PC_DISCOUNT
    ev = cfg["eval"]
    return _run([
        ("manifest.hashes", lambda: _manifest_hashes(out, manifest, COMPARE_ARTIFACTS)),
        ("manifest.config", lambda: _expect(
            (env, manifest["base_seed"]) == (expected["env"], expected["seed"]),
            f"manifest echoes {env} seed {manifest['base_seed']}, expected {expected}")),
        ("trajectories.dynamics", lambda: _trajectory_dynamics(demos + eval_set)),
        ("demos.order", lambda: _demo_order(demos, discount, n_pairs=ev["n_trials"])),
        ("compare.policy_table", lambda: _policy_table_shape(
            table, COMPARE_METHODS, ev["n_trials"], ev["n_models_per_trial"], failed_methods)),
        ("compare.summary", lambda: _summary_shape(summary, REWARD_METHODS, failed_methods)),
    ])


COMPARE_CHECKS = 6  # len(check_compare(...)) on readable outputs
