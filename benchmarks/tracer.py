"""Span tracing of one genil command, wrapped around genil from outside.

Run as a script, this file stands in for ``python3 -m genil.cli``::

    python3 benchmarks/tracer.py SPANS.json [genil arguments...]

It imports ``genil.cli`` inside a span, wraps the functions in ``TARGETS``
in every genil module that holds a reference to them, runs the command
inside a root span and writes all spans to SPANS.json when the command
ends.  A span is ``[name, parent, start_ns, end_ns, a, b]``: ``a`` and
``b`` are counts taken at the boundary (rows, steps, bytes...).

``layer_metrics`` turns one spans file into the per-layer numbers.  Only
the standard library is imported at module level, so that the import
span covers numpy and scipy as the command itself loads them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


class Tracer:
    """Spans kept in memory; parents come from a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack = [-1]

    def begin(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.spans)
        self.spans.append([idx, self._stack[-1], time.perf_counter_ns(), 0, 0, 0])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][3] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# What to wrap.  Each entry: (module, attribute or Class.method, counts).
# ``counts(args, result)`` returns (a, b) for the span.  Functions called by
# the pipeline are all wrapped, so that pipeline self time is orchestration
# only; the ones without counts serve that purpose.


def _size(path) -> int:
    return os.path.getsize(path)


def _unique_states(pairs) -> int:
    """Distinct state rows over a pair set's snippets (deduplicated by key first)."""
    import numpy as np

    by_key = {}
    for pair in pairs:
        for snip in (pair.lo, pair.hi):
            by_key.setdefault((snip.parent_id, snip.start, snip.length), snip.states)
    return len(np.unique(np.concatenate(list(by_key.values())), axis=0))


TARGETS = [
    ("genil.config", "load_config", None),
    ("genil.pipeline", "file_sha256", lambda a, r: (_size(a[0]), 0)),
    ("genil.envs", "rollout", lambda a, r: (len(r), 0)),
    ("genil.envs", "make_demo_pair", None),
    ("genil.envs", "make_eval_set", None),
    ("genil.envs", "GridNavEnv.step", None),
    ("genil.envs", "PointChaseEnv.step", None),
    ("genil.genetics", "reproduce", lambda a, r: (r.attempts_used, len(r.trajectories) - 2)),
    ("genil.genetics", "RankedDataset.save", None),
    ("genil.genetics", "RankedDataset.load", None),
    ("genil.snippets", "subsample", None),
    ("genil.snippets", "make_pairs", lambda a, r: (len(r), 0)),
    ("genil.snippets", "save_pairs", None),
    ("genil.reward_net", "make_reward_model", None),
    ("genil.reward_net", "train", None),  # counted in _wrap
    ("genil.reward_net", "predict_states", lambda a, r: (len(r), 0)),
    ("genil.reward_net", "save_model", None),
    ("genil.reward_net", "load_model", None),
    ("genil.mlp", "MLP.forward", lambda a, r: (len(r[0]), 0)),
    ("genil.mlp", "MLP.backward", None),
    ("genil.mlp", "MLP.apply_grads", None),
    ("genil.policy_opt", "cem_search",
     lambda a, r: (a[2].n_iters, a[2].n_iters * a[2].population_size * a[0].horizon)),
    ("genil.policy_opt", "value_iteration", None),
    ("genil.policy_opt", "evaluate_policy",
     lambda a, r: (len(r.returns), len(set(r.returns.tolist())))),
    ("genil.policy_opt", "save_policy", None),
    ("genil.policy_opt", "load_policy", None),
    ("genil.baselines", "train_bc", None),
    ("genil.baselines", "build_drex_dataset", None),
    ("genil.baselines", "build_trex_dataset", None),
    ("genil.baselines", "build_trex2_dataset", None),
    ("genil.metrics", "extrapolation_report", None),
    ("genil.metrics", "policy_table_row", None),
    ("genil.metrics", "write_extrapolation_csv", None),
    ("genil.metrics", "write_summary_csv", None),
    ("genil.metrics", "write_loss_csv", None),
    ("genil.trajectory", "save_trajectories", lambda a, r: (_size(a[0]), 0)),
    ("genil.trajectory", "load_trajectories", lambda a, r: (_size(a[0]), 0)),
]


def _wrap(tracer: Tracer, fn, name: str, counts):
    if name == "reward_net.train":
        # The benchmark counts distinct states itself, outside the train span,
        # under a span of its own so that no layer's self time includes it.
        seen: dict[int, tuple] = {}

        def traced_train(*args, **kwargs):
            pairs = args[1]
            if id(pairs) not in seen:
                sid = tracer.begin("trace.count")
                seen[id(pairs)] = (pairs, _unique_states(pairs))
                tracer.end(sid)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            tracer.spans[sid][4] = args[2].steps
            tracer.spans[sid][5] = seen[id(pairs)][1]
            return result

        return functools.wraps(fn)(traced_train)

    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if counts is not None:
            tracer.spans[sid][4], tracer.spans[sid][5] = counts(args, result)
        return result

    return functools.wraps(fn)(traced)


def install(tracer: Tracer) -> None:
    """Replace every target by its traced wrapper wherever genil refers to it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "genil" or n.startswith("genil.")]
    for module_name, attr, counts in TARGETS:
        module = importlib.import_module(module_name)
        name = module_name.split(".", 1)[1] + "." + attr.split(".")[-1]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(tracer, raw.__func__, name, counts)))
            else:
                setattr(cls, meth, _wrap(tracer, raw, name, counts))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, original, name, counts)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv) -> int:
    spans_path, genil_args = argv[0], argv[1:]
    tracer = Tracer()
    sid = tracer.begin("cli.import")
    import genil.cli

    tracer.end(sid)
    install(tracer)
    sid = tracer.begin("cli.main")
    try:
        code = genil.cli.main(genil_args)
    finally:
        tracer.end(sid)
        tracer.write(spans_path)
    return code


# ---------------------------------------------------------------------------
# Per-layer numbers from one spans file


def layer_metrics(path) -> dict[str, float]:
    """Per-layer totals, counts and rates; 0 where a layer did no work."""
    import numpy as np

    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    spans = np.asarray(doc["spans"], dtype=np.int64).reshape(-1, 6)
    kind, parent, start, end, a, b = spans.T
    dur = (end - start) / 1e9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_time = dur - child
    ids = {n: i for i, n in enumerate(names)}

    def mask(*span_names):
        return np.isin(kind, [ids[n] for n in span_names if n in ids])

    def total(*span_names):
        return float(dur[mask(*span_names)].sum())

    def count(*span_names):
        return int(mask(*span_names).sum())

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    root = np.flatnonzero(mask("cli.main"))[0]
    under_root = np.flatnonzero((parent == root) & ~mask("pipeline.file_sha256"))
    hash_m, roll_m, step_m = mask("pipeline.file_sha256"), mask("envs.rollout"), mask(
        "envs.step")
    ga_m, train_m = mask("genetics.reproduce"), mask("reward_net.train")
    fwd_m, bwd_m, upd_m = mask("mlp.forward"), mask("mlp.backward"), mask("mlp.apply_grads")
    cem_m, eval_m = mask("policy_opt.cem_search"), mask("policy_opt.evaluate_policy")

    # predict_states calls that are neither nested in another nor inside train
    outer = mask("reward_net.train", "reward_net.predict_states")
    pred_rows = []
    for i in np.flatnonzero(mask("reward_net.predict_states")):
        p = parent[i]
        while p >= 0 and not outer[p]:
            p = parent[p]
        if p < 0:
            pred_rows.append(i)

    train_steps = int(a[train_m].sum())
    cem_s = float(dur[cem_m].sum())
    return {
        "cli.import_s": total("cli.import"),
        "config.load_s": total("config.load_config"),
        "pipeline.self_s": float(dur[root] - dur[under_root].sum()),
        "pipeline.hash_s": float(dur[hash_m].sum()),
        "pipeline.hashed_bytes": int(a[hash_m].sum()),
        "envs.rollout_calls": int(roll_m.sum()),
        "envs.rollout_us_per_step": ratio(dur[roll_m].sum() * 1e6, a[roll_m].sum()),
        "envs.step_calls": int(step_m.sum()),
        "envs.step_us": ratio(dur[step_m].sum() * 1e6, step_m.sum()),
        "genetics.reproduce_s": float(dur[ga_m].sum()),
        "genetics.attempts": int(a[ga_m].sum()),
        "genetics.accept_ratio": ratio(b[ga_m].sum(), a[ga_m].sum()),
        "snippets.subsample_s": total("snippets.subsample"),
        "snippets.make_pairs_s": total("snippets.make_pairs"),
        "snippets.pairs": int(a[mask("snippets.make_pairs")].sum()),
        "reward_net.train_s": float(dur[train_m].sum()),
        "reward_net.train_calls": int(train_m.sum()),
        "reward_net.train_steps": train_steps,
        "reward_net.us_per_step": ratio(dur[train_m].sum() * 1e6, train_steps),
        "reward_net.bookkeeping_us_per_step": ratio(self_time[train_m].sum() * 1e6, train_steps),
        "reward_net.unique_states": ratio(b[train_m].sum(), train_m.sum()),
        "reward_net.predict_calls": len(pred_rows),
        "reward_net.predict_s": float(dur[pred_rows].sum()),
        "mlp.forward_calls": int(fwd_m.sum()),
        "mlp.rows_per_forward": ratio(a[fwd_m].sum(), fwd_m.sum()),
        "mlp.forward_us": ratio(dur[fwd_m].sum() * 1e6, fwd_m.sum()),
        "mlp.backward_us": ratio(dur[bwd_m].sum() * 1e6, bwd_m.sum()),
        "mlp.update_us": ratio(dur[upd_m].sum() * 1e6, upd_m.sum()),
        "policy_opt.cem_s": cem_s,
        "policy_opt.cem_iter_ms": ratio(cem_s * 1e3, a[cem_m].sum()),
        "policy_opt.cem_candidate_steps_per_s": ratio(b[cem_m].sum(), cem_s),
        "policy_opt.value_iteration_s": total("policy_opt.value_iteration"),
        "policy_opt.evaluate_s": float(dur[eval_m].sum()),
        "policy_opt.eval_episodes": int(a[eval_m].sum()),
        "policy_opt.eval_distinct_ratio": ratio(b[eval_m].sum(), a[eval_m].sum()),
        "baselines.train_bc_s": total("baselines.train_bc"),
        "baselines.build_drex_s": total("baselines.build_drex_dataset"),
        "baselines.build_trex_s": total("baselines.build_trex_dataset", "baselines.build_trex2_dataset"),
        "metrics.extrapolation_report_s": total("metrics.extrapolation_report"),
        "trajectory.save_s": total("trajectory.save_trajectories"),
        "trajectory.load_s": total("trajectory.load_trajectories"),
        "trajectory.bytes": int(a[mask("trajectory.save_trajectories",
                                       "trajectory.load_trajectories")].sum()),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
