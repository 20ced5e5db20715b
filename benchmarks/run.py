"""Benchmark for the genil command line: end-to-end and traced per-layer runs.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  A run launches the genil
command in a closed loop (one invocation at a time, GENIL_THREADS unset,
BLAS on one thread), each invocation on its own config: the workload's
sections and a base seed.  Invocation i of a run gets base seed
--seed + i * SEED_STRIDE, so a run averages over several seeds and every
run at one --seed does exactly the same work.  The number of invocations
is --seconds over the workload's typical invocation time, at least one.
Every invocation's outputs are checked (checks.py).

--trace 0 reports the end-to-end metrics: wall_s and peak_rss_mb (medians
over the invocations) and setup_s (median of several launches, made
before the loop, that only import genil.cli and load the config).  --trace 1
runs each seed twice, untraced and under tracer.py, in half as many rounds,
and reports the per-layer metrics, the quality figures and the tracing
overhead; the two invocations at one seed must write byte-identical
artifacts.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_LAUNCHES = 5
SEED_STRIDE = 10007  # seeds of one run never meet those of a nearby --seed
RUN_ALL_STAGES = ("gen-demos", "reproduce", "train-reward", "train-policy", "evaluate")
SETUP_CODE = (
    "import sys, genil.cli, genil.config; genil.config.load_config(sys.argv[1])"
)

# (command, config sections, typical invocation seconds); every config
# section not set here is genil's default.
WORKLOADS = {
    "pointchase-run-all": ("run-all", {"env": {"name": "PointChase"}}, 13.0),
    "gridnav-compare": ("compare", {
        "env": {"name": "GridNav"},
        "train": {"steps": 1500},
        "eval": {"n_trials": 2, "n_models_per_trial": 2, "n_eval_episodes": 1},
    }, 35.0),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s", "config.load_s": "s",
    "pipeline.self_s": "s", "pipeline.hash_s": "s", "pipeline.hashed_bytes": "B",
    "envs.rollout_calls": "count", "envs.rollout_us_per_step": "us",
    "envs.step_calls": "count", "envs.step_us": "us",
    "genetics.reproduce_s": "s", "genetics.attempts": "count", "genetics.accept_ratio": "ratio",
    "snippets.subsample_s": "s", "snippets.make_pairs_s": "s", "snippets.pairs": "count",
    "reward_net.train_s": "s", "reward_net.train_calls": "count",
    "reward_net.train_steps": "count", "reward_net.us_per_step": "us",
    "reward_net.bookkeeping_us_per_step": "us", "reward_net.unique_states": "count",
    "reward_net.predict_calls": "count", "reward_net.predict_s": "s",
    "mlp.forward_calls": "count", "mlp.rows_per_forward": "rows", "mlp.forward_us": "us",
    "mlp.backward_us": "us", "mlp.update_us": "us",
    "policy_opt.cem_s": "s", "policy_opt.cem_iter_ms": "ms",
    "policy_opt.cem_candidate_steps_per_s": "1/s", "policy_opt.value_iteration_s": "s",
    "policy_opt.evaluate_s": "s", "policy_opt.eval_episodes": "count",
    "policy_opt.eval_distinct_ratio": "ratio",
    "baselines.train_bc_s": "s", "baselines.build_drex_s": "s", "baselines.build_trex_s": "s",
    "metrics.extrapolation_report_s": "s",
    "trajectory.save_s": "s", "trajectory.load_s": "s", "trajectory.bytes": "B",
    "genil_spearman": "1", "genil_bin_std": "1",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def config_text(sections: dict, seed: int) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    lines += ["[seeds]", f"base = {seed}", "[output]", "dir = out"]
    return "\n".join(lines) + "\n"


def child_env() -> dict:
    """GENIL_THREADS unset and BLAS on one thread, so a command uses one core.

    Outputs are byte-identical with any BLAS thread count; the default second
    thread only spins on genil's small matrices and adds run-to-run noise.
    """
    env = dict(os.environ)
    env.pop("GENIL_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv, cwd: Path, log, timeout: float) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall s, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=log)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: end the child first
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def compare_counts(manifest: dict, code: int, results, n_trials: int) -> tuple[int, int]:
    """(attempted, failed) for one compare invocation.

    The operations are each method x trial unit and each check.  A method
    listed in meta.method_errors fails all its trials even when the command
    exited 0; a command that did not exit 0 fails everything.
    """
    attempted = len(checks.COMPARE_METHODS) * n_trials + checks.COMPARE_CHECKS
    if code != 0:
        return attempted, attempted
    errors = manifest.get("meta", {}).get("method_errors", {})
    bad_checks = sum(err is not None for _, err in results)
    return attempted, len(errors) * n_trials + bad_checks + checks.COMPARE_CHECKS - len(results)


class Run:
    """One benchmark run of one workload: invocations, checks and accounting."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.command, self.sections, typical = WORKLOADS[workload]
        self.env = self.sections["env"]["name"]
        self.seed = seed
        self.n_seeds = max(1, round(seconds / typical))
        self.n_trials = self.sections.get("eval", {}).get("n_trials", 5)
        self.dir = RUNS / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.errors: list[str] = []  # failed operations
        self.wrong: list[str] = []  # failed checks: outputs that are not correct
        self.reference: dict[int, dict[str, str]] = {}  # artifact hashes per seed
        self.count = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def config(self, seed: int) -> Path:
        path = self.dir / f"config-{seed}.ini"
        if not path.is_file():
            path.write_text(config_text(self.sections, seed))
        return path

    def invoke(self, seed: int, traced: bool) -> tuple[float, float, Path]:
        """One genil invocation in its own directory; checks and counts it."""
        self.count += 1
        inv = self.dir / f"inv{self.count}"
        inv.mkdir()
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "spans.json"]
        else:
            argv = [sys.executable, "-m", "genil.cli"]
        argv += ["--config", str(self.config(seed)), self.command]
        with open(inv / "log.txt", "w") as log:
            code, wall, rss = launch(argv, inv, log, self.remaining())
        self.account(inv, seed, code)
        return wall, rss, inv

    def account(self, inv: Path, seed: int, code: int) -> None:
        out = inv / "out"
        expected = {"env": self.env, "seed": seed}
        if code != 0:
            self.errors.append(f"{inv.name}: genil exited {code}; see {inv / 'log.txt'}")
        try:
            manifest = json.loads((out / "manifest.json").read_text())
        except (OSError, ValueError):
            manifest = {"stage_seconds": {}, "meta": {}, "artifacts": {}}
        if self.command == "run-all":
            self.attempted += len(RUN_ALL_STAGES)
            done = manifest["stage_seconds"] if code == 0 else {}
            self.failed += sum(stage not in done for stage in RUN_ALL_STAGES)
            results = checks.check_run_all(out, expected) if code == 0 else []
        else:
            errors = manifest.get("meta", {}).get("method_errors", {})
            if code == 0:
                self.errors += [f"{inv.name}: {m} failed: {e}" for m, e in errors.items()]
            results = checks.check_compare(out, expected, errors) if code == 0 else []
            attempted, failed = compare_counts(manifest, code, results, self.n_trials)
            self.attempted += attempted
            self.failed += failed
        self.wrong += [f"{inv.name}: check {name}: {err}" for name, err in results if err]
        if code == 0:
            hashes = {name: checks.sha256_file(out / name) if (out / name).is_file() else None
                      for name in sorted(manifest["artifacts"])}
            reference = self.reference.setdefault(seed, hashes)
            if hashes != reference:
                self.wrong.append(f"{inv.name}: artifacts differ from an earlier "
                                  f"invocation at seed {seed}")

    def loop(self, traced: bool) -> list:
        """Closed loop over the run's seeds; a traced run does half as many
        rounds, each an untraced and a traced invocation at one seed."""
        n_rounds = max(1, self.n_seeds // 2) if traced else self.n_seeds
        rounds = []
        for i in range(n_rounds):
            seed = self.seed + i * SEED_STRIDE
            t0 = time.perf_counter()
            wall, rss, inv = self.invoke(seed, False)
            entry = {"wall": wall, "rss": rss, "inv": inv}
            if traced:
                entry["traced_wall"], _, entry["traced_inv"] = self.invoke(seed, True)
            rounds.append(entry)
            if (time.perf_counter() - t0) * 1.3 + 5 > self.remaining():
                if i + 1 < n_rounds:
                    self.errors.append(f"stopped after {i + 1} of {n_rounds} rounds: "
                                       f"the run would not end within {RUN_LIMIT_S:.0f} s")
                return rounds
        return rounds

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    run = Run(workload, seed, seconds)
    if not trace:
        # a cold bytecode cache slows only the first launch, which the median drops
        setups = []
        for _ in range(SETUP_LAUNCHES):
            with open(run.dir / "setup.log", "a") as log:
                code, wall, _ = launch(
                    [sys.executable, "-c", SETUP_CODE, str(run.config(seed))], run.dir, log,
                    run.remaining())
            if code != 0:
                run.errors.append(f"setup launch exited {code}; see {run.dir / 'setup.log'}")
            setups.append(wall)
        rounds = run.loop(trace)
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
            "setup_s": statistics.median(setups),
        }
        return run.result(metrics, END_TO_END_UNITS), run.errors + run.wrong
    rounds = run.loop(trace)
    per_round = []
    for r in rounds:
        spans = r["traced_inv"] / "spans.json"
        if not spans.is_file():
            run.errors.append(f"{r['traced_inv'].name}: no spans written")
            continue
        layers = tracer.layer_metrics(spans)
        genil = checks.genil_row(checks.read_csv(r["inv"] / "out" / "summary.csv"))
        layers["genil_spearman"] = float(genil["spearman"])
        layers["genil_bin_std"] = float(genil["mean_bin_std"])
        layers["trace.overhead_s"] = r["traced_wall"] - r["wall"]
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / r["wall"]
        per_round.append(layers)
    metrics = {k: statistics.median(p[k] for p in per_round) if per_round else 0.0
               for k in LAYER_UNITS}
    return run.result(metrics, LAYER_UNITS), run.errors + run.wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed of the run's first invocation")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="invocation time a run aims at; sets the number of seeds it runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so launch() ends the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "genil" / "cli.py").is_file():
        print(f"run.py: no genil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result, errors = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"{name} seed={args.seed} trace={args.trace}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        for err in errors:
            print(f"  error: {err}", file=sys.stderr)
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
