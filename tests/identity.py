"""Byte-identity check of this checkout against a git revision.

    python3 tests/identity.py REF [--json PATH]
    python3 tests/identity.py --self-check

Unpacks ``git archive REF`` into a temporary directory and runs the same
genil commands from the CLI in both trees (this checkout's working tree
and REF's), each with ``--quiet`` and BLAS on one thread, in a fresh
directory of its own.  Every output file is compared byte for byte,
``manifest.json`` without its ``stage_seconds``, and so are the exit
code, stdout and stderr.  The five single-stage commands run in order in
one directory per environment, and what each leaves there is compared.

Prints one line per command and exits 1 if any differs.  ``--json``
writes the results as a JSON block with machine info.  ``--self-check``
runs two commands against HEAD, which must all be identical.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ini(sections: dict) -> str:
    """A genil config file with these {section: {key: value}}."""
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


GC = {
    "env": {"name": "GridNav"},
    "train": {"steps": 1500},
    "eval": {"n_trials": 2, "n_models_per_trial": 2, "n_eval_episodes": 1},
}
# the tests' SMALL config
SMALL = {
    "data": {"n_snippets": 60, "min_len": 5, "max_len": 10, "n_pairs": 120},
    "train": {"steps": 50},
    "eval": {
        "qualities": "0.0, 0.3, 0.6",
        "n_per_quality": 2,
        "n_trials": 2,
        "n_models_per_trial": 2,
        "n_eval_episodes": 1,
    },
    "sweep": {"step_sizes": "1, 5"},
    "seeds": {"base": 5},
}

CONFIGS = {
    "gc": ini(GC),
    "gc3": ini({**GC, "train": {"steps": 1500, "learning_rate": 3}}),
    "gcstall": ini({**GC, "ga": {"max_attempts": 1}}),
    "gn": ini({"env": {"name": "GridNav"}}),
    "pc": ini({"env": {"name": "PointChase"}}),
    "spc": ini({**SMALL, "env": {"name": "PointChase"}, "policy": {"cem_n_iters": 2}}),
}

CONFIG_NOTES = {
    "gc": "gridnav-compare config: [env] GridNav; [train] steps 1500; "
    "[eval] n_trials 2, n_models_per_trial 2, n_eval_episodes 1",
    "gc3": "gc + [train] learning_rate 3",
    "gcstall": "gc + [ga] max_attempts 1 (GenIL stalls)",
    "gn, pc": "default config with [env] name set",
    "spc": "tests' SMALL_PC: SMALL + [env] PointChase, [policy] cem_n_iters 2",
}

SINGLE_STAGES = ("gen-demos", "reproduce", "train-reward", "train-policy", "evaluate")


def commands() -> list[tuple[str, str, str, int | None, str]]:
    """(name, config, command, --seed or None, directory) per run; runs that
    share a directory run in list order, one after another."""
    runs = [(f"gc-{s}", "gc", "compare", s) for s in range(1, 8)]
    runs += [("gc3-7", "gc3", "compare", 7), ("gc3-base", "gc3", "compare", None)]
    runs += [("gcstall-base", "gcstall", "compare", None), ("gn-compare-1", "gn", "compare", 1)]
    runs += [(f"runall-{e}-{s}", e, "run-all", s) for e in ("gn", "pc") for s in (1, 7)]
    runs += [(f"spc-compare-{s}", "spc", "compare", s) for s in (1, 2, 7)]
    runs += [(f"spc-sweep-{s}", "spc", "sweep", s) for s in (1, 7)]
    out = [(name, cfg, cmd, seed, name) for name, cfg, cmd, seed in runs]
    for env in ("gn", "pc"):
        out += [(f"{env}-{stage}-1", env, stage, 1, f"{env}-stages") for stage in SINGLE_STAGES]
    return out


def run(tree: Path, work: Path, cfg: str, command: str, seed: int | None) -> dict:
    """Run one command with tree's genil in work; what it returned and left."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.ini").write_text(CONFIGS[cfg])
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    argv = [sys.executable, "-m", "genil.cli", "--config", "config.ini", "--out", "out", "--quiet"]
    argv += ([] if seed is None else ["--seed", str(seed)]) + [command]
    done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    files = {}
    for path in sorted((work / "out").iterdir()) if (work / "out").is_dir() else []:
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("stage_seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.name] = data
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    """What differs between two run records, by field or file name."""
    found = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
    names = sorted(set(a["files"]) | set(b["files"]))
    return found + [n for n in names if a["files"].get(n) != b["files"].get(n)]


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def compare(ref: str, runs: list) -> dict:
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", ref],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="genil-identity-") as tmp:
        ref_tree = Path(tmp) / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive, check=True)
        results, n_diff = {}, 0
        for name, cfg, command, seed, directory in runs:
            here = run(ROOT, Path(tmp) / "change" / directory, cfg, command, seed)
            there = run(ref_tree, Path(tmp) / "parent" / directory, cfg, command, seed)
            diff = differences(here, there)
            n_diff += bool(diff)
            entry = {"exit": here["exit"], "files": len(here["files"]), "identical": not diff}
            if diff:
                entry["differ"] = diff
            if here["stderr"]:
                entry["stderr"] = here["stderr"].splitlines()
            results[name] = entry
            status = "identical" if not diff else "DIFFERS in " + ", ".join(diff)
            print(f"{name}: {status} (exit {entry['exit']}, {entry['files']} files)", flush=True)
    return {
        "parent": f"git archive of {sha}",
        "method": "each command run from the CLI with --quiet in both trees, BLAS on one "
        "thread; every output file compared byte for byte, manifest.json without "
        "stage_seconds; exit code, stdout and stderr compared; the single-stage commands "
        "run in order in one directory per environment",
        "configs": CONFIG_NOTES,
        "machine": machine(),
        "runs": results,
        "differences": n_diff,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="git revision to compare against")
    parser.add_argument("--json", metavar="PATH", help="write the results block here")
    parser.add_argument(
        "--self-check", action="store_true", help="run two commands against HEAD"
    )
    args = parser.parse_args(argv)
    if args.self_check:
        wanted = {"spc-sweep-1", "runall-gn-1"}
        block = compare("HEAD", [r for r in commands() if r[0] in wanted])
    elif args.ref:
        block = compare(args.ref, commands())
    else:
        parser.error("give REF or --self-check")
    if args.json:
        Path(args.json).write_text(json.dumps(block, indent=1) + "\n")
    print(f"{block['differences']} of {len(block['runs'])} commands differ")
    return 1 if block["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
