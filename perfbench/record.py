"""Append run records to the BENCH trajectory, or compare the last two.

    python3 perfbench/record.py --seed 1
    python3 perfbench/record.py --compare

A record holds the git sha, the seed, the run length, the environment
(Python and numpy versions, the kernel path, POLYSHIFT_PRIME, nproc and the
thread pins) and every end-to-end and per-layer value of one untraced and
one traced run of a workload, measured for BENCHMARK.json's ``run_seconds``.
Every workload is recorded; records of workload W are appended to
``perfbench/BENCH_<W>.json``.  Records are compared only when their seed,
run length, kernel path and prime are the same.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_seconds() -> int:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    tagged = {
        tag: json.loads(line[len(tag):])
        for line in lines
        for tag in ("# env ", "# reported ")
        if line.startswith(tag)
    }
    result = json.loads(lines[-1])
    result["metrics"].update(tagged.get("# reported ", {}))
    return tagged["# env "], result


def record(workload: str, seed: int, seconds: float) -> dict:
    env, untraced = run_once(workload, seed, seconds, 0)
    _, traced = run_once(workload, seed, seconds, 1)
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return {
        "sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "correct": untraced["correct"] and traced["correct"],
        "error_rate": failed / attempted,
        "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
    }


def comparable(rec: dict) -> dict:
    """What two records must share to be compared."""
    return {
        "seed": rec["seed"],
        "seconds": rec["seconds"],
        "kernel path": (rec["env"]["have_numba"], rec["env"]["polyshift_prime"]),
    }


def compare(path: Path) -> bool:
    records = json.loads(path.read_text())
    if len(records) < 2:
        print(f"{path.name}: fewer than two records")
        return True
    old, new = records[-2], records[-1]
    differ = {k: (v, comparable(new)[k]) for k, v in comparable(old).items()
              if v != comparable(new)[k]}
    if differ:
        print(f"{path.name}: refusing to compare: " + ", ".join(
            f"{k} {a} against {b}" for k, (a, b) in differ.items()))
        return False
    print(f"{path.name}: {old['sha']} -> {new['sha']}")
    for section in ("end_to_end", "per_layer"):
        for name, value in new[section].items():
            before = old[section].get(name)
            ratio = f"{value / before:8.3f}x" if before else "         "
            print(f"  {name:<36} {before!s:>22} -> {value!s:>22} {ratio}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        results = [compare(p) for p in sorted(HERE.glob("BENCH_*.json"))]
        return 0 if all(results) else 1
    seconds = run_seconds()
    for workload in run.WORKLOADS:
        rec = record(workload, args.seed, seconds)
        path = HERE / f"BENCH_{workload}.json"
        records = json.loads(path.read_text()) if path.exists() else []
        records.append(rec)
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"appended to {path.name}: correct={rec['correct']} "
              f"error_rate={rec['error_rate']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
