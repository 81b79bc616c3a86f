"""Self-test of the benchmark at tiny sizes, in a few seconds.

    python3 perfbench/selftest.py

For each workload it runs an untraced pass, an untraced repeat of its first
items and two traced passes, and requires that every output passes its
check, that traced and untraced outputs are identical, that the per-layer
counts repeat, and that a deliberately corrupted output is counted as a
failure.  It also requires that
BENCHMARK.json names exactly the metrics the runner reports, and that the
runner exits nonzero without a result where there are no sources to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7


def corrupt_report(name: str, text: str) -> str:
    report = json.loads(text)
    if name == "betti-veronese":
        report["totals"]["0"] += 1
    elif name == "betti-cycles":
        report["entries"][-1]["rank"] += 1
    else:
        report["routes"]["oracle"]["shifts"]["1"] = report["routes"]["oracle"]["shifts"]["0"]
    return json.dumps(report, sort_keys=True)


def check_workload(workloads, tracing, name: str, workdir: Path) -> list[str]:
    errors = []
    workload = workloads.make(name, SEED, workdir, tiny=True)
    passes = [workload.run_pass(), workload.run_pass(limit=3)]
    tracer = tracing.Tracer()
    tracer.install()
    traces = []
    try:
        for _ in range(2):
            tracer.reset()
            workload.generate()
            passes.append(workload.run_pass(tracer))
            traces.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    # passes 2 and 3 are traced: a differing output fails the check
    verdicts = workload.check(passes)
    if any(any(v) for v in verdicts):
        errors.append(f"{name}: failures in clean passes: {verdicts}")
    if traces[0].call_counts() != traces[1].call_counts():
        errors.append(f"{name}: per-layer counts differ between traced passes")
    metrics = tracing.layer_metrics(traces[0], len(passes[0].latencies_ms), 1.0)
    if list(metrics) != [m for m, _ in tracing.PER_LAYER]:
        errors.append(f"{name}: traced run does not report every per-layer metric")

    # corrupt item 0 of the first pass: it fails there and in every repeat
    first = passes[0]
    if name == "fuzz":
        error, rows, count = first.outputs
        fields, _ = rows[0]
        changed = json.loads(fields)
        changed[2] = -1  # pd
        first.outputs = (error, [(json.dumps(changed, sort_keys=True), False)] + rows[1:], count)
    else:
        rc, text = first.outputs[0]
        first.outputs[0] = (rc, corrupt_report(name, text))
    verdicts = workload.check(passes[:2])
    if [v[0] for v in verdicts] != [True, True] or any(any(v[1:]) for v in verdicts):
        errors.append(f"{name}: a corrupted output was not counted exactly once per pass")
    return errors


def check_manifest(workloads, tracing) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if list(run.WORKLOADS) != list(workloads.WORKLOADS):
        errors.append("run.WORKLOADS and workloads.WORKLOADS name other workloads")
    if names != [w for w in run.WORKLOADS if w not in run.UNGATED]:
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS less run.UNGATED")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    return errors


def check_bare_directory(scratch: Path) -> list[str]:
    """The runner must refuse to run where only the benchmark's files are."""
    bare = scratch / "bare"
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    if done.returncode == 0 or done.stdout.strip():
        return ["runner did not refuse a directory without sources"]
    return []


def main() -> int:
    run.pin_environment()
    run.import_program()
    import tracing
    import workloads

    scratch = run.WORK / f"selftest-{os.getpid()}"
    errors = []
    try:
        errors += check_manifest(workloads, tracing)
        errors += check_bare_directory(scratch)
        for name in workloads.WORKLOADS:
            errors += check_workload(workloads, tracing, name, scratch / name)
            print(f"checked {name}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
