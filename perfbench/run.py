"""Benchmark of polyshift's user-facing commands, end to end and per layer.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  Workloads are defined in
``workloads.py``.  With ``--trace 0`` the run repeats passes over the
seeded items for about ``--seconds`` and reports the end-to-end metrics;
between items a probe times a fixed loop, and the gated times are scaled
to the probe's reference speed, so that a host's changing speed cancels
out; the raw wall-clock figures are printed beside them.  With ``--trace 1``
it makes one untraced pass and two traced passes (``tracing.py``), checks
that the counts repeat, and reports the per-layer metrics.  Outputs are
checked after the timed region.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"
# this process's set-up plus four fresh processes: set-up is mostly import
# time; in six sets of ten seeds on a shared 2-core machine one sample
# spread 0.13-0.36 between quartiles, and the median of five less in each set
SETUP_SAMPLES = 5
REPEAT_SHARE = 10  # a one-pass run repeats its first tenth, untimed, as a check
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fuzz", "betti-veronese", "betti-cycles", "hs-routes")
# run and recorded, but left out of BENCHMARK.json: between sets of runs
# minutes apart on a shared 2-core machine its raw quartile spread reached
# 0.28 on items_per_s and 0.30 on latency_p50_ms, and a fourth gated workload
# would leave little of the time allowed for all the runs of the benchmark
UNGATED = ("hs-routes",)

# (name, unit); order is the order of BENCHMARK.json's end_to_end list.
# Times in ref-s and ref-ms are wall times scaled to the reference speed of
# workloads.SpeedProbe, which is measured between the items of each pass: over
# ten seeds on a shared 2-core host, the raw figures spread up to 0.31 between
# quartiles (as a share of the median), the scaled ones at most 0.11
END_TO_END = [
    ("setup_s", "s"),
    ("items_per_ref_s", "items/ref-s"),
    ("latency_p50_ref_ms", "ref-ms"),
    ("peak_rss_mb", "MB"),
]
# printed and recorded but not in the result line: the raw wall-clock figures,
# above the largest bound of 0.25 in some sets; the tail percentile, which
# spread up to 0.25 raw and 0.16 scaled; and the probe's slowdown
REPORTED = [
    ("items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p90_ref_ms", "ref-ms"),
    ("slowdown", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for set-up samples)")
    return parser.parse_args(argv)


def pin_environment() -> None:
    for var in THREAD_PINS:
        os.environ[var] = "1"
    os.environ.pop("POLYSHIFT_PRIME", None)


def import_program():
    """Import polyshift from this checkout's src, or exit without a result."""
    if not (SRC / "polyshift" / "__init__.py").is_file():
        sys.exit(f"run.py: no polyshift sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import polyshift

    if Path(polyshift.__file__).resolve().parent != SRC / "polyshift":
        sys.exit(f"run.py: imported polyshift from {polyshift.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    from polyshift import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "polyshift_prime": os.environ.get("POLYSHIFT_PRIME"),
        "nproc": os.cpu_count(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus fresh processes doing the same set-up."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def timed_run(workload, args, setup_s: float) -> dict:
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = perf_counter() - start
        # stop when one more pass would end further past the deadline than this
        if elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeat = []
    if len(passes) == 1:
        repeat = [workload.run_pass(limit=max(1, len(workload.items) // REPEAT_SHARE))]
    failed = [f for verdicts in workload.check(passes + repeat) for f in verdicts]
    setups = setup_samples(args, setup_s)
    n_items = len(passes[0].latencies_ms)
    # per item, the median over passes, raw and at the reference speed
    per_item = [statistics.median(p.latencies_ms[k] for p in passes) for k in range(n_items)]
    per_item_ref = [
        statistics.median(p.latencies_ms[k] / p.slowdown for p in passes)
        for k in range(n_items)
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_ref_s": statistics.median(n_items * p.slowdown / p.wall_s for p in passes),
        "latency_p50_ref_ms": quantile(per_item_ref, 0.5),
        "peak_rss_mb": peak_rss_mb,
        "items_per_s": statistics.median(n_items / p.wall_s for p in passes),
        "latency_p50_ms": quantile(per_item, 0.5),
        "latency_p90_ms": quantile(per_item, 0.9),
        "latency_p90_ref_ms": quantile(per_item_ref, 0.9),
        "slowdown": statistics.median(p.slowdown for p in passes),
    }
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes x {n_items} items "
          f"in {elapsed:.1f} s (" + ", ".join(
              f"{p.wall_s:.2f} s at slowdown {p.slowdown:.3f}" for p in passes) + ")")
    beyond = f"{n_items - int(0.9 * n_items)} at or beyond it"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "items_per_ref_s": f"median of {len(passes)} passes",
        "latency_p50_ref_ms": f"n={n_items} items, each the median of {len(passes)} passes",
        "peak_rss_mb": "this process, end of timed passes",
        "items_per_s": "wall clock, not scaled",
        "latency_p50_ms": "wall clock, not scaled",
        "latency_p90_ms": f"wall clock, not scaled; n={n_items} items, {beyond}",
        "latency_p90_ref_ms": f"n={n_items} items, {beyond}",
        "slowdown": "probe loop time over its reference, median of passes",
    }
    for name, unit in END_TO_END + REPORTED:
        print(f"  {name:<18} {metrics[name]:12.4f} {unit:<11} ({notes[name]})")
    print("# reported " + json.dumps({n: {"value": metrics[n], "unit": u} for n, u in REPORTED}))
    if hasattr(workload, "digest"):
        print(f"  campaign digest    {workload.digest(passes[0])}")
    return {"metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END},
            "attempted": len(failed), "failed": sum(failed)}


def traced_run(workload, args) -> dict:
    import tracing

    base = workload.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    traces, traced = [], []
    try:
        for _ in range(2):
            tracer.reset()
            regenerated = workload.generate()  # the set-up's draw, traced
            traced.append(workload.run_pass(tracer))
            traces.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    # the untraced pass comes first, so both traced passes must reproduce it
    failed = [f for verdicts in workload.check([base] + traced) for f in verdicts]
    problems = []
    if regenerated != workload.items:
        problems.append("the traced set-up drew other inputs")
    if traces[0].call_counts() != traces[1].call_counts():
        problems.append("per-layer counts differ between two traced passes")
    items = len(base.latencies_ms)
    overhead = statistics.median(t.wall_s for t in traced) / base.wall_s
    metrics = tracing.layer_metrics(traces[0], items, overhead)
    out = TRACES / f"spans-{args.workload}-seed{args.seed}.npz"
    traces[0].save(out)
    print(f"{args.workload} seed={args.seed}: traced {items} items; untraced pass "
          f"{base.wall_s:.2f} s, traced {traced[0].wall_s:.2f} s; "
          f"{len(traces[0].name)} spans written to {out.relative_to(ROOT)}")
    print("  largest self times: " + ", ".join(
        f"{name} {secs:.3f}s" for name, secs in traces[0].top_self(6)))
    print(f"  counts repeat across traced passes: {not problems}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    units = dict(tracing.PER_LAYER)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:16.6g} {units[name]}")
    return {"metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            "attempted": len(failed), "failed": sum(failed), "correct": not problems}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    t0 = perf_counter()
    import_program()
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        setup_s = perf_counter() - t0
        if args.setup_only:
            print(f"{setup_s:.6f}")
            return 0
        print("# env " + json.dumps(environment(), sort_keys=True))
        result = traced_run(workload, args) if args.trace else timed_run(workload, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    error_rate = result["failed"] / result["attempted"]
    print(f"  error_rate         {error_rate:12.4f} ratio       "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps({
        "correct": result["failed"] == 0 and result.get("correct", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
