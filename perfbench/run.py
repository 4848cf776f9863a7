"""Benchmark entry point: run one workload for a fixed time, check its
verdicts, and print every metric by name with its unit.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload hecke-algebra --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client and one thread.  The run repeats
cold passes (perfbench/one_pass.py, one fresh process each) until the next
pass would overrun --seconds, and reports the interquartile mean over the
passes.  With --trace 1 the run alternates an untraced and a traced pass
and reports the per-layer metrics of the traced passes plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Whole-run limit: every run must end within 180 s, so no pass may start a
# wait past this point.
DEADLINE_S = 170
MIN_PASSES = 3  # per --trace 0 run
MIN_TRACED_PAIRS = 2  # per --trace 1 run


class BenchError(Exception):
    """A pass could not be run; the benchmark prints no result."""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, fixed by its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_pass(args, trace: int, start: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--size", args.size]
    # A fixed hash seed keeps string-keyed dict layouts, and so timings,
    # the same from pass to pass; the verdicts do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = DEADLINE_S - (perf_counter() - start)
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args) -> tuple[list, list]:
    """Closed loop of cold passes.  Returns (untraced, traced) pass results;
    with --trace 1 every untraced pass is followed by a traced one."""
    modes = (0, 1) if args.trace else (0,)
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    start = perf_counter()
    results = {0: [], 1: []}
    rounds = 0
    while True:
        for trace in modes:
            results[trace].append(run_pass(args, trace, start))
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= minimum and elapsed + elapsed / rounds > args.seconds:
            return results[0], results[1]


def interquartile_mean(values) -> float:
    """Mean of the middle half of the sorted samples.  On the shared host
    this was tuned on, pass times switch between a fast state and one about
    1.7x slower for tens of seconds at a time; a median flips with whichever
    state held most of the run, while this averages the two and still drops
    single outliers."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def check(untraced: list, traced: list) -> tuple[int, int, str]:
    """Total attempted and failed cases over every pass.  Each pass has
    already failed the cases of any suite that raised, reported a failure
    or ran the wrong number of cases; here a pass whose report digest
    differs from the first pass's (same seed, so it must not) fails all of
    its cases too."""
    passes = untraced + traced
    digest = passes[0]["digest"]
    attempted = failed = 0
    for p in passes:
        attempted += p["attempted"]
        failed += p["attempted"] if p["digest"] != digest else p["failed"]
    return attempted, failed, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke test's size")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "prophecke", "__init__.py")):
        print(f"no prophecke source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    try:
        untraced, traced = run_passes(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, digest = check(untraced, traced)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": len(untraced) + len(traced),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "not_controlled": "CPU frequency scaling and core isolation were not controlled",
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"digest {digest}")
    print(f"cases {untraced[0]['attempted']} per pass")
    for s in untraced[0]["suites"]:
        print(f"suite {s['suite']} cases {s['cases']} expected {s['expected']} "
              f"failed {s['failed']}" + (f" error {s['error']}" if s["error"] else ""))
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} failed of {attempted} cases)")

    samples = {
        "setup_s": [s for p in untraced for s in p["setup_s"]],
        "run_s": [p["run_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }
    for name, values in samples.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"{name} {interquartile_mean(values):.6g} {END_TO_END[name]} "
              f"(median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})")
    print("passes run_s " + " ".join(f"{p['run_s']:.4f}" for p in untraced))

    if args.trace:
        layers = {
            name: interquartile_mean(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = (interquartile_mean(p["run_s"] for p in traced)
                                      - interquartile_mean(samples["run_s"]))
        for name, value in layers.items():
            print(f"layer {name} {value:.6g} {layer_unit(name)}")
        print("spans " + json.dumps(traced[0]["spans"]))
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {
            name: {"value": interquartile_mean(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
