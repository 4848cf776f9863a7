"""One cold pass of a workload: build a fresh context, run the workload's
suites, and print one JSON line with the timings, verdicts and digest.

The benchmark runs every pass in a fresh process so the field tables and
every memo cache start cold and the peak RSS belongs to this pass alone.

    python3 perfbench/one_pass.py --workload hecke-algebra --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from workloads import SUITES, WORKLOADS  # noqa: E402

SETUP_MIN_S = 0.2


def _cache_sizes(ctx) -> dict:
    return {
        "weyl.length": len(ctx.weyl._len_cache),
        "weyl.reduced_word": len(ctx.weyl._word_cache),
        "hecke": len(ctx.hecke._mul_cache),
        "topmod": len(ctx.top._act_cache),
        "cosets": len(getattr(ctx.group, "_support_cache", {})),
    }


def _hit_ratio(misses: int, calls: int) -> float:
    """Share of calls answered from the memo table; 0 when never called."""
    return (calls - misses) / calls if calls else 0.0


def layer_metrics(tr: tracing.Tracer, ctx, before: dict, after: dict) -> dict:
    """Per-layer metrics of one traced pass.  Call counts and cache growth
    cover the suites only; build times cover context construction.  Cache
    misses are the growth of each layer's memo table over the suites."""
    grew = {k: after[k] - before[k] for k in after}
    fs = ctx.field
    m = {
        "gf.table_entries": sum(map(len, fs._add)) + sum(map(len, fs._mul))
        + len(fs._neg) + len(fs._inv),
        "gf.mul.calls": tr.calls("gf.mul"),
        "gf.add.calls": tr.calls("gf.add"),
        "propweyl.eq.calls": tr.calls("propweyl.eq"),
    }
    for layer in ("gf", "rootdata", "weyl", "propweyl"):
        builds, incl, _ = tr.totals(f"{layer}.build", "setup")
        m[f"{layer}.build_s"] = incl / builds  # mean over the pass's context builds
    for name in ("weyl.length", "weyl.reduced_word"):
        calls = tr.calls(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.hit_ratio"] = _hit_ratio(grew[name], calls)
    for name in ("weyl.mul", "propweyl.mul", "propweyl.inv", "hecke.basis_mul",
                 "hecke.mul", "hecke.iota", "topmod.act", "cosets.support_mul",
                 "cosets.g_profile"):
        calls, _, self_s = tr.totals(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    for name in ("hecke.mul", "topmod.act"):
        m[f"{name}.p50_us"] = tr.percentile_us(name, 50)
        m[f"{name}.p99_us"] = tr.percentile_us(name, 99)
    m["hecke.basis_mul.misses"] = grew["hecke"]
    m["hecke.basis_mul.hit_ratio"] = _hit_ratio(grew["hecke"], m["hecke.basis_mul.calls"])
    m["hecke.cache_entries"] = after["hecke"]
    pairs = tr.calls("topmod.act_basis")
    m["topmod.act.pairs"] = pairs
    m["topmod.act.misses"] = grew["topmod"]
    m["topmod.act.hit_ratio"] = _hit_ratio(grew["topmod"], pairs)
    m["topmod.cache_entries"] = after["topmod"]
    m["cosets.support_mul.misses"] = grew["cosets"]
    m["cosets.cache_entries"] = after["cosets"]
    verify_self = 0.0
    for suite in SUITES:
        _, incl, self_s = tr.totals(f"verify.{suite}")
        m[f"verify.{suite}.s"] = incl
        verify_self += self_s
    m["verify.self_s"] = verify_self
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    import prophecke
    from prophecke import serial
    from prophecke.verify import build_context, run_suite

    # Refuse to measure an installed copy instead of this checkout's source.
    pkg = os.path.dirname(os.path.realpath(prophecke.__file__))
    if pkg != os.path.realpath(os.path.join(SRC, "prophecke")):
        print(f"prophecke imported from {prophecke.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    config = dict(wl["config"], seed=args.seed)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)

    # Cheap contexts are built repeatedly so the run's set-up time does not
    # rest on a few 20 ms samples; the suites use the last one.
    setup_s = []
    while not setup_s or sum(setup_s) < SETUP_MIN_S:
        # Free the previous context first (its field holds reference
        # cycles), so peak RSS counts one context, not every build.
        ctx = None
        gc.collect()
        t0 = perf_counter()
        ctx = build_context(config)
        setup_s.append(perf_counter() - t0)

    before = _cache_sizes(ctx)
    if tr is not None:
        tr.reset_counts()
    reports, suites = [], []
    t0 = perf_counter()
    for name, params, expected in wl["sizes"][args.size]:
        call = run_suite if tr is None else tr.wrap(f"verify.{name}", run_suite)
        if tr is not None:
            tr.trace_id = name
        try:
            rep = call(ctx, name, **params)
        except Exception as exc:  # a suite that raises fails all its planned cases
            rep = {"suite": name, "error": f"{type(exc).__name__}: {exc}"}
            failed, cases = expected, None
        else:
            cases = rep["cases"]
            failed = expected if cases != expected else min(len(rep["failures"]), expected)
        reports.append(rep)
        suites.append({"suite": name, "cases": cases, "expected": expected,
                       "failed": failed, "error": rep.get("error")})
    run_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = perf_counter()
    dump = serial.canonical_json(reports).encode()
    dump_s = perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(s["expected"] for s in suites),
        "failed": sum(s["failed"] for s in suites),
        "digest": hashlib.sha256(dump).hexdigest(),
        "suites": suites,
    }
    if tr is not None:
        layers = layer_metrics(tr, ctx, before, _cache_sizes(ctx))
        layers["serial.dump_s"] = dump_s
        layers["serial.report_bytes"] = len(dump)
        out["layers"] = layers
        out["spans"] = tr.table()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
