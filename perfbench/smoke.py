"""Smoke test of the benchmark: every workload at its tiny size.

    python3 perfbench/smoke.py

For each workload it runs the benchmark untraced and traced with one seed
and untraced with a second seed, and checks that:
  - the last line is the result object with exactly the contract's keys,
    correct, with no failed case;
  - every metric BENCHMARK.json names is printed with its unit, on the
    result line and on its own line, and so is failed_share;
  - the seed is echoed, the same seed gives the same report digest traced
    and untraced, and another seed gives the same case count per pass.
Finally it runs the benchmark in a directory holding only BENCHMARK.json
and perfbench/, where it must fail without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(result object, {first word of a line: rest of the line})."""
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    words = {}
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head == "layer":
            head, _, rest = rest.partition(" ")
        words[head] = rest
    return result, words


def check_run(proc, expected: dict, seed: int) -> dict:
    result, words = parse(proc)
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)
    for name, unit in expected.items():
        assert name in words and words[name].split(" (")[0].endswith(" " + unit), (name, words.get(name))
    assert words["failed_share"].startswith("0 ratio"), words["failed_share"]
    meta = json.loads(words["meta"])
    assert meta["seed"] == seed and meta["nproc"] and meta["python"], meta
    assert "not controlled" in meta["not_controlled"]
    return words


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in WORKLOADS:
        plain = check_run(bench(ROOT, workload, 7, 0), end_to_end, 7)
        traced = check_run(bench(ROOT, workload, 7, 1), per_layer, 7)
        other = check_run(bench(ROOT, workload, 8, 0), end_to_end, 8)
        assert plain["digest"] == traced["digest"], "traced and untraced reports differ"
        assert plain["cases"] == other["cases"], "case count depends on the seed"
        print(f"ok {workload}: digest {plain['digest'][:12]}, cases {plain['cases']}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, next(iter(WORKLOADS)), 7, 0)
        assert proc.returncode != 0, "benchmark ran without the program's source"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without a program"
    print("ok: refuses to run without the program's source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
