#!/usr/bin/env python3
"""Builds and runs the ltns benchmark; see perfbench/README.md.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (the ltns library from src/
plus the ltns_perfbench binary) into .bench_build/ (or $CARGO_TARGET_DIR);
later calls only rebuild what changed. Build output goes to stderr. A run prints the binary's
stderr (machine facts, traced span table, failed checks) and, as the last
line of stdout, one JSON object: correct, attempted, failed, metrics.

--self-check runs every workload of BENCHMARK.json at toy size through the
same code and checks, traced and untraced, and validates the printed metric
names, units and attempted/failed counts against BENCHMARK.json.
"""
import argparse
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
BINARY = BUILD_DIR / "ltns_perfbench"
REFS = BENCH_DIR / "refs" / "c25_amplitudes.txt"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_binary(args):
    """Runs ltns_perfbench in its own process group; returns (exit code, stdout)."""
    proc = subprocess.Popen([str(BINARY), *args], stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # forked shard workers included
        proc.communicate()
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    return result


def workload_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--refs", str(REFS)]


def self_check():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    tables = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    t0 = time.monotonic()
    runs = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            runs += 1
            tag = f"{w['name']} --trace {trace}"
            code, out = run_binary([*workload_args(w["name"], 1, 1, trace), "--toy"])
            try:
                r = parse_result(out)
            except ValueError as e:
                problems.append(f"{tag}: {e}")
                continue
            if code != 0 or r["correct"] is not True:
                problems.append(f"{tag}: exit {code}, correct={r['correct']}")
            if not (isinstance(r["attempted"], int) and r["attempted"] >= 1):
                problems.append(f"{tag}: attempted={r['attempted']}")
            if r["failed"] != 0:
                problems.append(f"{tag}: failed={r['failed']}")
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            if got != tables[trace]:
                problems.append(f"{tag}: metric names/units differ from BENCHMARK.json")
            for k, v in r["metrics"].items():
                x = v.get("value")
                if not isinstance(x, (int, float)) or not math.isfinite(x):
                    problems.append(f"{tag}: {k} = {x!r}")
                elif trace == 0 and x <= 0:
                    problems.append(f"{tag}: end-to-end metric {k} = {x}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print(f"self-check: {runs} runs, {len(problems)} problems, {time.monotonic() - t0:.1f} s")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and not a.workload:
        ap.error("--workload is required")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    if a.self_check:
        return self_check()
    code, out = run_binary(workload_args(a.workload, a.seed, a.seconds, a.trace))
    try:
        parse_result(out)
    except ValueError as e:
        print(f"no valid result: {e}", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
