#!/usr/bin/env python3
"""Build and run the repository's benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the `perfbench` package (release, offline) from the
sources of the checkout it sits in, then runs it with the given arguments,
pinned to one CPU.
Cargo's output goes to standard error, so the last line of standard output
is the benchmark's result JSON. A checkout without the repository's crates
fails to build, and the script then exits non-zero without a result.

`--smoke` is the benchmark's own test: it runs every workload of
BENCHMARK.json for a few seconds on two seeds, and the traced run once,
and checks that each run exits cleanly, passes its output checks and
prints exactly the metrics BENCHMARK.json names, each with its unit.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
SMOKE_SECONDS = "2"
SMOKE_SEEDS = (1, 2)
RUN_TIMEOUT_S = 180


def build():
    """Build the benchmark and return the path of its executable."""
    cargo = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    if subprocess.run(cargo, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    return target / "release" / "perfbench"


def pin_to_one_cpu():
    """Pin this process, and the benchmark it starts, to one CPU.

    On a guest with two virtual CPUs, `stream`'s generator and daemon worker
    otherwise share one CPU or not as the scheduler sees fit, and a worker
    woken on an idle virtual CPU waits for the hypervisor: one seed's p50
    read from 4.8 to 7.7 ms between runs, higher the less the two threads
    shared a CPU. On one CPU the wake-up is a context switch. The other CPU
    is left to the OS.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def check_run(binary, spec, workload, seed, trace):
    """Run one workload (None: the traced run, which covers them all) and
    return the problems found with its output."""
    args = [str(binary), "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    if workload is not None:
        args += ["--workload", workload]
    what = f"{workload or 'all'} seed {seed} trace {trace}"
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"{what}: did not finish within {RUN_TIMEOUT_S} s"]
    if done.returncode != 0:
        return [f"{what}: exit code {done.returncode}: {done.stderr.strip()}"]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return [f"{what}: last line is not JSON ({e})"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append(f"{what}: output checks failed")
    for key in ("attempted", "failed"):
        if not (isinstance(result[key], int) and result[key] >= 0):
            problems.append(f"{what}: {key} is not a whole number: {result[key]!r}")
    if result["attempted"] < 1:
        problems.append(f"{what}: nothing attempted")
    if result["failed"] != 0:
        problems.append(f"{what}: {result['failed']} operations failed")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    for name in sorted(set(expected) ^ set(printed)):
        side = "missing" if name in expected else "not in BENCHMARK.json"
        problems.append(f"{what}: metric {name} {side}")
    for name, unit in expected.items():
        metric = printed.get(name)
        if metric is None:
            continue
        if set(metric) != {"value", "unit"} or metric["unit"] != unit:
            problems.append(f"{what}: {name} printed as {metric}, expected unit {unit}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: {name} has no finite value: {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{what}: end-to-end metric {name} reads {value}")
    return problems


def smoke():
    spec = json.loads(SPEC.read_text())
    binary = build()
    pin_to_one_cpu()
    runs = [(w["name"], seed, 0) for seed in SMOKE_SEEDS for w in spec["workloads"]]
    # The traced run covers every workload, so it needs none named.
    runs.append((None, SMOKE_SEEDS[-1], 1))
    problems = []
    for workload, seed, trace in runs:
        found = check_run(binary, spec, workload, seed, trace)
        print(f"{'FAIL' if found else 'ok  '} {workload or 'all'} seed {seed} trace {trace}")
        problems.extend(found)
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


def main():
    if sys.argv[1:] == ["--smoke"]:
        return smoke()
    binary = build()
    pin_to_one_cpu()
    os.execv(binary, [str(binary), *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
