#!/usr/bin/env python3
"""Runs one workload of the layered benchmark and prints its result.

    python3 perfbench/run.py --workload fixed-d1 --seed 1 --seconds 40 --trace 0

Run from the root of the repository. Builds the harness (the Cargo
package in this directory, a workspace of its own) into
$CARGO_TARGET_DIR, default `.bench_build`, then:

* `--trace 0`: times set-up in fresh processes (`setup_s`, the median),
  then samples every check of the workload for `--seconds`, each sample
  scaled by a yardstick timed around it (`pass_s`, `check_s.geomean`),
  and reads the harness process's peak resident memory (`peak_rss_mb`);
* `--trace 1`: the probe-traced run, with the per-layer metrics.

Every deterministic counter is also compared with the last run of the
same workload and the same harness binary; a difference marks the run
incorrect (unsteady). The last line of standard output is one JSON
object: correct, attempted, failed, metrics.

The workloads are fixed registries, so `--seed` selects no input; it only
labels the run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fixed-d1", "fixed-d3", "bugs-lint")
SETUP_SPAWNS = 101
# The harness stops starting passes at --seconds; this only guards a hang.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target, os.path.join(target, "release", "jaaru-perfbench")


def setup_seconds(binary, workload):
    """Process start until the harness reports the first check could run."""
    start = time.perf_counter()
    proc = subprocess.Popen([binary, workload, "--setup-only"], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        fail("set-up run failed")
    return elapsed


def run_harness(binary, workload, seconds, trace):
    """Runs the harness; returns its stdout lines and peak RSS in MiB."""
    cmd = [binary, workload, "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it returns this child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    return out.splitlines(), usage.ru_maxrss / 1024.0


def repeat_gate(target, binary, workload, counters):
    """Compares counters with the last run of this workload and binary."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    state_dir = os.path.join(target, "perfbench-counters")
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"{workload}-{build_id}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    diffs = [
        f"{name}: {known[name]} before, {value} now"
        for name, value in counters.items()
        if name in known and known[name] != value
    ]
    known.update(counters)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, sort_keys=True)
    os.replace(tmp, path)
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target, binary = build()
    # Half the set-up runs go before the measured run and half after, so
    # a slow spell of the machine weighs on fewer of them.
    setups = []
    spawns = SETUP_SPAWNS if args.trace == 0 else 0
    setups += [setup_seconds(binary, args.workload) for _ in range(spawns // 2)]
    lines, peak_rss_mb = run_harness(binary, args.workload, args.seconds, args.trace)
    setups += [setup_seconds(binary, args.workload) for _ in range(spawns - spawns // 2)]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result")
    for line in lines[:-1]:
        print(line)

    metrics = dict(result["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    diffs = repeat_gate(target, binary, args.workload, result["counters"])
    for d in diffs:
        print(f"GATE: counter differs from the previous run (unsteady): {d}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name in sorted(metrics):
        print(f"  {name:<32} {metrics[name]['value']:>18.6f} {metrics[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["gates_ok"]) and not diffs,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
