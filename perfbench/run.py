#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload of it.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_cells, c6288_service, csa_transition (see README.md beside
this file). The program is built with `cargo build --release --offline`
into $CARGO_TARGET_DIR, or `.bench_build` when that is unset. Each call
runs one workload in its own process, so its peak memory is its own.

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, and the
spans are written as JSON lines under `.bench_out/`. A run record with
nproc, rustc and the commit goes to `.bench_out/` too.

Exit status: 0 on success, 1 when the build fails or an output check fails,
2 on bad usage or when a library knob (any SINW_* variable) is set.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_cells", "c6288_service", "csa_transition")
# Seed kept out of every tuning run; a performance claim must also hold on it.
HELD_OUT_SEED = 20150309
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit or "unknown (not a git checkout)",
        "held_out_seed": HELD_OUT_SEED,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for source in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, source)):
            return fail(f"the library sources are missing ({source} not found in {ROOT})", 1)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build did not finish: {e}", 1)
    if build.returncode != 0:
        return fail("build failed", 1)

    env_record = environment()
    print(f"perfbench: {json.dumps(env_record)}", file=sys.stderr)
    out_dir = os.path.join(ROOT, ".bench_out")
    binary = os.path.join(target, "release", "perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--out", out_dir]
    try:
        run = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    os.makedirs(out_dir, exist_ok=True)
    record = dict(env_record, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=int(args.trace), exit=run.returncode, report=lines[:-1], result=result)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
