#!/usr/bin/env python3
"""Campaign wall-clock benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package from source (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), stamps the host fingerprint,
runs the workload, and prints every metric with its unit. The last line of
standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`. A failed build, a failed
campaign or a failed output check exits non-zero without a result.

Each result is also saved, with its host fingerprint, under
`campaign_bench/out/results/`; `compare.py` diffs two of them and refuses
results from different hosts.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BINARY = "dphpo-campaign-bench"
# A benchmark run that takes longer than this is killed and fails.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[campaign_bench] {msg}", file=sys.stderr, flush=True)


def target_cpu():
    """The `target-cpu` the repository's cargo config builds for."""
    try:
        with open(os.path.join(".cargo", "config.toml")) as f:
            m = re.search(r"target-cpu=([\w.-]+)", f.read())
        return m.group(1) if m else "default"
    except OSError:
        return "default"


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "target_cpu": target_cpu(),
        "profile": "release",
    }


def build(target_dir):
    """Build the benchmark; returns the binary path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"build failed (exit {proc.returncode})")
        return None
    log(f"build ok in {time.monotonic() - t0:.1f} s")
    return os.path.join(target_dir, "release", BINARY)


def run_binary(binary, args, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"benchmark failed (exit {proc.returncode})")
        return None
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if binary is None:
        return 1
    host = host_fingerprint()
    out_dir = os.path.join(BENCH_DIR, "out")
    out = run_binary(binary, args, os.path.join(out_dir, f"work-{os.getpid()}"))
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["correct"] is not True:
        log("malformed result object")
        return 1

    print("host: " + json.dumps(host, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"host": host, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
