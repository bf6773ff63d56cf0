#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
`perfbench/` (a CMake project of its own that compiles the simulator from
`src/`) into `$CARGO_TARGET_DIR/perfbench`, default `.bench_build/perfbench`;
later runs rebuild only what changed. The benchmark's own report goes to
stdout, build output to stderr, and the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Besides the checks the benchmark makes inside one run, this wrapper keeps the
digest of every (binary, workload, seed) it has run and marks a run incorrect
when the same seed on the same binary simulates anything differently.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("guest-steady", "switch-churn", "depend-arcs")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Names and units BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(build_dir, binary, workload, seed, digest):
    """Same binary, workload and seed must always simulate the same thing."""
    with open(binary, "rb") as f:
        key = f"{hashlib.sha256(f.read()).hexdigest()}:{workload}:{seed}"
    path = os.path.join(build_dir, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != digest:
        return f"digest {digest} differs from an earlier run's {seen[key]}"
    seen[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=0, sort_keys=True)
    os.replace(path + ".tmp", path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ)
    env.pop("MERCURY_POSTMORTEM_DIR", None)  # bundles go beside the binary
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"benchmark printed no result (exit code {proc.returncode})")

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and want != got:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit changes {sorted(n for n in want if n in got and want[n] != got[n])}")

    correct = bool(result["correct"]) and proc.returncode == 0
    problem = check_digest(build_dir, binary, args.workload, args.seed,
                           result["digest"])
    if problem:
        print(f"  ERROR {problem}")
        correct = False
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
