#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-day --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the repo's
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. The binary's last stdout line is one JSON result;
this script checks that it names exactly the metrics BENCHMARK.json declares
for the mode and passes it through. Trace and result files (with the host
fingerprint) go to <build dir>/results/. Any failure exits non-zero without
printing a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up (three repetitions), warm-up and the traced run's extra phases come
# on top of --seconds; a run that takes longer than this margin has hung.
RUN_MARGIN_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_digest():
    """sha256 over the benchmarked sources: the checkout is not a git repo,
    so this stands in for the commit in the host fingerprint."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                # Without a cache file the next run configures again.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail(f"configure failed (is the repo's src/ present?); see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail(f"build failed; see {log_path}")
    return os.path.join(build_dir, "perfbench")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    timeout_s = args.seconds + RUN_MARGIN_S

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(build_dir, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "results"),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
    if not result["correct"] or result["failed"] != 0:
        fail("correctness checks failed")
    print(lines[-1])


if __name__ == "__main__":
    main()
