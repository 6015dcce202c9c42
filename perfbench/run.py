#!/usr/bin/env python3
"""Repository benchmark: builds drcshap_perfbench from source, runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query|serve|eco --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. Build output goes to stderr; stdout carries the
benchmark binary's output, whose last line is the result JSON. Traced runs
keep their spans in <build dir>/traces/. Exits nonzero, without a result,
when the sources are missing, the build fails or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """git sha when the checkout is a repository, else a digest of the sources."""
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "drcshap_perfbench",
         "-j", str(os.cpu_count() or 2)],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["query", "serve", "eco"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # benchmark binary before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no drcshap sources under {ROOT}/src; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    # A short relative work dir keeps the Unix socket path within its limit.
    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "drcshap_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(work_dir, ROOT),
               "--source-id", source_id()]
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        code = None
    finally:
        trace = os.path.join(work_dir, f"trace-{args.workload}.jsonl")
        if os.path.exists(trace):
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(trace, os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(work_dir, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
