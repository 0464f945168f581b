#!/usr/bin/env python3
"""Builds the simulator's benchmark binaries from source and runs one workload.

    python3 perfbench/run.py --workload web|video|store --seed N \
        --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero on any
failed check, on a bad argument, or when the simulator sources are not
next to this directory.

The build goes to .bench_build/perfbench at the repository root; store
files written during a run go to a scratch directory under it, removed
when the run ends.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("web", "video", "store")
DEFAULT_SEED = 20110501
RUN_TIMEOUT_S = 170
ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TARGETS = ("perfbench", "perfbench_traced")


def whole_number(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"expected a whole number, got {text!r}")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Benchmark the simulator on one workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=whole_number, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=whole_number, default=10)
    p.add_argument("--trace", type=whole_number, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be between 1 and 3600")
    return args


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: simulator sources not found under {ROOT}")
    out = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=out, stderr=out)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", *TARGETS],
                   check=True, stdout=out, stderr=out)


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed: {e}")
    binary = BUILD_DIR / TARGETS[args.trace]
    scratch = BUILD_DIR / "runs" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(scratch)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: benchmark exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
