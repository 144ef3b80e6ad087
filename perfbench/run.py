#!/usr/bin/env python3
"""Build the simulator and the benchmark (release profile), run one workload.

    python3 perfbench/run.py --workload warm|reload|server|sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build/ (dune's
incremental build makes every run after the first a no-op); build output
goes to stderr.  The benchmark's own output goes to stdout, and its last
line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, when the repository sources are
missing or do not build, or when the run itself fails or overruns.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("warm", "reload", "server", "sweep")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# What the benchmark builds from: without these it cannot run.
SOURCES = ("dune-project", "lib", "baselines/seed42.json", "perfbench/dune")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune is not installed")


def run_bounded(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s overran %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die("not a checkout of the simulator: missing " + ", ".join(missing))

    build = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "./perfbench/main.exe",
    ]
    if run_bounded(build, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        die("build failed", 1)

    sys.stdout.flush()
    code = run_bounded(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, stdout=None)
    sys.exit(code)


if __name__ == "__main__":
    main()
