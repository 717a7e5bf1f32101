#!/usr/bin/env python3
"""Build and run one workload of the eplace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the Go harness in
perfbench/ (a module of its own that imports the placer from the
checkout), generates the workload's inputs from the seed, then runs the
workload in a process of its own with GOMAXPROCS set to the CPUs this
process may use. The harness prints the result as the last line of
standard output. Everything the script writes stays under .bench_build/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("flat-ispd", "eco-session", "service-closed")
# A workload still running this long after start is killed (the build
# and input generation count; a workload gets at least 60 s).
RUN_LIMIT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(src, "go.mod")):
        sys.exit("run.py: run from the repository root (perfbench/go.mod not found)")
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gotmp", "gopath", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)

    # Keep the Go toolchain's caches and telemetry inside the checkout,
    # and never let it reach for the network.
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        TMPDIR=os.path.join(build, "gotmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        sys.exit("run.py: building the benchmark failed")

    # Inputs are keyed by the binary, so a changed program never reuses
    # inputs another build generated (the ECO base is placed by it).
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    inputs = os.path.join(build, "inputs", key, args.workload)
    os.makedirs(inputs, exist_ok=True)
    common = ["-workload", args.workload, "-seed", str(args.seed), "-dir", inputs]
    gen = subprocess.run([binary, "gen"] + common, env=env)
    if gen.returncode != 0:
        sys.exit("run.py: generating inputs failed")

    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env["GOMAXPROCS"] = str(max(1, ncpu))
    cmd = [binary, "run"] + common + ["-seconds", str(args.seconds), "-trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(60.0, RUN_LIMIT_S - (time.time() - START)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: workload timed out")
    if proc.returncode != 0:
        sys.exit("run.py: workload failed with exit code %d" % proc.returncode)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


START = time.time()

if __name__ == "__main__":
    main()
