#!/usr/bin/env python3
"""The repository benchmark: builds xia_server and xia_perfbench from
source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload read_serve --seed 1 --seconds 10 --trace 0

--trace 0 spawns the real xia_server and prints the end-to-end metrics;
--trace 1 runs the in-process traced replay and prints the per-layer
metrics. The last line of stdout is the JSON result. Build output goes to
stderr. Builds land in $CARGO_TARGET_DIR (default .bench_build) under the
current directory; see perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("read_serve", "advise", "write_mix")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures and builds the benchmark package; False on failure."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A cache from another source tree cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [source_dir]:
            shutil.rmtree(build_dir, ignore_errors=True)
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", source_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target",
              "xia_perfbench", "xia_server_bin"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    if not build(source_dir, build_dir):
        return 1

    workdir = os.path.join(out_root, "perfbench-work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [os.path.join(build_dir, "xia_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "xia", "xia_server"),
               "--workdir", workdir,
               "--results", os.path.join(out_root, "perfbench-results")]
    sys.stdout.flush()
    # xia_perfbench and the servers it spawns share a fresh process group,
    # so whatever is left of it after the run (or a timeout) can be stopped.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        bench.wait()
    if code == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        print("perfbench: work directory kept: " + workdir, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
