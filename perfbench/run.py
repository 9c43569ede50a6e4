#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cnn --seed 42 --seconds 25 --trace 0

The first run configures and builds libfedtrip and the perfbench binary (CMake,
Release) into the build directory: $CARGO_TARGET_DIR when set, else
.bench_build. Later runs rebuild only what changed. Build output goes to
standard error; the binary's table and, as the last line, its JSON result
go to standard output. The exit code is the binary's.

    python3 perfbench/run.py --self-test [--workload NAME]   red-path check
    python3 perfbench/run.py --stats-test                    statistics tests
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-cnn", "socket-comm", "fleet-async"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources (CMakeLists.txt, src/) beside perfbench/; "
             "run from the root of a full checkout")
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        fail("build failed")
    return bdir


def run(cmd):
    """Runs `cmd` in the foreground and returns its exit code."""
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="inject a delay into one Host call and check that "
                         "round_s_p50 and that call's layer row both show it")
    ap.add_argument("--stats-test", action="store_true",
                    help="run the tests of the benchmark's statistics")
    args = ap.parse_args()
    if not (args.self_test or args.stats_test or args.workload):
        ap.error("--workload is required")

    bdir = build()
    binary = os.path.join(bdir, "perfbench")
    if args.stats_test:
        sys.exit(run([os.path.join(bdir, "perfbench_stats_test")]))
    if args.self_test:
        names = [args.workload] if args.workload else WORKLOADS
        codes = [run([binary, "--workload", n, "--seed", str(args.seed),
                      "--self-test"]) for n in names]
        sys.exit(max(codes))
    sys.exit(run([binary, "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]))


if __name__ == "__main__":
    main()
