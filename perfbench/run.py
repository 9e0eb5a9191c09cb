#!/usr/bin/env python3
"""Build and run the rebench end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds perfbench (Release) from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed.  The benchmark's scratch files live under the
build directory and are removed when the run ends.  The last line of
standard output is the benchmark's JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Every run must end within 180 s; a stuck benchmark is killed before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service", "service.hpp")):
        fail("no rebench sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + ["--workdir", work_dir]
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        # Whoever stops this script stops the benchmark too; its pass
        # processes die with it (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
