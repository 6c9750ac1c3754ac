#!/usr/bin/env python3
"""Builds the ludbench binary from this checkout's sources and runs it.

    python3 ludbench/run.py --workload deep|wide|serve|optimize --seed N \
        [--seconds S] [--trace 0|1] [--size PCT]

Run it from the root of a checkout. The binary and the lud libraries it
links are compiled (Release) into a directory of their own for this
checkout, under the directory named by CARGO_TARGET_DIR or .bench_build
when that is unset; the build is incremental, so only the first run in a
checkout pays for it. Build output goes to standard error; standard output
carries only the binary's metric lines and, last, its JSON result. The exit
code is the binary's, or non-zero when the build fails. A traced run leaves
its spans in spans.jsonl in the build directory.
"""

import hashlib
import os
import shutil
import subprocess
import sys

# Besides its --seconds window a run sets up, prepares its output checks
# and, traced, climbs the cost ladder; a run past this limit is a hang and
# is stopped.
SETUP_ALLOWANCE_S = 110


def build_dir(root):
    """The CMake build directory of the checkout at \\p root.

    CARGO_TARGET_DIR may be shared by several checkouts (an absolute path),
    so each checkout builds in a subdirectory named after its own path: a
    build directory is tied to one source tree, and sharing one would build
    and measure the first checkout's sources for all of them.
    """
    base = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")
    tag = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(base, "ludbench-" + tag)


def configured_for(cmake_dir, source):
    """True when cmake_dir holds a configuration of \\p source."""
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(source)
    except OSError:
        pass
    return False


def build(root, cmake_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    source = os.path.join(root, "ludbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not configured_for(cmake_dir, source):
        # A cache of another source tree (a checkout that moved) cannot be
        # reused: CMake refuses it, and building it would build the other tree.
        shutil.rmtree(cmake_dir, ignore_errors=True)
        steps.append(["cmake", "-S", source, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "ludbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(cmake_dir, "ludbench")


def run_timeout(argv):
    """Seconds a run may take: three times its window plus set-up."""
    seconds = 10
    for i, arg in enumerate(argv):
        value = None
        if arg == "--seconds" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--seconds="):
            value = arg.split("=", 1)[1]
        if value is not None and value.isdigit():
            seconds = int(value)
    return 3 * seconds + SETUP_ALLOWANCE_S


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cmake_dir = build_dir(root)
    os.makedirs(cmake_dir, exist_ok=True)
    binary = build(root, cmake_dir)
    if binary is None:
        return 1
    # The binary runs inside the build directory: the serve workload's
    # daemon socket and a traced run's spans land there.
    timeout = run_timeout(sys.argv[1:])
    sys.stdout.flush()
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=cmake_dir,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: ludbench exceeded {timeout} s and was stopped",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
