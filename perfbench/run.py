#!/usr/bin/env python3
"""Build and run the burstsim repository benchmark.

    python3 perfbench/run.py --workload figset --seed 0 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
libburstsim plus the perfbench binary (Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build when unset; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Extra flags (--scale tiny, --record)
pass through to the binary; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("burstsim sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_sha():
    """Short HEAD SHA with a -dirty suffix; "unknown" outside git."""
    # Never let git search above the checkout for some other repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, env=env).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD"],
                               capture_output=True, env=env).returncode != 0
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    binary = build(build_dir())
    cmd = [binary, *sys.argv[1:], "--git-sha", git_sha()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
