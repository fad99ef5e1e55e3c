#!/usr/bin/env python3
"""Build and run the served-query benchmark from the repository root.

    python3 perfbench/run.py --workload serve-flat --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune, then runs it with the
same arguments plus the source revision.  The last line of standard output
is the JSON result; progress goes to standard error.  Exits non-zero, with
no result line, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "--git-dir=.git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c")) or name in ("dune", "dune-project"):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + args + ["--rev", revision()], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
