#!/usr/bin/env python3
"""Build and run the CATE-HGN benchmark.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/Cargo.toml, a Cargo workspace of its
own) in release mode into $CARGO_TARGET_DIR (default .bench_build, relative
to the working directory), then runs it with the given arguments. The
program's last stdout line is the result object. When the build fails, for
instance because the repository's crates are missing, this exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def first_line(cmd):
    """First stdout line of `cmd`, or "unknown" when it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = first_line(["rustc", "-V"])
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    rev = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]) if has_git else "unknown"
    env["PERFBENCH_GIT_REV"] = rev
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    run = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch], env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
