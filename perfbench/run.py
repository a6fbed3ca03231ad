#!/usr/bin/env python3
"""Build evotree's benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

The Go program is built into $CARGO_TARGET_DIR (default .bench_build) with
its build cache, module cache and Go config redirected there too, so the
benchmark reads and writes nothing outside the checkout. Build output goes
to standard error; the benchmark's own standard output (whose last line is
the JSON result) passes through unchanged, and its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:] + ["--spans", os.path.join(build, "spans")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
