#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2|oltp|kv-wire|all \
        --seed N --seconds S --trace 0|1

The Go toolchain's caches, the binary and every database the benchmark
creates stay inside the checkout (.bench_build and .bench_work). The
build output goes to standard error, so the last line of standard output
is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
