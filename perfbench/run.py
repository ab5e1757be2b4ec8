#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sor-affinity --seed 1 --seconds 15 --trace 0

Arguments pass through to the program (see main.go). Everything the
build and run write stays under .bench_build/ in the repository root:
the Go build cache, temporary files, the binary and the traced run's
span files. The last line of standard output is the result JSON.
"""

import os
import shutil
import subprocess
import sys

# The program stops itself after --seconds plus set-up; this only
# guards against a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "gopath", "config", "cache", "bin"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
