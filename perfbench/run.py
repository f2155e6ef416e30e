#!/usr/bin/env python3
"""Build and run PIER's performance ledger.

Run from the root of the pier module:

    python3 perfbench/run.py --workload resolve-da --seed 1 --seconds 30 --trace 0

The ledger is the test binary of this directory. This script builds it from
source with `go test -c`, keeping every file the build and the run write
(binary, Go build cache, temp and spill files, CPU profiles) under the build
directory: $CARGO_TARGET_DIR if set, else .bench_build. It then runs the
binary with the given arguments; the binary prints the ledger and, as its
last line, the JSON result. The exit code is the binary's, or the build's if
the build fails.
"""
import os
import subprocess
import sys


def main(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the root of the pier module (no go.mod here)", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    for d in (build, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=tmp,
    )
    binary = os.path.join(build, "perfbench.test")
    built = subprocess.run(["go", "test", "-c", "-o", binary, "./perfbench"],
                           cwd=root, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode
    ran = subprocess.run([binary, "-outdir", build] + argv, cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
