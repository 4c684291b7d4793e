#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The script compiles the Go program in perfbench/ (a module of its own that
imports the engine from the enclosing repository) into .bench_build/, with
the Go build cache, temporary files and tool configuration kept under
.bench_build/ too, then runs it with the same arguments. The program's last
line of output is the result JSON. The exit code is the program's, or 2 when
the engine's sources are missing and nothing can be built.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def main():
    engine = [os.path.join(ROOT, "go.mod"), os.path.join(ROOT, "internal", "sim")]
    if not all(os.path.exists(p) for p in engine):
        print("perfbench: run from the repository root: go.mod and internal/ are missing",
              file=sys.stderr)
        return 2
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["GOPATH"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    # The Go flag package takes -name and --name alike.
    return subprocess.run([BINARY] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
