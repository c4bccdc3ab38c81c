#!/usr/bin/env python3
"""Build the DPO-AF benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --unit-tests

Run from the root of a checkout.  The benchmark is a dune project of its
own: its sources and build file are in perfbench/_src (the leading
underscore keeps the repository's own dune build out of it).  The
program's libraries are private to the repository's dune project, so this
script assembles a workspace in .bench_build/ws -- a dune-project file
and links to lib/ and perfbench/_src -- and builds the runner there (build
output goes to stderr).  It then runs the workload in a fresh process.
The last line of standard output is the runner's JSON result; the exit
code is the runner's (non-zero when the build fails or an output check
fails).  --unit-tests builds the same workspace and runs the tests of the
benchmark's timing helpers instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WS = os.path.join(ROOT, ".bench_build", "ws")
PROJECT = "(lang dune 3.0)\n(name perfbench)\n(package (name perfbench) (allow_empty))\n"
LINKS = {"lib": os.path.join("..", "..", "lib"),
         "perfbench": os.path.join("..", "..", "perfbench", "_src")}


def workspace():
    os.makedirs(WS, exist_ok=True)
    path = os.path.join(WS, "dune-project")
    if not os.path.exists(path) or open(path).read() != PROJECT:
        with open(path, "w") as f:
            f.write(PROJECT)
    for name, target in LINKS.items():
        link = os.path.join(WS, name)
        if not os.path.islink(link):
            os.symlink(target, link)


def dune(*args):
    env = dict(os.environ)
    # keep every build artefact inside the checkout: no shared dune cache
    env["DUNE_CACHE"] = "disabled"
    return subprocess.run(
        ["dune", "build", "--root", WS, "--display", "quiet"] + list(args),
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    workspace()
    if sys.argv[1:] == ["--unit-tests"]:
        return dune("@perfbench/runtest")
    code = dune("./perfbench/dpoaf_bench.exe")
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    runner = os.path.join(WS, "_build", "default", "perfbench", "dpoaf_bench.exe")
    sys.stdout.flush()
    return subprocess.run([runner] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
