#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload grow|fanin|batch --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the program under test
(`compc-serve`, `compc-check`) and the benchmark driver (the package in
`perfbench/driver`) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the driver, which prints the result as the last
line of standard output. Build output goes to standard error. Without the
sources (no root `Cargo.toml`) the build fails and this exits non-zero
without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "compc",
         "--bin", "compc-serve", "--bin", "compc-check"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "driver", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.isfile(os.path.join(root, "Cargo.toml")):
            sys.stderr.write("perfbench: no Cargo.toml here; run from a source checkout\n")
            return 2
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    # Absolute: the driver starts the daemon inside its state directory.
    bin_dir = os.path.abspath(os.path.join(target, "release"))
    state_dir = os.path.join(".bench_state", "run-%d" % os.getpid())
    cmd = [os.path.join(bin_dir, "compc-perfbench"), *sys.argv[1:],
           "--bin-dir", bin_dir, "--state-dir", state_dir, "--source-root", root]
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_state")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
