#!/usr/bin/env python3
"""Build the repository's release binaries and the benchmark, then run one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload <forecast-hot|refit-storm|vote-firehose> \
        --seed <n> --seconds <s> --trace <0|1>

The servers (`dlm-serve`, `dlm-router`) and the load generator
(`perfbench`, a package of its own in this directory) are built from
source with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`). Cargo's output goes to stderr; the benchmark's
report goes to stdout, and its last line is the JSON result. Traces of a
`--trace 1` run are written under `.perfbench/`.
"""

import os
import signal
import subprocess
import sys

# A measurement (set-ups, phases, output check) must end well inside the
# three minutes a run may take; builds are not counted.
RUN_TIMEOUT_S = 170


def build(root, env):
    """Builds the two servers and the benchmark; returns the binary directory."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dlm-serve", "-p", "dlm-router"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfbench: `{' '.join(cmd)}` failed with code {result.returncode}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release")


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "serve"), os.path.join("crates", "router")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.exit(f"perfbench: run from the repository root (no {needed} here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    bin_dir = build(root, env)

    cmd = [os.path.join(bin_dir, "perfbench"), *sys.argv[1:],
           "--bin-dir", bin_dir, "--out-dir", os.path.join(root, ".perfbench")]
    # Its own process group: the servers it spawns join it, so nothing
    # outlives the run even if the load generator is killed.
    child = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 124
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
