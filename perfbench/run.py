#!/usr/bin/env python3
"""Build the turbopool benchmark and run it with the arguments given.

From the repository root:

    python3 perfbench/run.py --workload tpcc_lc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

builds the harness in release mode (into $CARGO_TARGET_DIR, default
.bench_build) and runs it; see perfbench/src/main.rs for the arguments.
A single-workload run is stopped, with every process it started, after
170 s. The gate's self-tests run with

    CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; stop the harness well before that.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    timeout = None if "--all" in args else RUN_TIMEOUT_S
    # A session of its own, so a timeout can stop the set-up processes the
    # harness spawns as well.
    proc = subprocess.Popen([os.path.join(target, "release", "perfbench")] + args,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
