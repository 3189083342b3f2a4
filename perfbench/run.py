#!/usr/bin/env python3
"""Entry point of the DroidRacer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a droidracer checkout.  Builds perfbench/bench.exe
with dune (into $CARGO_TARGET_DIR when set, else _build), runs one
workload in its own process group, pinned to one CPU, and passes its
output through.  The
last line of standard output is the JSON result; this script checks
that it names exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1) and exits non-zero
without printing a result otherwise.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune is not installed")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def run(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A process group of its own, so a timeout also stops the daemon
    # and its workers; pinned to one CPU, with every process it forks,
    # so the benchmark's reference computation runs on the core the
    # measured work runs on.
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    exe = build(os.environ.get("CARGO_TARGET_DIR") or "_build")
    code, out = run(exe, args)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"bench.exe exited with {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no JSON result line")
    got = set(result.get("metrics", {}))
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
