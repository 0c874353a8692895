#!/usr/bin/env python3
"""Builds and runs the ppm benchmark.

    python3 perfbench/run.py --workload <sort|crash|service> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a cargo package
that links the repository by path) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs one workload under a watchdog. The last line of
standard output is the run's JSON result; progress and tables go to
standard error. Scratch files live under `.perfbench_work/` and are
removed when the run ends. The run's whole process group, service
worker included, is killed and gone before this script exits.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The first run in a checkout builds; later builds are no-ops.
BUILD_LIMIT_S = 850
# A run must end within 180 s; the binary's own watchdog fires at 165 s.
RUN_LIMIT_S = 172


def fail_line():
    return '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'


def kill_group(pgid):
    """Kills every process left in the group and waits until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    print("run.py: processes of the run outlived SIGKILL", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sort", "crash", "service"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.pop("PPM_TRACE_FILE", None)
    env.pop("PPM_METRICS_PORT", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_LIMIT_S,
        check=False,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        sys.exit(build.returncode or 1)

    exe = os.path.join(target, "release", "ppm-perfbench")
    workdir = os.path.join(".perfbench_work", f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the run exceeded {RUN_LIMIT_S} s and was killed", file=sys.stderr)
        kill_group(proc.pid)
        proc.wait()
        out = fail_line() + "\n"
    finally:
        kill_group(proc.pid)
    spans = os.path.join(workdir, "bench-spans.jsonl")
    if os.path.exists(spans):
        shutil.copy(spans, os.path.join(".perfbench_work", f"spans-{a.workload}-{a.seed}.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        print("run.py: the run printed no result", file=sys.stderr)
        sys.exit(proc.returncode or 1)
    print(lines[-1])
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
