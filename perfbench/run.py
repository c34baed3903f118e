#!/usr/bin/env python3
"""Flow + what-if benchmark of the differentiable-timing placer.

Run from the repository root:

    python3 perfbench/run.py --workload flow-timing --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Builds flowbench.exe and dgp_serve.exe with dune, then runs the workload
in a fresh process.  The last line of standard output is one JSON object
with the keys correct / attempted / failed / metrics: the end-to-end
metrics with --trace 0, the per-layer ledger metrics with --trace 1
(which first makes an untraced run of the same seed, for
trace.overhead_pct, and writes perfbench/out/<workload>.jsonl).  Every
workload is a fixed amount of work; --seconds is accepted for
compatibility but does not change it.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "flowbench.exe")
SERVE = os.path.join(ROOT, "_build", "default", "bin", "dgp_serve.exe")
WORKLOADS = ("flow-timing", "flow-vcycle", "serve-whatif")
# one workload, a traced run's paired untraced run included
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(f"no dune project at {ROOT}")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/flowbench.exe", "./bin/dgp_serve.exe"]
    try:
        proc = subprocess.run([dune, "build", "--root", ROOT, *targets], cwd=ROOT,
                              env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")


def run_once(workload, seed, trace, deadline, untraced_wall=None):
    """One workload in a fresh process; returns (stdout lines, result dict)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
           "--out", OUT, "--serve", SERVE]
    if untraced_wall is not None:
        cmd += ["--untraced-wall-s", repr(untraced_wall)]
    # serve-whatif's client and daemon share one CPU: each request then
    # hands the CPU over locally instead of waking an idle virtual CPU,
    # whose wake-up latency swings with the host's load
    cpus = os.sched_getaffinity(0)
    pin = (lambda: os.sched_setaffinity(0, {max(cpus)})) if workload == "serve-whatif" else None
    # own process group, so a timeout also stops the dgp_serve child
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


def run_workload(workload, seed, trace):
    """A traced run is paired with an untraced run of the same seed made
    just before it, whose wall_s its trace.overhead_pct compares with."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not trace:
        return run_once(workload, seed, False, deadline)
    untraced = run_once(workload, seed, False, deadline)[1]["metrics"]["wall_s"]["value"]
    return run_once(workload, seed, True, deadline, untraced)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.workload != "all":
        lines, _ = run_workload(args.workload, args.seed, args.trace)
        print("\n".join(lines))
        return
    # every workload in its own process, one table each, then one result
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_workload(w, args.seed, args.trace)
        print(f"== {w}")
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
