#!/usr/bin/env python3
"""Builds and runs the end-to-end admission-path benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
perfbench binary (the library targets under src/ plus this directory) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The binary
runs one workload and reports; this script checks the simulator cells
against sim_golden.json, prints a record line with the counts, host
fingerprint, backend, git sha and seed, and ends with the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "sim_golden.json")
WORKLOADS = ("net_cheap_closed", "paper_mix_overload", "sim_paper_grid")
BINARY_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no bouncer source tree next to perfbench/ (expected src/)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def cell_key(cell):
    return (cell["policy"], round(cell["load_factor"], 3),
            cell["total_queries"])


def check_sim_cells(cells):
    """Every simulated cell must repeat its golden rejection counts."""
    with open(GOLDEN) as f:
        golden = {cell_key(c): c for c in json.load(f)["cells"]}
    errors = []
    for cell in cells:
        want = golden.get(cell_key(cell))
        if want is None:
            errors.append("no golden counts for %s" % (cell_key(cell),))
        elif (cell["received"], cell["rejected"]) != (want["received"],
                                                      want["rejected"]):
            errors.append("%s: received %d rejected %s, golden %d %s" % (
                cell_key(cell), cell["received"], cell["rejected"],
                want["received"], want["rejected"]))
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % BINARY_TIMEOUT_S, 1)
    if proc.returncode != 0:
        # A signal death (SIGPIPE included) is a failed run, not a result.
        die("workload exited with status %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("workload printed no report", 1)
    report = json.loads(lines[-1])

    errors = list(report["errors"])
    if args.workload == "sim_paper_grid":
        errors += check_sim_cells(report["sim_cells"])
    if report["attempted"] < 1:
        errors.append("no operation attempted")
    correct = report["correct"] and not errors

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": report["attempted"],
        "succeeded": report["succeeded"],
        "refused": report["refused"],
        "failed": report["failed"],
        "host": {"nproc": os.cpu_count(),
                 "affinity_cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine()},
        "git_sha": git_sha(),
        "info": report["info"],
        "errors": errors,
    }
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, report["attempted"]),  # Never 0 in the line.
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
