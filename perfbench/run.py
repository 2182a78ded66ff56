#!/usr/bin/env python3
"""Build and run the mimdmap end-to-end benchmark.

One run of one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

Seconds-long smoke of every workload, traced and untraced, plus the
benchmark's own unit tests; checks every result line against BENCHMARK.json:

    python3 perfbench/run.py --smoke

Run from the root of a checkout. The benchmark is built from the
checkout's sources into .bench_build/ on first use.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "work")
WORKLOADS = ["paper_batch", "contention_batch", "serve_durable"]
RUN_TIMEOUT_S = 175


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs,
           "--target", "perfbench", "perfbench_test", "mimdmap_cli"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def binary(name):
    for path in (os.path.join(BUILD, name), os.path.join(BUILD, "mimdmap", name)):
        if os.path.exists(path):
            return path
    raise FileNotFoundError(name)


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in a fresh work directory; returns (rc, stdout)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    cmd = [binary("perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", WORK,
           "--cli", binary("mimdmap_cli")]
    if smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the serve daemon.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(workload, "timed out")
        return 1, ""
    return proc.returncode, out


def smoke():
    """The benchmark's unit tests, then every workload, untraced and
    traced, at seconds scale, each result checked against BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        log("BENCHMARK.json workloads differ from", WORKLOADS)
        return 1
    if subprocess.run([binary("perfbench_test")]).returncode != 0:
        log("perfbench_test failed")
        return 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_workload(workload, 1, 2, trace, smoke=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            got = {name: m["unit"] for name, m in metrics.items()}
            if rc != 0 or not result.get("correct") or got != declared[trace]:
                log(workload, "trace", trace, "failed: rc", rc, "result", result)
                return 1
            log(workload, "trace", trace, "ok:", result["attempted"], "attempted")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    os.chdir(ROOT)
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return smoke()
    rc, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
