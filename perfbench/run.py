#!/usr/bin/env python3
"""Build the repository and run one benchmark workload.

    python3 perfbench/run.py --workload table1|hier|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe and
merlin-cli with dune, runs the workload in its own process group and
passes its output through; the last stdout line is the result JSON.
Every process the run starts is stopped and its scratch directory
removed before this script exits.  Exits non-zero without a result when
the build or the run fails.

The result carries exactly the metrics BENCHMARK.json names: the
end-to-end ones with --trace 0, which every workload measures, and the
per-layer ones with --trace 1, where a layer the workload does not run
reads 0.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORK = ".perfbench"
BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/merlin_cli.exe"
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MANIFEST = "BENCHMARK.json"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def stop_group(pgid):
    """SIGKILL what is left of the group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def manifest_metrics(trace):
    """(name, unit) of every metric the manifest wants for this mode."""
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
        return [(m["name"], m["unit"])
                for m in manifest["per_layer" if trace == "1" else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metrics of {MANIFEST}: {e}")


def complete(metrics, wanted, trace):
    """The workload's metrics in manifest order, or fail on a mismatch."""
    out = {}
    for name, unit in wanted:
        m = metrics.get(name)
        if m is None:
            if trace == "0":
                fail(f"the workload did not report {name}")
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            fail(f"{name} is in {m['unit']}, the manifest says {unit}")
        out[name] = m
    extra = set(metrics) - set(out)
    if extra:
        fail(f"metrics the manifest does not name: {sorted(extra)}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["table1", "hier", "serve"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.exists("dune-project"):
        fail("no dune-project here: run from the repository root")
    wanted = manifest_metrics(args.trace)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe", "./bin/merlin_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.Popen(
        [BENCH, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--cli", CLI, "--work", WORK],
        stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        out = None
    finally:
        stop_group(proc.pid)
        # bench.exe keeps its sockets and store in WORK/run-<its pid>.
        shutil.rmtree(os.path.join(WORK, f"run-{proc.pid}"), ignore_errors=True)
    if out is None:
        fail("the workload overran its time limit")
    if proc.returncode != 0:
        fail(f"the workload exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the workload printed no result line")
    if set(result) != RESULT_KEYS:
        fail("the result line has the wrong keys")
    result["metrics"] = complete(result["metrics"], wanted, args.trace)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
