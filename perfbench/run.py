#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload syn-churn --seed 1 --seconds 10 --trace 0

Builds perfbench/main/perfbench_main.exe with dune (release profile,
build directory .bench_build/dune), runs it, and passes its output
through.  The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones; the result must carry exactly that metric set.

Exits non-zero, without a result, when the checkout lacks the
simulator sources, the build fails, or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main", "perfbench_main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "main")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a source checkout")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    os.makedirs(".bench_build", exist_ok=True)
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "--profile", "release", "./perfbench/main/perfbench_main.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    scratch = tempfile.mkdtemp(prefix="run-", dir=".bench_build")
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(scratch))
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch, "--rev", git_rev()],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")

    def reject(msg):
        sys.stderr.write("\n".join(lines) + "\n")
        fail(msg)

    if run.returncode != 0:
        reject(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        reject("last output line is not a result object")
    got = set(result.get("metrics", {}))
    if got != expected:
        reject(f"metric set differs from BENCHMARK.json: missing {sorted(expected - got)}, "
               f"extra {sorted(got - expected)}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
