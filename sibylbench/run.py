#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 sibylbench/run.py --workload sibyl_single --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The program is configured and built (Release,
the library's own flags) into $CARGO_TARGET_DIR, default .bench_build; the
first run builds, later runs only check that the build is current. Build
output goes to standard error. The program's report goes to standard output
and ends with one JSON line whose metrics are checked here against the
names and units BENCHMARK.json declares (end_to_end for --trace 0,
per_layer for --trace 1). Exit status is 0 only when the build, every
correctness check and that comparison succeeded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("sibylbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "sibylbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "sibylbench")


def expected_metrics(spec, traced):
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, expected):
    """Return an error string, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return "metrics differ from BENCHMARK.json (missing %s, extra %s)" % (
            missing, extra)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (known: %s)" %
             (args.workload, ", ".join(workloads)))
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository sources missing: no %s beside %s" %
                 (needed, os.path.basename(HERE)))

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sibylbench exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], expected_metrics(spec, args.trace == 1))
    if error:
        sys.stderr.write(proc.stdout)
        fail(error, 1)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
