#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
simulator libraries plus the `perfbench` driver (RelWithDebInfo, the
tier-1 build) under .bench_build/perfbench; later runs only re-check
the build. Build output goes to stderr so that the last line of stdout
is the driver's JSON result. The script exits non-zero without printing
a result when the build fails (e.g. when the simulator sources are
absent) and passes the driver's exit status through otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840


def build():
    """Configure and build the driver; False on any failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", "4"]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def flag_value(args, flag):
    """The value following @p flag in @p args, or None."""
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def main(argv):
    if not build():
        return 2
    args = list(argv)
    if "--selftest" in args:
        return subprocess.run([BINARY, "--selftest"], check=False).returncode

    trace = flag_value(args, "--trace") == "1"
    if trace:
        name = f"spans-{flag_value(args, '--workload')}-" \
               f"{flag_value(args, '--seed')}.json"
        args += ["--spans-out", os.path.join(BUILD, name)]

    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          check=False, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable summary.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 2

    result = json.loads(lines[-1])
    want = declared_metrics(trace)
    if list(result["metrics"]) != want:
        print("perfbench: driver metrics do not match BENCHMARK.json: "
              f"{sorted(set(want) ^ set(result['metrics']))}",
              file=sys.stderr)
        return 2
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
