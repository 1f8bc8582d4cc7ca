#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lebench-sampled --seed 42 \
        --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the simulator libraries and the
benchmark program (perfbench.cc) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. The program's last line of output is the result: one
JSON object with the keys correct, attempted, failed and metrics. See
README.md here.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lebench-sampled", "apps-sweep", "attack-races"]
# Time limit of one run; only the first build in a fresh checkout may
# take longer.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources not found under " + ROOT)
        sys.exit(1)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_LIMIT_S)
        if r.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def run_program(cmd, limit):
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=limit, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % limit)
        sys.exit(1)
    return r.returncode, r.stdout


def metric_lines(stdout):
    """{(workload, trace): [(name, unit), ...]} from the self-test."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metrics":
            out[(parts[1], parts[2])] = [tuple(p.split(":", 1))
                                         for p in parts[3:]]
    return out


def self_test(exe):
    trace = os.path.join(build_dir(), "selftest-trace.json")
    code, stdout = run_program([exe, "--self-test", "--trace-out", trace],
                               RUN_LIMIT_S)
    sys.stdout.write(stdout)
    bad = 0 if code == 0 else 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {"0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            "1": [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    got = metric_lines(stdout)
    for w in WORKLOADS:
        for t in ("0", "1"):
            ok = got.get((w, t)) == want[t]
            print("self-test %s: %s --trace %s prints every BENCHMARK.json "
                  "metric with its unit" % ("ok  " if ok else "FAIL", w, t))
            bad += not ok

    try:
        with open(trace) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        ok = bool(events) and all(
            e["ph"] == "X" and isinstance(e["ts"], (int, float)) and
            isinstance(e["dur"], (int, float)) and "name" in e
            for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        ok = False
    print("self-test %s: trace opens as Chrome trace_event JSON"
          % ("ok  " if ok else "FAIL"))
    bad += not ok
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not 0 <= args.seconds <= 60 or args.seed < 0:
        ap.error("--seconds must be in [0, 60] and --seed >= 0")

    start = time.monotonic()
    exe = build()
    if args.self_test:
        return self_test(exe)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%d.json" % (args.workload,
                                                   args.seed))]
    # A fresh checkout's build may use most of the first run's time;
    # the measured run keeps its own limit either way.
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), 60)
    code, stdout = run_program(cmd, limit)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
