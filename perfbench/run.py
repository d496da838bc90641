#!/usr/bin/env python3
"""End-to-end benchmark of the WLAN simulator.

Builds perfbench_e2e (perfbench/CMakeLists.txt: the repository's library plus the
benchmark's own sources, Release) and runs one workload for a fixed time budget:

  python3 perfbench/run.py --workload cell_sweep --seed 1 --seconds 10 --trace 0

prints a table of every metric by name and unit, the results digest and a provenance
record, and as the last line of stdout one JSON object:

  {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list (the traced run also writes its spans under the build directory).
Exits non-zero when any output check failed.

  python3 perfbench/run.py --all [--seconds S] [--seed N]

runs every workload in its own process and prints all end-to-end metrics side by side;
add --trace 1 for the per-layer ledger. --smoke shrinks every input and runs each
workload and output check once (used by perfbench/test_smoke.py).

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench when that
variable is set, else to .bench_build/perfbench.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cell_sweep", "campus_bursty", "campaign_small_jobs")
# Metrics each workload prints besides BENCHMARK.json's lists, where it defines them.
EXTRA_E2E = ("job_p50_ms", "job_p95_ms", "job_samples", "failed_frac", "tf_gain")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    binary = os.path.join(out, "perfbench_e2e")
    # Configure every time: it is cheap once cached, and it recovers a build directory
    # left behind by a failed configure.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench_e2e", "-j",
              str(os.cpu_count() or 1)]]
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            log("perfbench: build failed:", e)
            return None
    return binary if os.path.exists(binary) else None


def git_sha():
    # Only a checkout that is itself a git work tree names a commit; a plain source
    # export (no .git) must not pick up an enclosing repository's HEAD.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def source_digest():
    """SHA-256 over the simulator sources and the benchmark: provenance that holds
    in a checkout without git metadata."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, n) for n in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, smoke, run_index):
    """Runs one workload in a fresh process; returns (record or None, exit code)."""
    work = os.path.join(build_dir(), "run")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--run-index",
           str(run_index), "--work-dir", work]
    if trace:
        tag = "%s-s%d-r%d" % (workload, seed, run_index)
        cmd += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None, 1
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no record (exit %d)" % (workload, proc.returncode))
        return None, proc.returncode or 1
    return record, proc.returncode


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def select(record, names, section):
    """Picks `names` out of the record; returns (metrics, missing names)."""
    have = record.get(section, {})
    metrics, missing = {}, []
    for name in names:
        m = have.get(name)
        if m is None or not finite(m.get("value")):
            missing.append(name)
        else:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return metrics, missing


def fmt(value):
    return "%.6g" % value if finite(value) else "n/a"


def print_table(records, names, section):
    width = max(len(n) for n in names) + 2
    header = "%-*s %-12s" % (width, "metric", "unit")
    header += "".join(" %20s" % r["workload"] for r in records)
    print(header)
    for name in names:
        unit = next((r[section][name]["unit"] for r in records
                     if name in r.get(section, {})), "")
        row = "%-*s %-12s" % (width, name, unit)
        for r in records:
            m = r.get(section, {}).get(name)
            row += " %20s" % (fmt(m["value"]) if m else "n/a")
        print(row)
    print("%-*s %-12s" % (width, "results_digest", "crc32") +
          "".join(" %20s" % r["digest"] for r in records))
    print("%-*s %-12s" % (width, "failed/attempted", "count") +
          "".join(" %20s" % ("%d/%d" % (r["failed"], r["attempted"]))
                  for r in records))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload and check once")
    parser.add_argument("--run-index", type=int, default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME or --all")

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if binary is None:
        return 1
    provenance = {"git_sha": git_sha(), "source_digest": source_digest()}

    workloads = WORKLOADS if args.all else (args.workload,)
    section = "per_layer" if args.trace else "e2e"
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    records, ok = [], True
    attempted = failed = 0
    metrics = {}
    for i, workload in enumerate(workloads):
        record, code = run_workload(binary, workload, args.seed, seconds,
                                    bool(args.trace), args.smoke,
                                    args.run_index + i)
        if record is None:
            return 1
        record.update(provenance)
        print("record:", json.dumps(record, sort_keys=True))
        for failure in record.get("failures", []):
            log("perfbench: check failed:", failure)
        metrics, missing = select(record, listed, section)
        if missing:
            log("perfbench: %s is missing metrics: %s" % (workload, missing))
        ok = ok and code == 0 and record["failed"] == 0 and not missing
        attempted += record["attempted"]
        failed += record["failed"]
        records.append(record)

    names = listed if args.trace else listed + list(EXTRA_E2E)
    print()
    print_table(records, names, section)
    if args.all:
        return 0 if ok else 1
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
