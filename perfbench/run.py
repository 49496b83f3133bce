#!/usr/bin/env python3
"""Benchmark of the hogsim simulator, per phase and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `hogperf` driver (perfbench/hogperf.cc) and the simulator library
from source into $CARGO_TARGET_DIR/hogperf (default .bench_build/hogperf),
then runs the named workload for about S seconds of host time as a batch of
sub-runs, one process each. Sub-run 0 uses the seed itself; sub-run i > 0
uses seed + i * SUBSEED_STRIDE. Every sub-run must pass hogperf's output
checks and reproduce the simulated fingerprint of the first run of the same
(workload, sub-seed) in this checkout.

Reported values: host-measured metrics (units s, 1/s, MiB) are medians over
the untraced sub-runs; deterministic ones (counts, simulated seconds,
ratios) are sub-run 0's, i.e. the seed's own. --trace 0 prints the
end-to-end metrics; --trace 1 also runs sub-run 0 traced, writes its Chrome
trace JSON next to the build, and prints the per-layer metrics and the
tracing overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 when every check holds, 1 when a check fails, 2 when the
benchmark cannot run (no sources, build failure, bad arguments).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("elastic_4k", "facebook_1101", "burst_repair")
END_TO_END = ("setup_s", "run_s", "peak_rss_mib")
HOST_UNITS = ("s", "1/s", "MiB")
MIN_SUBRUNS = 3
SUBSEED_STRIDE = 100003
SUBRUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hogperf"


def build():
    """Configures and builds hogperf; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    binary = out / "hogperf"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def subrun(binary, workload, seed, trace_out=None):
    """Runs hogperf once; returns (report, host seconds, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBRUN_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"hogperf exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed, \
        proc.returncode


class FingerprintStore:
    """First-seen simulated fingerprints per (binary, workload, sub-seed)."""

    def __init__(self, binary):
        self.path = build_dir() / "fingerprints.json"
        self.key = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
        try:
            self.seen = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.seen = {}

    def check(self, workload, seed, fingerprint):
        """Records the first fingerprint; False if a later one differs."""
        key = f"{self.key}/{workload}/{seed}"
        first = self.seen.setdefault(key, fingerprint)
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        return first == fingerprint


def aggregate(reports):
    """Host metrics: median over sub-runs; the rest: sub-run 0's."""
    metrics = {}
    for name, first in reports[0]["metrics"].items():
        value = first["value"]
        if first["unit"] in HOST_UNITS:
            value = statistics.median(r["metrics"][name]["value"]
                                      for r in reports)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return metrics


def print_table(title, metrics):
    print(title)
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>16.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (RuntimeError, OSError) as err:
        log(f"perfbench: {err}")
        return 2
    store = FingerprintStore(binary)
    errors = []
    attempted = failed = 0
    untraced = []
    traced = None
    trace_path = None

    def record(report, seed):
        nonlocal attempted, failed
        attempted += report["jobs"]
        failed += report["jobs_failed"]
        m = report["metrics"]
        errors.extend(f"{args.workload}/seed{seed}: {e}"
                      for e in report["errors"])
        if not store.check(args.workload, seed, report["fingerprint"]):
            errors.append(f"{args.workload}/seed{seed}: simulated "
                          f"fingerprint differs from the first run: "
                          f"{report['fingerprint']}")
        log(f"seed {seed}{' (traced)' if report['traced'] else ''}: "
            f"setup {m['setup_s']['value']:.3f} s, "
            f"run {m['run_s']['value']:.3f} s, "
            f"response {m['response_s']['value']:.1f} sim s, "
            f"fingerprint {report['fingerprint']}")

    start = time.monotonic()
    longest = 0.0
    try:
        i = 0
        while True:
            seed = args.seed + i * SUBSEED_STRIDE
            report, took, _ = subrun(binary, args.workload, seed)
            record(report, seed)
            untraced.append(report)
            longest = max(longest, took)
            if i == 0 and args.trace:
                trace_path = build_dir().parent / "traces" / \
                    f"{args.workload}-seed{seed}.json"
                trace_path.parent.mkdir(parents=True, exist_ok=True)
                traced, took, _ = subrun(binary, args.workload, seed,
                                         trace_path)
                # The store holds sub-run 0's fingerprint, so this also
                # checks traced against untraced.
                record(traced, seed)
            i += 1
            elapsed = time.monotonic() - start
            if i >= MIN_SUBRUNS and elapsed + longest > args.seconds:
                break
    except (RuntimeError, OSError, ValueError, IndexError, KeyError,
            subprocess.TimeoutExpired) as err:
        log(f"perfbench: {err}")
        return 2

    metrics = aggregate(untraced)
    log(f"{args.workload}: {len(untraced)} untraced sub-run(s) from seed "
        f"{args.seed} in {time.monotonic() - start:.1f} s")
    if args.trace:
        metrics["hdfs.heal_s"] = traced["metrics"]["hdfs.heal_s"]

        def total(report):
            m = report["metrics"]
            return m["setup_s"]["value"] + m["run_s"]["value"]

        metrics["trace.overhead_ratio"] = {
            "value": total(traced) / total(untraced[0]), "unit": "ratio"}
        shown = {k: v for k, v in metrics.items() if k not in END_TO_END}
        print_table(f"per-layer metrics, {args.workload} seed {args.seed}",
                    shown)
        print(f"tracing overhead: traced / untraced host time = "
              f"{shown['trace.overhead_ratio']['value']:.3f}; "
              f"trace written to {os.path.relpath(trace_path, ROOT)}")
    else:
        shown = {k: metrics[k] for k in END_TO_END}
        print_table(f"end-to-end metrics, {args.workload} seed {args.seed}",
                    shown)
    for e in errors:
        log(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
