#!/usr/bin/env python3
"""Benchmark ratio gates of the release CI job.

usage: tools/bench_gates.py BUILD_DIR [--reports DIR]

Each gate compares two entries of one google-benchmark JSON report and
fails when their ratio leaves its bound; the ratio cancels the speed of the
machine. Every gate prints one line, and the script exits 1 when any gate
failed.

The reports are written into BUILD_DIR/bench_gates/ by running each gate's
benchmark. With --reports DIR, a gate whose report is a benchmark
trajectory (BENCH_*.json) that DIR already holds reads it instead of
running the benchmark again: CI's bench steps write those files just before
the gates run, with the same flags as below.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# (gate, report, benchmark and flags, numerator, denominator, op, bound)
GATES = [
    ("worklist task after 20000 earlier tasks / fresh task",
     "BENCH_worklist.json",
     ["bench_worklist", "--benchmark_min_time=0.05"],
     "BM_WorklistTaskAfterHistory/20000", "BM_WorklistTaskAfterHistory/0",
     "<=", 2),
    ("snapshot publication at 1000 nodes / at 10 nodes",
     "BENCH_snapshot.json",
     ["bench_snapshot_cost", "--benchmark_min_time=0.05"],
     "BM_SnapshotPublication/1000", "BM_SnapshotPublication/10",
     "<=", 3),
    ("full verification / incremental delta verification at 1000 nodes",
     "BENCH_verify.json",
     ["bench_verification", "--benchmark_min_time=0.05"],
     "BM_FullVerification/1000", "BM_IncrementalDeltaVerify/1000",
     ">=", 10),
    ("parallel insert / serial insert at 400 activities",
     "adhoc_gate.json",
     ["bench_adhoc_change", "--benchmark_filter=BM_AdHocChange/[01]/400$",
      "--benchmark_min_time=0.2"],
     "BM_AdHocChange/1/400", "BM_AdHocChange/0/400",
     "<=", 2),
    ("change after 12 parallel-insert priors / after none",
     "adhoc_bias_gate.json",
     ["bench_adhoc_change",
      "--benchmark_filter=BM_BiasedInstanceChange/1/(0|12)$",
      "--benchmark_min_time=0.2"],
     "BM_BiasedInstanceChange/1/12", "BM_BiasedInstanceChange/1/0",
     "<=", 2),
    ("migration round after 41 versions / after 2 versions",
     "migrate_gate.json",
     ["bench_fig3_report",
      "--benchmark_filter=BM_MigrateToLatestAfterVersions"],
     "BM_MigrateToLatestAfterVersions/41", "BM_MigrateToLatestAfterVersions/2",
     "<=", 1.3),
    ("engine step at 400 activities / at 20 activities, 8 ad-hoc changes",
     "drivestep_gate.json",
     ["bench_engine_throughput", "--benchmark_filter=BM_DriveStep/(20|400)/8$",
      "--benchmark_min_time=0.2"],
     "BM_DriveStep/400/8", "BM_DriveStep/20/8",
     "<=", 3),
]


def load_report(build_dir, out_dir, reports_dir, report, command):
    if reports_dir is not None and report.startswith("BENCH_"):
        given = reports_dir / report
        if given.exists():
            return json.loads(given.read_text())
    path = out_dir / report
    with open(path, "w") as out:
        subprocess.run([str(build_dir / command[0])] + command[1:] +
                       ["--benchmark_format=json"], stdout=out, check=True)
    return json.loads(path.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", type=Path)
    parser.add_argument("--reports", type=Path)
    args = parser.parse_args()
    out_dir = args.build_dir / "bench_gates"
    out_dir.mkdir(parents=True, exist_ok=True)

    failed = 0
    for gate, report, command, num, den, op, bound in GATES:
        data = load_report(args.build_dir, out_dir, args.reports, report,
                           command)
        # Names carry "/iterations:N" when a benchmark fixes its iterations.
        runs = {b["name"].split("/iterations")[0]: b
                for b in data["benchmarks"]}
        ratio = runs[num]["real_time"] / runs[den]["real_time"]
        ok = ratio <= bound if op == "<=" else ratio >= bound
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {gate}: "
              f"{runs[num]['real_time']:.1f} / {runs[den]['real_time']:.1f} "
              f"{runs[num]['time_unit']} = {ratio:.2f}x (bound {op} {bound}x)",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
