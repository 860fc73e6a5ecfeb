#!/usr/bin/env python3
"""The benchmark runner of the release CI job: trajectories and ratio gates.

usage: tools/bench_gates.py BUILD_DIR

Runs every benchmark of REPORTS once, in order, and writes its
google-benchmark JSON report into BUILD_DIR/bench_gates/. The nine
BENCH_*.json reports are the benchmark trajectories CI uploads; the others
exist only for a gate. Then applies GATES: each compares two entries of one
report and fails when their ratio leaves its bound; the ratio cancels the
speed of the machine. Every gate prints one line, and the script exits 1
when any gate failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# report -> (benchmark and flags, whether its stderr is discarded)
REPORTS = {
    "BENCH_wal.json":
        (["bench_wal_throughput", "--benchmark_min_time=0.05"], False),
    "BENCH_worklist.json":
        (["bench_worklist", "--benchmark_min_time=0.05"], False),
    "BENCH_cluster.json":
        (["bench_cluster_scaling",
          "--benchmark_filter=BM_Cluster(BatchThroughput|Migration|Resize)",
          "--benchmark_min_time=0.05"], False),
    "BENCH_read.json":
        (["bench_cluster_scaling",
          "--benchmark_filter="
          "BM_Cluster(ReadThroughput|WithInstanceRead|MixedReadWrite)",
          "--benchmark_min_time=0.05"], False),
    "BENCH_query.json":
        (["bench_query", "--benchmark_min_time=0.05"], False),
    "BENCH_verify.json":
        (["bench_verification", "--benchmark_min_time=0.05"], False),
    "BENCH_repl.json":
        (["bench_replication", "--benchmark_min_time=0.05"], True),
    "BENCH_failover.json":
        (["bench_failover"], True),
    "BENCH_snapshot.json":
        (["bench_snapshot_cost", "--benchmark_min_time=0.05"], False),
    "adhoc_gate.json":
        (["bench_adhoc_change", "--benchmark_filter=BM_AdHocChange/[01]/400$",
          "--benchmark_min_time=0.2"], False),
    "adhoc_bias_gate.json":
        (["bench_adhoc_change",
          "--benchmark_filter=BM_BiasedInstanceChange/1/(0|12)$",
          "--benchmark_min_time=0.2"], False),
    # Four fixed iterations per point sit inside a shared host's run-to-run
    # spread, so the gate reads the median of seven repetitions, run in
    # random order so that both points sample the same load.
    "migrate_gate.json":
        (["bench_fig3_report",
          "--benchmark_filter=BM_MigrateToLatestAfterVersions",
          "--benchmark_repetitions=7",
          "--benchmark_enable_random_interleaving=true",
          "--benchmark_report_aggregates_only=true"], False),
    "drivestep_gate.json":
        (["bench_engine_throughput",
          "--benchmark_filter=BM_DriveStep/(20|400)/8$",
          "--benchmark_min_time=0.2"], False),
    # One 0.05 s run of each point read 3.00x and then 2.46x at one commit,
    # so the publication gate reads the median of seven interleaved
    # repetitions of the default length, as the migration gate does.
    "snapshot_gate.json":
        (["bench_snapshot_cost",
          "--benchmark_filter=BM_SnapshotPublication/(10|1000)$",
          "--benchmark_repetitions=7",
          "--benchmark_enable_random_interleaving=true",
          "--benchmark_report_aggregates_only=true"], False),
    "checkpoint_gate.json":
        (["bench_storage_ablation",
          "--benchmark_filter=BM_SnapshotCheckpoint/500/(0|100)$",
          "--benchmark_min_time=0.2",
          "--benchmark_repetitions=5",
          "--benchmark_enable_random_interleaving=true",
          "--benchmark_report_aggregates_only=true"], False),
}

# (gate, report, numerator, denominator, op, bound)
GATES = [
    ("worklist task after 20000 earlier tasks / fresh task",
     "BENCH_worklist.json",
     "BM_WorklistTaskAfterHistory/20000", "BM_WorklistTaskAfterHistory/0",
     "<=", 2),
    ("snapshot publication at 1000 nodes / at 10 nodes",
     "snapshot_gate.json",
     "BM_SnapshotPublication/1000", "BM_SnapshotPublication/10",
     "<=", 3),
    ("full verification / incremental delta verification at 1000 nodes",
     "BENCH_verify.json",
     "BM_FullVerification/1000", "BM_IncrementalDeltaVerify/1000",
     ">=", 10),
    ("parallel insert / serial insert at 400 activities",
     "adhoc_gate.json",
     "BM_AdHocChange/1/400", "BM_AdHocChange/0/400",
     "<=", 2),
    ("change after 12 parallel-insert priors / after none",
     "adhoc_bias_gate.json",
     "BM_BiasedInstanceChange/1/12", "BM_BiasedInstanceChange/1/0",
     "<=", 2),
    ("migration round after 41 versions / after 2 versions",
     "migrate_gate.json",
     "BM_MigrateToLatestAfterVersions/41", "BM_MigrateToLatestAfterVersions/2",
     "<=", 1.3),
    ("engine step at 400 activities / at 20 activities, 8 ad-hoc changes",
     "drivestep_gate.json",
     "BM_DriveStep/400/8", "BM_DriveStep/20/8",
     "<=", 3),
    # A cached instance costs a copy of its text, not a serialization.
    ("checkpoint of 500 cached instances / of 500 changed instances",
     "checkpoint_gate.json",
     "BM_SnapshotCheckpoint/500/0", "BM_SnapshotCheckpoint/500/100",
     "<=", 0.25),
]


def run_report(build_dir, out_dir, report):
    command, quiet = REPORTS[report]
    path = out_dir / report
    with open(path, "w") as out:
        subprocess.run([str(build_dir / command[0])] + command[1:] +
                       ["--benchmark_format=json"], stdout=out,
                       stderr=subprocess.DEVNULL if quiet else None,
                       check=True)
    return json.loads(path.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", type=Path)
    args = parser.parse_args()
    out_dir = args.build_dir / "bench_gates"
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = {report: run_report(args.build_dir, out_dir, report)
               for report in REPORTS}

    failed = 0
    for gate, report, num, den, op, bound in GATES:
        # Names carry "/iterations:N" when a benchmark fixes its iterations;
        # a repeated benchmark is read by its median.
        runs = {b["run_name"].split("/iterations")[0]: b
                for b in reports[report]["benchmarks"]
                if b.get("aggregate_name", "median") == "median"}
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
