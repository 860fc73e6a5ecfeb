#!/usr/bin/env python3
"""The one command of the end-to-end benchmark (README.md in this directory).

Builds e2ebench/ (linked against the root CMakeLists.txt's `adept` library)
into .bench_build/e2e, then:

  run_e2e.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      one run of one workload in its own process; the last stdout line is
      the JSON result object (BENCHMARK.json names this command)

  run_e2e.py [--seed N] [--seconds S] [--passes P] [--out FILE]
      every workload, P untraced passes and then one traced pass; prints
      the metric table and writes results/<sha>-seed<N>.json (or FILE)

  run_e2e.py --compare A B [--seed N] [--seconds S]
      A and B are two checkouts (parent and change). Builds this copy of
      the benchmark against each checkout's library, so both sides run the
      same benchmark code; runs 10 alternating pairs per workload with the
      same seed inside a pair and a new seed for every pair, then prints
      one verdict per workload: improved, unchanged, regressed or
      unresolved (at least 9 of 10 pair wins and a median gap beyond the
      parent's quartile spread to improve; the bounds of BENCHMARK.json
      to regress)
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["worklist", "adhoc", "evolve", "monitor"]
RUN_TIMEOUT_S = 170
# Pairs of a --compare: the choosing-metrics rule asks for 9 wins of 10.
COMPARE_PAIRS = 10
BUILD_ROOT = ROOT / ".bench_build"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(adept_root=ROOT, name="e2e"):
    """Configures and builds this directory's bench_e2e against the library
    of the checkout adept_root, in .bench_build/<name> (serialized by a lock
    file, so concurrent runs build once). Returns the binary."""
    build_dir = BUILD_ROOT / name
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             f"-DADEPT_ROOT={adept_root}"],
            ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
             "-j", str(os.cpu_count() or 1)],
        ):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise SystemExit("bench_e2e build failed: " + " ".join(cmd))
    return build_dir / "bench_e2e"


def run_once(binary, workload, seed, seconds, trace, trace_out=None,
             echo=True):
    """Runs one workload in its own process; returns (exit code, result
    object or None, stdout lines)."""
    data_dir = BUILD_ROOT / "data" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data-dir", str(data_dir)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as expired:
        code = 124
        out = expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        log(f"bench_e2e {workload} timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, result, lines


def table_metrics(lines):
    """The human-readable metric lines a run prints before its JSON:
    {name: value} and {name: unit}."""
    values, units = {}, {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            try:
                values[parts[0]] = float(parts[1])
                units[parts[0]] = parts[2]
            except ValueError:
                pass
    return values, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs):
    """Median and quartiles of every printed metric (the gated ones and the
    ungated tails) over several runs."""
    summary = {}
    for name, unit in runs[0]["units"].items():
        values = [r["printed"][name] for r in runs]
        q1, median, q3 = quartiles(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit,
                         "gated": name in runs[0]["metrics"],
                         "values": values}
    return summary


def git_sha(root):
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    return "nogit"


def host():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model}


def run_all(args):
    binary = build()
    report = {"sha": git_sha(ROOT), "seed": args.seed, "seconds": args.seconds,
              "passes": args.passes, "host": host(), "workloads": {}}
    failed = False
    trace_dir = BUILD_ROOT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        untraced = []
        plain_ops = []
        for p in range(args.passes):
            log(f"== {workload} pass {p + 1}/{args.passes} (untraced)")
            code, result, lines = run_once(binary, workload, args.seed,
                                           args.seconds, False, echo=False)
            if code != 0 or result is None or not result["correct"]:
                log("\n".join(lines[-12:]))
                failed = True
                continue
            result["printed"], result["units"] = table_metrics(lines)
            untraced.append(result)
            plain_ops.append(result["metrics"]["ops_per_s"]["value"])
        log(f"== {workload} traced pass")
        trace_out = trace_dir / f"{workload}-seed{args.seed}.csv"
        code, traced, lines = run_once(binary, workload, args.seed,
                                       args.seconds, True,
                                       trace_out=trace_out, echo=False)
        if code != 0 or traced is None or not traced["correct"]:
            log("\n".join(lines[-12:]))
            failed = True
        entry = {"untraced": untraced, "traced": traced}
        if untraced:
            entry["summary"] = summarize(untraced)
        if traced is not None and plain_ops:
            traced_ops = table_metrics(lines)[0].get("ops_per_s", 0.0)
            entry["measured_trace_slowdown"] = (
                1.0 - traced_ops / statistics.median(plain_ops))
        for r in untraced + ([traced] if traced else []):
            if r["failed"] > 0:
                log(f"{workload}: {r['failed']} of {r['attempted']} ops failed")
                failed = True
        report["workloads"][workload] = entry
    print_report(report)
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{report['sha']}-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    log(f"wrote {out}")
    return 1 if failed else 0


def print_report(report):
    print(f"{'workload':10} {'metric':36} {'median':>14} {'q1':>14} "
          f"{'q3':>14}  unit")
    for workload, entry in report["workloads"].items():
        for name, s in entry.get("summary", {}).items():
            gate = "" if s["gated"] else "  (not gated)"
            print(f"{workload:10} {name:36} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g}  {s['unit']}{gate}")
        traced = entry.get("traced")
        if traced:
            for name, m in traced["metrics"].items():
                print(f"{workload:10} {name:36} {m['value']:14.6g} "
                      f"{'':14} {'':14}  {m['unit']}")
        if "measured_trace_slowdown" in entry:
            print(f"{workload:10} {'(traced ops_per_s slowdown)':36} "
                  f"{entry['measured_trace_slowdown']:14.6g}")


def classify(spec, parent, change):
    """One metric of one workload: improved / unchanged / regressed /
    unresolved, from paired runs (parent[i] and change[i] share a seed)."""
    lower = spec["better"] == "lower"
    wins = sum(1 for a, b in zip(parent, change)
               if (b < a if lower else b > a))
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    spread = (q3 - q1) / median_a if median_a else float("inf")
    worse = (median_b - median_a) if lower else (median_a - median_b)
    worse_share = worse / median_a if median_a else 0.0
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if wins >= 0.9 * len(parent) and abs(median_b - median_a) > q3 - q1:
        return "improved", wins, spread, worse_share
    # Set-up time is judged on its median alone, as the benchmark contract
    # does: its spread is not required to stay within the bound.
    if (spread > spec["bound"] and not all_better
            and spec["name"] != "setup_s"):
        return "unresolved", wins, spread, worse_share
    if worse_share > spec["bound"]:
        return "regressed", wins, spread, worse_share
    return "unchanged", wins, spread, worse_share


def compare(args):
    roots = [Path(p).resolve() for p in args.compare]
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    binaries = [build(root, f"compare-{side}")
                for side, root in zip("AB", roots)]
    rows = []
    for workload in WORKLOADS:
        runs = [[], []]
        for i in range(COMPARE_PAIRS):
            seed = args.seed + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                log(f"== {workload} pair {i + 1}/{COMPARE_PAIRS} "
                    f"{'AB'[side]} seed {seed}")
                code, result, lines = run_once(binaries[side], workload, seed,
                                               args.seconds, False, echo=False)
                if code != 0 or result is None or not result["correct"]:
                    log("\n".join(lines[-12:]))
                    raise SystemExit(f"{workload}: run failed on "
                                     f"{roots[side]}")
                runs[side].append(result)
        verdicts = []
        for spec in specs:
            name = spec["name"]
            parent = [r["metrics"][name]["value"] for r in runs[0]]
            change = [r["metrics"][name]["value"] for r in runs[1]]
            verdict, wins, spread, worse = classify(spec, parent, change)
            verdicts.append(verdict)
            print(f"  {workload:9} {name:14} {verdict:10} wins {wins}/"
                  f"{len(parent)}  parent median "
                  f"{statistics.median(parent):.6g}  change median "
                  f"{statistics.median(change):.6g}  spread {spread:.3f}  "
                  f"worse {worse:+.3f} (bound {spec['bound']})")
        failed = [sum(r["failed"] for r in side) for side in runs]
        if failed[1] > failed[0]:
            verdicts.append("regressed")
        for word in ("regressed", "unresolved", "improved", "unchanged"):
            if word in verdicts:
                rows.append((workload, word))
                break
    print()
    for workload, verdict in rows:
        print(f"{workload:10} {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(args)
    if args.workload is None:
        return run_all(args)
    binary = build()
    code, result, _ = run_once(binary, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
