#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload paper-meridian --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py compare RESULTS_A RESULTS_B

A run builds the perfbench package (library sources under src/ plus
perfbench/perfbench.cc) with CMake into $CARGO_TARGET_DIR (default
.bench_build), runs the workload, writes the full report (run manifest,
every metric with its sample count) into the results directory, and passes
the program's stdout through, so the last line is the result object
{correct, attempted, failed, metrics}.

`compare` reads two directories of full reports and prints, per workload
and metric, each side's median and quartiles, the delta, and "unresolved"
where a side's spread exceeds the metric's bound. It only reports.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-meridian", "cloud-1m", "churn-100k")
# Time a run may take beyond --seconds: up to five setups, the quality
# pass and, traced, the replay of the cycle at 4 and at 1 thread.
RUN_ALLOWANCE_S = 135


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build():
    """Configure once, then an incremental build; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    binary = build()
    results = Path(args.results) if args.results else build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    report = results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(report)]
    commit = git_commit()
    if commit:
        cmd += ["--git-commit", commit]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timeout = args.seconds + RUN_ALLOWANCE_S
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {timeout:g} s", code=1)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"perfbench exited with {proc.returncode}", code=1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("perfbench printed no result line", code=1)
    names = expected_metrics(args.trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            list(result["metrics"]) != names:
        sys.stderr.write(stdout)
        fail("result line does not match BENCHMARK.json", code=1)
    sys.stdout.write(stdout)
    sys.stdout.flush()


def load_reports(directory):
    """{(workload, trace): [report, ...]} from one results directory."""
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        key = (report["manifest"]["workload"], report["manifest"]["trace"])
        groups.setdefault(key, []).append(report)
    return groups


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return med, q1, q3


def compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    a, b = load_reports(args.a), load_reports(args.b)
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        section = "per_layer" if trace else "end_to_end"
        print(f"== {workload} ({'traced' if trace else 'untraced'}): "
              f"A {len(a.get(key, []))} runs, B {len(b.get(key, []))} runs")
        names = []
        for report in a.get(key, []) + b.get(key, []):
            names += [n for n in report[section] if n not in names]
        print(f"  {'metric':<28} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'delta':>9}")
        for name in names:
            cells, spreads, medians, sides = [], [], [], []
            for side in (a, b):
                values = [r[section][name]["value"] for r in side.get(key, [])
                          if name in r[section]
                          and r[section][name]["value"] is not None]
                sides.append(values)
                if not values:
                    cells.append(f"{'-':>34}")
                    continue
                med, q1, q3 = summary(values)
                medians.append(med)
                spreads.append((q3 - q1) / abs(med) if med else 0.0)
                cells.append(f"{med:>12.6g} [{q1:.6g}, {q3:.6g}]".rjust(34))
            delta = ""
            if len(medians) == 2 and medians[0]:
                delta = f"{(medians[1] - medians[0]) / abs(medians[0]):+.2%}"
            note = ""
            bound = bounds.get(name) if not trace else None
            if bound is not None and any(s > bound for s in spreads):
                # Unresolved unless every run of B beats every run of A.
                lower = better[name] == "lower"
                if all(sides) and (max(sides[1]) < min(sides[0]) if lower
                                   else min(sides[1]) > max(sides[0])):
                    note = "B better in every run"
                else:
                    note = "unresolved"
            print(f"  {name:<28} {cells[0]} {cells[1]} {delta:>9} {note}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="results directory of the base")
        parser.add_argument("b", help="results directory of the change")
        compare(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for full reports "
                        "(default: <build dir>/results)")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
