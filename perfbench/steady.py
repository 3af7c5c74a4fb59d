#!/usr/bin/env python3
"""Steadiness check: run each workload as two sets of runs and compare.

Usage, from the checkout root:

    python3 perfbench/steady.py [--runs N] [--workload NAME ...]

Each set makes N untraced runs of a workload, each with another seed (set A
uses seeds 1..N, set B 101..100+N), each run as long as BENCHMARK.json's
run_seconds. For every end-to-end metric the table shows each set's median
and quartiles (and those of both sets together), the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles) against the metric's bound from BENCHMARK.json, and how far set
B's median moved from set A's in the metric's worse direction. It also
compares the share of failed operations between the sets, which must be
identical. Exit status is 1 when a spread exceeds its bound, a median moved
by more than its bound, the failed shares differ, or a run failed its
output checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   done.returncode))
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit("%s seed %d printed metrics %s, the manifest has %s"
                         % (workload, seed, got, want))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    report = {}
    for workload in workloads:
        sets = []
        for base in (1, 101):
            runs = []
            for i in range(args.runs):
                result = run_once(spec, workload, base + i, seconds)
                if not result["correct"]:
                    print("%s seed %d: output checks failed"
                          % (workload, base + i))
                    ok = False
                runs.append(result)
            sets.append(runs)
        shares = [sorted({r["failed"] / r["attempted"] for r in runs})
                  for runs in sets]
        print("\n%s: failed share A %s  B %s" % (workload, shares[0],
                                                 shares[1]))
        if len(shares[0]) != 1 or shares[0] != shares[1]:
            ok = False
        print("%-20s %-5s %12s %12s %12s %8s %8s %8s"
              % ("metric", "set", "q1", "median", "q3", "spread", "bound",
                 "moved"))
        report[workload] = {}
        for name in sorted(bounds):
            metric = bounds[name]
            rows = []
            for label, runs in zip(("A", "B", "A+B"),
                                   (sets[0], sets[1], sets[0] + sets[1])):
                values = [r["metrics"][name]["value"] for r in runs]
                rows.append((label,) + spread(values))
            med_a, med_b = rows[0][2], rows[1][2]
            moved = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                moved = -moved
            for label, q1, q2, q3, s in rows:
                flag = ""
                if s > metric["bound"]:
                    flag = "  SPREAD"
                    ok = False
                print("%-20s %-5s %12.6g %12.6g %12.6g %8.4f %8.3f %8s%s"
                      % (name, label, q1, q2, q3, s, metric["bound"],
                         "%.4f" % moved if label == "B" else "", flag))
            if moved > metric["bound"]:
                print("%-20s moved by more than its bound" % name)
                ok = False
            report[workload][name] = {
                "median": [rows[0][2], rows[1][2]],
                "spread": [rows[0][4], rows[1][4], rows[2][4]],
                "bound": metric["bound"], "moved": moved,
                "values": [[r["metrics"][name]["value"] for r in runs]
                           for runs in sets]}
    print("\n" + json.dumps(report))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
