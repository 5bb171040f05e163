#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports their spread.

Usage, from the root of a source checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 100]
                                [--seconds S] [--trace 0|1] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Run i of every workload uses seed seed-base + i, and the workloads are
interleaved (run 1 of each, then run 2 of each, ...) so a slow phase of the
machine does not land on one workload. For every metric it prints the
median, the quartiles (statistics.quantiles with n=4) and the spread
(q3 - q1) / median, and, for end-to-end metrics, the bound from
BENCHMARK.json and whether the spread stays under a third of it. --out saves
the raw results; --compare reads two saved sets and prints how far each
median moved against its bound, and whether the failed shares agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    wall = time.time() - start
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"exit": proc.returncode, "wall_s": wall, "result": result}


def summarize(results, spec, trace):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        failed = [(r["result"]["failed"], r["result"]["attempted"])
                  for r in runs if r["result"]]
        bad = [r for r in runs if r["exit"] != 0 or not r["result"]]
        print("== %s: %d runs, %d bad exits, failed/attempted %s, wall %.1f s max"
              % (workload, len(runs), len(bad), sorted(set(failed)),
                 max(r["wall_s"] for r in runs)))
        ok &= not bad
        metrics = {}
        key = "per_layer" if trace else "end_to_end"
        wanted = [(m["name"], m["unit"]) for m in spec[key]]
        for r in runs:
            if not r["result"]:
                continue
            got = [(n, m["unit"]) for n, m in r["result"]["metrics"].items()]
            if sorted(got) != sorted(wanted):
                print("  metrics differ from BENCHMARK.json %s: %s"
                      % (key, sorted(set(got) ^ set(wanted))))
                ok = False
            for name, m in r["result"]["metrics"].items():
                if m["value"] is not None:
                    metrics.setdefault(name, []).append(m["value"])
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            line = "  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f" % (
                name, med, q1, q3, spread)
            if name in bounds:
                bound = bounds[name]["bound"]
                steady = name == "setup_s" or spread < bound / 3
                ok &= spread <= bound or name == "setup_s"
                line += "  bound %.2f %s" % (bound, "ok" if steady else "WIDE")
            print(line)
    return ok


def compare(first, second, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in first:
        print("== %s" % workload)
        shares = []
        for results in (first, second):
            shares.append(sorted({(r["result"]["failed"], r["result"]["attempted"])
                                  for r in results[workload] if r["result"]}))
        print("  failed/attempted: %s vs %s" % tuple(shares))
        for name, meta in bounds.items():
            medians = []
            for results in (first, second):
                values = [r["result"]["metrics"][name]["value"]
                          for r in results[workload]
                          if r["result"] and name in r["result"]["metrics"]]
                medians.append(statistics.median(values) if values else None)
            if None in medians:
                continue
            a, b = medians
            worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= meta["bound"] else "WORSE"
            ok &= verdict == "ok"
            print("  %-20s %-12.6g -> %-12.6g worse by %+.3f (bound %.2f) %s"
                  % (name, a, b, worse, meta["bound"], verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(sets[0], sets[1], spec) else 1)

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.seed_base + i, seconds, args.trace)
            results[w].append(r)
            print("run %d %s seed %d exit %d wall %.1f s"
                  % (i + 1, w, args.seed_base + i, r["exit"], r["wall_s"]),
                  file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if summarize(results, spec, args.trace) else 1)


if __name__ == "__main__":
    main()
