#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads khop-closed,ldbc-serve]
                               [--trace 0|1] [--out FILE] [--same-as FILE]

For each workload and seed it runs `python3 perfbench/run.py` with the
run length from BENCHMARK.json, then prints every metric's median,
quartiles and spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them) next to its bound.

--out writes every run's metrics as JSON. --same-as compares against
such a file from an earlier sweep over the same seeds: simulated
metrics (sim_*, ok_share) and counts must be identical per seed, and each
metric's median must not be worse than the earlier one by more than its
bound. Exits 1 on a failed run, an incorrect result, a spread above its
bound (setup_s excepted) or a failed comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def exact_metric(m):
    """Simulated metrics and counts repeat exactly for one seed."""
    name, unit = m["name"], m["unit"]
    counted = unit in ("count", "bytes", "events", "traversers") and not name.startswith("gc.")
    return name.startswith("sim_") or name == "ok_share" or counted


def worse_by(old, new, better):
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--same-as")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    spec = {m["name"]: m for m in bench[kind]}
    earlier = None
    if args.same_as:
        with open(args.same_as) as f:
            earlier = json.load(f)

    ok = True
    results = {}
    for w in workloads:
        runs = {}
        for seed in args.seeds:
            r = run_one(w, seed, bench["run_seconds"], args.trace)
            if r is None or not r["correct"]:
                print(f"{w} seed {seed}: FAILED run or incorrect result", flush=True)
                ok = False
                continue
            runs[str(seed)] = {"attempted": r["attempted"], "failed": r["failed"],
                               "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            print(f"{w} seed {seed}: attempted={r['attempted']} failed={r['failed']}", flush=True)
        results[w] = runs
        print(f"\n== {w} ({len(runs)} runs) ==")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, m in spec.items():
            vals = [run["metrics"][name] for run in runs.values() if name in run["metrics"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and not spread <= bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  above a third of bound"
            print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            if earlier and w in earlier:
                old_runs = earlier[w]
                old_vals = [r["metrics"][name] for r in old_runs.values() if name in r["metrics"]]
                for seed, run in runs.items():
                    if exact_metric(m) and seed in old_runs and \
                            old_runs[seed]["metrics"].get(name) != run["metrics"].get(name):
                        print(f"    {name}: seed {seed} differs from the earlier sweep")
                        ok = False
                if old_vals and bound is not None:
                    drift = worse_by(statistics.median(old_vals), med, m["better"])
                    if drift > bound:
                        print(f"    {name}: median worse than the earlier sweep by {drift:.4f}")
                        ok = False
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
