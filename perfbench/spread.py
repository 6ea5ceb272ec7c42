#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ingest-plain,enrich-sql-frozen \
        --seeds 1-10 --seconds 10 [--trace 1] [--master local[1]] [--out file.json]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. With --out, the summary and every run's result are written
as JSON (the format of perfbench/baseline.json).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--master")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as fh:
            bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    runs = {}
    for w in args.workloads.split(","):
        for seed in seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            if args.master:
                cmd += ["--master", args.master]
            t0 = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.time() - t0
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            result["wall_s"] = wall
            runs.setdefault(w, []).append(dict(result, seed=seed))
            print(f"{w} seed {seed}: {wall:.1f} s correct={result['correct']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
    summary = {}
    for w, rs in runs.items():
        print(f"== {w}: {len(rs)} runs, wall {min(r['wall_s'] for r in rs):.1f}-"
              f"{max(r['wall_s'] for r in rs):.1f} s, all correct: {all(r['correct'] for r in rs)}")
        metrics = {}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
            print(f"  {name:34s} median {med:14.4f}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
            metrics[name] = {"unit": rs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
        summary[w] = {"seeds": [r["seed"] for r in rs], "all_correct": all(r["correct"] for r in rs),
                      "attempted": sum(r["attempted"] for r in rs), "failed": sum(r["failed"] for r in rs),
                      "wall_s": [round(r["wall_s"], 1) for r in rs], "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": float(args.seconds), "trace": args.trace, "master": args.master,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
