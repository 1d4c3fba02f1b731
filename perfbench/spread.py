#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ingest,dashboard --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

Run from the checkout root. For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the metric's bound
in BENCHMARK.json. With --baseline it also makes one traced run per
workload and writes the quartiles and per-layer numbers there.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: incorrect")
    invalid = [l for l in p.stderr.splitlines() if "RUN INVALID" in l]
    return res, invalid


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--baseline", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"workloads": {}, "traced": {}}
    worst = 0.0
    for w in names:
        vals = {}
        for s in seeds(args.seeds):
            res, invalid = run(bench, w, s, 0)
            for k, m in res["metrics"].items():
                vals.setdefault(k, []).append(m["value"])
            print(f"{w} seed {s}: ok {' '.join(invalid)}", file=sys.stderr, flush=True)
        out["workloads"][w] = {}
        for k in sorted(vals):
            v = vals[k]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            flag = "" if spread < bounds[k] / 3 else ("  > bound/3" if spread < bounds[k] else "  > BOUND")
            print(f"{w:10s} {k:24s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[k]:.2f}{flag}", flush=True)
            out["workloads"][w][k] = {"q1": q1, "median": statistics.median(v), "q3": q3, "n": len(v)}
        if args.baseline:
            res, _ = run(bench, w, 1, 1)
            out["traced"][w] = {k: m["value"] for k, m in res["metrics"].items()}
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.baseline:
        fp = json.loads(subprocess.run(bench["command"] + ["--fingerprint"], check=True,
                                       stdout=subprocess.PIPE, text=True).stdout.splitlines()[-1])
        base = {"fingerprint": fp, "seconds": bench["run_seconds"], **out}
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
