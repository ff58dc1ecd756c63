#!/usr/bin/env python3
"""Summarize repeated perfbench runs.

Reads the per-run reports that perfbench writes under
.bench_build/perfbench/results/ and prints, per workload and mode, the run
count, the provenance the runs share, and each metric's median, quartiles
and spread (interquartile range over the median) across runs.

Run it from the repository root:

    python3 perfbench/summarize.py
"""

import glob
import json
import os
import statistics

RESULTS = os.path.join(".bench_build", "perfbench", "results")


def load(root):
    runs = []
    for path in sorted(glob.glob(os.path.join(root, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def summarize(runs):
    groups = {}
    for rep in runs:
        p = rep["provenance"]
        key = (p["workload"], "trace" if p["trace"] else "e2e")
        groups.setdefault(key, []).append(rep)
    out = []
    for (workload, mode), reps in sorted(groups.items()):
        prov = {}
        for field in ("revision", "source_digest", "go_version", "gomaxprocs", "nproc", "cpu_model", "seconds"):
            values = sorted({str(r["provenance"][field]) for r in reps})
            prov[field] = values[0] if len(values) == 1 else values
        metrics = {}
        for rep in reps:
            for m in rep["metrics"]:
                metrics.setdefault(m["name"], (m["unit"], []))[1].append(m["value"])
        rows = []
        for name, (unit, values) in metrics.items():
            row = {"name": name, "unit": unit, "runs": len(values), "median": statistics.median(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3)
                row["spread"] = (q3 - q1) / row["median"] if row["median"] else None
            rows.append(row)
        out.append({
            "workload": workload,
            "mode": mode,
            "runs": len(reps),
            "seeds": sorted(r["provenance"]["seed"] for r in reps),
            "correct": all(r["correct"] for r in reps),
            "provenance": prov,
            "metrics": rows,
        })
    return out


def main():
    for g in summarize(load(RESULTS)):
        print(f"{g['workload']} [{g['mode']}] runs={g['runs']} seeds={g['seeds']} correct={g['correct']}")
        print("  " + " ".join(f"{k}={v}" for k, v in g["provenance"].items()))
        for r in g["metrics"]:
            spread = r.get("spread")
            spread = "-" if spread is None else f"{spread:.3f}"
            print(f"  {r['name']:34s} {r['median']:14.6g} {r['unit']:6s} "
                  f"q1={r.get('q1', r['median']):.6g} q3={r.get('q3', r['median']):.6g} spread={spread}")


if __name__ == "__main__":
    main()
