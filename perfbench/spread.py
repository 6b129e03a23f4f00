#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload and metric this prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, as a Markdown table.

    python3 perfbench/spread.py --workloads gateway_replay flash_crowd \
        --seeds 1 2 3 4 5 --seconds 10 [--trace 1] [--json out.json]

Run it from the repository root after ``cargo build --release
--manifest-path perfbench/Cargo.toml``; it runs the built binary
directly, one run at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "bytecache-perfbench")


def run_once(workload, seed, seconds, trace):
    cmd = [binary(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    # Workload-specific metrics are printed as "metric: <name> <value> <unit>"
    # report lines; fold them in beside the result line's metrics.
    for line in lines[:-1]:
        if line.startswith("metric: "):
            name, value, unit = line.split()[1:4]
            result["metrics"].setdefault(name, {"value": float(value), "unit": unit})
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every raw result here")
    args = ap.parse_args()

    raw = {}
    for w in args.workloads:
        raw[w] = []
        for s in args.seeds:
            r = run_once(w, s, args.seconds, args.trace)
            if not r["correct"] or r["failed"]:
                print(f"# {w} seed {s}: correct={r['correct']} failed={r['failed']}",
                      file=sys.stderr)
            raw[w].append({"seed": s, **r})
            print(f"# {w} seed {s} done", file=sys.stderr, flush=True)

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w, runs in raw.items():
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            med, q1, q3, spread = summarise(vals)
            print(f"| {w} | {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
