#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread (README.md in this directory).

  python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds N]
                              [--out runs.jsonl]
  python3 perfbench/spread.py --compare before.jsonl after.jsonl

The spread is (Q3 - Q1) / median with Python's
statistics.quantiles(values, n=4).  Each run is stored with the identity
line the driver prints; --compare refuses results whose nproc differ,
and otherwise prints each metric's median change against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    identity = next(json.loads(l)["identity"] for l in lines if '"identity"' in l)
    return {"workload": workload, "seed": seed, "identity": identity,
            "result": json.loads(lines[-1])}


def load(path: str) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_metric(records: list) -> dict:
    metrics = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault((r["workload"], name), []).append(m["value"])
    return metrics


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def nproc_of(records: list) -> set:
    return {r["identity"]["nproc"] for r in records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    spec = bounds()

    if args.compare:
        before, after = (load(p) for p in args.compare)
        if len(nproc_of(before) | nproc_of(after)) != 1:
            sys.exit("refusing to compare results recorded with different nproc: "
                     f"{sorted(nproc_of(before))} vs {sorted(nproc_of(after))}")
        b, a = by_metric(before), by_metric(after)
        for key in sorted(b.keys() & a.keys()):
            m = spec[key[1]]
            mb, ma = statistics.median(b[key]), statistics.median(a[key])
            worse = (ma - mb) / mb if m["better"] == "lower" else (mb - ma) / mb
            verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
            print(f"{key[0]:12s} {key[1]:12s} {mb:12.6g} -> {ma:12.6g} "
                  f"({worse:+.1%} worse, bound {m['bound']:.0%}): {verdict}")
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = args.seconds or json.load(f)["run_seconds"]
    records = []
    for seed in seeds(args.seeds):
        records.append(run(args.workload, seed, seconds))
        r = records[-1]["result"]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(records[-1]) + "\n")
    if len(nproc_of(records)) != 1:
        sys.exit(f"runs disagree on nproc: {sorted(nproc_of(records))}")
    for (workload, name), values in sorted(by_metric(records).items()):
        s = spread(values) if len(values) >= 2 else 0.0
        bound = spec[name]["bound"]
        print(f"{workload:12s} {name:12s} median {statistics.median(values):12.6g} "
              f"spread {s:6.1%} bound {bound:.0%} "
              f"{'ok' if s < bound / 3 else 'WIDE' if s > bound else 'above 1/3 bound'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
