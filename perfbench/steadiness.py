#!/usr/bin/env python3
"""Steadiness report for the daemon benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101]
                                    [--compare perfbench/out/steadiness-A.json]

Runs every workload of BENCHMARK.json --runs times, each with another seed,
and prints for each end-to-end metric its median, first and third quartile
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median against the
metric's bound. A spread above a third of the bound is marked "noisy";
above the bound the report fails. With --compare it also checks that no
median moved from an earlier report's by more than the bound, in either
direction and measured from the smaller of the two medians, since either
report could be the earlier one of a comparison. The raw values are saved
to perfbench/out/steadiness-<first seed>.json, which must not exist yet.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def drift(old, new):
    """How far apart two medians are, as a share of the smaller one."""
    return max(old, new) / min(old, new) - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    path = os.path.join(ROOT, "perfbench", "out", f"steadiness-{args.first_seed}.json")
    if os.path.exists(path):
        print(f"{os.path.relpath(path, ROOT)} exists; pick another --first-seed", file=sys.stderr)
        return 2
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    raw, failures = {}, []
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            start = time.monotonic()
            got = run_once(w, seed, bench["run_seconds"])
            took = time.monotonic() - start
            if got is None:
                failures.append(f"{w} seed {seed}: run failed")
                continue
            for name in values:
                values[name].append(got[name])
            print(f"{w} seed {seed} ({took:.0f} s): "
                  + ", ".join(f"{n}={v:.4g}" for n, v in got.items()), flush=True)
        raw[w] = values

    print(f"\n{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = raw[w][name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag = "OVER BOUND"
                failures.append(f"{w}/{name}: spread {spread:.3f} > bound {bound}")
            elif spread > bound / 3:
                flag = "noisy"
            if earlier and len(earlier.get(w, {}).get(name, [])) < 2:
                failures.append(f"{w}/{name}: not in the earlier report")
            elif earlier:
                before = statistics.median(earlier[w][name])
                moved = drift(before, med)
                flag += f" drift {moved:.3f}"
                if moved > bound:
                    failures.append(f"{w}/{name}: median moved by {moved:.3f} > bound {bound}")
            print(f"{w:<14} {name:<12} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6} {flag}")

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "x") as f:
        json.dump(raw, f, indent=1)
    print(f"\nraw values saved to {os.path.relpath(path, ROOT)}")
    for msg in failures:
        print("FAIL:", msg)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
