#!/usr/bin/env python3
"""Interleaved A/B of the hcsim benchmark on two builds.

Usage:
  python3 perfbench/ab.py PARENT_ROOT CHANGE_ROOT [--pairs 10]
                          [--workloads w1,w2] [--first-seed N]

Each ROOT is a source checkout holding perfbench/ (the same benchmark code on
both sides; a difference is reported). Every run lasts BENCHMARK.json's
run_seconds. Pair i runs every workload once on each side with seed
first_seed + i, alternating which side runs first. For each workload x
end-to-end metric it prints both sides' median and quartiles, the share of
pairs the change wins (ties count for neither) and a verdict, following the
rules the benchmark was defined with. A side's spread is its quartile
distance as a share of its median.
  improved    the change wins >= 90% of the pairs and the medians differ by
              more than the parent's own quartile distance;
  no worse    every change run beats every parent run, or both spreads are
              within the metric's bound and the change's median is within
              the bound of the parent's;
  worse       both spreads are within the bound and the change's median is
              worse by more than the bound;
  unresolved  anything else: a spread is wider than the bound.
A gain does not count when the change's runs fail more jobs (failed or
refused jobs, wrong CSV rows, runs that gave no result) than the parent's.
"""
import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def digest_tree(root):
    h = hashlib.sha256()
    for p in sorted((root / "perfbench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(v):
    q1, q3 = quartiles(v)
    m = statistics.median(v)
    return (q3 - q1) / m if m else float("inf")


def verdict(metric, parent, change, pair_wins, pairs):
    """Verdict for one metric from per-pair values (better = lower|higher)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    better = mc < mp if lower else mc > mp
    worse_by = ((mc - mp) if lower else (mp - mc)) / mp if mp else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if pair_wins >= 0.9 * pairs and better and abs(mc - mp) > (q3 - q1):
        return "improved"
    if all_better:
        return "no worse"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return "no worse" if worse_by <= bound else "worse"


def main():
    ap = argparse.ArgumentParser(description="interleaved A/B of the hcsim benchmark")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=0)
    a = ap.parse_args()
    roots = {"parent": a.parent.resolve(), "change": a.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").exists():
            sys.exit(f"{side}: {root} has no perfbench/run.py")
    if digest_tree(roots["parent"]) != digest_tree(roots["change"]):
        print("WARNING: perfbench/ differs between the two roots; "
              "an A/B needs identical benchmark code", file=sys.stderr)
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]

    # results[workload][side] = list of per-pair result objects
    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(a.pairs):
        seed = a.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                r = run_side(roots[side], w, seed, seconds)
                results[w][side].append(r)
                state = "ok" if r and r["correct"] else "FAILED"
                print(f"pair {i + 1}/{a.pairs} {w} {side}: {state}", file=sys.stderr)

    summary = []
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1,q3]':>34s} "
          f"{'change median [q1,q3]':>34s} {'wins':>5s}  verdict")
    for w in workloads:
        pairs = [(p, c) for p, c in zip(results[w]["parent"], results[w]["change"])
                 if p is not None and c is not None]
        # Failed jobs as run.py counts them, plus runs that gave no result.
        failed = {s: {"jobs": sum(int(r["failed"]) for r in results[w][s] if r is not None),
                      "lost_runs": sum(1 for r in results[w][s] if r is None)}
                  for s in ("parent", "change")}
        more_failures = any(failed["change"][k] > failed["parent"][k]
                            for k in ("jobs", "lost_runs"))
        for m in bench["end_to_end"]:
            name = m["name"]
            if not pairs:
                summary.append({"workload": w, "metric": name, "verdict": "unresolved"})
                continue
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            wins = sum(1 for x, y in zip(pv, cv) if (y < x if m["better"] == "lower" else y > x))
            v = verdict(m, pv, cv, wins, len(pairs))
            if v == "improved" and more_failures:
                v = "unresolved"  # a gain does not count when more jobs fail
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{w:14s} {name:12s} {statistics.median(pv):12.6g} [{pq[0]:9.4g},{pq[1]:9.4g}] "
                  f"{statistics.median(cv):12.6g} [{cq[0]:9.4g},{cq[1]:9.4g}] "
                  f"{wins / len(pairs):5.0%}  {v}")
            summary.append({"workload": w, "metric": name, "unit": m["unit"],
                            "parent_median": statistics.median(pv),
                            "change_median": statistics.median(cv),
                            "wins": wins, "pairs": len(pairs), "verdict": v,
                            "failed": failed})
    print(json.dumps({"pairs": a.pairs, "results": summary}))


if __name__ == "__main__":
    main()
