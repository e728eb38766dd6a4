#!/usr/bin/env python3
"""Steadiness self-check for the benchmark in BENCHMARK.json.

Runs every chosen workload on every chosen seed twice (set A, then set B),
untraced and optionally traced, from the repository root:

    python3 e2ebench/steady.py --seeds 1-10
    python3 e2ebench/steady.py --workloads store-replay --seeds 1-5
    python3 e2ebench/steady.py --seeds 1-4 --trace

It reports, per workload and end-to-end metric, the median and the
spread (interquartile range over median, across seeds) of each set, and
fails when

* a run is not correct, or prints other metrics than BENCHMARK.json names;
* a spread exceeds the metric's bound, except setup_s's (see below);
* set B's median is worse than set A's by more than the bound;
* a deterministic metric differs between two runs of the same seed.

setup_s's spread is printed but does not fail the check. One set-up takes
a fraction of a second, so each lands wholly inside one of the host's
fast or slow spells (on a 2-core VM the same set-up took 0.10 s or
0.16 s within one run), and the median of a run's set-ups spread by up
to 0.4 of itself between seeds. Its set B median must still stay within
the bound of set A's, like every other metric.

Exit status: 0 steady, 1 not steady, 2 usage error.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics that are exact functions of the seed: they must repeat
# bit-for-bit between runs of the same seed.
DETERMINISTIC = {
    "messages", "words", "sim_makespan_s",
    "commgen.points", "commgen.comm_sets", "codegen.spmd_bytes",
    "dataflow.lwt_calls", "polyhedra.fm_steps", "polyhedra.feasibility_calls",
    "polyhedra.bnb_nodes", "polyhedra.feas_cache_hit_ratio",
    "machine.events", "machine.transmissions",
    "store.loads", "store.stores", "store.bytes_read", "store.bytes_written",
    "store.evictions", "store.corrupt", "store.disk_hit_ratio", "store.hit_jobs",
    "core.stage_hits", "core.stage_misses",
}


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse(new, old, better):
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", action="store_true", help="also check traced runs")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    if any(w not in names for w in chosen):
        ap.error(f"workloads are {names}")
    if len(args.seeds) < 4:
        ap.error("spreads need at least four seeds")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}

    failures = []
    for w in chosen:
        sets = []
        for s in range(2):
            runs = {}
            for seed in args.seeds:
                result, took = run(bench, w, seed, False)
                runs[seed] = result
                print(f"{w} set {'AB'[s]} seed {seed}: {took:.1f} s", file=sys.stderr)
            sets.append(runs)
        print(f"\n{w}: {len(args.seeds)} seeds x 2 sets")
        print(f"  {'metric':<16} {'median A':>14} {'spread A':>9} "
              f"{'median B':>14} {'spread B':>9} {'B worse':>8} {'bound':>6}")
        for runs in sets:
            for seed, r in runs.items():
                if not r["correct"] or r["failed"]:
                    failures.append(f"{w} seed {seed}: not correct ({r['failed']} failed)")
                if set(r["metrics"]) != set(e2e):
                    failures.append(f"{w} seed {seed}: metrics differ from BENCHMARK.json")
        for name, m in e2e.items():
            cols = []
            meds = []
            for runs in sets:
                vals = [runs[s]["metrics"][name]["value"] for s in args.seeds]
                meds.append(statistics.median(vals))
                sp = spread(vals)
                cols.append((meds[-1], sp))
                if sp > m["bound"] and name != "setup_s":
                    failures.append(f"{w} {name}: spread {sp:.3f} > bound {m['bound']}")
            line = f"  {name:<16}"
            for med, sp in cols:
                line += f" {med:>14.6g} {sp:>9.4f}"
            d = worse(meds[1], meds[0], m["better"])
            line += f" {d:>8.4f}"
            if d > m["bound"]:
                failures.append(f"{w} {name}: set B median worse by {d:.3f}")
            if name in DETERMINISTIC:
                for seed in args.seeds:
                    a = sets[0][seed]["metrics"][name]["value"]
                    b = sets[1][seed]["metrics"][name]["value"]
                    if a != b:
                        failures.append(f"{w} seed {seed} {name}: {a} vs {b}")
            print(line + f" {m['bound']:>6}")

        if args.trace:
            for seed in args.seeds[:2]:
                a, _ = run(bench, w, seed, True)
                b, _ = run(bench, w, seed, True)
                for r in (a, b):
                    if not r["correct"] or set(r["metrics"]) != set(layer):
                        failures.append(f"{w} seed {seed}: traced run not correct or metrics differ")
                for name in sorted(DETERMINISTIC & set(layer)):
                    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                    if va != vb:
                        failures.append(f"{w} seed {seed} traced {name}: {va} vs {vb}")
                print(f"  traced seed {seed}: deterministic per-layer metrics compared")

    if failures:
        print("\nNOT STEADY:")
        for f in failures:
            print("  " + f)
        return 1
    print("\nsteady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
