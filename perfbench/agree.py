#!/usr/bin/env python3
"""Run sets of benchmark runs on the same code and report whether they
agree within BENCHMARK.json's bounds.

    python3 perfbench/agree.py [--workloads a,b] [--seeds 10] [--sets 2]
                               [--first-seed 1] [--trace 0|1] [--raw FILE]
    python3 perfbench/agree.py --compare SET1.jsonl SET2.jsonl ...

Run from the repository root. Each set runs every workload once per
seed (seeds first-seed .. first-seed+seeds-1); the sets of one workload
run back to back. For each end-to-end metric it prints each set's
median and its spread (distance between the first and third quartile,
as a share of the median), and between sets the relative change of the
median. The sets agree when every spread is within the metric's bound,
no median differs from the first set's by more than the bound in either
direction, and the share of failed operations is the same in every set.
The spread of setup_s is printed but not gated: a set-up is one short
stretch of work per process (0.5-3 s), so the host's speed phases show
in it fully (perfbench/README.md gives the measured spreads); its median
is gated like every other. Exit status 0 when they agree.

--raw appends every run's result object, tagged with its workload, set
and seed, to FILE as JSON lines. --compare reads sets recorded that way
(e.g. sets run hours apart) instead of running them, in the order of
the files and of the sets within each.

Two readings of the host go with each run: a fixed pure-Python loop
timed before it (host_ms), and the share of the machine's CPU time the
hypervisor took during it (steal, from /proc/stat). Their medians per
set show whether the host itself ran slower during a set.

With --trace 1 it instead runs an untraced and a traced run per seed,
prints the per-layer medians, and reports the tracing overhead: the
traced run's latency_p50_ms and throughput_per_s against the untraced
run's (no verdict).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


RAW = None


def host_ms():
    t0 = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def cpu_jiffies():
    """The machine's CPU time counters (user ... steal) from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None


def run(workload, seed, seconds, trace, set_no=1):
    host = host_ms()
    before = cpu_jiffies()
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    run_s = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    result["host_ms"] = host
    result["run_s"] = run_s
    after = cpu_jiffies()
    if before and after:
        d = [b - a for a, b in zip(before, after)]
        result["steal"] = d[7] / max(1, sum(d))
    if RAW:
        with open(RAW, "a") as f:
            f.write(json.dumps({"workload": workload, "set": set_no, "seed": seed,
                                "trace": trace, **result}) + "\n")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def change(base, new):
    return (new - base) / base if base else 0.0


def verdict(spec, w, sets):
    """Print one workload's sets and return whether they agree."""
    agree = True
    for k, results in enumerate(sets):
        shares = {r["failed"] / r["attempted"] for r in results}
        host = statistics.median(r.get("host_ms", 0) for r in results)
        steal = statistics.median(r.get("steal", 0) for r in results)
        print(f"{w} set {k + 1}: {len(results)} runs, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in results)}, host_ms {host:.1f}, "
              f"steal {steal:.3f}, longest run {max(r.get('run_s', 0) for r in results):.0f} s")
        if len(shares) != 1 or not all(r["correct"] for r in results):
            agree = False
    first_shares = {r["failed"] / r["attempted"] for r in sets[0]}
    for results in sets[1:]:
        if {r["failed"] / r["attempted"] for r in results} != first_shares:
            agree = False
    for m in spec["end_to_end"]:
        row = []
        base = None
        for results in sets:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, sp = statistics.median(vals), spread(vals)
            flag = ""
            if sp > m["bound"]:
                if m["name"] == "setup_s":
                    flag = " (not gated)"
                else:
                    agree, flag = False, " !"
            if base is None:
                base = med
                row.append(f"{med:12.5g} spread {sp:6.3f}{flag}")
            else:
                d = change(base, med)
                if abs(d) > m["bound"]:
                    agree, flag = False, flag + " !"
                row.append(f"{med:12.5g} spread {sp:6.3f} change {d:+.3f}{flag}")
        print(f"  {m['name']:18s} bound {m['bound']:.2f} | " + " | ".join(row))
    return agree


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", default=None)
    ap.add_argument("--compare", nargs="+", default=None)
    args = ap.parse_args()
    global RAW
    RAW = args.raw
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    if args.trace:
        for w in names:
            plain = [run(w, s, spec["run_seconds"], 0) for s in seeds]
            results = [run(w, s, spec["run_seconds"], 1) for s in seeds]
            print(f"{w}: {len(results)} traced runs")
            for m in spec["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                print(f"  {m['name']:30s} {statistics.median(vals):14.6g} {m['unit']}")
            for name in ("latency_p50_ms", "throughput_per_s"):
                untraced = statistics.median(r["metrics"][name]["value"] for r in plain)
                traced = statistics.median(r["metrics"]["traced." + name]["value"] for r in results)
                print(f"  overhead {name}: untraced {untraced:.6g}, traced {traced:.6g} "
                      f"({(traced - untraced) / untraced:+.3f})")
        return 0
    agree = True
    if args.compare:
        by_set = []
        for path in args.compare:
            with open(path) as f:
                rows = [json.loads(line) for line in f if line.strip()]
            rows = [r for r in rows if r.get("trace", 0) == 0]
            for k in sorted({r.get("set", 1) for r in rows}):
                by_set.append([r for r in rows if r.get("set", 1) == k])
        names = [w for w in names if all(any(r["workload"] == w for r in rs) for rs in by_set)]
        for w in names:
            sets = [[r for r in rs if r["workload"] == w] for rs in by_set]
            agree = verdict(spec, w, sets) and agree
    else:
        for w in names:
            sets = [[run(w, s, spec["run_seconds"], 0, k + 1) for s in seeds]
                    for k in range(args.sets)]
            agree = verdict(spec, w, sets) and agree
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
