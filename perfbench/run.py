#!/usr/bin/env python3
"""Build the benchmark and the serve daemon from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The build goes to _build/ in that root
with dune's shared cache off, so nothing is written outside it. The
last line of stdout is the result object of perfbench/main.ml, its
metric names checked against BENCHMARK.json and given their units.
"""

import json
import os
import subprocess
import sys

MAIN = "_build/default/perfbench/main.exe"
CLI = "_build/default/bin/index_merge_cli.exe"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/index_merge_cli.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.exists(MAIN) and os.path.exists(CLI)


def complete(result, trace):
    """Check the metric names against BENCHMARK.json and give each its
    unit. A traced run prints only the layers its workload crosses; the
    others are reported as 0. Returns an error message or None."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    unknown = sorted(set(got) - set(listed))
    if unknown:
        return f"metrics {unknown} are not in BENCHMARK.json"
    if not trace:
        missing = sorted(set(listed) - set(got))
        if missing:
            return f"end-to-end metrics {missing} were not reported"
        wrong = sorted(k for k, v in got.items() if v["unit"] != listed[k])
        if wrong:
            return f"metrics {wrong} have units that differ from BENCHMARK.json"
    result["metrics"] = {
        name: {"value": got.get(name, {"value": 0})["value"], "unit": unit}
        for name, unit in listed.items()
    }
    return None


def pin_to_one_cpu():
    """Run the benchmark, and everything it starts, on one CPU.

    On a small virtual machine the hypervisor takes time from the vCPUs
    in phases when the guest keeps more than one of them busy: serve-mix
    (client and daemon on two vCPUs) saw 10-27 % of the machine's CPU
    time stolen and its throughput fall from 25k to 8k commands/s, while
    runs confined to one CPU, interleaved with those, saw 2 %. On one
    CPU the benchmark measures the program, not the neighbours."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    pin_to_one_cpu()
    proc = subprocess.run([MAIN, *argv, "--cli", CLI], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or "--smoke" in argv:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    error = complete(result, trace)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
