#!/usr/bin/env python3
"""Smoke self-test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py        (from any directory)

Runs every workload of BENCHMARK.json at minimal size (one set-up, one
second, six daemon designs) and checks that:
  - the result line has exactly correct/attempted/failed/metrics, with
    correct true, failed 0 and at least one attempt;
  - --trace 0 emits exactly the end-to-end metrics and --trace 1 exactly
    the per-layer metrics, each with its unit, end-to-end values non-zero;
  - count metrics repeat exactly for the same seed;
  - a held-out seed gives the same metric names and zero failures.
Exits 1 on the first violation.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = ["--seconds", "1", "--setup-reps", "1", "--daemon-designs", "6"]
HELD_OUT_SEED = 977

# Per-layer metrics that are pure functions of the inputs.  Scheduling-
# dependent counts (pool contention, spans per run) and reply sizes (the
# full report carries timings) are left out.
DETERMINISTIC = (
    "netlist.cells_in", "netlist.cells_out", "netlist.nets_out",
    "core.ffs_replaced", "core.regions",
    "symfe.registers", "symfe.proved", "symfe.restored", "symfe.trivial_ratio",
    "sat.conflicts", "sat.decisions",
    "flowdb.hits", "flowdb.misses", "flowdb.hit_ratio", "flowdb.bytes_read",
    "flowdb.bytes_written",
    "eco.warm_ratio", "eco.regions_dirty", "eco.cells_changed",
    "eco.dirty_endpoints", "eco.endpoints_restored", "eco.registers_restored",
)


def fail(msg):
    print(f"smoke_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace), *SMALL],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        fail(f"{label}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}")
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(units):
        fail(f"{label}: missing {sorted(set(units) - set(got))}, "
             f"unexpected {sorted(set(got) - set(units))}")
    for name, unit in units.items():
        if got[name].get("unit") != unit:
            fail(f"{label}: {name} has unit {got[name].get('unit')}, "
                 f"expected {unit}")
        if not isinstance(got[name].get("value"), (int, float)):
            fail(f"{label}: {name} has no numeric value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        e2e = run(workload, 1, 0)
        check(e2e, bench["end_to_end"], f"{workload} --trace 0")
        for name, m in e2e["metrics"].items():
            if m["value"] <= 0:
                fail(f"{workload}: end-to-end {name} is {m['value']}")
        first = run(workload, 1, 1)
        check(first, bench["per_layer"], f"{workload} --trace 1")
        again = run(workload, 1, 1)
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: {name} not repeatable ({a} vs {b})")
        held = run(workload, HELD_OUT_SEED, 1)
        check(held, bench["per_layer"], f"{workload} held-out seed")
        print(f"smoke_test: {workload} ok", flush=True)
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
