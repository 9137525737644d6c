#!/usr/bin/env python3
"""End-to-end benchmark of drdesync and drdesyncd.

    python3 perfbench/run.py --workload cold_dlx --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the repository's libraries and the
benchmark program (perfbench/src) with CMake into $CARGO_TARGET_DIR (default
.bench_build), runs one workload for --seconds and prints, as the last line
of stdout, one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Metric definitions: perfbench/METRICS.md.

With --trace 1 every other round runs under the tool's tracer; this script
reads the trace files and adds the per-layer self times (a span's duration
minus the spans nested directly inside it on the same track).

A result file with the run's metadata (nproc, jobs, build type, compiler,
tool and snapshot-format versions, git commit, seeds) is written to
<build dir>/results/.
"""
import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_dlx", "prove_arm", "eco_arm", "daemon_small")
RUN_TIMEOUT_S = 170

# Spans perfbench/src wraps around each timed call.
BENCH_SPANS = ("netlist.parse", "core.flow", "netlist.write",
               "netlist.teardown", "server.request")
# Tool span categories whose self time is summed per run, over all tracks.
TOOL_CATEGORIES = ("pass", "flowdb", "eco", "sta", "sim")
# Idle time, not work: excluded from the category sums.
IDLE_SPANS = ("queue_wait", "pool_wait")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """The build directory, relative to the checkout root (socket paths
    under it must stay short)."""
    path = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return ".bench_build" if path.startswith("..") else path


def build(bdir):
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", os.path.relpath(HERE), "-B", bdir,
                        *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", bdir, "--target", "perfbench", "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def git_commit():
    if not os.path.exists(".git"):  # an exported checkout
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def self_times(path):
    """Per-span self times of one trace file: a list of
    (name, category, self_ms) over every completed B/E span."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    stacks = collections.defaultdict(list)
    spans = []
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = stacks[(e["pid"], e["tid"])]
        if ph == "B":
            stack.append([e["name"], e.get("cat", ""), e["ts"], 0.0])
            continue
        if not stack:
            continue  # opened before trace::start
        name, cat, begin, children = stack.pop()
        duration = e["ts"] - begin
        if stack:
            stack[-1][3] += duration
        spans.append((name, cat, (duration - children) / 1e3))
    return spans


def trace_metrics(files):
    """Per-layer self-time metrics over the traced rounds."""
    instances = collections.defaultdict(list)
    per_run = collections.defaultdict(list)
    spans_per_run = []
    for path in files:
        spans = self_times(path)
        for name, _, ms in spans:
            if name in BENCH_SPANS:
                instances[name].append(ms)
        runs = sum(1 for name, _, _ in spans
                   if name in ("core.flow", "server.request"))
        if runs == 0:
            continue
        sums = collections.Counter()
        for name, cat, ms in spans:
            if cat in TOOL_CATEGORIES and name not in IDLE_SPANS:
                sums[cat] += ms
        for cat in TOOL_CATEGORIES:
            per_run[cat].append(sums[cat] / runs)
        spans_per_run.append(len(spans) / runs)

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    for name in BENCH_SPANS:
        metrics[f"trace.self.{name}_ms"] = (median(instances[name]), "ms")
    for cat in TOOL_CATEGORIES:
        metrics[f"trace.self.{cat}_ms"] = (median(per_run[cat]), "ms")
    metrics["trace.spans_per_run"] = (median(spans_per_run), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Smaller set-ups, for the smoke test.
    parser.add_argument("--setup-reps", type=int)
    parser.add_argument("--daemon-designs", type=int)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    run_dir = os.path.join(bdir, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    if args.setup_reps is not None:
        cmd += ["--setup-reps", str(args.setup_reps)]
    if args.daemon_designs is not None:
        cmd += ["--daemon-designs", str(args.daemon_designs)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench exited with {proc.returncode}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = raw["metrics"]
        if args.trace:
            metrics.update(trace_metrics(raw["trace_files"]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    meta = dict(raw["meta"], git_commit=git_commit())
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    results_dir = os.path.join(bdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(dict(result, meta=meta), f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
