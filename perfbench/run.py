#!/usr/bin/env python3
"""Builds and runs the emx end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pair_stream --seed 1 --seconds 20 --trace 0

Workloads: pair_stream, catalog_churn, finetune (see BENCHMARK.json and
perfbench/metric_map.json). The script

  1. builds perfbench/ (the emx libraries from src/ plus the perfbench binary) with
     CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
  2. on the first run of a workload for a given source tree (digest of src/
     and perfbench/), runs the input self-test (same seed -> identical inputs, other seed -> different);
  3. for finetune, computes the 1-thread reference loss in a child process;
  4. runs the workload, and with --trace 1 derives per-layer self time and
     coverage from the exported Perfetto trace;
  5. prints a report line (provenance, inputs, the workload's own metric
     names) and, last, the result line:
     {"correct", "attempted", "failed", "metrics"}.

It exits non-zero when the build, a correctness check or the run fails.
"""

import argparse
import bisect
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # every child process is killed by then (after the build)

WORKLOADS = ("pair_stream", "catalog_churn", "finetune")
# Per-layer metrics read from span durations: metric prefix -> span name.
SPAN_PERCENTILES = {
    "retrieval.topk_us": ("catalog.retrieve", (50, 99)),
    "catalog.rerank_us": ("catalog.rerank", (50,)),
}
LAYERS = ("bench", "net", "serve", "catalog", "retrieval", "core",
          "autograd", "tensor", "quant", "util")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def work_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(wd):
    bdir = wd / "build"
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return bdir / "perfbench"


def run_child(cmd, deadline, env=None):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("time budget exhausted")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=remaining, env=env)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    v = sorted(values)
    idx = q / 100.0 * (len(v) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (idx - lo)


def layer_of(name):
    if name.startswith("kernel.int8"):
        return "quant"
    head = name.split(".", 1)[0]
    return {"kernel": "tensor", "train": "core", "pool": "util"}.get(head, head)


def analyze_trace(path, window_cpu_s):
    """Per-layer self time, stage coverage and span percentiles."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    marks = {e["name"]: e["ts"] for e in events
             if e.get("ph") == "i" and e["name"].startswith("bench.window")}
    begin, end = marks["bench.window_begin"], marks["bench.window_end"]
    window_s = (end - begin) / 1e6
    threads = defaultdict(list)
    for e in events:
        if e.get("ph") == "X" and begin <= e["ts"] <= end:
            threads[(e["pid"], e["tid"])].append(e)

    # Nesting per thread: spans are RAII scopes, so a span's parent is the
    # innermost span of the same thread still open when it starts.
    nodes = []
    for spans in threads.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and stack[-1]["end"] <= e["ts"]:
                stack.pop()
            node = {"e": e, "end": e["ts"] + e["dur"], "child_us": 0.0,
                    "parent": stack[-1] if stack else None}
            if stack:
                stack[-1]["child_us"] += e["dur"]
            stack.append(node)
            nodes.append(node)

    # Thread-pool spans carry no layer of their own: pool.parallel_for
    # belongs to the span that called it, and a pool.task on a worker
    # thread to the parallel_for (on any thread) that was open around it.
    def caller_layer(node):
        while node is not None and node["e"]["name"].startswith("pool."):
            node = node["parent"]
        return layer_of(node["e"]["name"]) if node is not None else "util"

    fors = sorted((n for n in nodes if n["e"]["name"] == "pool.parallel_for"),
                  key=lambda n: n["e"]["ts"])
    for_starts = [n["e"]["ts"] for n in fors]

    def layer(node):
        if node["e"]["name"] == "pool.task" and node["parent"] is None:
            i = bisect.bisect_right(for_starts, node["e"]["ts"]) - 1
            for j in range(i, max(-1, i - 64), -1):
                if fors[j]["end"] >= node["end"]:
                    return caller_layer(fors[j])
            return "util"
        return caller_layer(node)

    # Coverage: every public call the benchmark makes into a layer is a
    # bench.* span; the share of their wall time spent inside named library
    # spans directly under them is the share attributed to named stages.
    self_us = defaultdict(float)
    durations = defaultdict(list)
    calls = defaultdict(lambda: [0.0, 0.0])  # bench span -> [wall, staged]
    for node in nodes:
        name, dur = node["e"]["name"], node["e"]["dur"]
        self_us[layer(node)] += max(0.0, dur - node["child_us"])
        durations[name].append(dur)
        if name.startswith("bench."):
            calls[name][0] += dur
            calls[name][1] += node["child_us"]
    call_us = sum(wall for wall, _ in calls.values())
    staged_us = sum(staged for _, staged in calls.values())

    metrics = {
        "trace.coverage": (staged_us / call_us if call_us > 0 else 0.0,
                           "frac"),
    }
    for name in LAYERS:
        metrics[f"trace.self_ms_per_s.{name}"] = (
            self_us[name] / 1e3 / window_s, "ms/s")
    for prefix, (span, qs) in SPAN_PERCENTILES.items():
        for q in qs:
            metrics[f"{prefix}_p{q}"] = (percentile(durations[span], q), "us")
    report = {
        "window_s": window_s,
        "window_cpu_s": window_cpu_s,
        "attributed_cpu_share": (sum(self_us.values()) / 1e6 / window_cpu_s
                                 if window_cpu_s else None),
        "coverage_by_call": {name: staged / wall if wall else None
                             for name, (wall, staged) in calls.items()},
        "spans": len(nodes),
    }
    return metrics, report


def source_sha256():
    """Digest of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return digest.hexdigest()


def provenance(source_sha):
    def sh(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    cpu_model, flags = None, set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu_model is None:
                cpu_model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {
        "git_sha": sh(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_sha,
        "cpu_model": cpu_model,
        "cores": os.cpu_count(),
        "isa": sorted(flags & {"avx2", "fma", "avx512f", "avx512bw",
                               "avx512_vnni", "avx_vnni"}),
        "emx_num_threads_env": os.environ.get("EMX_NUM_THREADS"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metric_map.json").read_text())
    wd = work_dir()
    wd.mkdir(parents=True, exist_ok=True)
    binary = build(wd)
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work-dir", str(wd)]

    # The self-test runs once per workload and source tree: a change to the
    # input generators gets a new digest and is tested again.
    source_sha = source_sha256()
    marker = wd / f"selftest_{args.workload}_{source_sha[:16]}.ok"
    if not marker.exists():
        rc, out = run_child([str(binary), *common, "--trace", "0",
                             "--self-test"], deadline)
        result = last_json(out)
        if rc != 0 or not result["correct"]:
            log(f"input self-test failed: {result['report']['check_failures']}")
            return 1
        marker.write_text("ok\n")

    extra = []
    if args.workload == "finetune":
        env = dict(os.environ, EMX_NUM_THREADS="1")
        rc, out = run_child([str(binary), *common, "--trace", "0",
                             "--reference-loss"], deadline, env=env)
        if rc != 0:
            log("1-thread reference run failed")
            return 1
        extra = ["--ref-loss", out.strip().splitlines()[-1]]

    rc, out = run_child([str(binary), *common, "--trace", str(args.trace),
                         *extra], deadline)
    result = last_json(out)
    report = result["report"]
    report["all_metrics"] = result["metrics"]
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}

    if args.trace:
        trace_metrics, trace_report = analyze_trace(
            report["trace_file"], report.get("window_cpu_s"))
        metrics.update(trace_metrics)
        report["trace"] = trace_report

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    final = {}
    for m in wanted:
        name = m["name"]
        if name not in metrics:
            owners = metric_map["per_layer"].get(name, {}).get("measured_on", [])
            if args.trace and args.workload not in owners:
                metrics[name] = (0.0, m["unit"])  # layer bypassed here
            else:
                log(f"metric {name} missing from the {args.workload} run")
                return 1
        value, unit = metrics[name]
        if value is None or unit != m["unit"]:
            log(f"metric {name}: bad value {value!r} or unit {unit!r}")
            return 1
        final[name] = {"value": value, "unit": unit}

    report["provenance"] = provenance(source_sha)
    print("perfbench report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]) and rc == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": final}), flush=True)
    return 0 if result["correct"] and rc == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            TimeoutError, ValueError, KeyError, OSError) as err:
        log(f"error: {err}")
        sys.exit(1)
