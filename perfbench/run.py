#!/usr/bin/env python3
"""The repository benchmark: builds tswarp from source and runs a workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...           # every workload
    python3 perfbench/run.py --workload NAME --repeat 10  # steadiness mode
    python3 perfbench/run.py ... --trace 1 --spans FILE   # keep the spans

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the library sources from the checkout) into
.bench_build/; later calls rebuild incrementally. Every workload runs in
its own process. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. The line before it is the run stamp. Exits non-zero on any
correctness failure. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # Leave no __pycache__ beside the sources.
import trace_reader  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("stock-sstc", "ecg-disk", "serve-ingest")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and incrementally builds the runner."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("tswarp sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, spans_out=None):
    """Runs one workload in its own process; returns the runner's result
    with, for traced runs, the per-layer metrics under "layers"."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # The disk bundle lives in a fresh directory inside the checkout that
    # is removed on every exit path.
    work_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    proc = None
    try:
        spans = spans_out or os.path.join(work_dir, "spans.jsonl")
        cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", work_dir]
        if trace:
            cmd += ["--spans", spans]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True)
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{workload}: runner exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        if trace:
            result["layers"] = trace_reader.layer_metrics(trace_reader.load(spans))
        return result
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


def result_line(raw, spec, trace):
    """The benchmark's result object for one run of one workload."""
    metrics = {}
    source = raw["layers"] if trace else raw["metrics"]
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"{raw['workload']}: no value for {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def stamp(raw):
    """The run stamp. It also carries serve-ingest's append latencies: only
    that workload appends, and every result metric must exist on every
    workload."""
    return {"workload": raw["workload"], "seed": raw["seed"],
            "nproc": os.cpu_count(), **raw["stamp"], "samples": raw["samples"],
            **(raw["append"] if raw["samples"]["append"] else {})}


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")


def single(args, spec, workloads):
    lines = []
    for workload in workloads:
        raw = run_once(workload, args.seed, args.seconds, args.trace, args.spans)
        line = result_line(raw, spec, args.trace)
        print_table(f"{workload} (seed {args.seed}, trace {int(args.trace)})",
                    line["metrics"])
        print("stamp: " + json.dumps(stamp(raw), sort_keys=True))
        lines.append((workload, line))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {"correct": all(l["correct"] for _, l in lines),
                 "attempted": sum(l["attempted"] for _, l in lines),
                 "failed": sum(l["failed"] for _, l in lines),
                 "metrics": {f"{w}/{k}": v for w, l in lines
                             for k, v in l["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


def steadiness(args, spec, workloads):
    """Runs each workload --repeat times on consecutive seeds and prints,
    per end-to-end metric, the median, quartiles and (q3 - q1) / median,
    flagging spreads above the metric's bound."""
    summary = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.repeat):
            raw = run_once(workload, args.seed + i, args.seconds, False)
            ok = ok and raw["failed"] == 0
            for name in values:
                values[name].append(raw["metrics"][name])
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        summary[workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] else "  OVER BOUND"
            print(f"  {m['name']:28s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.3f} {m['bound']:6.2f}{flag}")
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": v}
    print(json.dumps(summary), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--spans", default=None,
                        help="traced run: also keep the span file here")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the run directory and the
    # runner process are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.spans is not None:
            args.spans = os.path.abspath(args.spans)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        build()
        if args.repeat:
            return steadiness(args, spec, workloads)
        return single(args, spec, workloads)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
