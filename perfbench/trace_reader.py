#!/usr/bin/env python3
"""Reads the span file of a traced benchmark run.

Turns the spans that perfbench_runner records around every call into a
layer (see trace.h) into the named per-layer metrics of BENCHMARK.json,
each layer's self time, and the tracing overhead.

    python3 perfbench/trace_reader.py SPANS.jsonl

A layer's self time is its spans' time minus the time of their child
spans. Children are either nested calls or, for the steps Index::Build
runs internally, direct re-invocations of those steps on the same inputs
that name the build span as their parent; either way the child's time is
charged to the child's layer and not to the parent's.
"""

import json
import statistics
import sys

# Layers with spans in the set-up phase and in the timed passes.
SETUP_LAYERS = ("categorize", "suffixtree", "storage", "core", "tiered", "server")
OP_LAYERS = ("core", "server")


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _dur_us(span):
    return span["end_us"] - span["start_us"]


def self_times_us(spans):
    """Self time of every span, indexed like `spans`."""
    child_us = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_us[span["parent"]] += _dur_us(span)
    return [max(0.0, _dur_us(s) - c) for s, c in zip(spans, child_us)]


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _named(spans, name, phases=None):
    return [s for s in spans
            if s["name"] == name and (phases is None or s["phase"] in phases)]


def _event(spans, name, key):
    events = _named(spans, name)
    return events[-1]["counters"].get(key, 0.0) if events else 0.0


def _sum(spans, key):
    return sum(s["counters"].get(key, 0.0) for s in spans)


def _paired_median_ms(spans, first, second, phase):
    """Median over op ids of dur(first) - dur(second), in ms."""
    a = {s["op"]: _dur_us(s) for s in _named(spans, first, (phase,))}
    b = {s["op"]: _dur_us(s) for s in _named(spans, second, (phase,))}
    return _median([(a[op] - b[op]) / 1e3 for op in a if op in b])


def layer_metrics(spans):
    """Every per-layer metric the spans support; a layer that the workload
    bypasses reads 0."""
    m = {}
    med_ms = lambda name: _median([_dur_us(s) / 1e3 for s in _named(spans, name)])
    m["categorize.build_ms"] = med_ms("categorize.build")
    m["suffixtree.build_ms"] = med_ms("suffixtree.build")
    m["suffixtree.disk_build_ms"] = med_ms("suffixtree.disk_build")
    m["suffixtree.summaries_ms"] = med_ms("suffixtree.summaries")
    m["suffixtree.nodes"] = _event(spans, "suffixtree.shape", "nodes")
    m["suffixtree.occurrences"] = _event(spans, "suffixtree.shape", "occurrences")
    m["storage.open_ms"] = med_ms("storage.open")
    for key in ("mapped_mb", "resident_mb", "pool_misses"):
        m["storage." + key] = _event(spans, "storage.stats", key)

    # Per-op counts are means over the traced passes. Every pass runs the
    # whole op list and the counts of one search are deterministic, so they
    # repeat exactly for a seed. Workloads whose searches go through the
    # server count the direct searches of the diagnostic phase.
    counted = (_named(spans, "core.search", ("ops",))
               or _named(spans, "core.search", ("diag",)))
    n = len(counted)
    for key in ("nodes_visited", "rows_pushed", "candidates",
                "exact_dtw_calls", "answers"):
        m["core." + key] = _ratio(_sum(counted, key), n)
    m["core.sharing_ratio"] = _ratio(_sum(counted, "unshared_rows"),
                                     _sum(counted, "rows_pushed"))
    m["core.summary_prune_ratio"] = _ratio(
        _sum(counted, "nodes_pruned_by_summary"),
        _sum(counted, "summary_lb_invocations"))
    m["core.lb_prune_ratio"] = _ratio(_sum(counted, "lb_pruned"),
                                      _sum(counted, "lb_invocations"))
    m["core.verify_yield"] = _ratio(_sum(counted, "answers"),
                                    _sum(counted, "exact_dtw_calls"))

    timed = _named(spans, "core.search", ("ops", "diag"))
    m["core.search_ms"] = _median([_dur_us(s) / 1e3 for s in timed])
    m["core.screen_net_ms"] = _paired_median_ms(
        spans, "core.search_screen_on", "core.search_screen_off", "diag")
    m["dtw.cells_per_us"] = _ratio(_sum(timed, "cells_computed"),
                                   sum(_dur_us(s) for s in timed))

    m["tiered.merges_completed"] = _event(spans, "tiered.stats", "merges_completed")
    m["tiered.drain_ms"] = _median(
        [_dur_us(s) / 1e3 for s in _named(spans, "tiered.drain", ("gate",))])
    served = _named(spans, "server.search", ("ops",))
    m["tiered.tiers_per_search"] = _ratio(_sum(served, "tiers"), len(served))

    m["server.search_overhead_ms"] = _paired_median_ms(
        spans, "server.search_roundtrip", "core.search", "diag")
    m["server.response_bytes"] = _median(
        [s["counters"].get("response_bytes", 0.0) for s in served])
    m["server.json_parse_us"] = _median(
        [_dur_us(s) for s in _named(spans, "server.json_parse", ("ops",))])
    m["server.queue_high_water"] = _event(spans, "server.stats", "queue_high_water")
    m["server.rejected"] = _event(spans, "server.stats", "rejected")
    m["trace.overhead_ratio"] = _event(spans, "trace.overhead", "ratio")

    m.update(self_time_metrics(spans))
    return m


def self_time_metrics(spans):
    """<layer>.setup_self_ms per set-up and <layer>.op_self_ms per traced op."""
    self_us = self_times_us(spans)
    setups = len([s for s in spans if s["phase"] == "setup" and s["name"] in
                  ("core.index_build", "core.tiered_create")])
    ops = len([s for s in spans if s["phase"] == "ops" and s["parent"] < 0])
    totals = {}
    for span, us in zip(spans, self_us):
        key = (span["phase"], span["name"].split(".")[0])
        totals[key] = totals.get(key, 0.0) + us
    m = {}
    for layer in SETUP_LAYERS:
        m[layer + ".setup_self_ms"] = _ratio(totals.get(("setup", layer), 0.0), setups) / 1e3
    for layer in OP_LAYERS:
        m[layer + ".op_self_ms"] = _ratio(totals.get(("ops", layer), 0.0), ops) / 1e3
    return m


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name, value in sorted(layer_metrics(load(argv[1])).items()):
        print(f"{name:32s} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
