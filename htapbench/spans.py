#!/usr/bin/env python3
"""Summarises the span dump of a traced benchmark run.

    python3 htapbench/spans.py [.bench_build/run/spans-<workload>.csv]

A traced run (`run.py ... --trace 1`) writes one CSV per workload: a
header line "# {metrics json}" followed by one span per line
(id, parent, req, name, start_ns, end_ns, tag). Spans sit around the
benchmark's own calls into the engine; a span's parent is the span that
contains it, and spans of one served request share `req`.

Prints, per span name and per layer (the name's prefix before the first
dot), the number of spans, their total time and their self time: a
span's duration minus the part of it that its child spans cover. Then
prints the header's metrics that BENCHMARK.json lists as per_layer.
"""

import argparse
import csv
import glob
import json
import os
import sys
from collections import defaultdict


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi)."""
    total, end = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def load(path):
    with open(path) as f:
        header = f.readline()
        if not header.startswith("# "):
            sys.exit(f"{path}: not a span dump (missing '# {{metrics}}' line)")
        metrics = json.loads(header[2:])
        spans = list(csv.DictReader(f))
    return metrics, spans


def self_times(spans):
    """Returns {name: [count, total_ns, self_ns]}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] != "0":
            children[s["parent"]].append((int(s["start_ns"]), int(s["end_ns"])))
    by_name = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        lo, hi = int(s["start_ns"]), int(s["end_ns"])
        row = by_name[s["name"]]
        row[0] += 1
        row[1] += hi - lo
        row[2] += hi - lo - covered(children.get(s["id"], ()), lo, hi)
    return by_name


def per_layer_names():
    """The per_layer metric names of BENCHMARK.json, None if unreadable."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    try:
        with open(path) as f:
            return [m["name"] for m in json.load(f)["per_layer"]]
    except (OSError, ValueError, KeyError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dump", nargs="*",
                   help="span dumps (default: .bench_build/run/spans-*.csv)")
    args = p.parse_args()
    paths = args.dump or sorted(glob.glob(
        os.path.join(".bench_build", "run", "spans-*.csv")))
    if not paths:
        sys.exit("no span dump found; run run.py with --trace 1 first")
    for path in paths:
        metrics, spans = load(path)
        by_name = self_times(spans)
        by_layer = defaultdict(lambda: [0, 0, 0])
        for name, row in by_name.items():
            layer = by_layer[name.split(".")[0]]
            for i in range(3):
                layer[i] += row[i]
        print(f"== {path}: {len(spans)} spans")
        print(f"{'span':28s} {'count':>9s} {'total ms':>12s} {'self ms':>12s}")
        for name, (n, tot, own) in sorted(by_name.items()):
            print(f"{name:28s} {n:9d} {tot / 1e6:12.2f} {own / 1e6:12.2f}")
        print(f"\n{'layer':28s} {'count':>9s} {'total ms':>12s} {'self ms':>12s}")
        for name, (n, tot, own) in sorted(by_layer.items(),
                                          key=lambda kv: -kv[1][2]):
            print(f"{name:28s} {n:9d} {tot / 1e6:12.2f} {own / 1e6:12.2f}")
        print(f"\n{'per-layer metric':32s} {'value':>14s}")
        for name in per_layer_names() or list(metrics):
            if name in metrics:
                m = metrics[name]
                print(f"{name:32s} {m['value']:14.4f} {m['unit']}")
        print()


if __name__ == "__main__":
    main()
