#!/usr/bin/env python3
"""Tracing-overhead regression gate.

Compares bench_headline JSON dumps in pairs — each a plain run and a run
with --trace-sample=1 (every rep traced), taken back to back — on their
scanned-row-weighted mean ns/row, and fails if the median traced run is
slower than the median plain run by more than the threshold.

The per-query instrumentation is designed to be a pointer test away from
free when tracing is off and cheap when on (per-operator wrappers time one
Next call per *batch*, not per row), so a large gap here means a hot-path
regression. A single --smoke pair runs for well under a second, so one pair
mostly measures the host's noise; pairs taken alternately share the host's
state, and the medians over several of them (CI takes nine) are what the
gate compares. A smoke process lands in a fast or a slow mode (about 50 vs
70-80 ns/row on a 4-core EPYC host), so a per-pair ratio swings by tens of
percent whenever the two runs of a pair land in different modes; the median
of each side is moved only when most runs of that side are slow.

Usage: check_trace_overhead.py PLAIN.json TRACED.json
           [PLAIN2.json TRACED2.json ...] [--threshold=0.05]
"""

import json
import statistics
import sys


def weighted_ns_per_row(path):
    """Scanned-row-weighted mean ns/row over the serial class sweep."""
    with open(path) as f:
        data = json.load(f)
    classes = data.get("classes")
    if not classes:
        raise SystemExit(f"{path}: no 'classes' section — wrong bench JSON?")
    total_ns = 0.0
    total_rows = 0
    for point in classes:
        rows = int(point["scanned_rows"])
        total_ns += float(point["ns_per_row"]) * rows
        total_rows += rows
    if total_rows == 0:
        raise SystemExit(f"{path}: zero scanned rows across all classes")
    return total_ns / total_rows


def main(argv):
    threshold = 0.05
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if not paths or len(paths) % 2 != 0:
        raise SystemExit(__doc__)

    plains = []
    traceds = []
    for plain_path, traced_path in zip(paths[0::2], paths[1::2]):
        plain = weighted_ns_per_row(plain_path)
        traced = weighted_ns_per_row(traced_path)
        plains.append(plain)
        traceds.append(traced)
        print(f"plain {plain:8.2f} ns/row ({plain_path}), traced "
              f"{traced:8.2f} ns/row ({traced_path})")
    plain_median = statistics.median(plains)
    traced_median = statistics.median(traceds)
    overhead = (traced_median - plain_median) / plain_median
    print(f"overhead: median traced {traced_median:.2f} vs median plain "
          f"{plain_median:.2f} ns/row = {100.0 * overhead:+.1f}% over "
          f"{len(plains)} pair(s) (threshold +{100.0 * threshold:.0f}%)")
    if overhead > threshold:
        print("FAIL: tracing overhead exceeds threshold — the traced hot "
              "path regressed")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
