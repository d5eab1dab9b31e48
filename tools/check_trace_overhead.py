#!/usr/bin/env python3
"""Tracing-overhead regression gate.

Compares bench_headline JSON dumps in pairs — each a plain run and a run
with --trace-sample=1 (every rep traced), taken back to back — on their
scanned-row-weighted mean ns/row, and fails if the lower quartile of the
traced runs is slower than the lower quartile of the plain runs by more
than the threshold.

The per-query instrumentation is designed to be a pointer test away from
free when tracing is off and cheap when on (per-operator wrappers time one
Next call per *batch*, not per row), so a large gap here means a hot-path
regression. A single --smoke pair runs for well under a second, so one pair
mostly measures the host's noise; pairs taken alternately share the host's
state, and the lower quartiles over several of them (CI takes nine) are
what the gate compares. A smoke process lands in a fast or a slow mode
(about 50 vs 70-80 ns/row on a 4-core EPYC host), so a per-pair ratio swings
by tens of percent whenever the two runs of a pair land in different modes.
The median of a side moved whenever five of its nine runs were slow; its
lower quartile moves only when seven are, while a hot-path regression
shifts every run of the traced side, its fast ones included.

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


def lower_quartile(values):
    """The first quartile, interpolated between the sorted values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


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
    plain_q1 = lower_quartile(plains)
    traced_q1 = lower_quartile(traceds)
    overhead = (traced_q1 - plain_q1) / plain_q1
    print(f"overhead: lower-quartile traced {traced_q1:.2f} vs lower-quartile "
          f"plain {plain_q1:.2f} ns/row = {100.0 * overhead:+.1f}% over "
          f"{len(plains)} pair(s) (threshold +{100.0 * threshold:.0f}%)")
    if overhead > threshold:
        print("FAIL: tracing overhead exceeds threshold — the traced hot "
              "path regressed")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
