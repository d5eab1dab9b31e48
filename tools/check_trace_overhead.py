#!/usr/bin/env python3
"""Tracing-overhead regression gate.

Compares bench_headline JSON dumps in pairs — each a plain run and a run
with --trace-sample=1 (every rep traced), taken back to back — and fails if
the median of the per-pair overheads of the traced run's scanned-row-
weighted mean ns/row exceeds the threshold.

The per-query instrumentation is designed to be a pointer test away from
free when tracing is off and cheap when on (per-operator wrappers time one
Next call per *batch*, not per row), so a large gap here means a hot-path
regression. A single --smoke pair runs for well under a second, so one pair
mostly measures the host's noise; pairs taken alternately share the host's
state, and the median over several of them (CI takes nine) is what the
gate compares.

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

    overheads = []
    for plain_path, traced_path in zip(paths[0::2], paths[1::2]):
        plain = weighted_ns_per_row(plain_path)
        traced = weighted_ns_per_row(traced_path)
        overhead = (traced - plain) / plain
        overheads.append(overhead)
        print(f"plain {plain:8.2f} ns/row ({plain_path}), traced "
              f"{traced:8.2f} ns/row ({traced_path}): {100.0 * overhead:+.1f}%")
    median = statistics.median(overheads)
    print(f"overhead: median {100.0 * median:+.1f}% over {len(overheads)} "
          f"pair(s) (threshold +{100.0 * threshold:.0f}%)")
    if median > threshold:
        print("FAIL: tracing overhead exceeds threshold — the traced hot "
              "path regressed")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
