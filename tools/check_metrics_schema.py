#!/usr/bin/env python3
"""Schema check for the MetricsRegistry snapshot embedded in bench JSON.

Reads a bench_service --json dump, extracts its "metrics" object (the
verbatim MetricsRegistry::SnapshotJson() output), and verifies:

  * the three sections exist with the right value shapes
    (counters/gauges: name -> number; histograms: name -> object),
  * every histogram has count/sum/buckets, bucket bounds strictly ascend
    and end with "+Inf", and the (non-cumulative) bucket counts sum to the
    histogram's count,
  * the instrument names the engine registers are all present — a missing
    name means someone's wiring silently stopped firing.

Usage: check_metrics_schema.py BENCH_SERVICE.json
"""

import json
import sys

REQUIRED_COUNTERS = [
    "pool.tasks",
    "predcache.hits",
    "predcache.misses",
    "predcache.coalesced_waits",
    "predcache.partitions_skipped",
    "service.submitted",
    "service.rejected",
    "service.completed",
    "service.ok",
    "service.failed",
    "service.cancelled",
    "service.deadline_exceeded",
    "service.shed_expired",
    "shard.queries_sharded",
    "shard.scatter_fanout",
    "shard.shards_pruned",
    "shard.retries",
    "shard.retry_exhausted",
    "failpoint.trips",
]
REQUIRED_GAUGES = [
    "pool.queue_depth",
    "pipeline.stage_tasks",
]
REQUIRED_HISTOGRAMS = [
    "pool.task_queue_us",
    "service.queue_ms",
    "service.exec_ms",
]


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_histogram(name, hist):
    for key in ("count", "sum", "buckets"):
        if key not in hist:
            fail(f"histogram {name}: missing '{key}'")
    buckets = hist["buckets"]
    if not isinstance(buckets, list) or not buckets:
        fail(f"histogram {name}: 'buckets' must be a non-empty array")
    prev_le = None
    total = 0
    for i, bucket in enumerate(buckets):
        le = bucket.get("le")
        count = bucket.get("count")
        if not isinstance(count, int) or count < 0:
            fail(f"histogram {name} bucket {i}: bad count {count!r}")
        total += count
        last = i == len(buckets) - 1
        if last:
            if le != "+Inf":
                fail(f"histogram {name}: final bucket le={le!r}, want '+Inf'")
        else:
            if not isinstance(le, (int, float)):
                fail(f"histogram {name} bucket {i}: le={le!r} is not a number")
            if prev_le is not None and le <= prev_le:
                fail(f"histogram {name}: bucket bounds not strictly "
                     f"ascending at index {i} ({prev_le} -> {le})")
            prev_le = le
    if total != hist["count"]:
        fail(f"histogram {name}: bucket counts sum to {total}, "
             f"count says {hist['count']}")


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        data = json.load(f)
    metrics = data.get("metrics")
    if metrics is None:
        fail(f"{argv[1]}: no 'metrics' key — bench_service not run "
             "with --json?")

    for section in ("counters", "gauges", "histograms"):
        if section not in metrics:
            fail(f"metrics snapshot missing section '{section}'")

    for section, required in (("counters", REQUIRED_COUNTERS),
                              ("gauges", REQUIRED_GAUGES)):
        values = metrics[section]
        for name, value in values.items():
            if not isinstance(value, (int, float)):
                fail(f"{section}[{name}] = {value!r} is not a number")
        for name in required:
            if name not in values:
                fail(f"{section}: required instrument '{name}' absent")

    histograms = metrics["histograms"]
    for name, hist in histograms.items():
        if not isinstance(hist, dict):
            fail(f"histograms[{name}] is not an object")
        check_histogram(name, hist)
    for name in REQUIRED_HISTOGRAMS:
        if name not in histograms:
            fail(f"histograms: required instrument '{name}' absent")

    print(f"OK: {len(metrics['counters'])} counters, "
          f"{len(metrics['gauges'])} gauges, "
          f"{len(histograms)} histograms, all shapes valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
