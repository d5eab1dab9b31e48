#!/usr/bin/env python3
"""Vectorized-evaluator perf gate.

The vectorized interpreter (src/expr/evaluator.cc) is the engine's one
filter evaluator; the scalar evaluator (EvalPredicateMask over EvalScalar)
stays only as its correctness oracle. The interpreter has to earn that
place: on the filter shapes of bench_headline's scan_filter (BETWEEN) and
arith_filter (an arithmetic compare) classes it must take at most half the
scalar oracle's time per row. A shape that silently drops to the per-row
fallback runs at scalar speed and fails here.

Reads the "evaluators" section of a bench_headline JSON dump: both
evaluators timed in one process over the same probe_random partitions,
best of several alternating passes each.

Usage: check_eval_gain.py BENCH_HEADLINE.json
"""

import json
import sys

GATED_CLASSES = ("scan_filter", "arith_filter")
MAX_RATIO = 0.5


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        data = json.load(f)
    points = {p["class"]: p for p in data.get("evaluators", [])}

    failed = False
    for cls in GATED_CLASSES:
        point = points.get(cls)
        if point is None:
            print(f"{cls:<14} missing from 'evaluators'  <-- FAIL")
            failed = True
            continue
        vectorized = float(point["vectorized_ns_per_row"])
        scalar = float(point["scalar_ns_per_row"])
        if scalar <= 0:
            print(f"{cls:<14} scalar ns/row is {scalar}  <-- FAIL")
            failed = True
            continue
        ratio = vectorized / scalar
        verdict = ""
        if ratio > MAX_RATIO:
            verdict = "  <-- FAIL"
            failed = True
        print(f"{cls:<14} vectorized {vectorized:8.2f} ns/row   "
              f"scalar {scalar:8.2f} ns/row   ratio {ratio:5.3f}{verdict}")

    if failed:
        print(f"\nFAIL: the vectorized interpreter must take <= "
              f"{MAX_RATIO} x the scalar oracle's ns/row on every gated "
              "class")
        return 1
    print(f"\nOK: vectorized <= {MAX_RATIO} x scalar on "
          f"{', '.join(GATED_CLASSES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
