#!/usr/bin/env python3
"""Recognize every bundled presentation and print the verdicts with level
counts, as a quick health check of the condensation pipeline.  A verdict
that differs from the presentation's `expected_cnf` / `expected_failure`
is reported on stderr, and the exit status is then 1."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wob import corpus, ordinals as o, recognition as rec

FAILURES = {"bad-class": rec.BadCondensationClass, "dense": rec.DenseFixpoint}


def agrees(p: corpus.Presentation, got) -> bool:
    if p.expected_cnf is not None:
        return isinstance(got, rec.WellOrder) and got.cnf == p.expected_cnf
    return isinstance(got, rec.NotWellOrder) and isinstance(got.evidence, FAILURES[p.expected_failure])


def main() -> int:
    mismatches = 0
    for p in corpus.well_order_corpus() + corpus.non_well_order_corpus():
        t0 = time.monotonic()
        levels, got = rec.condense(rec.OrderPresentation(p.structure))
        dt = time.monotonic() - t0
        if isinstance(got, rec.WellOrder):
            verdict = f"well-order {o.show(got.cnf)}"
        elif isinstance(got, rec.NotWellOrder):
            verdict = f"not-well-order {got.evidence}"
        else:
            verdict = f"budget-exceeded level={got.level}"
        print(f"{p.name:16s} {verdict:40s} levels={len(levels)} {dt:5.2f}s")
        if not agrees(p, got):
            mismatches += 1
            want = o.show(p.expected_cnf) if p.expected_cnf is not None else p.expected_failure
            print(f"mismatch: {p.name}: expected {want}, got {verdict}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
