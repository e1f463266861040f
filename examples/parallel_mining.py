"""Parallel mining: shard the telecom workload across a worker pool.

Run with::

    python examples/parallel_mining.py                # 4 workers (the default)
    python examples/parallel_mining.py --workers 8
    python examples/parallel_mining.py --users 60     # bigger database

The script mines a scaled version of the paper's telecom database
(Figure 1) with the transitivity metaquery under type-2 instantiations —
the workload with the most shape groups, hence the most work to
distribute — first serially, then with a ``--workers N``
:class:`~repro.core.engine.MetaqueryEngine`.  It prints both timings and
**asserts the two answer sets are byte-identical** (same rules, same
order, same exact fractions): sharding is a pure performance knob.

A genuine speedup needs hardware parallelism — the script prints the
host's CPU count next to the timings; on a single-CPU machine the sharded
run measures dispatch overhead instead.
"""

from __future__ import annotations

import argparse
import os
import time

from repro import MetaqueryEngine, Thresholds
from repro.workloads.telecom import scaled_telecom, transitivity_metaquery_text


def mine(engine: MetaqueryEngine, metaquery: str, thresholds: Thresholds):
    """One timed find_rules call; returns (seconds, answers)."""
    start = time.perf_counter()
    answers = engine.find_rules(metaquery, thresholds, itype=2)
    return time.perf_counter() - start, answers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4, help="worker processes (default 4)")
    parser.add_argument("--users", type=int, default=45, help="telecom database scale (default 45)")
    args = parser.parse_args()

    db = scaled_telecom(users=args.users, carriers=6, technologies=5, noise=0.1, seed=1)
    metaquery = transitivity_metaquery_text()
    thresholds = Thresholds(support=0.2, confidence=0.3, cover=0.1)
    print(f"Database {db.name}: {db.total_tuples()} tuples across {len(db)} relations")
    print(f"Metaquery: {metaquery}   thresholds: {thresholds}   type-2")
    print(f"Host CPUs: {os.cpu_count()}")
    print()

    serial_engine = MetaqueryEngine(db)
    serial_seconds, serial_answers = mine(serial_engine, metaquery, thresholds)
    print(f"serial   (workers=1):           {serial_seconds:.4f}s   {len(serial_answers)} answers")

    with MetaqueryEngine(db, workers=args.workers) as engine:
        if engine.sharder is not None:  # --workers 1 builds no pool at all
            engine.sharder.warm_up()  # exclude one-time pool start from the timing
        sharded_seconds, sharded_answers = mine(engine, metaquery, thresholds)
    print(f"sharded  (workers={args.workers}):           {sharded_seconds:.4f}s   {len(sharded_answers)} answers")

    def keys(answers):
        return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]

    assert keys(serial_answers) == keys(sharded_answers), "sharded answers drifted!"
    print()
    print(f"answer sets byte-identical: True   speedup: {serial_seconds / sharded_seconds:.2f}x")
    print()
    print(serial_answers.sorted_by("cnf").to_table(max_rows=8))


if __name__ == "__main__":
    main()
