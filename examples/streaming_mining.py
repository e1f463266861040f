"""Streaming mining: first answers early, async fan-out over one engine.

Run with::

    python examples/streaming_mining.py
    python examples/streaming_mining.py --users 60 --first 5

Two demonstrations of the Request/Prepared/Stream API:

1. **Sync streaming with early stop** — ``engine.prepare(...)`` plans the
   metaquery once, ``prepared.stream()`` emits each answer the moment the
   engine confirms it, and breaking after ``k`` answers skips the rest of
   the instantiation space entirely (the classic ``find_rules`` call would
   have paid for all of it before showing anything).
2. **Async fan-out** — an :class:`~repro.core.aio.AsyncMetaqueryEngine`
   overlaps several metaqueries over one shared engine (one context, one
   batcher), streaming one of them while the others collect concurrently.

Both paths emit answers byte-identical to the blocking ``find_rules``
result — streaming changes *when* answers become visible, never what they
are (``perfbench/run.py`` reports the measured time-to-first-answer as
``ttfa_p50_ms``).
"""

from __future__ import annotations

import argparse
import asyncio
import time

from repro import AsyncMetaqueryEngine, MetaqueryEngine, Thresholds
from repro.workloads.telecom import scaled_telecom, transitivity_metaquery_text

ONE_PATTERN = "R(X,Y) <- P(Y,X)"


def sync_streaming_demo(db, metaquery: str, thresholds: Thresholds, first: int) -> None:
    """Stream type-2 answers and stop after the first ``first`` of them."""
    print(f"--- sync streaming (stop after {first} answers) ---")
    engine = MetaqueryEngine(db)

    start = time.perf_counter()
    prepared = engine.prepare(metaquery, thresholds, itype=2)
    print(f"prepared: algorithm={prepared.algorithm}, "
          f"classification={prepared.classification} "
          f"({time.perf_counter() - start:.4f}s)")

    shown = 0
    for answer in prepared.stream():
        print(f"  [{time.perf_counter() - start:.4f}s] {answer}")
        shown += 1
        if shown >= first:
            print(f"  ... stopped early after {shown} answers "
                  f"({time.perf_counter() - start:.4f}s total)")
            break

    # The same prepared metaquery collects the full set for comparison.
    start = time.perf_counter()
    full = prepared.collect()
    print(f"full collection: {len(full)} answers in {time.perf_counter() - start:.4f}s\n")


async def async_fanout_demo(db, metaqueries: list[str], thresholds: Thresholds) -> None:
    """Overlap several metaqueries over one shared engine."""
    print(f"--- async fan-out ({len(metaqueries)} concurrent metaqueries) ---")
    start = time.perf_counter()
    async with AsyncMetaqueryEngine(db, max_concurrency=4) as engine:
        # Kick off the collecting metaqueries...
        collectors = [
            asyncio.create_task(engine.find_rules(mq, thresholds, itype=1))
            for mq in metaqueries[1:]
        ]
        # ...while streaming the first one as its answers arrive.
        streamed = 0
        async for answer in engine.stream(metaqueries[0], thresholds, itype=1):
            streamed += 1
            if streamed <= 3:
                print(f"  [{time.perf_counter() - start:.4f}s] streamed: {answer}")
        collected = await asyncio.gather(*collectors)
    print(f"  streamed {streamed} answers from {metaqueries[0]!r}")
    for mq, answers in zip(metaqueries[1:], collected):
        print(f"  collected {len(answers)} answers from {mq!r}")
    print(f"  wall clock: {time.perf_counter() - start:.4f}s "
          f"(shared context/batcher, bounded concurrency)\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=30, help="telecom scale (default 30)")
    parser.add_argument("--first", type=int, default=3,
                        help="answers to take before stopping the sync stream (default 3)")
    args = parser.parse_args()

    db = scaled_telecom(users=args.users, carriers=6, technologies=5, noise=0.1, seed=1)
    metaquery = transitivity_metaquery_text()
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    print(f"Database {db.name}: {db.total_tuples()} tuples across {len(db)} relations")
    print(f"Metaquery: {metaquery}   thresholds: {thresholds}\n")

    sync_streaming_demo(db, metaquery, thresholds, args.first)
    asyncio.run(async_fanout_demo(db, [metaquery, ONE_PATTERN, metaquery], thresholds))

    # Byte-identity spot check: the streamed prefix is exactly the head of
    # the blocking result.
    engine = MetaqueryEngine(db)
    stream = engine.stream(metaquery, thresholds, itype=1)
    prefix = [next(stream) for _ in range(3)]
    stream.close()
    full = engine.find_rules(metaquery, thresholds, itype=1)
    assert [str(a.rule) for a in prefix] == [str(a.rule) for a in list(full)[:3]]
    print("byte-identity check passed: streamed prefix == head of find_rules result")


if __name__ == "__main__":
    main()
