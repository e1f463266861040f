"""Differential property tests for the streaming request pipeline.

The acceptance contract of the Request/Prepared/Stream redesign: for any
database, metaquery, instantiation type and worker count,
``list(prepared.stream())`` is **byte-identical** — same rules (type-2
``_T2_*`` padding names included), same order, same exact fractions — to
the materialized ``find_rules`` path, for both engines; and the async
facade matches the sync one answer for answer.

Worker counts deliberately exceed this CI container's core count:
correctness (reorder-buffer merge, early emission) must not depend on
actual hardware parallelism.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aio import AsyncMetaqueryEngine
from repro.core.answers import Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.metaquery import parse_metaquery
from repro.relational.database import Database
from repro.relational.relation import Relation

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
ONE_PATTERN = parse_metaquery("R(X,Y) <- P(Y,X)")

WORKER_COUNTS = (1, 2)


@st.composite
def mixed_arity_databases(draw):
    """Random databases with two binary and one ternary relation.

    The ternary relation makes type-2 instantiations of binary patterns
    introduce padding variables, exercising the padding-name half of the
    byte-identity contract.
    """
    domain = st.integers(min_value=0, max_value=draw(st.integers(min_value=1, max_value=2)))
    relations = []
    for i in range(2):
        rows = draw(st.frozensets(st.tuples(domain, domain), min_size=0, max_size=5))
        relations.append(Relation.from_rows(f"r{i}", ("a", "b"), rows))
    ternary = draw(st.frozensets(st.tuples(domain, domain, domain), min_size=0, max_size=4))
    relations.append(Relation.from_rows("t", ("a", "b", "c"), ternary))
    return Database(relations, name="hyp-stream-db")


def exact_table(answers):
    """The byte-identity key: rule text (padding names included) + exact indices."""
    return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]


@settings(max_examples=10, deadline=None)
@given(
    db=mixed_arity_databases(),
    itype=st.sampled_from([0, 1, 2]),
    algorithm=st.sampled_from(["naive", "findrules"]),
)
def test_stream_is_byte_identical_to_find_rules(db, itype, algorithm):
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    for workers in WORKER_COUNTS:
        with MetaqueryEngine(db, workers=workers) as engine:
            prepared = engine.prepare(
                TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm
            )
            streamed = exact_table(prepared.stream())
            materialized = exact_table(
                engine.find_rules(TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm)
            )
        assert streamed == materialized


@settings(max_examples=10, deadline=None)
@given(db=mixed_arity_databases(), itype=st.sampled_from([0, 1, 2]))
def test_streamed_prefix_matches_materialized_prefix(db, itype):
    """Early-stopped streams see exactly the first k materialized answers."""
    engine = MetaqueryEngine(db)
    full = exact_table(engine.find_rules(TRANSITIVITY, itype=itype))
    prefix = []
    stream = engine.stream(TRANSITIVITY, itype=itype)
    for answer in stream:
        prefix.append(answer)
        if len(prefix) == 3:
            break
    stream.close()
    assert exact_table(prefix) == full[: len(prefix)]


@settings(max_examples=6, deadline=None)
@given(db=mixed_arity_databases(), itype=st.sampled_from([0, 1, 2]))
def test_async_facade_matches_sync(db, itype):
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    sync = exact_table(MetaqueryEngine(db).find_rules(TRANSITIVITY, thresholds, itype=itype))

    async def main():
        async with AsyncMetaqueryEngine(db) as engine:
            collected = await engine.find_rules(TRANSITIVITY, thresholds, itype=itype)
            streamed = [a async for a in engine.stream(TRANSITIVITY, thresholds, itype=itype)]
            return exact_table(collected), exact_table(streamed)

    collected, streamed = asyncio.run(main())
    assert collected == sync
    assert streamed == sync


@settings(max_examples=5, deadline=None)
@given(db=mixed_arity_databases())
def test_async_fan_out_matches_serial_twins(db):
    """Concurrent metaqueries over one shared async engine each match the
    answers a fresh serial engine produces for the same request."""
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    serial = MetaqueryEngine(db)
    references = [
        exact_table(serial.find_rules(mq, thresholds, itype=itype))
        for mq in (TRANSITIVITY, ONE_PATTERN)
        for itype in (1, 2)
    ]

    async def main():
        async with AsyncMetaqueryEngine(db, max_concurrency=4) as engine:
            results = await asyncio.gather(*(
                engine.find_rules(mq, thresholds, itype=itype)
                for mq in (TRANSITIVITY, ONE_PATTERN)
                for itype in (1, 2)
            ))
            return [exact_table(r) for r in results]

    assert asyncio.run(main()) == references
