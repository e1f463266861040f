"""Property tests for shard-merge determinism.

The sharding layer's contract is stronger than "same answer set": for any
database, metaquery and instantiation type, ``workers ∈ {1, 2, 4}`` must
produce **byte-identical** answer tables — same rules (type-2 ``_T2_*``
padding names included), same order, same exact fraction values — for
both engines, including when one pool is reused across consecutive
``find_rules`` calls, and the pool must shut down cleanly when the mining
body raises.

Worker counts deliberately exceed this CI container's core count:
correctness (determinism, colocation, merge order) must not depend on
actual hardware parallelism.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.metaquery import parse_metaquery
from repro.core.naive import naive_find_rules
from repro.datalog.sharding import ShardedEvaluator
from repro.relational.database import Database
from repro.relational.relation import Relation

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
ONE_PATTERN = parse_metaquery("R(X,Y) <- P(Y,X)")

WORKER_COUNTS = (1, 2, 4)


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
    return Database(relations, name="hyp-shard-db")


def exact_table(answers):
    """The byte-identity key: rule text (padding names included) + exact indices."""
    return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]


def engine_table(db, thresholds, itype, algorithm, workers):
    """The byte-identity key of one mining call on a ``workers``-worker engine."""
    with MetaqueryEngine(db, workers=workers) as engine:
        return exact_table(engine.find_rules(TRANSITIVITY, thresholds, itype, algorithm))


@settings(max_examples=10, deadline=None)
@given(db=mixed_arity_databases(), itype=st.sampled_from([0, 1, 2]))
def test_naive_sharding_is_byte_identical_across_worker_counts(db, itype):
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    tables = [
        engine_table(db, thresholds, itype, "naive", workers) for workers in WORKER_COUNTS
    ]
    assert tables[0] == tables[1] == tables[2]


@settings(max_examples=10, deadline=None)
@given(db=mixed_arity_databases(), itype=st.sampled_from([0, 1, 2]))
def test_findrules_sharding_is_byte_identical_across_worker_counts(db, itype):
    thresholds = Thresholds(support=0.1, confidence=0.1, cover=0.0)
    tables = [
        engine_table(db, thresholds, itype, "findrules", workers) for workers in WORKER_COUNTS
    ]
    assert tables[0] == tables[1] == tables[2]


@settings(max_examples=8, deadline=None)
@given(db=mixed_arity_databases(), itype=st.sampled_from([1, 2]))
def test_pool_reuse_across_consecutive_find_rules_calls(db, itype):
    """One engine pool, several metaqueries: every call matches its serial twin."""
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    serial = MetaqueryEngine(db)
    with MetaqueryEngine(db, workers=2) as engine:
        for mq in (TRANSITIVITY, ONE_PATTERN, TRANSITIVITY):
            assert exact_table(engine.find_rules(mq, thresholds, itype=itype)) == exact_table(
                serial.find_rules(mq, thresholds, itype=itype)
            )
        assert engine.sharder.stats.pool_starts <= 1  # 0 if nothing dispatched
    assert engine.sharder.closed


@settings(max_examples=5, deadline=None)
@given(db=mixed_arity_databases())
def test_pool_shuts_down_cleanly_when_mining_raises(db):
    """An exception mid-mining must release the pool, not leak workers."""
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    with pytest.raises(RuntimeError):
        with ShardedEvaluator(db, workers=2) as sharder:
            naive_find_rules(db, TRANSITIVITY, thresholds, 1, sharder=sharder)
            raise RuntimeError("downstream consumer crashed")
    assert sharder.closed
    assert sharder._pool is None
    # ...and the same database still evaluates serially afterwards.
    naive_find_rules(db, TRANSITIVITY, thresholds, 1)
