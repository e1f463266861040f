"""Unit tests for the shape-group sharding layer (`repro.datalog.sharding`).

The contract under test: sharding is observationally invisible — for any
worker count the merged answers are byte-identical to the serial path's —
and the pool lifecycle is explicit (lazy start, reuse across calls,
idempotent close, clean shutdown on exceptions, `workers=1` never spawns).
"""

from __future__ import annotations

import multiprocessing
import weakref
from fractions import Fraction

import pytest

from repro.core.answers import Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.findrules import find_rules
from repro.core.indices import PlausibilityIndex
from repro.core.metaquery import parse_metaquery
from repro.core.naive import naive_decide, naive_find_rules, naive_witness
from repro.datalog.sharding import (
    ShardedEvaluator,
    assign_shards,
    partition,
    usable_sharder,
    worker_state,
)
from repro.exceptions import ShardingError
from repro.tools import sanitizer
from repro.workloads.telecom import db1, scaled_telecom

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")


def exact_keys(answers):
    return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]


# ----------------------------------------------------------------------
# shard assignment
# ----------------------------------------------------------------------
def test_assign_shards_is_deterministic_and_colocates_keys():
    keys = ["a", "b", "a", "c", "b", "a", "d"]
    first = assign_shards(keys, 2)
    assert first == assign_shards(list(keys), 2)  # pure function of the sequence
    by_key = {}
    for key, shard in zip(keys, first):
        assert by_key.setdefault(key, shard) == shard  # same key -> same shard
    # distinct keys round-robin in first-seen order: a->0, b->1, c->0, d->1
    assert first == [0, 1, 0, 0, 1, 0, 1]


def test_assign_shards_single_shard_and_validation():
    assert assign_shards(["x", "y"], 1) == [0, 0]
    with pytest.raises(ShardingError):
        assign_shards(["x"], 0)


def test_partition_tags_positions_and_drops_empty_buckets():
    items = ["i0", "i1", "i2", "i3"]
    keys = ["k0", "k1", "k0", "k0"]
    buckets = partition(items, keys, 4)
    assert buckets == [[(0, "i0"), (2, "i2"), (3, "i3")], [(1, "i1")]]
    with pytest.raises(ShardingError):
        partition(items, keys[:-1], 2)


def test_worker_state_unavailable_in_parent():
    with pytest.raises(ShardingError):
        worker_state()


# ----------------------------------------------------------------------
# evaluator lifecycle
# ----------------------------------------------------------------------
def test_workers_must_be_positive():
    with pytest.raises(ShardingError):
        ShardedEvaluator(db1(), workers=0)


def test_single_worker_evaluator_is_inactive_and_spawns_nothing():
    evaluator = ShardedEvaluator(db1(), workers=1)
    assert not evaluator.active
    assert evaluator._pool is None
    assert usable_sharder(evaluator.db, evaluator) is None


def test_close_is_idempotent_and_blocks_dispatch():
    db = db1()
    evaluator = ShardedEvaluator(db, workers=2)
    evaluator.close()
    evaluator.close()
    assert evaluator.closed and not evaluator.active
    with pytest.raises(ShardingError):
        evaluator.map(exact_keys, [[(0, None)]])
    with pytest.raises(ShardingError):
        evaluator.warm_up()


def test_context_manager_closes_on_exception():
    db = db1()
    with pytest.raises(RuntimeError):
        with ShardedEvaluator(db, workers=2) as evaluator:
            evaluator.warm_up()
            assert evaluator._pool is not None
            raise RuntimeError("mining crashed")
    assert evaluator.closed
    assert evaluator._pool is None  # worker processes released


def test_reset_keeps_evaluator_usable():
    db = db1()
    with ShardedEvaluator(db, workers=2) as evaluator:
        evaluator.warm_up()
        assert evaluator.stats.pool_starts == 1
        evaluator.reset()
        assert not evaluator.closed
        evaluator.warm_up()  # fresh pool after reset
        assert evaluator.stats.pool_starts == 2


def test_usable_sharder_ignores_foreign_and_closed_evaluators():
    db, other = db1(), db1()
    foreign = ShardedEvaluator(other, workers=2)
    assert usable_sharder(db, foreign) is None  # bound to a different database
    closed = ShardedEvaluator(db, workers=2)
    closed.close()
    assert usable_sharder(db, closed) is None
    assert usable_sharder(db, None) is None
    foreign.close()


def test_finalizer_releases_the_pool_without_taking_its_lock():
    # The cyclic GC can finalize a dropped evaluator on a thread that holds
    # a live evaluator's lock (pool creation allocates).  The sanitizer
    # keys lock order by class name, so a finalizer that took its own lock
    # there would record ShardedEvaluator -> ShardedEvaluator.
    name = "repro.datalog.sharding:ShardedEvaluator"
    live = ShardedEvaluator(db1(), workers=2)
    live._lock = sanitizer.SanitizedLock(name)
    dropped = ShardedEvaluator(db1(), workers=2)
    dropped._lock = sanitizer.SanitizedLock(name)
    dropped.warm_up()
    processes = list(dropped._pool._pool)
    gone = weakref.ref(dropped)
    sanitizer.reset()
    with live._lock:
        del dropped  # the last reference: the finalizer runs here
        assert gone() is None
    assert sanitizer.inversions() == ()
    for process in processes:
        process.join(timeout=10)
        assert process.exitcode is not None
    live.close()


# ----------------------------------------------------------------------
# engine-level equality and lifecycle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mid_telecom():
    return scaled_telecom(users=12, carriers=4, technologies=3, noise=0.1, seed=3)


def test_sharded_naive_answers_are_byte_identical(mid_telecom):
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    with MetaqueryEngine(mid_telecom, workers=2) as engine:
        for itype in (0, 1, 2):
            serial = naive_find_rules(mid_telecom, TRANSITIVITY, thresholds, itype)
            sharded = engine.find_rules(TRANSITIVITY, thresholds, itype, algorithm="naive")
            assert exact_keys(serial) == exact_keys(sharded)


def test_sharded_findrules_answers_are_byte_identical(mid_telecom):
    thresholds = Thresholds(support=0.1, confidence=0.1, cover=0.0)
    with MetaqueryEngine(mid_telecom, workers=2) as engine:
        for itype in (0, 1, 2):
            serial = find_rules(mid_telecom, TRANSITIVITY, thresholds, itype)
            sharded = engine.find_rules(TRANSITIVITY, thresholds, itype, algorithm="findrules")
            assert exact_keys(serial) == exact_keys(sharded)


def test_sharded_findrules_composes_with_ablation_arms(mid_telecom):
    thresholds = Thresholds(support=0.2, confidence=0.3, cover=0.1)
    with ShardedEvaluator(mid_telecom, workers=2) as sharder:
        serial = find_rules(mid_telecom, TRANSITIVITY, thresholds, 1)
        sharded = find_rules(mid_telecom, TRANSITIVITY, thresholds, 1, sharder=sharder)
        assert exact_keys(serial) == exact_keys(sharded)
        assert not sharder.closed  # explicit sharder is not closed by callees


def test_sharded_decide_and_witness_agree_with_serial(mid_telecom):
    with ShardedEvaluator(mid_telecom, workers=2) as sharder:
        for index in ("sup", "cnf", "cvr"):
            for k in (0, Fraction(1, 3)):
                serial = naive_decide(mid_telecom, TRANSITIVITY, index, k, itype=1)
                sharded = naive_decide(
                    mid_telecom, TRANSITIVITY, index, k, itype=1, sharder=sharder
                )
                assert serial == sharded
                w_serial = naive_witness(mid_telecom, TRANSITIVITY, index, k, itype=1)
                w_sharded = naive_witness(
                    mid_telecom, TRANSITIVITY, index, k, itype=1, sharder=sharder
                )
                assert (w_serial is None) == (w_sharded is None)
                if w_serial is not None:
                    assert str(w_serial.rule) == str(w_sharded.rule)
                    assert w_serial.indices() == w_sharded.indices()


def test_sharding_composes_with_cache_and_batch_ablations(mid_telecom):
    """cache/batch switches are forwarded into the pool and stay invisible."""
    thresholds = Thresholds(support=0.2, confidence=0.3, cover=0.1)
    expected = exact_keys(naive_find_rules(mid_telecom, TRANSITIVITY, thresholds, 1))
    for cache in (True, False):
        for batch in (True, False):
            with MetaqueryEngine(mid_telecom, cache=cache, batch=batch, workers=2) as engine:
                sharded = engine.find_rules(TRANSITIVITY, thresholds, 1, algorithm="naive")
                assert exact_keys(sharded) == expected, (cache, batch)
                assert engine.decide(TRANSITIVITY, "cnf", Fraction(3, 10), itype=1)


def test_custom_index_falls_back_to_serial_with_workers():
    # The compute callable is a local lambda — unpicklable — so the sharded
    # path must route custom indices through the serial evaluator.
    db = db1()
    half = PlausibilityIndex("half", lambda rule, database: Fraction(1, 2))
    with MetaqueryEngine(db, workers=2) as engine:
        assert engine.decide(TRANSITIVITY, half, Fraction(1, 4), itype=1)
        witness = engine.witness(TRANSITIVITY, half, Fraction(1, 4), itype=1)
        assert witness is not None


def test_engine_workers_one_has_no_sharder():
    engine = MetaqueryEngine(db1())
    assert engine.sharder is None
    engine.close()  # no-op, must not raise


def test_engine_workers_validation():
    with pytest.raises(ValueError):
        MetaqueryEngine(db1(), workers=0)


def test_engine_pool_persists_across_calls_and_survives_invalidate(mid_telecom):
    thresholds = Thresholds(support=0.2, confidence=0.3, cover=0.1)
    serial = MetaqueryEngine(mid_telecom)
    expected = exact_keys(serial.find_rules(TRANSITIVITY, thresholds, itype=1))
    expected_naive = exact_keys(
        serial.find_rules(TRANSITIVITY, thresholds, itype=1, algorithm="naive")
    )
    with MetaqueryEngine(mid_telecom, workers=2) as engine:
        first = engine.find_rules(TRANSITIVITY, thresholds, itype=1)
        second = engine.find_rules(TRANSITIVITY, thresholds, itype=1, algorithm="naive")
        assert engine.sharder.stats.pool_starts == 1  # one pool, reused
        assert exact_keys(first) == expected
        assert exact_keys(second) == expected_naive
        engine.invalidate_cache()  # restarts the pool (workers hold db snapshots)
        third = engine.find_rules(TRANSITIVITY, thresholds, itype=1)
        assert engine.sharder.stats.pool_starts == 2
        assert exact_keys(third) == expected
    assert engine.sharder.closed
    # A closed engine still answers, serially.
    fourth = engine.find_rules(TRANSITIVITY, thresholds, itype=1)
    assert exact_keys(fourth) == expected


# ----------------------------------------------------------------------
# worker exceptions
# ----------------------------------------------------------------------
def _boom_task(payload):
    raise ValueError(f"worker exploded on {payload!r}")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pickling a test-module task needs the fork start method",
)
def test_worker_exception_propagates_and_pool_stays_usable():
    db = db1()
    with ShardedEvaluator(db, workers=2) as evaluator:
        with pytest.raises(ValueError, match="worker exploded"):
            evaluator.map(_boom_task, [[("shard", 0)]])
        # The pool survives a task failure: later dispatches still work.
        evaluator.warm_up()
        assert evaluator.stats.pool_starts == 1
    assert evaluator.closed
