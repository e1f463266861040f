"""Unit tests for the cache-lifecycle subsystem (:mod:`repro.datalog.lifecycle`).

Covers the :class:`CacheLimit` knob spellings, the LRU/weight eviction and
relation-scoped invalidation of :class:`LifecycleCache` (including the
in-place release of cached hash-index dicts that renamed views share), the
:class:`RequestCache` generation-vector guard, the database generation
counters, and the automatic ``refresh()`` invalidation of
:class:`~repro.datalog.context.EvaluationContext` and
:class:`~repro.datalog.batching.BatchEvaluator`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.answers import AnswerSet
from repro.datalog.atoms import Atom
from repro.datalog.batching import BatchEvaluator
from repro.datalog.context import EvaluationContext
from repro.datalog.evaluation import atom_relation, join_atoms
from repro.datalog.lifecycle import (
    CacheLimit,
    GenerationWatcher,
    LifecycleCache,
    RequestCache,
)
from repro.exceptions import EngineError
from repro.relational.database import Database
from repro.relational.relation import Relation


def rel(name: str, rows, columns=("a", "b")) -> Relation:
    return Relation.from_rows(name, columns, rows)


# ----------------------------------------------------------------------
# CacheLimit
# ----------------------------------------------------------------------
class TestCacheLimit:
    def test_coerce_spellings(self):
        assert CacheLimit.coerce(None) is None
        assert CacheLimit.coerce(CacheLimit()) is None  # unbounded collapses to None
        assert CacheLimit.coerce(10) == CacheLimit(max_entries=10)
        assert CacheLimit.coerce((10, 500)) == CacheLimit(max_entries=10, max_tuples=500)
        explicit = CacheLimit(max_entries=3)
        assert CacheLimit.coerce(explicit) is explicit

    @pytest.mark.parametrize("bad", [True, "10", 1.5, (1, 2, 3), [1, 2]])
    def test_coerce_rejects_junk(self, bad):
        with pytest.raises(EngineError):
            CacheLimit.coerce(bad)

    @pytest.mark.parametrize("bad", [0, -1, True, "x"])
    def test_validation_rejects_bad_bounds(self, bad):
        with pytest.raises(EngineError):
            CacheLimit(max_entries=bad)
        with pytest.raises(EngineError):
            CacheLimit(max_tuples=bad)


# ----------------------------------------------------------------------
# LifecycleCache
# ----------------------------------------------------------------------
class TestLifecycleCache:
    def test_lru_eviction_by_entry_count(self):
        store = LifecycleCache(CacheLimit(max_entries=2))
        store.put("atom", "k1", "v1", frozenset({"r1"}))
        store.put("atom", "k2", "v2", frozenset({"r2"}))
        assert store.get("atom", "k1") == "v1"  # refresh k1's recency
        store.put("atom", "k3", "v3", frozenset({"r3"}))
        # k2 was least recently used, so it is the one evicted.
        assert store.get("atom", "k2") is None
        assert store.get("atom", "k1") == "v1"
        assert store.get("atom", "k3") == "v3"
        assert store.stats.evictions == 1

    def test_budget_is_shared_across_sections(self):
        store = LifecycleCache(CacheLimit(max_entries=2))
        store.put("atom", "a", 1, frozenset())
        store.put("join", "j", 2, frozenset())
        store.put("group", "g", 3, frozenset())
        assert len(store) == 2
        assert store.section_len("atom") == 0  # oldest entry, evicted
        assert store.section_len("join") == 1
        assert store.section_len("group") == 1

    def test_tuple_weight_eviction(self):
        store = LifecycleCache(CacheLimit(max_tuples=10))
        store.put("join", "j1", "v1", frozenset(), weight=6)
        store.put("join", "j2", "v2", frozenset(), weight=5)  # 11 > 10: j1 evicted
        assert store.get("join", "j1") is None
        assert store.total_tuples == 5
        assert store.stats.evicted_tuples == 6

    def test_oversize_value_is_served_uncached(self):
        store = LifecycleCache(CacheLimit(max_tuples=10))
        store.put("join", "small", "v", frozenset(), weight=3)
        store.put("join", "huge", "w", frozenset(), weight=11)
        # The oversize value must not wipe the store to make room for itself.
        assert store.get("join", "huge") is None
        assert store.get("join", "small") == "v"
        assert store.stats.rejected == 1

    def test_invalidate_relations_drops_only_matching_entries(self):
        store = LifecycleCache()
        store.put("atom", "p-key", "p", frozenset({"p"}))
        store.put("join", "pq-key", "pq", frozenset({"p", "q"}))
        store.put("join", "rs-key", "rs", frozenset({"r", "s"}))
        dropped = store.invalidate_relations({"p"})
        assert dropped == 2
        assert store.get("join", "rs-key") == "rs"
        assert store.get("atom", "p-key") is None
        assert store.stats.invalidated_entries == 2

    def test_eviction_releases_shared_index_dicts_in_place(self):
        # Renamed views share the cached relation's index dict (index keys
        # are column positions); eviction must empty that dict through
        # every alias instead of leaving retained views pinning the memory.
        cached = rel("j", [(1, 2), (3, 4)])
        view = cached.rename_columns({"a": "X", "b": "Y"})
        assert view._index_cache is cached._index_cache  # shared by design
        view._hash_index((0,))
        assert cached._index_cache  # index built through the view
        store = LifecycleCache(CacheLimit(max_entries=1))
        store.put("join", "k", cached, frozenset({"j"}), weight=2)
        store.put("join", "k2", rel("x", [(0, 0)]), frozenset({"x"}), weight=1)
        assert cached._index_cache == {}  # released in place
        assert view._index_cache == {}  # ... through the alias too
        # The view still answers correctly, rebuilding the index lazily.
        assert sorted(view._hash_index((0,))) == [(1,), (3,)]

    def test_clear_releases_indexes(self):
        cached = rel("j", [(1, 2)])
        cached._hash_index((0,))
        store = LifecycleCache()
        store.put("join", "k", cached, frozenset({"j"}), weight=1)
        store.clear()
        assert cached._index_cache == {}
        assert len(store) == 0 and store.total_tuples == 0

    def test_index_keying_is_positional_under_renaming(self):
        # The safety precondition of sharing one index dict across renamed
        # views: indexes are keyed by column *positions*, never names.
        base = rel("r", [(1, 10), (2, 20)])
        renamed = base.rename_columns({"a": "zz", "b": "qq"})
        index = base._hash_index((1,))
        assert renamed._hash_index((1,)) is index
        assert renamed.select_eq("qq", 10).tuples == base.select_eq("b", 10).tuples


# ----------------------------------------------------------------------
# RequestCache
# ----------------------------------------------------------------------
class TestRequestCache:
    def test_hit_miss_and_generation_guard(self):
        cache = RequestCache(max_entries=4)
        answers = AnswerSet(algorithm="naive")
        vector = (("p", 1),)
        assert cache.get("k", vector) is None
        cache.put("k", vector, answers)
        assert cache.get("k", vector) is answers  # O(1): the same object
        # A moved generation vector invalidates the entry on lookup.
        assert cache.get("k", (("p", 2),)) is None
        assert cache.get("k", (("p", 1),)) is None  # entry is gone for good
        assert cache.stats.hits == 1
        assert cache.stats.invalidated == 1
        assert cache.stats.misses == 3

    def test_lru_cap(self):
        cache = RequestCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, (), AnswerSet())
        assert len(cache) == 2
        assert cache.get("a", ()) is None
        assert cache.stats.evictions == 1

    @pytest.mark.parametrize("bad", [0, -1, True, "8"])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(EngineError):
            RequestCache(bad)


# ----------------------------------------------------------------------
# Database generation counters
# ----------------------------------------------------------------------
class TestGenerationCounters:
    def test_add_and_replace_bump_generations(self):
        db = Database([rel("p", [(1, 2)])])
        assert db.generation("p") == 1
        assert db.generation("missing") == 0
        before = db.mutation_count
        db.replace(rel("p", [(1, 2), (3, 4)]))
        assert db.generation("p") == 2
        db.add(rel("q", [(5, 6)]))
        assert db.generation("q") == 1
        assert db.mutation_count == before + 2
        assert db.generation_vector() == (("p", 2), ("q", 1))

    def test_failed_add_does_not_bump(self):
        db = Database([rel("p", [(1, 2)])])
        before = db.mutation_count
        with pytest.raises(Exception):
            db.add(rel("p", [(9, 9)]))
        assert db.mutation_count == before


class TestGenerationWatcher:
    def test_peek_keeps_snapshot_changed_advances_it(self):
        db = Database([rel("p", [(1, 2)]), rel("q", [(3, 4)])])
        watcher = GenerationWatcher(db)
        assert watcher.peek() == frozenset()
        db.replace(rel("p", [(1, 2), (5, 6)]))
        assert watcher.peek() == frozenset({"p"})
        assert watcher.peek() == frozenset({"p"})  # peek does not advance
        assert watcher.changed() == frozenset({"p"})
        assert watcher.changed() == frozenset()  # changed advanced

    def test_resync_rebaselines(self):
        db = Database([rel("p", [(1, 2)])])
        watcher = GenerationWatcher(db)
        db.add(rel("q", [(3, 4)]))
        watcher.resync()
        assert watcher.peek() == frozenset()


# ----------------------------------------------------------------------
# EvaluationContext / BatchEvaluator auto-refresh
# ----------------------------------------------------------------------
P = Atom("p", ["X", "Y"])
Q = Atom("q", ["Y", "Z"])
R = Atom("r", ["X", "Y"])


def small_db() -> Database:
    return Database(
        [
            rel("p", [(1, 2), (2, 3)]),
            rel("q", [(2, 4), (3, 5)]),
            rel("r", [(7, 8)]),
        ],
        name="lifecycle-db",
    )


class TestContextRefresh:
    def test_refresh_drops_only_entries_touching_mutated_relations(self):
        db = small_db()
        ctx = EvaluationContext(db)
        join_atoms([P, Q], db, ctx)
        atom_relation(R, db, ctx)
        assert len(ctx._joins) == 1 and len(ctx._atoms) >= 1
        atoms_before = len(ctx._atoms)
        db.replace(rel("q", [(2, 4)]))
        changed = ctx.refresh()
        assert changed == frozenset({"q"})
        assert len(ctx._joins) == 0  # the p⋈q join read q
        assert len(ctx._atoms) == atoms_before - 1  # only the q atom entry dropped
        # Fresh answers reflect the mutation.
        assert len(join_atoms([P, Q], db, ctx)) == 1

    def test_stale_join_is_never_served_after_mutation(self):
        db = small_db()
        ctx = EvaluationContext(db)
        before = join_atoms([P, Q], db, ctx)
        db.replace(rel("q", [(2, 4), (3, 5), (3, 6)]))
        after = join_atoms([P, Q], db, ctx)  # no manual clear()
        assert after == join_atoms([P, Q], db)  # matches an uncached evaluation
        assert len(after) == len(before) + 1

    def test_clear_releases_view_index_dicts(self):
        db = small_db()
        ctx = EvaluationContext(db)
        join_atoms([P, Q], db, ctx)
        view = join_atoms([P, Q], db, ctx)  # cache hit: a renamed shared view
        view._hash_index((0,))
        shared = view._index_cache
        assert shared
        ctx.clear()
        assert shared == {}  # released in place despite the retained view

    def test_context_cache_limit_bounds_entries(self):
        db = small_db()
        ctx = EvaluationContext(db, cache_limit=2)
        for atom in (P, Q, R):
            atom_relation(atom, db, ctx)
        join_atoms([P, Q], db, ctx)
        assert len(ctx.store) <= 2
        assert ctx.store.stats.evictions >= 2

    def test_batcher_shares_context_store_and_refreshes(self):
        db = small_db()
        ctx = EvaluationContext(db)
        batcher = BatchEvaluator(ctx)
        assert batcher.store is ctx.store
        group = batcher.body_group([P, Q])
        assert batcher.group_count == 1
        assert group.support == Fraction(1, 1)  # both p tuples extend into q
        db.replace(rel("p", [(1, 2), (9, 9)]))  # (9,9) does not join
        fresh = batcher.body_group([P, Q])  # no manual clear()
        assert batcher.group_count == 1
        assert fresh.size == 1
        assert fresh.support == Fraction(1, 2)

    def test_batcher_group_untouched_by_unrelated_mutation(self):
        db = small_db()
        batcher = BatchEvaluator(EvaluationContext(db))
        batcher.body_group([P, Q])
        db.replace(rel("r", [(7, 8), (9, 10)]))
        batcher.body_group([P, Q])
        # r is not read by the p/q group: the group survived as a hit.
        assert batcher.stats.group_hits == 1
        assert batcher.stats.groups == 1
