"""Shard batched shape-groups across a ``multiprocessing`` worker pool.

PR 2's :class:`~repro.datalog.batching.BatchEvaluator` reduced metaquery
evaluation to many *shape groups*: instantiations sharing a normalized body
shape are answered from one materialized canonical join.  Groups are the
natural unit of distribution — the group key (a tuple of
:data:`~repro.datalog.context.AtomKey`) is picklable, and each group's
materialization touches only the database, never another group's caches.

This module distributes whole groups across a pool of worker processes:

* :func:`assign_shards` / :func:`partition` deterministically map group
  keys to shard ids (distinct keys round-robin in first-seen order, so the
  same inputs always produce the same placement and members of one group
  always land on the same worker, preserving batching's share-one-join
  property within each shard);
* each worker process owns a private
  :class:`~repro.datalog.batching.BatchEvaluator` /
  :class:`~repro.datalog.context.EvaluationContext` pair, built once per
  pool by the initializer — there are **no shared mutable caches**, so no
  locks and no cross-process invalidation protocol;
* :class:`ShardedEvaluator` owns the pool (created lazily, reused across
  calls, released by :meth:`ShardedEvaluator.close` or a ``with`` block)
  and runs picklable task callables over per-shard payloads, returning
  results in payload order (:meth:`ShardedEvaluator.map`) or in completion
  order (:meth:`ShardedEvaluator.imap_unordered`, the streaming twin).
  ``MetaqueryEngine(workers=N)`` is the one place that builds and closes
  one; the evaluation functions only use an evaluator handed to them
  (:func:`usable_sharder`) and otherwise run serially;
* :class:`ReorderBuffer` re-serializes completion-order results back into
  the exact serial emission order, which is how the streaming entry points
  (``PreparedMetaquery.stream``) emit answers incrementally while staying
  byte-identical to the materialized path.

Determinism contract: callers tag every work item with its position in the
serial enumeration order, shard by group key, and re-assemble results by
position (a stable sort by instantiation key).  Because every index value
is an exact :class:`~fractions.Fraction` and the instantiations themselves
are enumerated once in the parent, the merged answers are **byte-identical** to the serial path's for any worker
count — the property the sharding property tests assert.

The engine-facing entry points live with their engines
(:mod:`repro.core.naive` ships index-evaluation and first-hit tasks,
:mod:`repro.core.findrules` ships whole first-level search branches); this
module only provides the pool plumbing plus :func:`worker_state`, the
accessor those task functions use to reach the worker-local evaluator pair.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.datalog.batching import BatchEvaluator
from repro.datalog.context import EvaluationContext
from repro.datalog.lifecycle import CacheLimit, GenerationWatcher
from repro.exceptions import ShardingError
from repro.relational import columnar as _columnar_module
from repro.relational.database import Database
from repro.tools.sanitizer import create_lock

__all__ = [
    "worker_state",
    "assign_shards",
    "partition",
    "ReorderBuffer",
    "usable_sharder",
    "ShardStats",
    "ShardedEvaluator",
]

# ----------------------------------------------------------------------
# worker-process state
# ----------------------------------------------------------------------
# Populated by _init_worker inside each pool process.  Parent processes
# never touch these; worker task functions reach them via worker_state().
_WORKER_DB: Database | None = None
_WORKER_CTX: EvaluationContext | None = None
_WORKER_BATCHER: BatchEvaluator | None = None


def _init_worker(
    db: Database,
    caching: bool,
    batch: bool,
    cache_limit: CacheLimit | None,
    columnar: bool,
) -> None:
    """Pool initializer: build this worker's private evaluator pair.

    Runs once per worker process.  The database arrives pickled through the
    pool's init arguments (identical under ``fork`` and ``spawn`` start
    methods), so every worker evaluates against its own consistent snapshot.
    The engine's switches are forwarded so e.g. a ``cache=False,
    workers=4`` engine really shards over the uncached evaluator
    (``batch=False`` leaves the batcher ``None``); ``cache_limit`` bounds
    each worker's private store exactly as it bounds the parent's, and
    ``columnar`` becomes the worker's process-wide columnar default, since
    the parent's setting travels per-context in the parent and therefore
    cannot cross the process boundary.
    """
    global _WORKER_DB, _WORKER_CTX, _WORKER_BATCHER
    _WORKER_DB = db
    _WORKER_CTX = EvaluationContext(db, caching=caching, cache_limit=cache_limit)
    _WORKER_BATCHER = BatchEvaluator(_WORKER_CTX) if batch else None
    _columnar_module.set_default(columnar)


def worker_state() -> tuple[Database, EvaluationContext, BatchEvaluator | None]:
    """The ``(db, ctx, batcher)`` triple of the current worker process.

    ``batcher`` is ``None`` when the pool was configured with
    ``batch=False``.  Only meaningful inside a task dispatched by a
    :class:`ShardedEvaluator`; raises
    :class:`~repro.exceptions.ShardingError` elsewhere.
    """
    if _WORKER_DB is None or _WORKER_CTX is None:
        raise ShardingError("worker_state() is only available inside a sharding worker")
    return _WORKER_DB, _WORKER_CTX, _WORKER_BATCHER


# ----------------------------------------------------------------------
# deterministic shard assignment
# ----------------------------------------------------------------------
def assign_shards(keys: Iterable[Hashable], shards: int) -> list[int]:
    """A deterministic shard id for each item of ``keys``.

    Distinct keys are assigned round-robin in first-seen order, so (a) the
    assignment is a pure function of the key sequence — no salted string
    hashing, identical across processes and runs — and (b) items sharing a
    key always land on the same shard, keeping every shape group whole on
    one worker.  Round-robin over *distinct* keys balances groups, the unit
    whose materialization dominates the cost, rather than raw items.
    """
    if shards < 1:
        raise ShardingError(f"shard count must be >= 1, got {shards}")
    assignment: dict[Hashable, int] = {}
    out: list[int] = []
    for key in keys:
        shard = assignment.get(key)
        if shard is None:
            shard = assignment[key] = len(assignment) % shards
        out.append(shard)
    return out


def partition(
    items: Sequence[Any], keys: Sequence[Hashable], shards: int
) -> list[list[tuple[int, Any]]]:
    """Partition ``items`` into per-shard buckets of ``(position, item)``.

    ``keys[i]`` is the shard key of ``items[i]`` (typically the normalized
    body-shape group key).  Positions index the original sequence, so a
    caller can restore the exact serial order after the per-shard results
    come back.  Empty buckets are dropped — no task is dispatched for them.
    """
    if len(items) != len(keys):
        raise ShardingError(
            f"got {len(items)} items but {len(keys)} shard keys"
        )
    buckets: list[list[tuple[int, Any]]] = [[] for _ in range(shards)]
    for position, (item, shard) in enumerate(zip(items, assign_shards(keys, shards))):
        buckets[shard].append((position, item))
    return [bucket for bucket in buckets if bucket]


def _noop_task(payload: Any) -> Any:
    """A do-nothing task used by :meth:`ShardedEvaluator.warm_up`."""
    return payload


# ----------------------------------------------------------------------
# dispatch envelope: relation sync + telemetry merge-back
# ----------------------------------------------------------------------
#: One pending relation update: ``(name, parent generation, relation)``.
RelationSync = tuple[str, int, Any]


def _worker_counter_snapshot() -> dict[str, dict[str, int]]:
    """The current worker's cumulative cache/batch/lifecycle counters."""
    _, ctx, batcher = worker_state()
    return {
        "cache": ctx.stats.as_dict(),
        "batch": batcher.stats.as_dict() if batcher is not None else {},
        "lifecycle": ctx.store.stats_dict(),
    }


def _counter_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-section counter difference, keeping only non-zero keys."""
    delta: dict[str, dict[str, int]] = {}
    for section, counters in after.items():
        base = before.get(section, {})
        moved = {k: v - base.get(k, 0) for k, v in counters.items() if v != base.get(k, 0)}
        if moved:
            delta[section] = moved
    return delta


def _instrumented_task(
    wrapped: tuple[list[RelationSync], Callable[[Any], Any], Any],
) -> tuple[dict[str, dict[str, int]], Any]:
    """The worker-side dispatch envelope every task runs inside.

    First applies any pending relation syncs — parent mutations shipped
    with the dispatch instead of restarting the pool.  A sync is applied
    only when its generation is newer than the worker copy's, so repeated
    shipments are idempotent; applying one bumps the worker database's own
    counters, which makes the worker's context/batcher drop exactly the
    affected entries on their next use.  Then runs the task and returns its
    result together with this worker's pid — the parent records which
    workers acknowledged each shipped relation version and stops shipping
    it once the whole pool has — and the cache/batch/lifecycle counter
    *deltas* this task produced, so the parent can aggregate worker-side
    telemetry without double counting (counters are cumulative per worker
    process).
    """
    sync, task, payload = wrapped
    db, _, _ = worker_state()
    for name, generation, relation in sync:
        if db.generation(name) < generation:
            db._sync_relation(relation, generation)
    before = _worker_counter_snapshot()
    result = task(payload)
    return os.getpid(), _counter_delta(before, _worker_counter_snapshot()), result


class ReorderBuffer:
    """Re-serialize position-tagged results arriving out of order.

    Streaming consumers of :meth:`ShardedEvaluator.imap_unordered` receive
    per-shard chunks in *completion* order, but the public contract of the
    engines is byte-identity with the serial path — answers must be emitted
    in the exact serial enumeration order.  The buffer bridges the two:
    :meth:`push` accepts ``(position, item)`` pairs in any order and
    :meth:`drain` yields the longest contiguous run starting at the next
    expected position, holding everything else back.

    Positions must form a gap-free range starting at ``start`` once all
    results have arrived; :meth:`push` rejects duplicates and positions
    already emitted.  ``len(buffer)`` is the number of items parked waiting
    for an earlier position to arrive.
    """

    __slots__ = ("_next", "_pending")

    def __init__(self, start: int = 0) -> None:
        self._next = start
        self._pending: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def next_position(self) -> int:
        """The position the buffer is waiting for."""
        return self._next

    def push(self, position: int, item: Any) -> None:
        """Park one result under its serial position."""
        if position < self._next or position in self._pending:
            raise ShardingError(
                f"position {position} was already emitted or is already buffered"
            )
        self._pending[position] = item

    def drain(self) -> Iterator[Any]:
        """Yield parked items in serial order until the next gap."""
        while self._next in self._pending:
            yield self._pending.pop(self._next)
            self._next += 1


def usable_sharder(
    db: Database, sharder: "ShardedEvaluator | None"
) -> "ShardedEvaluator | None":
    """``sharder`` when it is open and bound to ``db``, else None (run serially).

    Evaluators bound to a different database, closed or built with
    ``workers=1`` are ignored, as the evaluation functions ignore foreign
    contexts and batchers.
    """
    usable = sharder is not None and sharder.applies_to(db) and sharder.active
    return sharder if usable else None


@dataclass
class ShardStats:
    """Counters for benchmarks, tests and debugging."""

    pool_starts: int = 0  # worker pools created (1 across reuse = pool was shared)
    dispatches: int = 0  # map() calls issued
    tasks: int = 0  # per-shard tasks shipped
    items: int = 0  # work items shipped inside those tasks
    relation_syncs: int = 0  # relation versions shipped to refresh worker snapshots

    def as_dict(self) -> dict[str, int]:
        return {
            "pool_starts": self.pool_starts,
            "dispatches": self.dispatches,
            "tasks": self.tasks,
            "items": self.items,
            "relation_syncs": self.relation_syncs,
        }


def _default_start_method() -> str:
    """``fork`` where available (cheap, no re-import), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _shutdown_pool(pool: multiprocessing.pool.Pool | None) -> None:
    """Terminate and join a pool detached from its evaluator.

    Runs with no evaluator lock held: ``terminate``/``join`` block on
    worker processes, and holding a state lock across them is exactly the
    convoy/deadlock shape REP110 rejects.  The pointer handed in was
    cleared under the lock (:meth:`ShardedEvaluator._detach_pool_locked`),
    so no other thread can dispatch to this pool anymore.
    """
    if pool is not None:
        pool.terminate()
        pool.join()


class ShardedEvaluator:
    """A persistent worker pool evaluating disjoint shape-group shards.

    Parameters
    ----------
    db:
        The database the workers evaluate against.  Each worker receives its
        own copy when the pool starts.  In-place mutations of the parent's
        database are detected through its generation counters and shipped to
        the workers incrementally: every dispatch carries the relations
        changed since the pool started (:meth:`_pending_sync`), each worker
        applies a version at most once, and the worker's own caches drop
        exactly the affected entries — no pool restart.  :meth:`reset` (the
        engine's ``invalidate_cache`` calls it) remains the explicit full
        restart, and is also taken automatically when most of the database
        changed at once.
    workers:
        Number of worker processes.  ``workers=1`` builds a degenerate
        evaluator whose :attr:`active` property is False and which never
        spawns a pool — callers fall back to their serial path.
    cache, batch, cache_limit:
        Forwarded to each worker's private evaluator pair (``batch=False``
        builds no worker batcher at all), so the engine's switches compose
        with sharding exactly as they do serially.
    columnar:
        The columnar-kernel switch, fixed here and shipped to every worker,
        where it becomes the worker's process-wide default
        (:func:`repro.relational.columnar.set_default`).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it and ``spawn`` otherwise.

    The pool is created lazily on the first :meth:`map` and reused across
    calls until :meth:`close` (also invoked by ``with`` blocks; as a last
    resort, the finalizer shuts the pool down).  A task exception
    propagates to the caller but leaves the pool healthy, so one failing
    metaquery does not tear down the evaluator shared by subsequent calls.
    """

    def __init__(
        self,
        db: Database,
        workers: int = 2,
        cache: bool = True,
        batch: bool = True,
        start_method: str | None = None,
        cache_limit: "CacheLimit | int | tuple | None" = None,
        columnar: bool = True,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise ShardingError(f"worker count must be >= 1, got {workers}")
        self.db = db
        self.workers = workers
        self.cache = cache
        self.batch = batch
        self.cache_limit = CacheLimit.coerce(cache_limit)
        self.columnar = columnar
        self.start_method = start_method or _default_start_method()
        self.stats = ShardStats()
        #: Cumulative worker-side counter deltas merged back from completed
        #: tasks, keyed like the engine's stats sections ("cache" / "batch" /
        #: "lifecycle").  This is what fixes the ``stats()`` undercount: the
        #: workers' private contexts/batchers do the actual cache work, and
        #: without the merge the parent's counters sit near zero.
        self.worker_counters: dict[str, dict[str, int]] = {}
        self._pool: multiprocessing.pool.Pool | None = None
        self._closed = False
        # Watches mutations relative to the snapshot the *workers* hold;
        # created when the pool starts (the db is pickled then), dropped
        # with the pool.  _sync_acks records, per relation, which worker
        # pids acknowledged which shipped generation.
        self._watcher: GenerationWatcher | None = None
        self._sync_acks: dict[str, tuple[int, set[int]]] = {}
        # The async facade dispatches to one shared evaluator from worker
        # threads, so pool lifecycle and telemetry transitions take a lock.
        # The invariant REP110 enforces: the lock is released before any
        # pool call — blocking teardown works on a pointer detached under
        # the lock (_detach_pool_locked), and dispatch happens after
        # _ensure_pool returns.  Built through create_lock so
        # REPRO_SANITIZE=1 swaps in the order-checking wrapper.
        self._lock = create_lock("repro.datalog.sharding:ShardedEvaluator")

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when dispatching to this evaluator parallelizes anything."""
        return self.workers > 1 and not self._closed

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed evaluator cannot dispatch."""
        return self._closed

    def applies_to(self, db: Database) -> bool:
        """True when this evaluator's workers hold (copies of) the given database."""
        return self.db is db

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        with self._lock:
            if self._pool is None:
                context = multiprocessing.get_context(self.start_method)
                self._pool = context.Pool(
                    processes=self.workers,
                    initializer=_init_worker,
                    initargs=(self.db, self.cache, self.batch, self.cache_limit, self.columnar),
                )
                self.stats.pool_starts += 1
                self._watcher = GenerationWatcher(self.db)
                self._sync_acks = {}
            return self._pool

    def _detach_pool_locked(self) -> multiprocessing.pool.Pool | None:
        """Take ownership of the pool pointer; caller shuts it down unlocked.

        Caller holds ``self._lock`` (the ``*_locked`` contract).  Clearing
        the pointer under the lock while terminating *after* releasing it
        is what keeps ``Pool.terminate``/``Pool.join`` — both blocking —
        out of every locked region (REP110), and lets ``_pending_sync``
        trigger a restart without re-entering the non-reentrant lock.
        """
        stale, self._pool = self._pool, None
        self._watcher = None
        self._sync_acks = {}
        return stale

    def _pending_sync(self) -> list[RelationSync]:
        """Relations mutated since the pool pickled its database snapshots.

        Shipped with each dispatch until every worker pid has acknowledged
        the version (workers apply a version at most once), so an in-place
        mutation invalidates the workers *incrementally* instead of forcing
        a pool restart; once the whole pool acknowledged everything, the
        snapshot is rebased and the probe is O(1) again.  When most of the
        database moved at once, restarting is cheaper than shipping — the
        pool is reset and the next :meth:`_ensure_pool` re-pickles current
        state.
        """
        with self._lock:
            pending, stale = self._pending_sync_locked()
        _shutdown_pool(stale)
        return pending

    def _pending_sync_locked(
        self,
    ) -> tuple[list[RelationSync], multiprocessing.pool.Pool | None]:
        """The pending-sync decision; caller holds ``self._lock``.

        Returns the syncs to ship plus a detached pool when restarting is
        the cheaper refresh — the caller terminates it after unlocking.
        """
        if self._pool is None or self._watcher is None:
            return [], None
        changed = self._watcher.peek()
        if not changed:
            return [], None
        if 2 * len(changed) > len(self.db):
            return [], self._detach_pool_locked()
        pending: list[RelationSync] = []
        for name in sorted(changed):
            generation = self.db.generation(name)
            acked = self._sync_acks.get(name)
            if acked is not None and acked[0] == generation and len(acked[1]) >= self.workers:
                continue  # every worker already applied this version
            pending.append((name, generation, self.db[name]))
        if not pending:
            # The whole pool holds every changed relation's current version:
            # rebase the snapshot so future probes stop diffing.
            self._watcher.resync()
            self._sync_acks = {}
            return [], None
        # The sync rides inside every task payload (each task may land on
        # any worker), so one dispatch pickles it once per shard.  When the
        # pending tuples rival the database itself, a restart — which
        # pickles the database once per worker and rebases immediately —
        # is the cheaper way to refresh the pool.
        if 2 * sum(len(relation) for _, _, relation in pending) > self.db.total_tuples():
            return [], self._detach_pool_locked()
        self.stats.relation_syncs += len(pending)
        return pending, None

    def _absorb(
        self,
        envelope: tuple[int, dict[str, dict[str, int]], Any],
        sync: list[RelationSync],
    ) -> Any:
        """Record one task's sync acknowledgement and counter deltas;
        return the task result."""
        pid, delta, result = envelope
        with self._lock:
            for name, generation, _ in sync:
                acked = self._sync_acks.get(name)
                if acked is None or acked[0] != generation:
                    acked = self._sync_acks[name] = (generation, set())
                acked[1].add(pid)
            for section, counters in delta.items():
                bucket = self.worker_counters.setdefault(section, {})
                for key, value in counters.items():
                    bucket[key] = bucket.get(key, 0) + value
        return result

    def map(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
        item_count: int | None = None,
    ) -> list[Any]:
        """Run ``task(payload)`` in the pool for every payload, in order.

        ``task`` must be a module-level (picklable) callable; each payload
        is typically one shard's bucket from :func:`partition`.  Results
        come back in payload order regardless of which worker finished
        first, which is what makes the caller's position-sort merge exact.
        Every task runs inside the :func:`_instrumented_task` envelope:
        pending relation syncs are applied first and the worker's counter
        deltas are merged back into :attr:`worker_counters`.

        ``item_count`` feeds the :attr:`stats` work-item counter; payload
        shapes vary by caller (bare buckets, config tuples wrapping a
        bucket), so only the caller knows how many work items a dispatch
        carries.
        """
        if not self._begin_dispatch(payloads, item_count):
            return []
        sync = self._pending_sync()
        wrapped = [(sync, task, payload) for payload in payloads]
        # chunksize=1: payloads are already shard-sized, one task per shard.
        results = self._ensure_pool().map(_instrumented_task, wrapped, chunksize=1)
        return [self._absorb(envelope, sync) for envelope in results]

    def _begin_dispatch(self, payloads: Sequence[Any], item_count: int | None) -> bool:
        """Shared dispatch preamble: closed guard + stats accounting.

        Returns False for an empty dispatch (nothing to ship, counters
        untouched), keeping :meth:`map` and :meth:`imap_unordered` in
        lockstep on what a "dispatch" means.
        """
        if self._closed:
            raise ShardingError("ShardedEvaluator is closed")
        if not payloads:
            return False
        with self._lock:
            self.stats.dispatches += 1
            self.stats.tasks += len(payloads)
            if item_count is not None:
                self.stats.items += item_count
        return True

    def imap_unordered(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
        item_count: int | None = None,
    ) -> "Iterable[Any]":
        """Like :meth:`map`, but yield each payload's result as it completes.

        The streaming twin of :meth:`map`: results arrive in *completion*
        order, so callers that need the serial order feed them through a
        :class:`ReorderBuffer` keyed by the positions embedded in the
        results.  Dispatch happens eagerly (the returned iterator is the
        pool's); abandoning it early simply discards the not-yet-consumed
        results while the pool stays healthy for subsequent calls — that is
        what makes early-stopping streams cheap.
        """
        if not self._begin_dispatch(payloads, item_count):
            return iter(())
        sync = self._pending_sync()
        wrapped = [(sync, task, payload) for payload in payloads]
        inner = self._ensure_pool().imap_unordered(_instrumented_task, wrapped, chunksize=1)
        return (self._absorb(envelope, sync) for envelope in inner)

    def warm_up(self) -> None:
        """Start the pool (if needed) and wait until it answers a no-op task.

        Benchmarks call this so pool start-up — a one-time deployment cost
        for a persistent engine — is excluded from per-metaquery timings
        without letting warm worker *caches* leak between repeats (pair
        with :meth:`reset`, which drops pool and caches together).
        """
        if self._closed:
            raise ShardingError("ShardedEvaluator is closed")
        sync = self._pending_sync()
        for envelope in self._ensure_pool().map(_instrumented_task, [(sync, _noop_task, None)]):
            self._absorb(envelope, sync)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard the pool (and the workers' database snapshots and caches).

        The evaluator stays usable: the next :meth:`map` starts a fresh pool
        against the database's current state.  This is the sharded analogue
        of :meth:`EvaluationContext.clear` after an in-place mutation.
        """
        with self._lock:
            stale = self._detach_pool_locked()
        _shutdown_pool(stale)

    def close(self) -> None:
        """Release the worker pool permanently.  Idempotent."""
        with self._lock:
            stale = self._detach_pool_locked()
            self._closed = True
        _shutdown_pool(stale)

    def __enter__(self) -> "ShardedEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Close on normal exit *and* on exceptions: a crashed mining run
        # must not leave worker processes behind.
        self.close()

    def __del__(self) -> None:  # pragma: no cover - finalizer timing varies
        # Unlike close(), no lock: nothing else can reach an evaluator that
        # is being finalized, and the cyclic GC may run this on a thread
        # that already holds another evaluator's lock (pool creation
        # allocates), which would nest two locks of this class.
        try:
            _shutdown_pool(self._pool)
        except Exception:  # repro-lint: disable=no-silent-except
            # Interpreter-shutdown finalizer: modules may already be torn
            # down, and raising from __del__ only prints noise to stderr.
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("idle" if self._pool is None else "pooled")
        return (
            f"ShardedEvaluator(db={self.db.name!r}, workers={self.workers}, "
            f"{state}, stats={self.stats.as_dict()})"
        )
