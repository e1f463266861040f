"""A small facade over the two metaquery engines.

``MetaqueryEngine`` owns a database and exposes the request pipeline
(:meth:`~MetaqueryEngine.prepare` → ``PreparedMetaquery.stream()`` /
``collect()``) plus the classic one-shot calls ``find_rules`` / ``decide``
/ ``witness``, which are thin shims over that pipeline.  The ``algorithm``
switch:

* ``"naive"`` — enumerate-and-test (the membership-proof procedure);
* ``"findrules"`` — the Figure 4 algorithm;
* ``"auto"`` — FindRules whenever at least one threshold is enabled,
  otherwise naive (FindRules' pruning needs a threshold to be sound).

The engine is the one place that turns its switches into the persistent
acceleration state shared by every call:

* an :class:`~repro.datalog.context.EvaluationContext` (memoizing with
  ``cache=True``, the default), so repeated metaqueries over the same
  database reuse memoized atom relations, joins and fractions;
* with ``batch=True`` (also the default), a persistent
  :class:`~repro.datalog.batching.BatchEvaluator` sitting on that context,
  which evaluates whole shape groups of instantiations from one
  materialized canonical join;
* with ``workers > 1``, a persistent
  :class:`~repro.datalog.sharding.ShardedEvaluator` whose worker pool is
  reused across calls and released by :meth:`MetaqueryEngine.close` (or a
  ``with`` block) — the only code that starts and stops process pools;
* the ``columnar`` flag, fixed at construction and pinned around every
  evaluation.

In-place database mutations *between* calls are safe: the database's
per-relation generation counters let every cache invalidate itself
incrementally (only entries touching mutated relations are dropped, worker
pools are refreshed by shipping the changed relations, and the
request-level answer cache compares generation vectors on lookup).
:meth:`invalidate_cache` remains as the explicit full reset.  Mutating the
database while a call is *in flight* is still unsupported.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from repro.core.answers import AnswerSet, MetaqueryAnswer, Thresholds
from repro.core.indices import PlausibilityIndex, get_index
from repro.core.instantiation import InstantiationType
from repro.core.metaquery import MetaQuery, parse_metaquery
from repro.core.naive import naive_decide, naive_witness
from repro.core.requests import (
    ALGORITHMS,
    MetaqueryRequest,
    PreparedMetaquery,
    prepare_request,
)
from repro.datalog.batching import BatchEvaluator
from repro.datalog.context import EvaluationContext
from repro.datalog.lifecycle import CacheLimit, RequestCache
from repro.datalog.sharding import ShardedEvaluator
from repro.exceptions import EngineError
from repro.relational import columnar as columnar_switch
from repro.relational.database import Database

__all__ = ["ALGORITHMS", "CacheLimit", "MetaqueryEngine"]


def _require_bool(value: object, name: str) -> bool:
    """Reject truthy non-booleans: ``cache="no"`` silently enabling caching
    is exactly the kind of misconfiguration the request API should catch."""
    if not isinstance(value, bool):
        raise EngineError(
            f"{name} must be a bool, got {type(value).__name__} ({value!r})"
        )
    return value


class MetaqueryEngine:
    """Answer metaqueries over one database instance.

    The acceleration switches are independent and compose; all are
    observationally invisible (same answers, same order, same exact
    :class:`~fractions.Fraction` values) — they only change how fast the
    answers arrive.

    Parameters
    ----------
    db:
        The database to mine.  May be mutated in place *between* calls —
        the caches detect it through the generation counters and invalidate
        only what the mutation touched; never mutate it mid-call.
    default_itype:
        The instantiation type used when a call does not specify one
        (type 0, the paper's Definition 2.2, by default).
    cache:
        Memoize atom relations, joins and fractions across calls in a
        persistent :class:`~repro.datalog.context.EvaluationContext`
        (default on).
    batch:
        Evaluate shape groups of instantiations in one batched pass over a
        persistent :class:`~repro.datalog.batching.BatchEvaluator`
        (default on; independent of ``cache``).
    workers:
        Shard shape groups across a ``multiprocessing`` pool of this many
        worker processes (default 1 = serial, no pool is ever spawned).
        The pool is created lazily on the first parallel call, persists
        across calls, and is released by :meth:`close` — engines with
        ``workers > 1`` are best used as context managers.
    cache_limit:
        Bound the memoization caches for long-running use: an int caps the
        total entry count across the context's atoms/joins/fractions and
        the batcher's shape groups (the batcher keeps them in the
        context's LRU store), a
        ``(max_entries, max_tuples)`` pair or
        :class:`~repro.datalog.lifecycle.CacheLimit` also caps the summed
        cached-relation sizes.  Evicted entries recompute on demand —
        answers never change, only speed.  Worker processes apply the same
        limit to their private stores.  Default ``None``: unbounded, the
        historical behaviour.
    columnar:
        Run the relational algebra on the dictionary-encoded columnar
        kernels (:mod:`repro.relational.columnar`) instead of per-tuple
        set operations (default on).  Fixed here and pinned around every
        evaluation, whatever :func:`~repro.relational.columnar.use_columnar`
        context the caller runs in.  Like the other switches it is
        observationally invisible: answers, order and exact Fractions are
        byte-identical either way.  With ``workers > 1`` the setting is
        forwarded to the pool workers.
    request_cache:
        Size of the request-level answer cache (completed
        :class:`AnswerSet` objects keyed by the prepared request, guarded
        by the database's generation vector so any mutation invalidates
        them automatically).  Repeat requests replay the recorded answers
        — an answer-count-bounded copy instead of re-running the
        exponential search.  ``None`` or ``0`` disables it; default 128
        entries.

    Examples
    --------
    >>> from repro.workloads.telecom import db1
    >>> engine = MetaqueryEngine(db1())
    >>> answers = engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)",
    ...                             Thresholds(support=0.2), itype=1)
    >>> answers.algorithm
    'findrules'

    Parallel mining with an explicit lifecycle::

        with MetaqueryEngine(db, workers=4) as engine:
            answers = engine.find_rules(mq, Thresholds(support=0.2))
        # pool released here; answers identical to the workers=1 run
    """

    def __init__(
        self,
        db: Database,
        default_itype: InstantiationType | int = InstantiationType.TYPE_0,
        cache: bool = True,
        batch: bool = True,
        workers: int = 1,
        cache_limit: CacheLimit | int | tuple | None = None,
        request_cache: int | None = 128,
        columnar: bool = True,
    ) -> None:
        self.db = db
        self.default_itype = InstantiationType.coerce(default_itype)
        cache = _require_bool(cache, "cache")
        batch = _require_bool(batch, "batch")
        self.columnar = _require_bool(columnar, "columnar")
        # bool is an int subclass: reject True/False before the range check
        # so `workers=False` reads as a type error, not "workers must be >= 1".
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise EngineError(
                f"workers must be an int, got {type(workers).__name__} ({workers!r})"
            )
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self.cache_limit = CacheLimit.coerce(cache_limit)
        if request_cache is not None and (
            isinstance(request_cache, bool) or not isinstance(request_cache, int)
        ):
            raise EngineError(
                f"request_cache must be an int or None, got {type(request_cache).__name__}"
            )
        if request_cache is not None and request_cache < 0:
            raise EngineError(f"request_cache must be >= 0, got {request_cache}")
        # Built even with cache=False (it then stores nothing), so stats()
        # and the evaluation calls see one shape in every configuration.
        self.context = EvaluationContext(db, caching=cache, cache_limit=self.cache_limit)
        self.batch = batch
        # Persistent across calls, like the context, so repeated metaqueries
        # reuse materialized shape groups.  Sits on the context's lifecycle
        # store, so cache_limit caps atoms + joins + fractions + groups with
        # one global LRU order.
        self.batcher = BatchEvaluator(self.context) if batch else None
        # Persistent worker pool (lazily started); None on the serial path so
        # workers=1 can never spawn processes.
        self.workers = workers
        self.sharder = (
            ShardedEvaluator(
                db, self.workers, cache=cache, batch=batch,
                cache_limit=self.cache_limit, columnar=self.columnar,
            )
            if self.workers > 1
            else None
        )
        #: Completed answer sets, auto-invalidated by the db generation
        #: vector; consulted by PreparedMetaquery.stream()/collect().
        self.request_cache = RequestCache(request_cache) if request_cache else None

    def invalidate_cache(self) -> None:
        """Drop every memoized result — the explicit full reset.

        No longer *required* after in-place mutation: the generation
        counters let the context/batcher drop exactly the entries touching
        mutated relations, the sharder ships the changed relations to its
        workers with the next dispatch, and the request cache compares
        generation vectors on lookup.  This method remains the manual
        nuclear option: it clears the context's store (the batcher's shape
        groups included), drops the request cache and restarts the worker
        pool.
        """
        self.context.clear()
        if self.sharder is not None:
            self.sharder.reset()
        if self.request_cache is not None:
            self.request_cache.clear()

    def stats(self) -> dict[str, dict[str, int]]:
        """Telemetry counters of the engine's acceleration subsystems.

        Returns a dictionary with up to five sections:

        * ``"cache"`` — the :class:`~repro.datalog.context.CacheStats`
          hit/miss counters (always present).  With ``workers > 1`` the
          per-task counter deltas reported back by the worker processes are
          aggregated in, so sharded runs no longer read as ~zero cache
          activity (each worker's private context does the actual work);
        * ``"batch"`` — the batcher's group counters (worker deltas
          aggregated in likewise) plus ``group_count``, the number of shape
          groups live in *this* process (only with ``batch=True``);
        * ``"lifecycle"`` — eviction/invalidation counters of the shared
          store (worker deltas included) plus live ``entries``/``tuples``
          gauges of the parent store (always present);
        * ``"request"`` — answer-cache hits/misses/evictions/invalidations
          (only when the request cache is enabled);
        * ``"shard"`` — pool/dispatch/sync counters (only with
          ``workers > 1``).

        Counters accumulate across calls; ``invalidate_cache()`` drops the
        cached state but deliberately keeps the counters.
        """

        def merged(own: dict[str, int], section: str) -> dict[str, int]:
            if self.sharder is None:
                return own
            # dict() snapshot: a concurrent request thread may be merging
            # new counter keys into worker_counters while we iterate.
            for key, value in dict(self.sharder.worker_counters.get(section, {})).items():
                own[key] = own.get(key, 0) + value
            return own

        stats: dict[str, dict[str, int]] = {
            "cache": merged(self.context.stats.as_dict(), "cache")
        }
        if self.batcher is not None:
            stats["batch"] = {
                **merged(self.batcher.stats.as_dict(), "batch"),
                "group_count": self.batcher.group_count,
            }
        stats["lifecycle"] = {
            **merged(self.context.store.stats_dict(), "lifecycle"),
            **self.context.store.gauges(),
        }
        if self.request_cache is not None:
            stats["request"] = self.request_cache.stats_dict()
        if self.sharder is not None:
            stats["shard"] = self.sharder.stats.as_dict()
        return stats

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (no-op for serial engines).  Idempotent.

        The engine remains usable for serial evaluation afterwards: a
        closed sharder is ignored by the dispatch helpers, so calls fall
        back to the ``workers=1`` path rather than failing.
        """
        if self.sharder is not None:
            self.sharder.close()

    def __enter__(self) -> "MetaqueryEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Release worker processes on normal exit and on exceptions alike.
        self.close()

    # ------------------------------------------------------------------
    def parse(self, text: str, name: str | None = None) -> MetaQuery:
        """Parse a metaquery, treating the database's relation names as such."""
        return parse_metaquery(text, relation_names=self.db.relation_names, name=name)

    # ------------------------------------------------------------------
    def request(
        self,
        mq: MetaqueryRequest | MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> MetaqueryRequest:
        """Coerce the classic ``(mq, thresholds, itype, algorithm)`` spelling
        into a validated :class:`MetaqueryRequest` (passed through if ``mq``
        already is one; ``itype=None`` means the engine's default)."""
        if isinstance(mq, MetaqueryRequest):
            # A request already carries thresholds/itype/algorithm; silently
            # ignoring competing overrides would return wrong (unfiltered /
            # wrongly-typed) answers, so reject the ambiguity outright.
            if thresholds is not None or itype is not None or algorithm != "auto":
                raise EngineError(
                    "thresholds/itype/algorithm cannot be overridden when passing a "
                    "MetaqueryRequest; build a new request with the desired values"
                )
            return mq
        return MetaqueryRequest(
            mq,
            thresholds=thresholds,
            itype=self.default_itype if itype is None else itype,
            algorithm=algorithm,
        )

    def prepare(
        self,
        mq: MetaqueryRequest | MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> PreparedMetaquery:
        """Parse, classify and plan a request once; reuse it across calls.

        The returned :class:`~repro.core.requests.PreparedMetaquery` caches
        everything that does not depend on the instantiation space — the
        parsed metaquery, the resolved algorithm, the acyclicity class and
        (for FindRules) the hypertree body decomposition — so repeated or
        parametrized mining skips re-planning.  Call
        :meth:`~repro.core.requests.PreparedMetaquery.stream` for
        incremental answers or
        :meth:`~repro.core.requests.PreparedMetaquery.collect` for the
        materialized :class:`AnswerSet`.
        """
        return prepare_request(self, self.request(mq, thresholds, itype, algorithm))

    def stream(
        self,
        mq: MetaqueryRequest | MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> Iterator[MetaqueryAnswer]:
        """Stream threshold-passing answers incrementally.

        ``engine.stream(...)`` is ``engine.prepare(...).stream()``: answers
        arrive as the engine confirms them, in an order byte-identical to
        :meth:`find_rules`, and breaking out early is cheap.
        """
        return self.prepare(mq, thresholds, itype, algorithm).stream()

    def find_rules(
        self,
        mq: MetaqueryRequest | MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> AnswerSet:
        """All instantiated rules passing the thresholds.

        ``mq`` may be a :class:`MetaQuery`, its textual form or a
        :class:`MetaqueryRequest`.  A thin shim over the request pipeline —
        ``find_rules(...) == prepare(...).collect()``, i.e. the materialized
        stream.  The returned :class:`AnswerSet` carries the algorithm that
        actually ran in its ``algorithm`` attribute (``"auto"`` is resolved
        at prepare time), so ablation runs cannot mislabel which engine
        produced the numbers.
        """
        return self.prepare(mq, thresholds, itype, algorithm).collect()

    # ------------------------------------------------------------------
    def decide(
        self,
        mq: MetaQuery | str,
        index: str | PlausibilityIndex,
        k: Fraction | float | int = 0,
        itype: InstantiationType | int | None = None,
    ) -> bool:
        """The decision problem ``⟨DB, MQ, I, k, T⟩``: does some instantiation exceed ``k``?"""
        if isinstance(mq, str):
            mq = self.parse(mq)
        itype = self.default_itype if itype is None else InstantiationType.coerce(itype)
        with columnar_switch.use_columnar(self.columnar):
            return naive_decide(
                self.db, mq, index, k, itype,
                ctx=self.context, batch=self.batch, batcher=self.batcher,
                sharder=self.sharder,
            )

    def witness(
        self,
        mq: MetaQuery | str,
        index: str | PlausibilityIndex,
        k: Fraction | float | int = 0,
        itype: InstantiationType | int | None = None,
    ) -> MetaqueryAnswer | None:
        """A witnessing answer for :meth:`decide`, or None on a NO instance."""
        if isinstance(mq, str):
            mq = self.parse(mq)
        itype = self.default_itype if itype is None else InstantiationType.coerce(itype)
        with columnar_switch.use_columnar(self.columnar):
            return naive_witness(
                self.db, mq, get_index(index), k, itype,
                ctx=self.context, batch=self.batch, batcher=self.batcher,
                sharder=self.sharder,
            )
