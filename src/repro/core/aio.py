"""An asyncio front-end over the engine facade.

:class:`AsyncMetaqueryEngine` wraps a (sync) :class:`MetaqueryEngine` so a
single shared context / batcher / worker pool serves many **concurrent**
metaqueries from an event loop: every blocking stage runs in a worker
thread via :func:`asyncio.to_thread`, concurrency is bounded by a
semaphore, and streamed answers cross the thread boundary through an
``asyncio.Queue`` — ``async for answer in engine.stream(...)`` delivers
each answer as the engine confirms it.

Why this is safe over one shared engine:

* the engine's caches store deterministic values: a race between two
  threads at worst computes the same entry twice and stores identical
  results, never a wrong answer (the stats counters may undercount under
  contention, which is acceptable for telemetry).  The shared
  :class:`~repro.datalog.lifecycle.LifecycleCache` additionally locks its
  state transitions, because an LRU store — unlike the pre-lifecycle
  monotone dicts — mutates recency on reads and evicts on writes; the
  request-level :class:`~repro.datalog.lifecycle.RequestCache` locks
  likewise;
* :class:`multiprocessing.pool.Pool` is thread-safe, so concurrent
  metaqueries can share the engine's persistent worker pool;
* per-call state (enumeration order, reorder buffers) lives on the call
  stack, so concurrent streams cannot perturb each other's byte-identity
  with the serial path.

Mutating the database **between** requests is safe: the generation-counter
lifecycle (see :mod:`repro.datalog.lifecycle`) invalidates the memoization
caches relation-by-relation and the request-level answer cache by
generation vector, so the next request always evaluates against current
state.  Do **not** mutate the database while requests are *in flight* —
the same rule the sync engine has, only easier to violate from concurrent
code.  Repeated identical requests (a hot endpoint replaying one
metaquery) are served from the engine's request cache in O(1) until a
mutation bumps the generation vector.

Example
-------
::

    async with AsyncMetaqueryEngine(db, workers=4) as engine:
        # overlap three metaqueries over one engine
        a, b, c = await asyncio.gather(
            engine.find_rules(mq1, Thresholds(support=0.2)),
            engine.find_rules(mq2, Thresholds(support=0.2)),
            engine.find_rules(mq3, Thresholds(support=0.2)),
        )
        # stream with early stop
        async for answer in engine.stream(mq1, Thresholds(support=0.2)):
            print(answer)
            break
"""

from __future__ import annotations

import asyncio
import threading
from fractions import Fraction
from typing import Any, AsyncIterator, cast

from repro.core.answers import AnswerSet, MetaqueryAnswer, Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.indices import PlausibilityIndex
from repro.core.instantiation import InstantiationType
from repro.core.metaquery import MetaQuery
from repro.core.requests import MetaqueryRequest, PreparedMetaquery
from repro.exceptions import EngineError
from repro.relational.database import Database
from repro.tools.sanitizer import create_lock

__all__ = ["AsyncMetaqueryEngine"]

#: Queue sentinel marking the normal end of a producer thread's stream.
_END = object()


class _ProducerFailure:
    """Carries a producer-thread exception across the queue to the consumer."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class AsyncMetaqueryEngine:
    """Answer many concurrent metaqueries over one shared sync engine.

    Parameters
    ----------
    db_or_engine:
        A :class:`~repro.relational.database.Database` (a private
        :class:`MetaqueryEngine` is built from it with ``engine_kwargs``
        and owned — closed by :meth:`close`), or an existing engine to
        wrap (borrowed — its lifecycle stays with the caller).
    max_concurrency:
        Upper bound on concurrently *executing* blocking stages (prepare /
        collect / decide / witness calls and active streams).  Excess
        requests queue on the semaphore; answers already streaming are
        never blocked by it.
    concurrency_budget:
        An externally owned :class:`asyncio.Semaphore` to bound blocking
        stages with *instead* of a private one — the multi-tenant
        :class:`~repro.server.registry.EngineRegistry` passes one shared
        semaphore to every tenant engine so the whole process observes a
        single executing-stage budget (``max_concurrency`` is then the
        budget's nominal size, kept for introspection only).
    engine_kwargs:
        Forwarded to :class:`MetaqueryEngine` when a database is given
        (``cache=`` / ``batch=`` / ``workers=`` ...).

    The async facade adds no mining semantics of its own: every result —
    including streamed answer order — is byte-identical to the wrapped
    sync engine's, which the differential tests assert.
    """

    def __init__(
        self,
        db_or_engine: Database | MetaqueryEngine,
        max_concurrency: int = 8,
        concurrency_budget: asyncio.Semaphore | None = None,
        **engine_kwargs: Any,
    ) -> None:
        if isinstance(max_concurrency, bool) or not isinstance(max_concurrency, int):
            raise EngineError(
                f"max_concurrency must be an int, got {type(max_concurrency).__name__}"
            )
        if max_concurrency < 1:
            raise EngineError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if concurrency_budget is not None and not isinstance(concurrency_budget, asyncio.Semaphore):
            raise EngineError(
                f"concurrency_budget must be an asyncio.Semaphore or None, "
                f"got {type(concurrency_budget).__name__}"
            )
        if isinstance(db_or_engine, MetaqueryEngine):
            if engine_kwargs:
                raise EngineError(
                    "engine_kwargs are only valid when constructing from a Database; "
                    "configure the wrapped MetaqueryEngine directly instead"
                )
            self._engine = db_or_engine
            self._owns_engine = False
        else:
            self._engine = MetaqueryEngine(db_or_engine, **engine_kwargs)
            self._owns_engine = True
        self.max_concurrency = max_concurrency
        self._semaphore = (
            concurrency_budget if concurrency_budget is not None
            else asyncio.Semaphore(max_concurrency)
        )
        # Stream telemetry crosses threads: `started` bumps on the event
        # loop, `finished` in the producer's done callback, and
        # stream_stats() may be called from anywhere — so the counters
        # take the same sanitizable state lock the other shared runtime
        # classes use (REPRO_SANITIZE=1 instruments it).
        self._lock = create_lock("repro.core.aio:AsyncMetaqueryEngine")
        self._streams_started = 0
        self._streams_finished = 0
        # Lazily created on the event loop by drain(); set by the producer
        # done-callback when the last in-flight stream retires.
        self._idle: asyncio.Event | None = None

    # ------------------------------------------------------------------
    @property
    def engine(self) -> MetaqueryEngine:
        """The wrapped synchronous engine (shared caches, pool, stats)."""
        return self._engine

    def stats(self) -> dict[str, dict[str, int]]:
        """The wrapped engine's telemetry counters (:meth:`MetaqueryEngine.stats`)."""
        return self._engine.stats()

    def stream_stats(self) -> dict[str, int]:
        """Facade-level stream telemetry (thread-safe snapshot).

        ``streams_started`` counts producer threads launched by
        :meth:`stream`; ``streams_finished`` counts producers that retired
        (normally, by early-exit signal, or by raising); the difference is
        the streams currently holding a concurrency slot — the server
        track's backpressure gauge.
        """
        with self._lock:
            started = self._streams_started
            finished = self._streams_finished
        return {
            "streams_started": started,
            "streams_finished": finished,
            "streams_active": started - finished,
        }

    def _retire_stream(self) -> None:
        """Producer done-callback: count the retirement, free the slot."""
        with self._lock:
            self._streams_finished += 1
            idle = self._idle if self._streams_finished == self._streams_started else None
        self._semaphore.release()
        if idle is not None:
            # Runs on the event loop (asyncio done-callbacks do), where
            # waking an asyncio.Event is safe; done outside the lock so
            # drain()'s waiters never contend with the counter updates.
            idle.set()

    async def drain(self) -> None:
        """Wait until every stream producer has retired — the graceful-
        shutdown hook.

        The server track calls this after it stops accepting connections:
        streams already delivering answers run to completion (or to their
        client's disconnect, whose early-exit signal retires the producer
        at its next confirmed answer), and ``drain()`` returns once no
        producer holds a concurrency slot.  Idempotent and safe to call
        with no streams in flight; one-shot calls (``find_rules`` et al.)
        are not tracked — they complete with the request handler awaiting
        them, so draining the connection handlers drains them too.
        """
        while True:
            with self._lock:
                if self._streams_started == self._streams_finished:
                    return
                if self._idle is None:
                    self._idle = asyncio.Event()
                self._idle.clear()
                event = self._idle
            await event.wait()

    async def invalidate_cache(self) -> None:
        """Async :meth:`MetaqueryEngine.invalidate_cache` — the explicit full
        reset (rarely needed now that mutations auto-invalidate; see the
        module docstring).  Only call with no requests in flight."""
        await asyncio.to_thread(self._engine.invalidate_cache)

    # ------------------------------------------------------------------
    async def prepare(
        self,
        mq: MetaqueryRequest | MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> PreparedMetaquery:
        """Async :meth:`MetaqueryEngine.prepare` (runs in a worker thread)."""
        async with self._semaphore:
            return await asyncio.to_thread(
                self._engine.prepare, mq, thresholds, itype, algorithm
            )

    async def find_rules(
        self,
        mq: MetaqueryRequest | MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> AnswerSet:
        """Async :meth:`MetaqueryEngine.find_rules`: prepare + collect off-loop.

        ``await``-ing several of these concurrently overlaps their
        evaluation over the shared caches (bounded by ``max_concurrency``),
        which is the facade's raison d'être.
        """
        async with self._semaphore:
            return await asyncio.to_thread(
                self._engine.find_rules, mq, thresholds, itype, algorithm
            )

    async def decide(
        self,
        mq: MetaQuery | str,
        index: str | PlausibilityIndex,
        k: Fraction | float | int = 0,
        itype: InstantiationType | int | None = None,
    ) -> bool:
        """Async :meth:`MetaqueryEngine.decide`."""
        async with self._semaphore:
            return await asyncio.to_thread(self._engine.decide, mq, index, k, itype)

    async def witness(
        self,
        mq: MetaQuery | str,
        index: str | PlausibilityIndex,
        k: Fraction | float | int = 0,
        itype: InstantiationType | int | None = None,
    ) -> MetaqueryAnswer | None:
        """Async :meth:`MetaqueryEngine.witness`."""
        async with self._semaphore:
            return await asyncio.to_thread(self._engine.witness, mq, index, k, itype)

    # ------------------------------------------------------------------
    async def stream(
        self,
        mq: MetaqueryRequest | MetaQuery | PreparedMetaquery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int | None = None,
        algorithm: str = "auto",
    ) -> AsyncIterator[MetaqueryAnswer]:
        """Stream answers asynchronously, byte-identical to the sync stream.

        A producer thread drives ``PreparedMetaquery.stream()`` and hands
        each answer to the event loop through a queue, so the loop stays
        responsive while shape groups evaluate.  An already-prepared
        metaquery may be passed to skip re-planning.

        Early exit (``break`` / generator close) returns to the caller
        immediately: it signals the producer, which retires in the
        background at its next confirmed answer (a blocked Python compute
        cannot be interrupted mid-answer).  The concurrency semaphore is
        released only when the producer actually finishes — a straggler
        still burning CPU keeps counting against ``max_concurrency``, so
        abandoned streams cannot pile up unbounded worker threads.
        """
        await self._semaphore.acquire()
        producer: asyncio.Future[None] | None = None
        try:
            if isinstance(mq, PreparedMetaquery):
                prepared = mq
            else:
                prepared = await asyncio.to_thread(
                    self._engine.prepare, mq, thresholds, itype, algorithm
                )
            loop = asyncio.get_running_loop()
            queue: asyncio.Queue[object] = asyncio.Queue()
            stop = threading.Event()

            def post(item: object) -> None:
                # Hand one item to the event loop; tolerate a loop that
                # closed while a straggler producer was still finishing.
                try:
                    loop.call_soon_threadsafe(queue.put_nowait, item)
                except RuntimeError:  # pragma: no cover - loop shut down
                    pass

            def produce() -> None:
                # Runs in a worker thread.  put_nowait on an unbounded queue
                # never blocks, so the producer can always make progress and
                # always terminates once `stop` is set (at the next answer).
                try:
                    for answer in prepared.stream():
                        if stop.is_set():
                            break
                        post(answer)
                    post(_END)
                except BaseException as exc:  # pragma: no cover - worker errors
                    post(_ProducerFailure(exc))

            with self._lock:
                self._streams_started += 1
            producer = asyncio.ensure_future(asyncio.to_thread(produce))
            producer.add_done_callback(lambda _: self._retire_stream())
            while True:
                item = await queue.get()
                if item is _END:
                    break
                if isinstance(item, _ProducerFailure):
                    raise item.exc
                yield cast(MetaqueryAnswer, item)
        finally:
            if producer is None:
                # prepare failed (or was cancelled) before the producer
                # started; nothing else will release the slot.
                self._semaphore.release()
            else:
                stop.set()

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Release an *owned* engine's worker pool (no-op for a borrowed
        engine, whose lifecycle belongs to whoever constructed it)."""
        if self._owns_engine:
            await asyncio.to_thread(self._engine.close)

    async def __aenter__(self) -> "AsyncMetaqueryEngine":
        return self

    async def __aexit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ownership = "owned" if self._owns_engine else "borrowed"
        return (
            f"AsyncMetaqueryEngine({ownership} {self._engine!r}, "
            f"max_concurrency={self.max_concurrency})"
        )
