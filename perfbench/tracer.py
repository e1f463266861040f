"""Span tracing from outside the program: timing wrappers around layer calls.

The traced run measures where a request's time goes without changing a
line of ``repro``: :meth:`Tracer.install` replaces each public layer
function listed in :data:`TARGETS` with a timing wrapper, on the module
attribute every caller looks up *and* on every other ``repro`` module that
bound the same function object by name (``from repro.datalog.evaluation
import join_atoms``).  Methods are wrapped on their class.
:meth:`Tracer.uninstall` puts every original back.

Each wrapped call is a span.  The current span lives in a
:class:`~contextvars.ContextVar`, so spans nest correctly per thread and
per asyncio task.  A span's *self time* is its duration minus the time its
child spans took, clipped at the duration because children running in
other threads may overlap.  Spans are aggregated on the fly into per-name
totals, so memory stays constant however long the run.

Generator functions are timed only inside each ``next()``; coroutine
functions are timed across their awaits.  ``ShardedEvaluator.map`` and
``imap_unordered`` are timed as the parent's blocked wait on the pool,
including each ``next()`` on the result iterator.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = ["TARGETS", "SpanStats", "Tracer"]

#: ``(span name, module, attribute path, extra quantity)``.  The extra
#: quantity is a per-call count: ``rows_out`` is the length of the
#: returned relation, ``rows`` the length of the first argument.  A
#: generator always counts the items it yielded.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("relation.natural_join", "repro.relational.relation", "Relation.natural_join", "rows_out"),
    ("relation.semijoin", "repro.relational.relation", "Relation.semijoin", None),
    ("relation.project", "repro.relational.relation", "Relation.project", None),
    ("relation.select_eq", "repro.relational.relation", "Relation.select_eq", None),
    ("columnar.join_stores", "repro.relational.columnar", "join_stores", None),
    ("columnar.semijoin_stores", "repro.relational.columnar", "semijoin_stores", None),
    ("columnar.project_store", "repro.relational.columnar", "project_store", None),
    ("columnar.select_eq_store", "repro.relational.columnar", "select_eq_store", None),
    ("indexes.build_index", "repro.relational.indexes", "build_index", "rows"),
    ("io.load_database", "repro.relational.io", "load_database", None),
    ("batching.body_group", "repro.datalog.batching", "BatchEvaluator.body_group", None),
    ("batching.head_indices", "repro.datalog.batching", "BatchEvaluator.head_indices", None),
    ("evaluation.atom_relation", "repro.datalog.evaluation", "atom_relation", None),
    ("evaluation.join_atoms", "repro.datalog.evaluation", "join_atoms", None),
    (
        "instantiation.enumerate",
        "repro.core.instantiation",
        "enumerate_scheme_instantiations",
        None,
    ),
    ("requests.prepare", "repro.core.requests", "prepare_request", None),
    ("sharding.dispatch", "repro.datalog.sharding", "ShardedEvaluator.map", None),
    ("sharding.dispatch", "repro.datalog.sharding", "ShardedEvaluator.imap_unordered", None),
    ("service.parse_mine_payload", "repro.server.service", "parse_mine_payload", None),
    ("service.encode_answer", "repro.server.service", "encode_answer", None),
    ("protocol.read_request", "repro.server.protocol", "read_request", None),
    ("protocol.write_sse_event", "repro.server.protocol", "write_sse_event", None),
)


class _Span:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


_Frame = tuple["_Span | None", _Span, "Token[_Span | None]", float]


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: int = 0


class Tracer:
    """Install timing wrappers, aggregate spans, restore the originals."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._current: ContextVar[_Span | None] = ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _enter(self) -> _Frame:
        parent = self._current.get()
        span = _Span()
        token = self._current.set(span)
        return parent, span, token, time.perf_counter()

    def _exit(self, name: str, frame: _Frame, count: bool = True, extra: int = 0) -> None:
        parent, span, token, start = frame
        duration = time.perf_counter() - start
        self._current.reset(token)
        with self._lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            if count:
                stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - min(duration, span.child)
            stats.extra += extra
            if parent is not None:
                parent.child += duration

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any], extra: str | None) -> Callable[..., Any]:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = tracer._enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame)

            return async_wrapper

        if inspect.isgeneratorfunction(fn):

            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return tracer._timed_pulls(name, fn(*args, **kwargs), count_items=True)

            return generator_wrapper

        if fn.__name__ == "imap_unordered":

            def imap_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                frame = tracer._enter()
                try:
                    results = fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame)
                return tracer._timed_pulls(name, results, count_items=False)

            return imap_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = 0
                if extra == "rows_out" and result is not None:
                    size = len(result)
                elif extra == "rows" and hasattr(args[0], "__len__"):
                    size = len(args[0])
                tracer._exit(name, frame, extra=size)

        return wrapper

    def _timed_pulls(self, name: str, items: Iterable[Any], count_items: bool) -> Iterator[Any]:
        """Yield from ``items``, timing only the pulls (one span per pull).

        With ``count_items`` every yielded item adds one to the span's
        extra count; the pulls never count as calls, so an iterator's
        wait adds to the span of the call that returned it.
        """
        iterator = iter(items)
        try:
            while True:
                frame = self._enter()
                produced = 0
                try:
                    item = next(iterator)
                    produced = 1
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame, count=False, extra=produced if count_items else 0)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target wherever callers look it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attribute, extra in TARGETS:
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, extra)
            self._patch(owner, leaf, original, wrapper)
            if path:
                continue
            # Rebind the name in every repro module that imported it.
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("repro"):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, alias, original, wrapper)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every original, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
