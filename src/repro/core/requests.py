"""The request pipeline: validated requests, prepared metaqueries, streaming.

The engine facade historically exposed one blocking call per problem
(``find_rules`` parses, plans, evaluates and returns only when the slowest
shape group finishes).  This module redesigns that call path around three
explicit stages:

1. :class:`MetaqueryRequest` — an immutable, validated bundle of *what* to
   mine: metaquery text (or parsed object), :class:`Thresholds`,
   instantiation type and algorithm choice.  Invalid inputs fail at
   construction with :class:`~repro.exceptions.EngineError`, not deep
   inside evaluation.
2. :meth:`MetaqueryEngine.prepare(request) <repro.core.engine.MetaqueryEngine.prepare>`
   → :class:`PreparedMetaquery` — parse, classify (acyclicity), resolve
   ``"auto"`` to a concrete engine and plan (the hypertree body
   decomposition for FindRules) exactly once.  A prepared metaquery is
   reusable: repeated or parametrized mining over the same engine skips
   re-planning.
3. :meth:`PreparedMetaquery.stream` — an iterator of
   :class:`~repro.core.answers.MetaqueryAnswer`, emitted incrementally as
   instantiations / branches / shards are confirmed, in an order
   byte-identical to the materialized :meth:`PreparedMetaquery.collect`
   (a position-keyed :class:`~repro.datalog.sharding.ReorderBuffer`
   re-serializes out-of-order shard completions).  ``collect()`` is
   literally ``AnswerSet.collect(stream())``, so the two can never drift.

The FindRules algorithm (Figure 4) and the naive enumerate-and-test
procedure are both naturally incremental — answers are confirmed one
instantiation / branch at a time — which is what makes time-to-first-answer
a meaningful latency metric for interactive mining (``perfbench``
reports it as ``ttfa_p50_ms``).

:mod:`repro.core.aio` builds the asyncio front-end on top of this module.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.acyclicity import classify
from repro.core.answers import AnswerSet, MetaqueryAnswer, Thresholds
from repro.core.instantiation import InstantiationType
from repro.core.metaquery import MetaQuery
from repro.exceptions import EngineError, MetaqueryError
from repro.relational import columnar

__all__ = [
    "resolve_algorithm",
    "MetaqueryRequest",
    "PreparedMetaquery",
    "prepare_request",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import MetaqueryEngine
    from repro.hypergraph.decomposition import HypertreeDecomposition

logger = logging.getLogger(__name__)

#: The algorithm names a request may carry (``"auto"`` resolves at prepare
#: time: FindRules when at least one threshold is enabled — its pruning
#: needs a threshold to be sound — otherwise naive).
ALGORITHMS = ("auto", "naive", "findrules")


def resolve_algorithm(algorithm: str, thresholds: Thresholds) -> str:
    """Resolve ``"auto"`` to the concrete engine for the given thresholds."""
    if algorithm != "auto":
        return algorithm
    has_threshold = any(
        t is not None for t in (thresholds.support, thresholds.confidence, thresholds.cover)
    )
    resolved = "findrules" if has_threshold else "naive"
    logger.info(
        "prepare: algorithm 'auto' resolved to %r (%s)",
        resolved,
        "thresholds enabled" if has_threshold else
        "all thresholds None; FindRules' pruning needs a threshold to be sound",
    )
    return resolved


@dataclass(frozen=True)
class MetaqueryRequest:
    """An immutable, validated metaquery request.

    Bundles everything a single mining problem needs — the metaquery (text
    or a parsed :class:`~repro.core.metaquery.MetaQuery`), the
    :class:`~repro.core.answers.Thresholds`, the instantiation type and the
    algorithm choice — and validates all of it at construction:

    * ``metaquery`` must be a non-empty string or a ``MetaQuery``;
    * ``thresholds`` may be ``None`` (no filtering) or a ``Thresholds``;
    * ``itype`` is coerced through :meth:`InstantiationType.coerce`;
    * ``algorithm`` must be one of :data:`ALGORITHMS`.

    Violations raise :class:`~repro.exceptions.EngineError` here, at the
    API boundary, instead of surfacing as obscure failures mid-evaluation.
    Requests are engine-independent (parsing needs the database's relation
    names, so it happens in ``engine.prepare``) and hashable, so they can
    key request-level caches.

    Examples
    --------
    >>> request = MetaqueryRequest("R(X,Z) <- P(X,Y), Q(Y,Z)",
    ...                            thresholds=Thresholds(support=0.2), itype=1)
    >>> request.algorithm
    'auto'
    >>> MetaqueryRequest("", itype=0)
    Traceback (most recent call last):
    ...
    repro.exceptions.EngineError: metaquery text must be non-empty
    """

    metaquery: MetaQuery | str
    thresholds: Thresholds
    itype: InstantiationType
    algorithm: str

    def __init__(
        self,
        metaquery: MetaQuery | str,
        thresholds: Thresholds | None = None,
        itype: InstantiationType | int = InstantiationType.TYPE_0,
        algorithm: str = "auto",
    ) -> None:
        if isinstance(metaquery, str):
            if not metaquery.strip():
                raise EngineError("metaquery text must be non-empty")
        elif not isinstance(metaquery, MetaQuery):
            raise EngineError(
                f"metaquery must be a MetaQuery or its textual form, "
                f"got {type(metaquery).__name__}"
            )
        if thresholds is None:
            thresholds = Thresholds.none()
        elif not isinstance(thresholds, Thresholds):
            raise EngineError(
                f"thresholds must be a Thresholds or None, got {type(thresholds).__name__}"
            )
        try:
            itype = InstantiationType.coerce(itype)
        except Exception as exc:
            raise EngineError(f"invalid instantiation type: {itype!r}") from exc
        if algorithm not in ALGORITHMS:
            raise EngineError(
                f"unknown algorithm {algorithm!r}; use 'auto', 'naive' or 'findrules'"
            )
        object.__setattr__(self, "metaquery", metaquery)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "itype", itype)
        object.__setattr__(self, "algorithm", algorithm)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.metaquery}   [{self.thresholds}, type-{int(self.itype)}, "
            f"algorithm={self.algorithm}]"
        )


class PreparedMetaquery:
    """A parsed, classified and planned metaquery bound to one engine.

    Produced by :meth:`MetaqueryEngine.prepare`; do not construct directly.
    Preparation runs the per-metaquery work that is independent of the
    instantiation space exactly once:

    * parsing (with the engine database's relation names);
    * algorithm resolution (``"auto"`` → ``"naive"``/``"findrules"``);
    * purity validation for type-0/1 instantiations (fail fast, before any
      evaluation);
    * acyclicity classification (:attr:`classification`);
    * the hypertree body decomposition for FindRules
      (:attr:`decomposition`), reused by every serial run.

    A prepared metaquery stays valid for the lifetime of its engine — it
    reads the engine's *current* context/batcher/sharder at stream time, so
    ``invalidate_cache()`` and ``close()`` behave exactly as they do for
    one-shot calls — and may be streamed or collected any number of times.

    Attributes
    ----------
    request:
        The originating :class:`MetaqueryRequest`.
    mq:
        The parsed :class:`~repro.core.metaquery.MetaQuery`.
    algorithm:
        The resolved concrete algorithm, ``"naive"`` or ``"findrules"``.
    classification:
        ``"acyclic"`` / ``"semi-acyclic"`` / ``"cyclic"`` (Definition 3.31).
    decomposition:
        The FindRules body decomposition, or ``None`` for the naive engine.
    """

    __slots__ = ("engine", "request", "mq", "algorithm", "classification", "decomposition")

    def __init__(
        self,
        engine: "MetaqueryEngine",
        request: MetaqueryRequest,
        mq: MetaQuery,
        algorithm: str,
        classification: str,
        decomposition: "HypertreeDecomposition | None",
    ) -> None:
        self.engine = engine
        self.request = request
        self.mq = mq
        self.algorithm = algorithm
        self.classification = classification
        self.decomposition = decomposition

    # ------------------------------------------------------------------
    def _answer_cache_key(self) -> tuple[MetaQuery, Thresholds, int, str]:
        """The request-cache key: the *prepared* identity of this metaquery.

        Built from the parsed metaquery (so the textual and parsed
        spellings of one request share an entry), the thresholds, the
        instantiation type and the resolved algorithm.  The database's
        mutation state is deliberately not part of the key — the
        :class:`~repro.datalog.lifecycle.RequestCache` guards entries with
        the generation vector instead, dropping stale ones on lookup.
        """
        return (self.mq, self.request.thresholds, int(self.request.itype), self.algorithm)

    def stream(self) -> Iterator[MetaqueryAnswer]:
        """Yield threshold-passing answers incrementally, in ``collect`` order.

        Answers are emitted as the engine confirms them: per instantiation
        on the serial naive path, per ``findHeads`` acceptance on the serial
        FindRules path, and per completed shard (through the reorder
        buffer, order byte-identical to serial) when the engine has an
        active worker pool.  Breaking out of the loop early is supported
        and cheap — remaining work on a persistent pool is simply never
        consumed.

        With the engine's request cache enabled, a repeat of an already
        completed request replays the recorded answers (same order — the
        emission order is deterministic) without re-evaluating, and a
        stream consumed to exhaustion records its answers for future
        repeats; early-stopped streams record nothing.
        """
        cache = self.engine.request_cache
        if cache is None:
            yield from self._evaluate()
            return
        key = self._answer_cache_key()
        vector = self.engine.db.generation_vector()
        cached = cache.get(key, vector)
        if cached is not None:
            yield from cached
            return
        collected: list[MetaqueryAnswer] = []
        for answer in self._evaluate():
            collected.append(answer)
            yield answer
        cache.put(key, vector, AnswerSet(collected, algorithm=self.algorithm))

    def _evaluate(self) -> Iterator[MetaqueryAnswer]:
        """The uncached evaluation core; each call runs an independent search.

        The engine's ``columnar`` setting is pinned around each pull of the
        underlying generator (:func:`repro.relational.columnar.iterate_with`)
        rather than held open across yields — a generator shares its
        caller's context, so a plain context manager would leak the
        override to whoever is consuming the stream.
        """
        return columnar.iterate_with(self.engine.columnar, self._evaluate_inner)

    def _evaluate_inner(self) -> Iterator[MetaqueryAnswer]:
        # Late imports keep the module free of a requests → naive/findrules →
        # engine import cycle at load time.
        from repro.core.findrules import iter_find_rules
        from repro.core.naive import iter_answers

        engine = self.engine
        request = self.request
        thresholds = request.thresholds
        if self.algorithm == "naive":
            for answer in iter_answers(
                engine.db, self.mq, request.itype,
                ctx=engine.context, batch=engine.batch, batcher=engine.batcher,
                sharder=engine.sharder,
            ):
                if thresholds.accepts(answer.support, answer.confidence, answer.cover):
                    yield answer
            return
        sharded = engine.sharder is not None and engine.sharder.active
        yield from iter_find_rules(
            engine.db, self.mq, thresholds, request.itype,
            # The prepared decomposition is reused on serial runs; sharded
            # runs pass None because workers rebuild their own (identical)
            # decomposition from the metaquery, and an explicit one pins
            # iter_find_rules to the serial path.
            decomposition=None if sharded else self.decomposition,
            ctx=engine.context, batch=engine.batch, batcher=engine.batcher,
            sharder=engine.sharder,
        )

    def collect(self) -> AnswerSet:
        """Materialize the stream into an :class:`AnswerSet` (tagged with
        the algorithm that actually ran) — byte-identical to the stream.

        A repeat of an already completed request is served from the
        engine's request cache, as :meth:`stream` serves it.  The cache
        keeps private snapshots and every call returns a fresh
        :class:`AnswerSet`, so mutating a result in place
        (``AnswerSet.append``) cannot poison later replays.
        """
        return AnswerSet.collect(self.stream(), algorithm=self.algorithm)

    def __iter__(self) -> Iterator[MetaqueryAnswer]:
        """Iterating a prepared metaquery streams it."""
        return self.stream()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreparedMetaquery({self.mq}, algorithm={self.algorithm!r}, "
            f"classification={self.classification!r})"
        )


def prepare_request(engine: "MetaqueryEngine", request: MetaqueryRequest) -> PreparedMetaquery:
    """The engine-side prepare step (exposed via ``MetaqueryEngine.prepare``).

    Parses against the engine's database, resolves the algorithm, validates
    purity for type-0/1 instantiations, classifies the metaquery and —
    for FindRules — computes the body decomposition.
    """
    from repro.core.findrules import body_decomposition

    mq = request.metaquery
    if isinstance(mq, str):
        mq = engine.parse(mq)
    algorithm = resolve_algorithm(request.algorithm, request.thresholds)
    if int(request.itype) in (0, 1) and not mq.is_pure():
        raise MetaqueryError(
            f"type-{int(request.itype)} instantiations require a pure metaquery"
        )
    classification = classify(mq)
    decomposition = body_decomposition(mq) if algorithm == "findrules" else None
    return PreparedMetaquery(engine, request, mq, algorithm, classification, decomposition)
