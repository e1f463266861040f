"""The naive metaquery engine: enumerate every instantiation and test it.

This is the guess-and-check procedure implicit in the membership proofs of
Section 3.3 (Theorem 3.21 and Theorem 3.24): enumerate every type-T
instantiation, compute the requested indices by explicit joins and keep the
instantiations passing the thresholds.  It is exponential in the metaquery
size but serves two purposes:

* it is the reference implementation against which FindRules is tested, and
* it is the baseline of the Figure 4 benchmarks.

All entry points accept two acceleration switches and the evaluator
objects that implement them:

* ``cache=`` (default on) — a shared
  :class:`~repro.datalog.context.EvaluationContext` memoizes atom
  relations, body joins and fractions across instantiations, so e.g. the
  body join of a rule is computed once rather than once per head
  instantiation;
* ``batch=`` (default on) — a
  :class:`~repro.datalog.batching.BatchEvaluator` groups instantiations
  sharing a normalized body shape, materializes each group's canonical
  join once and answers every member (all head instantiations of one
  body, support included) from the group's shared key indexes instead of
  issuing per-pair join queries;
* ``sharder=`` — an open :class:`~repro.datalog.sharding.ShardedEvaluator`
  (the one ``MetaqueryEngine(workers=N)`` owns) distributes whole shape
  groups across its worker pool; every worker owns a private
  context/batcher pair and the merged answers are byte-identical to the
  serial path's (same enumeration, same order, same exact fractions).
  These functions never build a pool: without a usable sharder they run
  serially.

Explicit ``ctx=``/``batcher=`` objects bound to the database win over the
``cache``/``batch`` switches.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from repro.core.answers import AnswerSet, MetaqueryAnswer, Thresholds, validate_threshold
from repro.core.indices import (
    CONFIDENCE,
    COVER,
    SUPPORT,
    PlausibilityIndex,
    all_indices,
    get_index,
    index_is_positive,
)
from repro.core.instantiation import Instantiation, InstantiationType, enumerate_instantiations
from repro.core.metaquery import MetaQuery
from repro.datalog.atoms import Atom
from repro.datalog.batching import BatchEvaluator, body_shape
from repro.datalog.context import EvaluationContext
from repro.datalog.rules import HornRule
from repro.datalog.sharding import (
    ReorderBuffer,
    ShardedEvaluator,
    partition,
    usable_sharder,
    worker_state,
)
from repro.relational.database import Database

__all__ = ["iter_answers", "naive_find_rules", "naive_decide", "naive_witness"]


def _evaluable(atoms: Iterable[Atom], db: Database) -> bool:
    """Every atom must name a database relation of matching arity."""
    for atom in atoms:
        if atom.predicate not in db or db[atom.predicate].arity != atom.arity:
            return False
    return True


def _make_context(
    db: Database, cache: bool, ctx: EvaluationContext | None
) -> EvaluationContext | None:
    """Resolve the caching switch: an explicit context wins, else build one."""
    if ctx is not None:
        return ctx
    return EvaluationContext(db) if cache else None


def _make_batcher(
    db: Database,
    batch: bool,
    batcher: BatchEvaluator | None,
    ctx: EvaluationContext | None,
) -> BatchEvaluator | None:
    """Resolve the batching switch: an explicit evaluator bound to ``db`` wins.

    A new batcher sits on ``ctx``; without a context for ``db`` it sits on
    a non-memoizing one, as the engine's batcher does under ``cache=False``.
    """
    if batcher is not None and batcher.applies_to(db):
        return batcher
    if not batch:
        return None
    if ctx is None or not ctx.applies_to(db):
        ctx = EvaluationContext(db, caching=False)
    return BatchEvaluator(ctx)


def _rule_indices(
    rule: HornRule,
    db: Database,
    ctx: EvaluationContext | None,
    batcher: BatchEvaluator | None,
) -> tuple[Fraction, Fraction, Fraction]:
    """``(sup, cnf, cvr)`` of one rule, batched when an evaluator is given."""
    if batcher is not None:
        group = batcher.body_group(rule.body_atoms)
        cover, confidence = batcher.head_indices(group, rule.head)
        return group.support, confidence, cover
    values = all_indices(rule, db, ctx)
    return values["sup"], values["cnf"], values["cvr"]


def _is_standard(index_obj: PlausibilityIndex) -> bool:
    """True for sup, cnf and cvr: the indices batched and sharded paths answer."""
    return index_obj is SUPPORT or index_obj is CONFIDENCE or index_obj is COVER


def _enumerate_evaluable(
    db: Database, mq: MetaQuery, itype: InstantiationType | int
) -> Iterator[tuple[Instantiation, HornRule]]:
    """Instantiations (with their rules) whose predicates the database can evaluate."""
    for instantiation in enumerate_instantiations(mq, db, itype):
        rule = instantiation.apply(mq)
        if _evaluable(rule.atoms, db):
            yield instantiation, rule


# ----------------------------------------------------------------------
# sharded worker tasks (module-level so the pool can pickle them by name)
# ----------------------------------------------------------------------
def _shard_indices_task(
    bucket: list[tuple[int, HornRule]],
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """Worker task: evaluate one shard's ``(position, rule)`` items.

    Runs inside a pool process; all rules of one shape group are in the same
    bucket, so the worker's private batcher materializes each group's
    canonical join exactly once, as the serial batched path would.
    """
    db, ctx, batcher = worker_state()
    out = []
    for position, rule in bucket:
        support, confidence, cover = _rule_indices(rule, db, ctx, batcher)
        out.append((position, support, confidence, cover))
    return out


def _index_exceeds(
    rule: HornRule,
    index_obj: PlausibilityIndex,
    k: Fraction,
    db: Database,
    ctx: EvaluationContext | None,
    batcher: BatchEvaluator | None,
) -> bool:
    """``index_obj(rule) > k`` via the cheapest applicable path.

    Shared by the serial and sharded first-hit searches.  For the three
    standard indices the batched path answers the test from the body's
    shape group; at ``k = 0`` it degenerates to the certifying-set
    satisfiability test of Proposition 3.20 (``sup > 0`` iff the body join
    is non-empty, ``cnf/cvr > 0`` iff some body key meets a head key) —
    exactly the shortcut the unbatched path takes via
    :func:`~repro.core.indices.index_is_positive`.  Custom indices always
    go through their own ``compute`` callable.
    """
    if batcher is not None and _is_standard(index_obj):
        group = batcher.body_group(rule.body_atoms)
        if index_obj is SUPPORT:
            return group.size > 0 if k == 0 else group.support > k
        if k == 0:
            return batcher.head_joins(group, rule.head)
        cover, confidence = batcher.head_indices(group, rule.head)
        return (cover if index_obj is COVER else confidence) > k
    if k == 0:
        return index_is_positive(rule, index_obj, db, ctx)
    return index_obj(rule, db, ctx) > k


def _shard_first_hit_task(
    payload: tuple[list[tuple[int, HornRule]], str, Fraction],
) -> int | None:
    """Worker task: the first position in this shard with ``index > k``.

    Applies :func:`_index_exceeds` with the worker's private evaluator
    pair; buckets arrive in ascending position order, so the worker can
    short-circuit on its first hit and the parent takes the minimum over
    shards.
    """
    bucket, index_name, k = payload
    db, ctx, batcher = worker_state()
    index_obj = get_index(index_name)
    for position, rule in bucket:
        if _index_exceeds(rule, index_obj, k, db, ctx, batcher):
            return position
    return None


def _shard_items(
    db: Database, mq: MetaQuery, itype: InstantiationType | int, sharder: ShardedEvaluator
) -> tuple[list[tuple[Instantiation, HornRule]], list[list[tuple[int, HornRule]]]]:
    """Enumerate serially, then partition the rules by body-shape group key.

    Only the small instantiated rules are pickled to the workers; each
    keeps its serial position, so the merge restores the serial order.
    """
    items = list(_enumerate_evaluable(db, mq, itype))
    rules = [rule for _, rule in items]
    keys = [body_shape(rule.body_atoms)[0] for rule in rules]
    return items, partition(rules, keys, sharder.workers)


def _sharded_answers(
    db: Database, mq: MetaQuery, itype: InstantiationType | int, sharder: ShardedEvaluator
) -> Iterator[MetaqueryAnswer]:
    """The sharded arm of :func:`iter_answers`: stream shards through a reorder buffer.

    Shard chunks arrive in completion order (``imap_unordered``); each
    evaluated position is parked in a
    :class:`~repro.datalog.sharding.ReorderBuffer` and answers are emitted
    the moment the serial-order prefix is complete — incremental delivery
    with an emission order byte-identical to the serial path's.
    """
    items, buckets = _shard_items(db, mq, itype, sharder)
    buffer = ReorderBuffer()
    for chunk in sharder.imap_unordered(_shard_indices_task, buckets, item_count=len(items)):
        for position, support, confidence, cover in chunk:
            instantiation, rule = items[position]
            buffer.push(
                position,
                MetaqueryAnswer(
                    instantiation=instantiation,
                    rule=rule,
                    support=support,
                    confidence=confidence,
                    cover=cover,
                ),
            )
        yield from buffer.drain()
    assert not buffer, "sharded merge left unconsumed answer positions"


def _sharded_first_hit(
    db: Database,
    mq: MetaQuery,
    index_obj: PlausibilityIndex,
    k: Fraction,
    itype: InstantiationType | int,
    sharder: ShardedEvaluator,
) -> tuple[Instantiation, HornRule] | None:
    """Sharded :func:`_first_hit`: per-shard short-circuit, global min position.

    Every shard stops at its own first hit; the minimum over shards is the
    globally first hitting position of the serial enumeration order, so the
    witness is identical to the serial path's.
    """
    items, buckets = _shard_items(db, mq, itype, sharder)
    payloads = [(bucket, index_obj.name, k) for bucket in buckets]
    hits = [
        hit
        for hit in sharder.map(_shard_first_hit_task, payloads, item_count=len(items))
        if hit is not None
    ]
    if not hits:
        return None
    return items[min(hits)]


def iter_answers(
    db: Database,
    mq: MetaQuery,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
    cache: bool = True,
    ctx: EvaluationContext | None = None,
    batch: bool = True,
    batcher: BatchEvaluator | None = None,
    sharder: ShardedEvaluator | None = None,
) -> Iterator[MetaqueryAnswer]:
    """Yield an answer (with all three indices) for every evaluable instantiation.

    With an open ``sharder`` the instantiations are evaluated by its worker
    pool and yielded in the exact serial order: the sharded arm enumerates
    up front, dispatches the shards and streams results through a
    position-keyed reorder buffer, so answers are emitted as shards
    complete and are byte-identical to the serial path's.  This
    generator is the core the streaming API (``PreparedMetaquery.stream``)
    builds on.
    """
    sharder = usable_sharder(db, sharder)
    if sharder is not None:
        yield from _sharded_answers(db, mq, itype, sharder)
        return
    ctx = _make_context(db, cache, ctx)
    batcher = _make_batcher(db, batch, batcher, ctx)
    for instantiation, rule in _enumerate_evaluable(db, mq, itype):
        support, confidence, cover = _rule_indices(rule, db, ctx, batcher)
        yield MetaqueryAnswer(
            instantiation=instantiation,
            rule=rule,
            support=support,
            confidence=confidence,
            cover=cover,
        )


def naive_find_rules(
    db: Database,
    mq: MetaQuery,
    thresholds: Thresholds | None = None,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
    cache: bool = True,
    ctx: EvaluationContext | None = None,
    batch: bool = True,
    batcher: BatchEvaluator | None = None,
    sharder: ShardedEvaluator | None = None,
) -> AnswerSet:
    """All instantiations whose indices pass the thresholds.

    ``thresholds=None`` keeps every instantiation (useful for inspecting the
    full answer space of a small database).
    """
    thresholds = thresholds or Thresholds.none()
    answers = AnswerSet(algorithm="naive")
    for answer in iter_answers(
        db, mq, itype, cache=cache, ctx=ctx, batch=batch, batcher=batcher, sharder=sharder,
    ):
        if thresholds.accepts(answer.support, answer.confidence, answer.cover):
            answers.append(answer)
    return answers


def _first_hit(
    db: Database,
    mq: MetaQuery,
    index_obj: PlausibilityIndex,
    k: Fraction,
    itype: InstantiationType | int,
    ctx: EvaluationContext | None,
    batcher: BatchEvaluator | None,
):
    """The first instantiation with ``I(σ(MQ)) > k``, shared by decide/witness.

    Returns ``(instantiation, rule)`` or ``None``; the per-rule test is
    :func:`_index_exceeds` (batched shape-group path for the standard
    indices, certifying-set shortcut at ``k = 0``, ``compute`` callable
    for custom indices).
    """
    for instantiation, rule in _enumerate_evaluable(db, mq, itype):
        if _index_exceeds(rule, index_obj, k, db, ctx, batcher):
            return instantiation, rule
    return None


def naive_decide(
    db: Database,
    mq: MetaQuery,
    index: str | PlausibilityIndex,
    k: Fraction | float | int,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
    cache: bool = True,
    ctx: EvaluationContext | None = None,
    batch: bool = True,
    batcher: BatchEvaluator | None = None,
    sharder: ShardedEvaluator | None = None,
) -> bool:
    """Decide the metaquerying problem ``⟨DB, MQ, I, k, T⟩`` (Section 3.2).

    True iff some type-T instantiation has ``I(σ(MQ)) > k``.  For ``k = 0``
    the certifying-set shortcut of Proposition 3.20 is used, which only needs
    Boolean conjunctive-query satisfiability rather than counting.

    With an open ``sharder`` the instantiation space is sharded by body
    shape; every shard short-circuits at its first hit and the answer is the
    same as the serial path's.  Custom (non sup/cnf/cvr) indices always run
    serially — their ``compute`` callables may not survive pickling.
    """
    index_obj = get_index(index)
    k = validate_threshold(k)
    sharder = usable_sharder(db, sharder)
    if sharder is not None and _is_standard(index_obj):
        return _sharded_first_hit(db, mq, index_obj, k, itype, sharder) is not None
    ctx = _make_context(db, cache, ctx)
    batcher = _make_batcher(db, batch, batcher, ctx)
    return _first_hit(db, mq, index_obj, k, itype, ctx, batcher) is not None


def naive_witness(
    db: Database,
    mq: MetaQuery,
    index: str | PlausibilityIndex,
    k: Fraction | float | int,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
    cache: bool = True,
    ctx: EvaluationContext | None = None,
    batch: bool = True,
    batcher: BatchEvaluator | None = None,
    sharder: ShardedEvaluator | None = None,
) -> MetaqueryAnswer | None:
    """A witnessing answer for the decision problem, or None when it is a NO instance.

    Mirrors :func:`naive_decide` exactly — the same ``0 <= k < 1``
    validation, the same certifying-set shortcut of Proposition 3.20 at
    ``k = 0``, the same per-rule ``index > k`` test (which also works
    for custom indices outside {sup, cnf, cvr}) and the same sharded
    first-hit search with an open ``sharder`` — so the two can never
    disagree on the same instance (``naive_witness`` is not None iff
    ``naive_decide`` is True).
    """
    index_obj = get_index(index)
    k = validate_threshold(k)
    ctx = _make_context(db, cache, ctx)
    batcher = _make_batcher(db, batch, batcher, ctx)
    sharder = usable_sharder(db, sharder)
    if sharder is not None and _is_standard(index_obj):
        found = _sharded_first_hit(db, mq, index_obj, k, itype, sharder)
    else:
        found = _first_hit(db, mq, index_obj, k, itype, ctx, batcher)
    if found is None:
        return None
    instantiation, rule = found
    support, confidence, cover = _rule_indices(rule, db, ctx, batcher)
    return MetaqueryAnswer(
        instantiation=instantiation,
        rule=rule,
        support=support,
        confidence=confidence,
        cover=cover,
    )
