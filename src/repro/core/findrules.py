"""The FindRules algorithm of Figure 4.

Given a database, a metaquery and thresholds ``k_sup``, ``k_cvr``, ``k_cnf``,
FindRules returns every type-T instantiation whose support, cover and
confidence all exceed their thresholds.  It decomposes the work as the paper
prescribes (Section 4):

1. compute a complete hypertree decomposition of the metaquery *body* (the
   decomposition only depends on the literal schemes, so by Proposition 4.9
   it is shared by every instantiation);
2. ``findBodies`` — visit the decomposition bottom-up, instantiating the
   literal schemes of each node, materialising
   ``r[i] = π_χ(p)(J(σ(λ(p))))`` and semijoining it with the children's
   relations; empty intermediate relations prune the whole branch;
3. once the root is reached, run the *second half* of the full reducer to
   obtain the reduced relations ``s[..]``;
4. ``findHeads`` — check the support threshold from the reduced relations,
   materialise the body join ``b``, and for every head instantiation that
   agrees with the body instantiation test cover (``|h ⋉ b| / |h|``) and
   confidence (``|b ⋉ h'| / |b|``).

Step 2 prunes exactly when at least one threshold is set (every index is
0 on an empty body join, so pruning without a threshold would drop
answers).  Two acceleration objects change how fast the answers arrive,
never which: ``batch`` controls whether step 4 answers the head
instantiations from a shared
:class:`~repro.datalog.batching.BatchEvaluator` shape group or by per-head
semijoins, and an open ``sharder`` (the pool ``MetaqueryEngine(workers=N)``
owns) distributes whole first-level ``findBodies`` branches across its
workers (byte-identical answers, see :func:`_sharded_iter_find_rules`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from repro.core.acyclicity import body_scheme_labels, body_variable_sets
from repro.core.answers import AnswerSet, MetaqueryAnswer, Thresholds
from repro.core.instantiation import (
    Instantiation,
    InstantiationType,
    enumerate_scheme_instantiations,
)
from repro.core.metaquery import LiteralScheme, MetaQuery
from repro.core.naive import _evaluable, _make_batcher, _make_context
from repro.datalog.atoms import Atom
from repro.datalog.batching import BatchEvaluator, _ratio, body_shape
from repro.datalog.context import EvaluationContext
from repro.datalog.evaluation import atom_relation, join_atoms
from repro.datalog.sharding import (
    ReorderBuffer,
    ShardedEvaluator,
    partition,
    usable_sharder,
    worker_state,
)
from repro.exceptions import MetaqueryError
from repro.hypergraph.decomposition import HypertreeDecomposition, HypertreeNode, decompose
from repro.relational.algebra import natural_join_all
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = [
    "body_decomposition",
    "iter_find_rules",
    "find_rules",
    "support_via_decomposition",
]


def body_decomposition(mq: MetaQuery, max_width: int | None = None) -> HypertreeDecomposition:
    """A complete hypertree decomposition of the metaquery body.

    The decomposition is over the *ordinary* variables of the body literal
    schemes, labelled ``("body", i)``; Proposition 4.9 guarantees that the
    same decomposition remains valid for every instantiation.
    """
    return decompose(body_variable_sets(mq), max_width=max_width)


class _FindRulesRun:
    """One execution of FindRules over a fixed database/metaquery/thresholds."""

    def __init__(
        self,
        db: Database,
        mq: MetaQuery,
        thresholds: Thresholds,
        itype: InstantiationType,
        decomposition: HypertreeDecomposition | None,
        ctx: EvaluationContext | None = None,
        batcher: BatchEvaluator | None = None,
    ) -> None:
        self.db = db
        self.mq = mq
        self.thresholds = thresholds
        self.itype = itype
        self.ctx = ctx
        self.batcher = batcher
        self.numbering = mq.pattern_numbers

        # Pruning empty intermediate relations is sound only when at least one
        # strict threshold is enabled (all indices are 0 on an empty body join).
        self.prune = not (
            thresholds.support is None
            and thresholds.confidence is None
            and thresholds.cover is None
        )

        self.decomposition = decomposition or body_decomposition(mq)
        # Bottom-up visit order of the decomposition nodes; the paper's ν.
        preorder = self.decomposition.nodes
        self.order: list[HypertreeNode] = list(reversed(preorder))
        self.position: dict[int, int] = {id(node): i for i, node in enumerate(self.order)}
        self.parent: dict[int, HypertreeNode | None] = {id(self.decomposition.root): None}
        for node in preorder:
            for child in node.children:
                self.parent[id(child)] = node

        self.label_to_scheme: dict[object, LiteralScheme] = dict(body_scheme_labels(mq))
        # Node where each body literal scheme is covered (varo ⊆ χ, scheme ∈ λ).
        self.covering_position: dict[object, int] = {}
        for label in self.label_to_scheme:
            node = self.decomposition.covering_node(label)
            self.covering_position[label] = self.position[id(node)]

    # ------------------------------------------------------------------
    def node_schemes(self, node: HypertreeNode) -> list[LiteralScheme]:
        """The literal schemes in ``λ(node)``, in label order."""
        return [self.label_to_scheme[label] for label in sorted(node.lam, key=str)]

    def instantiated_node_relation(self, node: HypertreeNode, sigma: Instantiation) -> Relation | None:
        """``π_χ(node)(J(σ(λ(node))))`` or None when some atom is not evaluable."""
        atoms = sigma.apply_to_schemes(self.node_schemes(node))
        if not _evaluable(atoms, self.db):
            return None
        joined = join_atoms(atoms, self.db, self.ctx)
        chi_columns = [c for c in joined.columns if c in node.chi]
        return joined.project(chi_columns)

    # ------------------------------------------------------------------
    def run(self) -> AnswerSet:
        """Execute the algorithm and return the materialized answer set."""
        return AnswerSet(self.iter_run(), algorithm="findrules")

    def iter_run(self) -> Iterator[MetaqueryAnswer]:
        """The generator core: answers are yielded as branches confirm them.

        The emission order is exactly the order :meth:`run` materializes —
        answers stream out the moment ``findHeads`` accepts them, instead of
        after the whole search finishes.
        """
        yield from self._find_bodies(0, Instantiation({}), {})

    def _find_bodies(
        self, index: int, sigma_b: Instantiation, relations: dict[int, Relation]
    ) -> Iterator[MetaqueryAnswer]:
        """The recursive ``findBodies`` procedure (first half of the reducer)."""
        if index >= len(self.order):
            yield from self._reduce_and_find_heads(sigma_b, relations)
            return
        node = self.order[index]
        schemes = self.node_schemes(node)
        for sigma_i in enumerate_scheme_instantiations(
            schemes, self.db, self.itype, self.numbering, base=sigma_b
        ):
            yield from self._expand(index, sigma_b, sigma_i, relations)

    def _expand(
        self,
        index: int,
        sigma_b: Instantiation,
        sigma_i: Instantiation,
        relations: dict[int, Relation],
    ) -> Iterator[MetaqueryAnswer]:
        """One ``findBodies`` branch: extend ``sigma_b`` by ``sigma_i`` at one node.

        Factored out of :meth:`_find_bodies` so the sharded path can replay
        a pre-enumerated first-level instantiation inside a worker process.
        """
        node = self.order[index]
        combined = sigma_b.compose(sigma_i)
        relation = self.instantiated_node_relation(node, combined)
        if relation is None:
            return
        for child in node.children:
            child_pos = self.position[id(child)]
            relation = relation.semijoin(relations[child_pos])
        if self.prune and relation.is_empty():
            return
        relations[index] = relation
        yield from self._find_bodies(index + 1, combined, relations)

    def first_level_instantiations(self) -> list[Instantiation]:
        """The first-level (deepest-node) instantiations, in serial order.

        These are the branch roots of the ``findBodies`` search — the unit
        the sharded path distributes: the parent enumerates them once and
        partitions them by the shape of their instantiated atoms.
        """
        if not self.order:
            return []
        schemes = self.node_schemes(self.order[0])
        return list(
            enumerate_scheme_instantiations(schemes, self.db, self.itype, self.numbering)
        )

    def _reduce_and_find_heads(
        self, sigma_b: Instantiation, relations: dict[int, Relation]
    ) -> Iterator[MetaqueryAnswer]:
        """Second half of the full reducer followed by ``findHeads``."""
        n = len(self.order)
        reduced: dict[int, Relation] = {n - 1: relations[n - 1]}
        for j in range(n - 2, -1, -1):
            parent = self.parent[id(self.order[j])]
            assert parent is not None  # only the root (last position) has no parent
            reduced[j] = relations[j].semijoin(reduced[self.position[id(parent)]])
        yield from self._find_heads(sigma_b, reduced)

    # ------------------------------------------------------------------
    def _support_of_body(self, sigma_b: Instantiation, reduced: dict[int, Relation]) -> Fraction:
        """Exact support of the instantiated body, computed from the reduced relations."""
        best = Fraction(0)
        for label, scheme in self.label_to_scheme.items():
            atom = sigma_b.image(scheme)
            base = atom_relation(atom, self.db, self.ctx)
            denominator = len(base)
            if denominator == 0:
                continue
            pos = self.covering_position[label]
            joined = reduced[pos].natural_join(base)
            numerator = len(joined.project(base.columns))
            value = _ratio(numerator, denominator)
            if value > best:
                best = value
        return best

    def _body_join(self, body_atoms: Sequence[Atom], reduced: dict[int, Relation]) -> Relation:
        """The body join ``b = J(σ_b(body(MQ)))`` assembled from the reduced relations.

        The node relations are projected onto ``χ`` — the *metaquery's*
        ordinary variables — so any type-2 padding column was dropped during
        ``findBodies``.  Definition 2.6 counts over the full ``J(b)``
        (padding variables included: a body atom whose padding positions
        take several values contributes several joint tuples), so atoms
        with projected-away variables are joined back in; the reduced
        χ-join acts as the filter.  Without padding this is exactly the
        plain join of the reduced relations.
        """
        body = natural_join_all(list(reduced.values()))
        padded = [
            atom
            for atom in body_atoms
            if any(v.name not in body.columns for v in atom.variables)
        ]
        if padded:
            body = natural_join_all(
                [body] + [atom_relation(a, self.db, self.ctx) for a in padded]
            )
        return body

    def _find_heads(
        self, sigma_b: Instantiation, reduced: dict[int, Relation]
    ) -> Iterator[MetaqueryAnswer]:
        """The ``findHeads`` procedure: support gate, then cover/confidence tests."""
        body_atoms = [sigma_b.image(s) for s in self.label_to_scheme.values()]
        # Batched arm: the shape group is materialized once — seeded lazily,
        # so on a group hit the body join is not rebuilt — and every
        # agreeing head instantiation is answered from the shared key
        # indexes instead of per-head semijoins.  ``body`` is only
        # materialized on the unbatched path (the group replaces it).
        group = body = None
        support_value = self._support_of_body(sigma_b, reduced)
        if self.thresholds.support is not None and not support_value > self.thresholds.support:
            return
        if self.batcher is not None:
            group = self.batcher.body_group(
                body_atoms, precomputed=lambda: self._body_join(body_atoms, reduced)
            )
        else:
            body = self._body_join(body_atoms, reduced)

        for sigma_h in enumerate_scheme_instantiations(
            [self.mq.head], self.db, self.itype, self.numbering, base=sigma_b
        ):
            sigma = sigma_b.compose(sigma_h)
            head_atom = sigma.image(self.mq.head)
            if not _evaluable([head_atom], self.db):
                continue
            if group is not None:
                cover_value, confidence_value = self.batcher.head_indices(group, head_atom)
                if self.thresholds.cover is not None and not cover_value > self.thresholds.cover:
                    continue
                if self.thresholds.confidence is not None and not confidence_value > self.thresholds.confidence:
                    continue
            else:
                head = atom_relation(head_atom, self.db, self.ctx)
                head_reduced = head.semijoin(body)
                cover_value = _ratio(len(head_reduced), len(head))
                if self.thresholds.cover is not None and not cover_value > self.thresholds.cover:
                    continue
                confidence_value = _ratio(len(body.semijoin(head_reduced)), len(body))
                if self.thresholds.confidence is not None and not confidence_value > self.thresholds.confidence:
                    continue
            rule = sigma.apply(self.mq)
            yield MetaqueryAnswer(
                instantiation=sigma,
                rule=rule,
                support=support_value,
                confidence=confidence_value,
                cover=cover_value,
            )


# ----------------------------------------------------------------------
# sharded execution (module-level task so the pool can pickle it by name)
# ----------------------------------------------------------------------
#: One sharded FindRules payload: the run configuration plus this shard's
#: ``(position, first_level_instantiation)`` jobs.
_BranchPayload = tuple[MetaQuery, Thresholds, InstantiationType, list[tuple[int, Instantiation]]]


def _shard_branches_task(payload: _BranchPayload) -> list[tuple[int, list[MetaqueryAnswer]]]:
    """Worker task: run whole ``findBodies`` branches of one shard.

    The worker rebuilds the run (its hypertree decomposition is a pure
    function of the metaquery, so it matches the parent's) over its private
    context/batcher pair, then replays each pre-enumerated first-level
    instantiation.  Answers come back tagged with the branch position so
    the parent can restore the exact serial emission order.
    """
    mq, thresholds, itype, jobs = payload
    db, ctx, batcher = worker_state()
    run = _FindRulesRun(db, mq, thresholds, itype, None, ctx, batcher)
    out: list[tuple[int, list[MetaqueryAnswer]]] = []
    for position, sigma_i in jobs:
        out.append((position, list(run._expand(0, Instantiation({}), sigma_i, {}))))
    return out


def _sharded_iter_find_rules(
    run: _FindRulesRun, sharder: ShardedEvaluator
) -> Iterator[MetaqueryAnswer]:
    """Distribute a run's first-level branches over the pool, stream the merge.

    Branches are sharded by the normalized shape of their instantiated
    first-node atoms (the same key family the batching layer groups by), so
    branches whose node joins coincide land on the same worker and share
    its caches.  Shard results arrive in completion order and pass through
    a position-keyed :class:`~repro.datalog.sharding.ReorderBuffer`, so
    answers are emitted incrementally as branches finish while the overall
    order stays byte-identical to :meth:`_FindRulesRun.iter_run`.
    """
    first_level = run.first_level_instantiations()
    if not first_level:
        yield from run.iter_run()
        return
    schemes = run.node_schemes(run.order[0])
    keys = [
        body_shape([sigma_i.image(s) for s in schemes])[0] for sigma_i in first_level
    ]
    buckets = partition(first_level, keys, sharder.workers)
    payloads = [(run.mq, run.thresholds, run.itype, bucket) for bucket in buckets]
    buffer = ReorderBuffer()
    for chunk in sharder.imap_unordered(
        _shard_branches_task, payloads, item_count=len(first_level)
    ):
        for position, answers in chunk:
            buffer.push(position, answers)
        for answers in buffer.drain():
            yield from answers
    assert not buffer, "sharded FindRules merge left unconsumed branch positions"


def iter_find_rules(
    db: Database,
    mq: MetaQuery,
    thresholds: Thresholds | None = None,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
    decomposition: HypertreeDecomposition | None = None,
    cache: bool = True,
    ctx: EvaluationContext | None = None,
    batch: bool = True,
    batcher: BatchEvaluator | None = None,
    sharder: ShardedEvaluator | None = None,
) -> Iterator[MetaqueryAnswer]:
    """Stream FindRules answers incrementally (the generator core).

    Same parameters and *exactly* the same answers in the same order as
    :func:`find_rules` — this is the function :func:`find_rules` collects.
    Validation (purity for type-0/1) happens eagerly at call time, before
    the first answer is requested; the returned iterator then yields each
    answer as ``findHeads`` confirms it (serially per branch, or as shard
    chunks complete and pass through the reorder buffer with an open
    ``sharder``).
    """
    thresholds = thresholds or Thresholds.none()
    itype = InstantiationType.coerce(itype)
    if itype in (InstantiationType.TYPE_0, InstantiationType.TYPE_1) and not mq.is_pure():
        raise MetaqueryError(f"type-{int(itype)} instantiations require a pure metaquery")
    ctx = _make_context(db, cache, ctx)
    batcher = _make_batcher(db, batch, batcher, ctx)
    run = _FindRulesRun(db, mq, thresholds, itype, decomposition, ctx, batcher)
    sharder = usable_sharder(db, sharder)
    if decomposition is None and sharder is not None:
        return _sharded_iter_find_rules(run, sharder)
    return run.iter_run()


def find_rules(
    db: Database,
    mq: MetaQuery,
    thresholds: Thresholds | None = None,
    itype: InstantiationType | int = InstantiationType.TYPE_0,
    decomposition: HypertreeDecomposition | None = None,
    cache: bool = True,
    ctx: EvaluationContext | None = None,
    batch: bool = True,
    batcher: BatchEvaluator | None = None,
    sharder: ShardedEvaluator | None = None,
) -> AnswerSet:
    """Run the FindRules algorithm (Figure 4) and materialize every answer.

    A thin collector over :func:`iter_find_rules` — ``find_rules(...)`` is
    ``AnswerSet(iter_find_rules(...))``, so the streaming and materialized
    paths can never drift apart.

    Parameters
    ----------
    db, mq:
        The database instance and the metaquery.
    thresholds:
        Support / confidence / cover thresholds; ``None`` disables all
        filtering (then the result coincides with the naive engine's).
    itype:
        The instantiation type (0, 1 or 2).  Branches whose intermediate
        node relation is empty are pruned whenever a threshold is enabled.
    decomposition:
        A pre-computed body decomposition to reuse across calls.
    cache, ctx:
        Evaluation caching (default on): per-node joins, atom relations and
        head relations are memoized in an
        :class:`~repro.datalog.context.EvaluationContext` shared across the
        whole search, so branches revisiting the same (node, relation
        choice) combination reuse the materialized relation.  An explicit
        ``ctx`` (e.g. the engine's persistent one) overrides ``cache``.
    batch, batcher:
        Batched instantiation evaluation (default on): ``findHeads`` seeds a
        :class:`~repro.datalog.batching.BatchEvaluator` shape group with the
        materialized body join and answers every agreeing head
        instantiation from the group's shared key indexes in one grouped
        semijoin pass.  An explicit ``batcher`` (e.g. the engine's
        persistent one) overrides ``batch``; pass ``batch=False`` for the
        per-head ablation baseline.
    sharder:
        Sharded execution (default off): with an open
        :class:`~repro.datalog.sharding.ShardedEvaluator` bound to ``db``
        (the one ``MetaqueryEngine(workers=N)`` owns) the first-level
        ``findBodies`` branches are distributed across its workers, sharded
        by instantiated-node shape, and the merged answer set is
        byte-identical to the serial run's.  Runs with an explicit
        ``decomposition`` stay serial (workers rebuild their own
        decomposition from the metaquery, which must match the parent's).
    """
    return AnswerSet(
        iter_find_rules(
            db, mq, thresholds, itype,
            decomposition=decomposition, cache=cache, ctx=ctx,
            batch=batch, batcher=batcher, sharder=sharder,
        ),
        algorithm="findrules",
    )


def support_via_decomposition(
    rule_body_atoms: Sequence[Atom], db: Database, ctx: EvaluationContext | None = None
) -> Fraction:
    """Compute ``sup`` of an (already instantiated) body via Theorem 4.12's recipe.

    Builds the hypertree decomposition of the body, materialises the node
    relations, fully reduces them and reads off ``max_i |reduced_i| / |r_i|``.
    Exposed separately so the Theorem 4.12 benchmark can time exactly this
    pipeline.
    """
    labelled = {f"a{i}": frozenset(v.name for v in atom.variables) for i, atom in enumerate(rule_body_atoms)}
    decomposition = decompose(labelled)
    atom_by_label = {f"a{i}": atom for i, atom in enumerate(rule_body_atoms)}

    preorder = decomposition.nodes
    order = list(reversed(preorder))
    position = {id(node): i for i, node in enumerate(order)}
    parent: dict[int, HypertreeNode | None] = {id(decomposition.root): None}
    for node in preorder:
        for child in node.children:
            parent[id(child)] = node

    relations: dict[int, Relation] = {}
    for i, node in enumerate(order):
        atoms = [atom_by_label[label] for label in sorted(node.lam, key=str)]
        joined = natural_join_all([atom_relation(a, db, ctx) for a in atoms])
        rel = joined.project([c for c in joined.columns if c in node.chi])
        for child in node.children:
            rel = rel.semijoin(relations[position[id(child)]])
        relations[i] = rel

    n = len(order)
    reduced: dict[int, Relation] = {n - 1: relations[n - 1]}
    for j in range(n - 2, -1, -1):
        par = parent[id(order[j])]
        assert par is not None
        reduced[j] = relations[j].semijoin(reduced[position[id(par)]])

    best = Fraction(0)
    for label, atom in atom_by_label.items():
        node = decomposition.covering_node(label)
        base = atom_relation(atom, db, ctx)
        if len(base) == 0:
            continue
        joined = reduced[position[id(node)]].natural_join(base)
        value = _ratio(len(joined.project(base.columns)), len(base))
        if value > best:
            best = value
    return best
