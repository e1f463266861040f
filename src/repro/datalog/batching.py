"""Shape-grouped batched evaluation of metaquery instantiations.

Both engines pair one instantiated *body* with many instantiated *heads*:
the naive engine computes support, confidence and cover for every
``(body, head)`` combination, and FindRules tests every agreeing head
instantiation against one materialized body join.  Per pair, the fraction
operator of Definition 2.6 re-joins the body with the head and re-projects
— even with :class:`~repro.datalog.context.EvaluationContext` memoization,
each *distinct* pair pays for a fresh natural join.

This module exploits the paper's observation (Proposition 4.9 /
Theorem 4.12) that the decomposition and join structure depend only on the
literal schemes, not on the chosen relations: instantiations sharing a
normalized *body shape* (predicates + constants + variable-repetition
pattern, the same keys the :class:`EvaluationContext` uses) form a group
whose canonical body join is materialized **once**.  Every member query is
then answered from the shared result by key-set intersection:

* ``sup`` — read off the canonical join once per group: for each body atom,
  ``|π_var(a)(J(b))| / |J({a})|`` is the number of distinct keys in the
  join's cached hash index on the atom's variable positions;
* ``cvr`` / ``cnf`` — one grouped semijoin pass: the join's hash index on
  the head's common variables is built once per (group, variable-set) and
  every head instantiation in the group is answered by intersecting its own
  (also cached) hash index with it — two dictionary intersections instead
  of two natural joins per head.

A :class:`BatchEvaluator` sits on one :class:`EvaluationContext` and shares
its whole lifecycle: the database, the atom relations and canonical joins
it memoizes, the :class:`~repro.datalog.lifecycle.LifecycleCache` store (so
a ``cache_limit`` caps atoms + joins + fractions + groups with one global
LRU order, and :meth:`EvaluationContext.clear` drops the groups too) and
the generation watcher, so an in-place database mutation drops only the
groups touching mutated relations (:meth:`BatchEvaluator.refresh`).  A
context built with ``caching=False`` memoizes nothing itself but still
holds the groups.  Mutating the database *during* one evaluation remains
unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.context import (
    AtomKey,
    EvaluationContext,
    _normalized_view,
    _shape_key,
)
from repro.datalog.evaluation import atom_relation, join_atoms
from repro.datalog.terms import Variable
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = ["body_shape", "BatchStats", "BodyGroup", "BatchEvaluator"]

#: Normalized shape of a whole body: one AtomKey per atom under a shared
#: variable numbering (identical to the EvaluationContext join keys).
GroupKey = tuple[AtomKey, ...]


def _ratio(numerator: int, denominator: int) -> Fraction:
    """The fraction convention of Definition 2.6: 0 whenever the numerator is 0."""
    if numerator == 0 or denominator == 0:
        return Fraction(0)
    return Fraction(numerator, denominator)


def body_shape(atoms: Sequence[Atom]) -> tuple[GroupKey, list[str], list[tuple[int, ...]]]:
    """Normalize a body: the group key, the variable names in canonical
    numbering order, and each atom's distinct variable numbers.

    Variables are numbered by first occurrence across the whole atom list —
    the same numbering :func:`repro.datalog.evaluation.join_atoms` uses for
    its column order, so canonical column ``i`` carries variable number ``i``.
    """
    var_ids: dict[Variable, int] = {}
    keys: list[AtomKey] = []
    atom_numbers: list[tuple[int, ...]] = []
    for atom in atoms:
        keys.append(_shape_key(atom, var_ids))
        seen: list[int] = []
        for t in atom.terms:
            if isinstance(t, Variable):
                number = var_ids[t]
                if number not in seen:
                    seen.append(number)
        atom_numbers.append(tuple(seen))
    names = [v.name for v, _ in sorted(var_ids.items(), key=lambda kv: kv[1])]
    return tuple(keys), names, atom_numbers


@dataclass
class BatchStats:
    """Counters for benchmarks and debugging."""

    groups: int = 0  # distinct body shapes materialized
    group_hits: int = 0  # body lookups served from an existing group
    members: int = 0  # head instantiations answered from a shared group result

    def as_dict(self) -> dict[str, int]:
        return {
            "groups": self.groups,
            "group_hits": self.group_hits,
            "members": self.members,
        }


class _GroupCore:
    """One shape group: the canonical body join plus its shared aggregates.

    ``join`` has the canonical ``__v{i}`` columns, so column position ``i``
    is variable number ``i`` and the relation's own lazily-cached hash
    indexes double as the group's key-count maps (an index on positions
    ``(n1, n2)`` groups the join by variable numbers ``n1, n2``; its key set
    is the projection, the bucket sizes are the group-by counts).

    Everything stored here depends only on the shape: the join, its size and
    the support value are identical for every member of the group
    (Proposition 4.9 — the join structure depends only on the literal
    schemes and the chosen relations, not on the variable names).
    """

    __slots__ = ("join", "size", "support")

    def __init__(self, join: Relation, support: Fraction) -> None:
        self.join = join
        self.size = len(join)
        self.support = support

    def release(self) -> None:
        """Release the canonical join's cached indexes (LRU eviction hook).

        Clears the value-keyed index dict *in place* so member views
        sharing it stop pinning the built indexes, and drops the columnar
        store's bucket indexes and decoded rows the same way (views share
        the store object); any survivor rebuilds lazily.
        """
        self.join.release_indexes()

    def key_index(self, numbers: tuple[int, ...]) -> dict:
        """The cached hash index of the canonical join on the given variable numbers."""
        return self.join._hash_index(numbers)

    def projection_size(self, numbers: tuple[int, ...]) -> int:
        """``|π_{numbers}(J(b))|`` — the number of distinct keys in the index."""
        return len(self.key_index(numbers))


class BodyGroup:
    """A *member's* view of its shape group.

    The canonical join and its aggregates are shared across the group, but
    which actual variable each canonical column carries differs from member
    to member (``p(X, Y)`` and ``p(Y, X)`` share one type-1 shape with
    ``X``/``Y`` at swapped canonical positions), so the name-to-number
    mapping lives on the view, not on the shared core.
    """

    __slots__ = ("core", "name_to_number")

    def __init__(self, core: _GroupCore, name_to_number: dict[str, int]) -> None:
        self.core = core
        self.name_to_number = name_to_number

    @property
    def size(self) -> int:
        """``|J(b)|`` of the member's body."""
        return self.core.size

    @property
    def support(self) -> Fraction:
        """``sup`` of the member's body (shape-invariant)."""
        return self.core.support

    def key_index(self, numbers: tuple[int, ...]) -> dict:
        """The shared hash index of the canonical join on the given numbers."""
        return self.core.key_index(numbers)


class BatchEvaluator:
    """Evaluate whole shape groups of instantiations at once.

    Parameters
    ----------
    ctx:
        The :class:`EvaluationContext` the groups live in.  The evaluator
        reads its database, atom relations and canonical joins through it
        and keeps its groups in the context's
        :class:`~repro.datalog.lifecycle.LifecycleCache`, so groups and
        memoized relations share one LRU budget, one generation watcher
        and one :meth:`~EvaluationContext.clear`.
    """

    def __init__(self, ctx: EvaluationContext) -> None:
        self.ctx = ctx
        self.db = ctx.db
        self.store = ctx.store
        self.stats = BatchStats()
        self._groups = self.store.section("group")

    def applies_to(self, db: Database) -> bool:
        """True when this evaluator's groups are valid for the given database."""
        return self.db is db

    @property
    def group_count(self) -> int:
        """Number of shape groups currently materialized (telemetry for
        ``MetaqueryEngine.stats()`` and the eviction policy)."""
        return len(self._groups)

    def refresh(self) -> frozenset[str]:
        """Drop only the groups reading mutated relations (the context's
        :meth:`EvaluationContext.refresh`, which sweeps the shared store)."""
        return self.ctx.refresh()

    # ------------------------------------------------------------------
    def body_group(
        self,
        body_atoms: Sequence[Atom],
        precomputed: Relation | Callable[[], Relation] | None = None,
    ) -> BodyGroup:
        """The member's view of its shape group, materializing it on first sight.

        ``precomputed`` lets callers that can produce ``J(body_atoms)``
        themselves (FindRules assembles it from the reduced node relations)
        seed the group without this evaluator re-joining; its columns may be
        in any order.  Pass a zero-argument callable to defer that work to
        the cache miss — on a group hit it is never invoked.
        """
        self.refresh()
        key, names, atom_numbers = body_shape(body_atoms)
        core = self._groups.get(key)
        if core is None:
            self.stats.groups += 1
            if callable(precomputed):
                precomputed = precomputed()
            if precomputed is None:
                join = join_atoms(body_atoms, self.db, self.ctx)
            elif list(precomputed.columns) != names:
                join = precomputed.project(names)
            else:
                join = precomputed
            canonical = _normalized_view(join, len(names))
            support = self._support(body_atoms, atom_numbers, canonical)
            core = _GroupCore(canonical, support)
            self._groups.put(
                key,
                core,
                relations=frozenset(atom_key[0] for atom_key in key),
                weight=core.size,
            )
        else:
            self.stats.group_hits += 1
        return BodyGroup(core, {name: i for i, name in enumerate(names)})

    def _support(
        self, body_atoms: Sequence[Atom], atom_numbers: Sequence[tuple[int, ...]], canonical: Relation
    ) -> Fraction:
        """``sup`` read off the canonical join (see :mod:`repro.core.indices`)."""
        best = Fraction(0)
        for atom, numbers in zip(body_atoms, atom_numbers):
            base = atom_relation(atom, self.db, self.ctx)
            denominator = len(base)
            if denominator == 0:
                continue
            numerator = len(canonical._hash_index(numbers))
            value = _ratio(numerator, denominator)
            if value > best:
                best = value
        return best

    # ------------------------------------------------------------------
    def _head_alignment(self, group: BodyGroup, head: Relation) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Positions of the head's body-shared variables, aligned on both sides.

        Returns ``(head_positions, body_numbers)`` sorted by canonical body
        number, so the key tuples of the two hash indexes compare equal.
        """
        pairs = []
        for pos, name in enumerate(head.columns):
            number = group.name_to_number.get(name)
            if number is not None:
                pairs.append((number, pos))
        pairs.sort()
        return tuple(pos for _, pos in pairs), tuple(number for number, _ in pairs)

    def head_indices(self, group: BodyGroup, head_atom: Atom) -> tuple[Fraction, Fraction]:
        """``(cvr, cnf)`` of one head instantiation against the group's body.

        One grouped semijoin pass: both sides' hash indexes on the shared
        variables are cached (the body's once per group and variable set,
        the head's once per relation shape), so each member costs a key-set
        intersection plus bucket-size sums.
        """
        self.stats.members += 1
        head = atom_relation(head_atom, self.db, self.ctx)
        head_positions, body_numbers = self._head_alignment(group, head)
        head_index = head._hash_index(head_positions)
        body_index = group.key_index(body_numbers)
        common = head_index.keys() & body_index.keys()
        cover_numerator = sum(len(head_index[k]) for k in common)
        confidence_numerator = sum(len(body_index[k]) for k in common)
        return (
            _ratio(cover_numerator, len(head)),
            _ratio(confidence_numerator, group.size),
        )

    def head_joins(self, group: BodyGroup, head_atom: Atom) -> bool:
        """True iff ``J(b ∪ {h})`` is non-empty — the certifying-set test
        for ``cnf``/``cvr`` at threshold 0 (Proposition 3.20), answered from
        the group without materializing the combined join."""
        self.stats.members += 1
        head = atom_relation(head_atom, self.db, self.ctx)
        head_positions, body_numbers = self._head_alignment(group, head)
        head_index = head._hash_index(head_positions)
        body_index = group.key_index(body_numbers)
        if len(head_index) > len(body_index):
            head_index, body_index = body_index, head_index
        return any(key in body_index for key in head_index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchEvaluator(db={self.db.name!r}, groups={len(self._groups)}, "
            f"stats={self.stats.as_dict()})"
        )
