"""A memoization context for conjunctive-query evaluation.

Both metaquery engines evaluate exponentially many instantiations of the
same literal schemes over one fixed database, and the indices of a single
rule re-join the same body several times (once per index, once per body
atom for support).  :class:`EvaluationContext` makes that redundancy cheap:

* ``atom_relation`` results are cached keyed by the atom's *shape* — the
  predicate plus, per argument position, either the constant value or the
  first-occurrence index of the variable.  Two atoms that differ only in
  variable naming share one cache entry; the hit is renamed to the caller's
  variable names in O(1) (renamed views share tuples and hash indexes).
* ``join_atoms`` results are cached the same way, with the variable
  numbering taken across the whole atom list, so the body join of a rule is
  computed once no matter how many head instantiations it is paired with.
* ``fraction`` values (exact :class:`~fractions.Fraction` ratios) are cached
  keyed by the normalized shape of the pair of atom sets.

A context is bound to one :class:`~repro.relational.database.Database`.
In-place mutations between calls are detected automatically through the
database's per-relation generation counters: on its next use the context
drops exactly the entries that read a mutated relation (the shape keys
name every predicate an entry touches) and keeps the rest warm — see
:meth:`EvaluationContext.refresh`.  Mutating the database *during* a
single evaluation remains unsupported, as before.  Entries live in a
:class:`~repro.datalog.lifecycle.LifecycleCache`, optionally bounded by a
:class:`~repro.datalog.lifecycle.CacheLimit` (LRU eviction across the
atom/join/fraction sections and the shape groups of the
:class:`~repro.datalog.batching.BatchEvaluator` sitting on the context).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.lifecycle import CacheLimit, GenerationWatcher, LifecycleCache
from repro.datalog.terms import Variable
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

__all__ = ["CacheStats", "EvaluationContext"]

#: Normalized shape of one atom: (predicate, (("v", i) | ("c", value), ...)).
AtomKey = tuple[str, tuple[tuple[str, Hashable], ...]]


def _shape_key(atom: Atom, var_ids: dict[Variable, int]) -> AtomKey:
    """The shape of ``atom`` under the shared variable numbering ``var_ids``.

    ``var_ids`` is extended in place: variables are numbered by first
    occurrence across every atom keyed with the same dictionary.
    """
    parts: list[tuple[str, Hashable]] = []
    for t in atom.terms:
        if isinstance(t, Variable):
            number = var_ids.setdefault(t, len(var_ids))
            parts.append(("v", number))
        else:
            parts.append(("c", t.value))
    return (atom.predicate, tuple(parts))


def _atoms_key(atoms: Sequence[Atom]) -> tuple[tuple[AtomKey, ...], list[str]]:
    """Normalize a whole atom list; returns the key and the variable names
    of the actual atoms in numbering order (for un-renaming cache hits)."""
    var_ids: dict[Variable, int] = {}
    keys = tuple(_shape_key(atom, var_ids) for atom in atoms)
    names = [v.name for v, _ in sorted(var_ids.items(), key=lambda kv: kv[1])]
    return keys, names


def _normalized_view(relation: Relation, n_variables: int) -> Relation:
    """The relation with its columns renamed to the canonical ``__v{i}`` names.

    A :meth:`~repro.relational.relation.Relation._view` — the cached entry
    shares the result's tuples, value-keyed index cache *and* columnar
    store, so a kernel-produced result stays encoded (and undecoded) in
    the cache until something set-shaped touches it.
    """
    schema = RelationSchema(relation.name, [f"__v{i}" for i in range(n_variables)])
    return relation._view(schema)


def _actual_view(relation: Relation, names: Sequence[str]) -> Relation:
    """A cached normalized relation renamed back to the caller's variable names."""
    schema = RelationSchema(relation.name, list(names))
    return relation._view(schema)


@dataclass
class CacheStats:
    """Hit/miss counters, mostly for benchmarks and debugging."""

    atom_hits: int = 0
    atom_misses: int = 0
    join_hits: int = 0
    join_misses: int = 0
    fraction_hits: int = 0
    fraction_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "atom_hits": self.atom_hits,
            "atom_misses": self.atom_misses,
            "join_hits": self.join_hits,
            "join_misses": self.join_misses,
            "fraction_hits": self.fraction_hits,
            "fraction_misses": self.fraction_misses,
        }


class EvaluationContext:
    """Shared caches for evaluating many queries over one fixed database.

    Parameters
    ----------
    db:
        The database the cached results are valid for.  Evaluation
        functions receiving a context for a *different* database silently
        bypass it.
    caching:
        When False, the context never stores or serves memoized results —
        the full uncached ablation baseline.  A batcher sitting on it still
        keeps its shape groups in :attr:`store`.
    cache_limit:
        Optional :class:`~repro.datalog.lifecycle.CacheLimit` (or the int /
        pair spellings it coerces) bounding the store, and with it the
        groups of a batcher sitting on the context.
    """

    def __init__(
        self,
        db: Database,
        caching: bool = True,
        cache_limit: "CacheLimit | int | tuple | None" = None,
    ) -> None:
        self.db = db
        self.caching = caching
        self.stats = CacheStats()
        self.store = LifecycleCache(CacheLimit.coerce(cache_limit))
        self._atoms = self.store.section("atom")
        self._joins = self.store.section("join")
        self._fractions = self.store.section("fraction")
        self._watcher = GenerationWatcher(db)

    def clear(self) -> None:
        """Drop every cached result, shape groups included, and release the
        cached hash indexes.

        No longer *required* after an in-place mutation (:meth:`refresh`
        auto-invalidates incrementally) but still the explicit full reset
        used by ``MetaqueryEngine.invalidate_cache``.
        """
        self.store.clear()
        self._watcher.resync()

    def applies_to(self, db: Database) -> bool:
        """True when this context's caches are valid for the given database.

        Identity is still the test — a context never serves results for a
        *different* database object.  Staleness of the *same* object after
        in-place mutation is handled separately by :meth:`refresh`, which
        every memoized lookup runs first.
        """
        return self.db is db

    def refresh(self) -> frozenset[str]:
        """Detect in-place database mutations; drop only affected entries.

        An O(1) probe of ``db.mutation_count`` when nothing changed.  On a
        mismatch the per-relation generations are diffed against the last
        snapshot (:class:`~repro.datalog.lifecycle.GenerationWatcher`) and
        entries reading a changed relation are invalidated — entries over
        untouched relations stay warm.  Returns the changed relation names
        (mostly for tests and telemetry).
        """
        # Invalidate *before* advancing the snapshot: under the async
        # facade another thread's O(1) probe must not see a fresh snapshot
        # while stale entries are still in the store.  Double invalidation
        # from concurrent refreshes is idempotent.
        changed = self._watcher.peek()
        if changed:
            self.store.invalidate_relations(changed)
            self._watcher.resync()
        return changed

    # ------------------------------------------------------------------
    def atom_relation(self, atom: Atom, compute: Callable[[Atom], Relation]) -> Relation:
        """The memoized relation of one atom (columns = its variable names)."""
        if not self.caching:
            return compute(atom)
        self.refresh()
        var_ids: dict[Variable, int] = {}
        key = _shape_key(atom, var_ids)
        names = [v.name for v, _ in sorted(var_ids.items(), key=lambda kv: kv[1])]
        cached = self._atoms.get(key)
        if cached is None:
            self.stats.atom_misses += 1
            result = compute(atom)
            self._atoms.put(
                key,
                _normalized_view(result, len(names)),
                relations=frozenset((atom.predicate,)),
                weight=len(result),
            )
            return result
        self.stats.atom_hits += 1
        return _actual_view(cached, names)

    def join_atoms(
        self, atoms: Sequence[Atom], compute: Callable[[], Relation]
    ) -> Relation:
        """The memoized join of an atom list.

        ``compute`` must return the join with columns in first-occurrence
        variable order (the canonical order produced by
        :func:`repro.datalog.evaluation.join_atoms`).
        """
        if not self.caching:
            return compute()
        self.refresh()
        key, names = _atoms_key(atoms)
        cached = self._joins.get(key)
        if cached is None:
            self.stats.join_misses += 1
            result = compute()
            self._joins.put(
                key,
                _normalized_view(result, len(names)),
                relations=frozenset(atom_key[0] for atom_key in key),
                weight=len(result),
            )
            return result
        self.stats.join_hits += 1
        return _actual_view(cached, names)

    def fraction(
        self,
        r_atoms: Sequence[Atom],
        s_atoms: Sequence[Atom],
        compute: Callable[[], Fraction],
    ) -> Fraction:
        """The memoized fraction ``R ↑ S`` of a pair of atom sets."""
        if not self.caching:
            return compute()
        self.refresh()
        joint_key, _ = _atoms_key(tuple(r_atoms) + tuple(s_atoms))
        key = (len(r_atoms), joint_key)
        cached = self._fractions.get(key)
        if cached is None:
            self.stats.fraction_misses += 1
            cached = compute()
            self._fractions.put(
                key,
                cached,
                relations=frozenset(atom_key[0] for atom_key in joint_key),
                weight=0,
            )
        else:
            self.stats.fraction_hits += 1
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvaluationContext(db={self.db.name!r}, caching={self.caching}, "
            f"atoms={len(self._atoms)}, joins={len(self._joins)}, "
            f"fractions={len(self._fractions)})"
        )
