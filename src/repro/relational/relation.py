"""The :class:`Relation` class: an immutable set of tuples with named columns.

Relations use *set semantics* (no duplicate tuples), exactly as in the paper,
where every index is a ratio of result-set cardinalities.  All algebra
operations return new :class:`Relation` objects and never mutate their
operands.

Internally a relation has two interchangeable representations:

* the classic ``frozenset`` of value tuples (``_tuples``) — always the
  source of truth for equality, hashing, iteration and the value-keyed
  probe indexes every layer above consumes; and
* an optional dictionary-encoded :class:`~repro.relational.columnar.ColumnStore`
  (``_columnar``) — int64 NumPy columns the vectorized kernels of
  :mod:`repro.relational.columnar` operate on.

Kernel results are born columnar with ``_tuples`` unset and decode lazily
on first set-shaped access; because decoding yields tuples *equal* to the
ones the per-tuple path builds, and ``frozenset`` iteration order depends
only on its elements, the two paths are byte-for-byte interchangeable.
The kernels engage only when the columnar switch is on
(:func:`repro.relational.columnar.enabled`) and the operands are large
enough to benefit (:data:`~repro.relational.columnar.MIN_KERNEL_ROWS`), or
already encoded.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import AlgebraError, SchemaError
from repro.relational import columnar, indexes
from repro.relational.columnar import ColumnStore
from repro.relational.dictionary import ValueDictionary
from repro.relational.schema import Attribute, RelationSchema

__all__ = ["Relation"]

Tuple_ = tuple
Row = tuple

#: The value-keyed index cache type shared between renamed views.
IndexCache = dict[tuple[int, ...], dict[tuple[Any, ...], list[Row]]]


class Relation:
    """An immutable relation: a schema plus a finite set of same-arity tuples.

    Parameters
    ----------
    schema:
        Either a :class:`RelationSchema` or a relation name (in which case
        ``columns`` must also be given).
    tuples:
        Iterable of rows; each row is a sequence whose length equals the
        schema arity.  Rows are stored as tuples in a frozenset.
    columns:
        Column names, used only when ``schema`` is a plain name string.
    """

    __slots__ = ("_schema", "_tuples", "_index_cache", "_columnar", "_dict_hint")

    def __init__(
        self,
        schema: RelationSchema | str,
        tuples: Iterable[Sequence[Any]] = (),
        columns: Sequence[str] | None = None,
    ) -> None:
        if isinstance(schema, str):
            if columns is None:
                raise SchemaError(
                    "columns must be provided when constructing a Relation from a name"
                )
            schema = RelationSchema(schema, columns)
        elif columns is not None:
            raise SchemaError("columns must not be given together with a RelationSchema")
        self._schema = schema
        arity = schema.arity
        frozen = set()
        for row in tuples:
            row = tuple(row)
            if len(row) != arity:
                raise SchemaError(
                    f"tuple {row!r} has arity {len(row)}, relation {schema.name!r} "
                    f"expects arity {arity}"
                )
            frozen.add(row)
        self._tuples: frozenset[Row] | None = frozenset(frozen)
        self._index_cache: IndexCache | None = None
        self._columnar: ColumnStore | None = None
        #: The preferred encoding dictionary for a lazy first encode —
        #: stamped by the owning Database so unary operations on not-yet-
        #: encoded relations (project/select_eq) encode under the shared
        #: database dictionary instead of a fresh private one.
        self._dict_hint: ValueDictionary | None = None

    @classmethod
    def _from_frozen(
        cls,
        schema: RelationSchema,
        tuples: frozenset[Row],
        index_cache: IndexCache | None = None,
        columnar_store: ColumnStore | None = None,
    ) -> "Relation":
        """Internal fast constructor for rows already validated against ``schema``.

        ``index_cache`` may only be the cache of a relation over the *same
        tuples in the same column order* (e.g. a renamed view), since
        indexes are keyed by column positions — prefer :meth:`_view`, which
        shares both caches from a donor relation and asserts the schemas
        are compatible.  A debug-mode check below catches caches indexed
        beyond this schema's arity; it cannot catch a same-arity column
        permutation, which is why internal view construction goes through
        the donor API.
        """
        assert index_cache is None or all(
            position < schema.arity for positions in index_cache for position in positions
        ), "index cache indexes columns beyond the target schema's arity"
        rel = cls.__new__(cls)
        rel._schema = schema
        rel._tuples = tuples
        rel._index_cache = index_cache
        rel._columnar = columnar_store
        rel._dict_hint = columnar_store.dictionary if columnar_store is not None else None
        return rel

    @classmethod
    def _from_columnar(cls, schema: RelationSchema, store: ColumnStore) -> "Relation":
        """A kernel-produced relation; rows decode lazily on first access."""
        assert len(store.columns) == schema.arity
        rel = cls.__new__(cls)
        rel._schema = schema
        rel._tuples = None
        rel._index_cache = None
        rel._columnar = store
        rel._dict_hint = store.dictionary
        return rel

    def _view(self, schema: RelationSchema) -> "Relation":
        """A renamed view sharing this relation's rows and *all* its caches.

        The donor (``self``) and the view must have the same column order,
        which pure renames preserve by construction; the assertion guards
        future refactors against aliasing a cache across schemas of a
        different shape (see the ``_from_frozen`` docstring).
        """
        assert schema.arity == self._schema.arity, (
            f"view schema {schema.attribute_names} is incompatible with donor "
            f"{self._schema.attribute_names}: column counts differ"
        )
        if self._index_cache is None:
            self._index_cache = {}
        rel = Relation.__new__(Relation)
        rel._schema = schema
        rel._tuples = self._tuples
        rel._index_cache = self._index_cache
        rel._columnar = self._columnar
        rel._dict_hint = self._dict_hint
        return rel

    # ------------------------------------------------------------------
    # the two representations
    # ------------------------------------------------------------------
    def _rows(self) -> frozenset[Row]:
        """The frozenset of value tuples, decoding the columns on demand."""
        rows = self._tuples
        if rows is None:
            assert self._columnar is not None
            rows = self._tuples = self._columnar.decode()
        return rows

    def _ensure_columnar(self, dictionary: ValueDictionary | None) -> ColumnStore:
        """The columnar store, encoding the rows on demand.

        ``dictionary`` is the preferred encoding dictionary for a fresh
        encode; when ``None``, the owning database's dictionary
        (``_dict_hint``, stamped by ``Database.add``) is used so unary
        operations on database relations never spawn private
        dictionaries, and a fresh one is created only for free-standing
        relations.  A store that already exists is returned as-is —
        ``_paired_stores`` translates (and caches) across dictionaries
        when operands disagree.

        Concurrency: two threads may race on the lazy first encode (the
        async facade evaluates up to ``max_concurrency`` metaqueries over
        one shared engine).  ``ValueDictionary.intern`` is thread-safe,
        so both threads build stores with identical codes over the same
        frozen rows; the losing assignment is overwritten by an
        equivalent store, never a corrupt one.
        """
        store = self._columnar
        if store is None:
            if dictionary is None:
                dictionary = self._dict_hint
                if dictionary is None:
                    dictionary = ValueDictionary()
            store = self._columnar = ColumnStore.from_rows(
                dictionary, self._rows(), self._schema.arity
            )
        return store

    def _kernels_apply(self, other: "Relation | None" = None) -> bool:
        """True when this operation should run on the vectorized kernels."""
        if not columnar.enabled():
            return False
        if self._columnar is not None:
            return True
        if other is not None and other._columnar is not None:
            return True
        size = len(self) + (len(other) if other is not None else 0)
        return size >= columnar.MIN_KERNEL_ROWS

    def _paired_stores(self, other: "Relation") -> tuple[ColumnStore, ColumnStore]:
        """Both operands encoded under one dictionary, translations cached.

        When both operands are already encoded under *different*
        dictionaries, the store of the smaller dictionary is translated
        into the larger (almost always the shared database dictionary)
        and the translation is **cached back on the relation**, so a hot
        loop joining the same operand repeatedly translates once instead
        of building and discarding a temp store per call.
        """
        preferred = None
        if self._columnar is None and other._columnar is not None:
            preferred = other._columnar.dictionary
        left = self._ensure_columnar(preferred)
        right = other._ensure_columnar(left.dictionary)
        if left.dictionary is not right.dictionary:
            if len(left.dictionary) >= len(right.dictionary):
                right = other._columnar = right.translated(left.dictionary)
            else:
                left = self._columnar = left.translated(right.dictionary)
        return left, right

    def release_indexes(self) -> None:
        """Drop every derived cache, keeping the relation fully usable.

        Clears the value-keyed index cache *in place* (renamed views alias
        the same dict) and the columnar store's decoded-rows cache; an
        encoded relation also drops its materialized tuples, which decode
        again on demand — *unless* the dictionary has unified
        equal-but-distinguishable values (``1``/``True``/``1.0`` split
        across relations), in which case re-decoding could swap a value
        for a cross-relation representative, so the original tuples are
        retained.  Called by the cache-eviction hooks of the lifecycle
        layer.
        """
        if self._index_cache is not None:
            self._index_cache.clear()
        if self._columnar is not None:
            self._columnar.release()
            if not self._columnar.dictionary.unifies_representatives:
                self._tuples = None

    def _hash_index(self, positions: tuple[int, ...]) -> dict:
        """The lazily built hash index on the given column positions."""
        cache = self._index_cache
        if cache is None:
            cache = self._index_cache = {}
        index = cache.get(positions)
        if index is None:
            index = cache[positions] = indexes.build_index(self._rows(), positions)
        return index

    # ------------------------------------------------------------------
    # pickling: ship the compact representation, drop the caches
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[RelationSchema, frozenset[Row] | None, ColumnStore | None]:
        if self._columnar is not None:
            # The encoded form is the compact one, and pickle's memo shares
            # one ValueDictionary across all relations in the same payload.
            # When the dictionary has unified equal-but-distinguishable
            # values, decoding on the other side could substitute a
            # cross-relation representative (1 for True), so the exact
            # tuples ride along when they are materialized.
            if self._columnar.dictionary.unifies_representatives:
                return (self._schema, self._tuples, self._columnar)
            return (self._schema, None, self._columnar)
        return (self._schema, self._tuples, None)

    def __setstate__(
        self, state: tuple[RelationSchema, frozenset[Row] | None, ColumnStore | None]
    ) -> None:
        self._schema, self._tuples, self._columnar = state
        self._index_cache = None
        self._dict_hint = self._columnar.dictionary if self._columnar is not None else None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The relation schema (name + columns)."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name."""
        return self._schema.name

    @property
    def columns(self) -> tuple[str, ...]:
        """Column names, in order."""
        return self._schema.attribute_names

    @property
    def arity(self) -> int:
        """Number of columns."""
        return self._schema.arity

    @property
    def tuples(self) -> frozenset[Row]:
        """The underlying frozenset of rows."""
        return self._rows()

    def __len__(self) -> int:
        if self._tuples is not None:
            return len(self._tuples)
        assert self._columnar is not None
        return self._columnar.length

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows())

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._rows()

    def __bool__(self) -> bool:
        return len(self) > 0

    def is_empty(self) -> bool:
        """True when the relation contains no tuples."""
        return len(self) == 0

    def active_domain(self) -> frozenset[Any]:
        """The set of constants appearing anywhere in the relation."""
        return frozenset(value for row in self._rows() for value in row)

    def __eq__(self, other: object) -> bool:
        """Relations are equal when columns and tuple sets coincide.

        The relation *name* is intentionally ignored so that derived results
        (joins, projections) compare equal regardless of their synthetic
        names.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        return self.columns == other.columns and self._rows() == other._rows()

    def __hash__(self) -> int:
        return hash((self.columns, self._rows()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self._schema}, {len(self)} tuples)"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> "Relation":
        """Convenience constructor from a name, column list and rows."""
        return cls(RelationSchema(name, columns), rows)

    @classmethod
    def empty(cls, name: str, columns: Sequence[str]) -> "Relation":
        """An empty relation over the given columns."""
        return cls(RelationSchema(name, columns), ())

    def with_rows(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Return a new relation with the same schema and the given rows."""
        return Relation(self._schema, rows)

    def with_name(self, name: str) -> "Relation":
        """Return this relation under a different name (same columns/rows)."""
        return self._view(self._schema.rename(name))

    # ------------------------------------------------------------------
    # algebra operations (methods; a functional API lives in algebra.py)
    # ------------------------------------------------------------------
    def project(self, columns: Sequence[str], name: str | None = None) -> "Relation":
        """Projection ``π_columns`` with duplicate elimination.

        ``columns`` may reorder attributes of this relation; every column
        name may appear at most once (the result is itself a relation with
        uniquely named columns).
        """
        positions = [self._schema.position_of(c) for c in columns]
        new_schema = RelationSchema(name or f"π({self.name})", columns)
        if self._kernels_apply():
            store = columnar.project_store(self._ensure_columnar(None), positions)
            return Relation._from_columnar(new_schema, store)
        rows = frozenset(tuple(row[p] for p in positions) for row in self._rows())
        return Relation._from_frozen(new_schema, rows)

    def select(self, predicate: Callable[[Mapping[str, Any]], bool], name: str | None = None) -> "Relation":
        """Selection by an arbitrary predicate over a ``{column: value}`` dict."""
        cols = self.columns
        rows = frozenset(row for row in self._rows() if predicate(dict(zip(cols, row))))
        return Relation._from_frozen(self._schema.rename(name or f"σ({self.name})"), rows)

    def select_eq(self, column: str, value: Any, name: str | None = None) -> "Relation":
        """Selection ``σ_{column = value}`` (answered from the cached hash index)."""
        pos = self._schema.position_of(column)
        new_schema = self._schema.rename(name or f"σ({self.name})")
        if self._kernels_apply():
            store = columnar.select_eq_store(self._ensure_columnar(None), pos, value)
            return Relation._from_columnar(new_schema, store)
        rows = frozenset(self._hash_index((pos,)).get((value,), ()))
        return Relation._from_frozen(new_schema, rows)

    def rename_columns(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """Rename columns according to ``mapping`` (missing columns keep their name).

        The renamed view shares this relation's tuples and index caches
        (indexes are keyed by column positions, which renaming preserves).
        """
        new_cols = [mapping.get(c, c) for c in self.columns]
        return self._view(RelationSchema(name or self.name, new_cols))

    def natural_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join on equal column names.

        The result's columns are this relation's columns followed by the
        columns of ``other`` not already present.  When the operands share no
        columns the result is the cartesian product.
        """
        left_cols = self.columns
        right_cols = other.columns
        common = [c for c in right_cols if c in left_cols]
        right_only = [c for c in right_cols if c not in left_cols]
        result_cols = list(left_cols) + right_only

        left_common_pos = [left_cols.index(c) for c in common]
        right_common_pos = tuple(right_cols.index(c) for c in common)
        right_only_pos = [right_cols.index(c) for c in right_only]

        schema = RelationSchema(name or f"({self.name} ⋈ {other.name})", result_cols)
        if self._kernels_apply(other):
            left, right = self._paired_stores(other)
            store = columnar.join_stores(
                left, right, left_common_pos, right_common_pos, right_only_pos
            )
            return Relation._from_columnar(schema, store)

        # hash join on the common columns, probing other's cached index
        index = other._hash_index(right_common_pos)
        rows = []
        for lrow in self._rows():
            key = tuple(lrow[p] for p in left_common_pos)
            for rrow in index.get(key, ()):
                rows.append(lrow + tuple(rrow[p] for p in right_only_pos))
        return Relation._from_frozen(schema, frozenset(rows))

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Semijoin ``self ⋉ other``: tuples of ``self`` that join with ``other``."""
        common = [c for c in self.columns if c in other.columns]
        new_schema = self._schema.rename(name or self.name)
        if not common:
            # With no shared columns the semijoin keeps everything iff the
            # other relation is non-empty.
            rows = self._rows() if other else frozenset()
            return Relation._from_frozen(new_schema, rows)
        left_pos = [self.columns.index(c) for c in common]
        right_pos = tuple(other.columns.index(c) for c in common)
        if self._kernels_apply(other):
            left, right = self._paired_stores(other)
            store = columnar.semijoin_stores(left, right, left_pos, right_pos)
            return Relation._from_columnar(new_schema, store)
        keys = other._hash_index(right_pos).keys()
        rows = frozenset(
            row for row in self._rows() if tuple(row[p] for p in left_pos) in keys
        )
        return Relation._from_frozen(new_schema, rows)

    def antijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Anti-semijoin ``self ▷ other``: tuples of ``self`` that do *not* join."""
        common = [c for c in self.columns if c in other.columns]
        new_schema = self._schema.rename(name or self.name)
        if common and self._kernels_apply(other):
            left_pos = [self.columns.index(c) for c in common]
            right_pos = tuple(other.columns.index(c) for c in common)
            left, right = self._paired_stores(other)
            store = columnar.semijoin_stores(left, right, left_pos, right_pos, negate=True)
            return Relation._from_columnar(new_schema, store)
        kept = self.semijoin(other).tuples
        return Relation._from_frozen(new_schema, self._rows() - kept)

    def product(self, other: "Relation", name: str | None = None) -> "Relation":
        """Cartesian product; column names must be disjoint."""
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise AlgebraError(f"cartesian product requires disjoint columns, shared: {overlap}")
        return self.natural_join(other, name=name)

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set union; the operands must have identical column lists."""
        self._require_same_columns(other, "union")
        return Relation._from_frozen(self._schema.rename(name or self.name), self._rows() | other.tuples)

    def difference(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set difference; the operands must have identical column lists."""
        self._require_same_columns(other, "difference")
        return Relation._from_frozen(self._schema.rename(name or self.name), self._rows() - other.tuples)

    def intersection(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set intersection; the operands must have identical column lists."""
        self._require_same_columns(other, "intersection")
        return Relation._from_frozen(self._schema.rename(name or self.name), self._rows() & other.tuples)

    def _require_same_columns(self, other: "Relation", op: str) -> None:
        if self.columns != other.columns:
            raise AlgebraError(
                f"{op} requires identical column lists, got {self.columns} and {other.columns}"
            )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def to_rows(self) -> list[Row]:
        """The tuples as a sorted list (sorted by string form, for stable output)."""
        return sorted(self._rows(), key=lambda row: tuple(str(v) for v in row))

    def pretty(self, max_rows: int = 20) -> str:
        """A small ASCII rendering of the relation, for examples and debugging."""
        header = " | ".join(self.columns)
        lines = [f"{self.name}", header, "-" * len(header)]
        for i, row in enumerate(self.to_rows()):
            if i >= max_rows:
                lines.append(f"... ({len(self) - max_rows} more rows)")
                break
            lines.append(" | ".join(str(v) for v in row))
        return "\n".join(lines)
