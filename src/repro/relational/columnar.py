"""Columnar storage and vectorized kernels behind the ``Relation`` probe API.

This module is the "raw speed" layer named by the ROADMAP: a
:class:`ColumnStore` holds a relation as dictionary-encoded int64 NumPy
columns (one contiguous ``ndarray`` per attribute, codes assigned by the
shared :class:`~repro.relational.dictionary.ValueDictionary`), and the
join-shaped algebra operations — natural join, semijoin/antijoin, equality
selection, projection, and the constants/repeated-variable filter of atom
evaluation — run as vectorized NumPy kernels over those columns instead of
per-tuple Python dict probes: sort + ``searchsorted`` hash-free joins,
boolean-mask selections, ``np.unique`` projection dedup.

Correctness notes the kernels rely on (and the property suite pins):

* Operand rows are distinct (``Relation`` enforces set semantics), and a
  natural join of distinct-row operands yields distinct rows — the output
  row determines the contributing pair — so the join kernel never dedups.
  Likewise semijoin/selection outputs are subsets, and the atom filter
  keeps the first occurrence of every variable, which together with the
  constant/repeat constraints determines the full input row.  Only general
  projection eliminates duplicates.
* Decoding produces tuples *equal* to the set-based path's tuples, and
  ``frozenset`` iteration order depends only on the elements — so every
  downstream iteration-order guarantee (streaming order, SSE wire bytes)
  is preserved byte-for-byte.  **Known exclusion:** the dictionary
  interns by semantic equality, so when *equal but distinguishable*
  values are split across relations (``True`` vs ``1`` vs ``1.0``),
  decoded kernel outputs carry the first-interned representative while
  the set-based path carries the operand row's own object — equal
  answers, but JSON renderings may differ (``true`` vs ``1``).  The
  dictionary raises its sticky ``unifies_representatives`` flag when
  this ever happens, and the relation layer then retains original
  tuples across pickling and cache eviction so *base-relation* values
  are never swapped; derived (kernel-output) rows keep the
  representative.  Databases with a single concrete type per semantic
  value — every shipped workload — are byte-identical throughout.
* Kernels joining stores encoded under *different* dictionaries (e.g. a
  relation shipped to a pool worker in its own pickle) first translate the
  right operand's codes into the left's dictionary; codes are append-only
  so translation never disturbs existing columns.

The relation layer reads the switch from the current context
(:func:`enabled`).  ``MetaqueryEngine(columnar=)`` fixes it when an engine
is built and pins it around every evaluation with :func:`use_columnar`;
pool workers receive it once, as their process default
(:func:`set_default`).  With it off, the relation layer runs its per-tuple
frozenset algebra, the reference the differential suites compare against.
Because generators do not own a context (PEP 568 is not implemented),
streaming evaluation wraps each pull with :func:`iterate_with` instead of
holding ``use_columnar`` open across yields.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy

from repro.relational.dictionary import ValueDictionary

#: NumPy, typed ``Any`` so the strict type-checking tier does not depend
#: on NumPy's stubs.  Every column is a 1-D contiguous ``int64`` ndarray.
_np: Any = numpy

__all__ = [
    "MIN_KERNEL_ROWS",
    "ColumnStore",
    "atom_select_store",
    "backend",
    "enabled",
    "iterate_with",
    "join_stores",
    "project_store",
    "select_eq_store",
    "semijoin_stores",
    "set_default",
    "use_columnar",
]

Row = tuple
T = TypeVar("T")

#: Kernels engage when the operands' combined row count reaches this bound
#: (or when an operand is already encoded); below it the per-tuple path is
#: faster than encoding.  Results are identical either way — tests force
#: the kernels by shrinking this to 0.
MIN_KERNEL_ROWS = 32


# ----------------------------------------------------------------------
# the switch: process default + per-context override
# ----------------------------------------------------------------------
_DEFAULT_ENABLED: bool = True
_OVERRIDE: ContextVar[bool | None] = ContextVar("repro_columnar_override", default=None)


def enabled() -> bool:
    """True when the columnar kernels are active in the current context."""
    override = _OVERRIDE.get()
    return _DEFAULT_ENABLED if override is None else override


def set_default(flag: bool) -> None:
    """Set the process-wide default (used by pool worker initializers)."""
    global _DEFAULT_ENABLED
    _DEFAULT_ENABLED = bool(flag)


@contextmanager
def use_columnar(flag: bool = True) -> Iterator[None]:
    """Context manager forcing the columnar path on or off within the block."""
    token = _OVERRIDE.set(bool(flag))
    try:
        yield
    finally:
        _OVERRIDE.reset(token)


def iterate_with(flag: bool, factory: Callable[[], Iterator[T]]) -> Iterator[T]:
    """Drive the iterator built by ``factory`` with the switch pinned to ``flag``.

    A plain ``with use_columnar(flag): yield from it`` inside a generator
    would leak the override into the *caller's* context between yields
    (generators share their caller's context; PEP 568's generator-owned
    contexts were never implemented).  This wrapper sets and resets the
    override around each individual pull instead, so the setting applies
    exactly while evaluation code runs and never escapes.
    """
    iterator: Iterator[T] | None = None
    while True:
        token = _OVERRIDE.set(flag)
        try:
            if iterator is None:
                iterator = factory()
            try:
                item = next(iterator)
            except StopIteration:
                return
        finally:
            _OVERRIDE.reset(token)
        yield item


def backend() -> str:
    """The kernel backend, always ``"numpy"`` (recorded by the benchmarks)."""
    return "numpy"


class ColumnStore:
    """Dictionary-encoded columns of one relation: int64 ndarrays.

    ``columns`` is one contiguous ``int64`` ndarray per attribute;
    ``length`` is the row count (kept explicitly so zero-arity relations
    can distinguish the empty relation from the one containing the empty
    tuple).  The store lazily caches its decoded ``frozenset`` of value
    tuples; the cache is dropped by :meth:`release` (cache eviction) and
    excluded from pickles.
    """

    __slots__ = ("dictionary", "columns", "length", "_decoded")

    def __init__(
        self,
        dictionary: ValueDictionary,
        columns: tuple[Any, ...],
        length: int,
    ) -> None:
        self.dictionary = dictionary
        self.columns = columns
        self.length = length
        self._decoded: frozenset[Row] | None = None
        assert all(len(column) == length for column in columns)

    @classmethod
    def from_rows(
        cls, dictionary: ValueDictionary, rows: Iterable[Row], arity: int
    ) -> "ColumnStore":
        """Encode distinct, schema-validated rows under ``dictionary``.

        Values are interned row by row, left to right, so codes follow
        first appearance in ``rows``.
        """
        if arity == 0:
            # No values to count rows by: the relation holds () or nothing.
            return cls(dictionary, (), sum(1 for _ in rows))
        codes = _np.fromiter(
            map(dictionary.intern, chain.from_iterable(rows)), dtype=_np.int64
        )
        columns = tuple(codes[k::arity].copy() for k in range(arity))
        return cls(dictionary, columns, codes.shape[0] // arity)

    @classmethod
    def empty(cls, dictionary: ValueDictionary, arity: int) -> "ColumnStore":
        """An empty store of the given arity."""
        return cls(dictionary, tuple(_np.empty(0, dtype=_np.int64) for _ in range(arity)), 0)

    # ------------------------------------------------------------------
    def decode(self) -> frozenset[Row]:
        """The rows as value tuples (cached; shared by every renamed view)."""
        decoded = self._decoded
        if decoded is None:
            if not self.columns:
                decoded = frozenset([()]) if self.length else frozenset()
            else:
                values = self.dictionary.values
                decoded = frozenset(
                    zip(*(map(values.__getitem__, column.tolist()) for column in self.columns))
                )
            self._decoded = decoded
        return decoded

    def release(self) -> None:
        """Drop the decoded-rows cache (cache eviction)."""
        self._decoded = None

    def translated(self, dictionary: ValueDictionary) -> "ColumnStore":
        """This store re-encoded under another dictionary.

        Every value of the source dictionary is interned into the target
        (codes are append-only, so this is safe and idempotent), then the
        columns are mapped code-by-code.  Returns ``self`` when the target
        *is* this store's dictionary.
        """
        if dictionary is self.dictionary:
            return self
        mapping = _np.fromiter(map(dictionary.intern, self.dictionary.values), dtype=_np.int64)
        columns = tuple(mapping[column] for column in self.columns)
        return ColumnStore(dictionary, columns, self.length)

    # ------------------------------------------------------------------
    # pickling: codes + dictionary only; the decoded cache is rebuilt on demand
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[ValueDictionary, tuple[Any, ...], int]:
        return (self.dictionary, self.columns, self.length)

    def __setstate__(self, state: tuple[ValueDictionary, tuple[Any, ...], int]) -> None:
        self.dictionary, self.columns, self.length = state
        self._decoded = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStore({len(self.columns)} cols x {self.length} rows)"


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _unified(left: ColumnStore, right: ColumnStore) -> ColumnStore:
    """The right operand re-encoded into the left's dictionary if needed."""
    if right.dictionary is left.dictionary:
        return right
    return right.translated(left.dictionary)


def _pack_codes(groups: Sequence[list[Any]]) -> list[Any] | None:
    """Pack parallel multi-column code rows into single int64 keys, O(n).

    ``groups`` holds one key-column list per operand (equal column counts);
    each column position's stride is the joint code range across *all*
    groups, so equal rows — and only those — pack to the same key.  Codes
    are dense non-negative dictionary indices, which is what makes the
    mixed-radix packing injective.  Returns ``None`` when the packed range
    would overflow int64; callers then fall back to positional
    factorization via ``np.unique(axis=0)`` (a comparison sort over void
    records — correct, but an order of magnitude slower).
    """
    width = len(groups[0])
    ranges = []
    for position in range(width):
        highest = 1
        for columns in groups:
            column = columns[position]
            if column.shape[0]:
                highest = max(highest, int(column.max()) + 1)
        ranges.append(highest)
    total = 1
    for radix in ranges:
        total *= radix
        if total > (1 << 62):
            return None
    packed = []
    for columns in groups:
        out = _np.zeros(columns[0].shape[0], dtype=_np.int64)
        for column, radix in zip(columns, ranges):
            out *= radix
            out += column
        packed.append(out)
    return packed


def _key_codes(left_keys: list[Any], right_keys: list[Any]) -> tuple[Any, Any]:
    """Factorize multi-column join keys into single int64 codes per side.

    Single-column keys are used directly; wider keys are packed
    arithmetically (:func:`_pack_codes`), falling back to joint
    factorization with ``np.unique(axis=0)`` over both sides when the
    packed range would overflow — either way equal key tuples, and only
    those, share a code.
    """
    if len(left_keys) == 1:
        return left_keys[0], right_keys[0]
    packed = _pack_codes([left_keys, right_keys])
    if packed is not None:
        return packed[0], packed[1]
    m = left_keys[0].shape[0]
    stacked = _np.concatenate(
        [_np.stack(left_keys, axis=1), _np.stack(right_keys, axis=1)], axis=0
    )
    _, inverse = _np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1).astype(_np.int64, copy=False)
    return inverse[:m], inverse[m:]


def join_stores(
    left: ColumnStore,
    right: ColumnStore,
    left_pos: Sequence[int],
    right_pos: Sequence[int],
    right_keep: Sequence[int],
) -> ColumnStore:
    """Natural join: all left columns followed by the kept right columns.

    ``left_pos`` / ``right_pos`` are the common-column positions (equal
    length, possibly empty — then this is the cartesian product) and
    ``right_keep`` the right-only positions appended to the output.
    Distinct inputs produce distinct outputs, so no deduplication happens.
    Output rows follow left row order, then right row order within a key.
    """
    arity = len(left.columns) + len(right_keep)
    if left.length == 0 or right.length == 0:
        return ColumnStore.empty(left.dictionary, arity)
    right = _unified(left, right)
    if not left_pos:
        left_ids = _np.repeat(_np.arange(left.length), right.length)
        right_ids = _np.tile(_np.arange(right.length), left.length)
    else:
        left_key, right_key = _key_codes(
            [left.columns[p] for p in left_pos], [right.columns[p] for p in right_pos]
        )
        order = _np.argsort(right_key, kind="stable")
        sorted_key = right_key[order]
        lo = _np.searchsorted(sorted_key, left_key, side="left")
        hi = _np.searchsorted(sorted_key, left_key, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return ColumnStore.empty(left.dictionary, arity)
        left_ids = _np.repeat(_np.arange(left.length), counts)
        ends = _np.cumsum(counts)
        offsets = _np.arange(total) - _np.repeat(ends - counts, counts)
        right_ids = order[_np.repeat(lo, counts) + offsets]
    columns = tuple(column[left_ids] for column in left.columns) + tuple(
        right.columns[p][right_ids] for p in right_keep
    )
    return ColumnStore(left.dictionary, columns, int(left_ids.shape[0]))


def semijoin_stores(
    left: ColumnStore,
    right: ColumnStore,
    left_pos: Sequence[int],
    right_pos: Sequence[int],
    negate: bool = False,
) -> ColumnStore:
    """Semijoin (``negate=False``) or anti-semijoin (``negate=True``).

    ``left_pos`` must be non-empty — the no-common-columns degenerate case
    is resolved by the caller without touching columns at all.
    """
    arity = len(left.columns)
    if left.length == 0:
        return ColumnStore.empty(left.dictionary, arity)
    if right.length == 0:
        if negate:
            return ColumnStore(left.dictionary, left.columns, left.length)
        return ColumnStore.empty(left.dictionary, arity)
    right = _unified(left, right)
    left_key, right_key = _key_codes(
        [left.columns[p] for p in left_pos], [right.columns[p] for p in right_pos]
    )
    mask = _np.isin(left_key, right_key)
    if negate:
        mask = ~mask
    row_ids = _np.flatnonzero(mask)
    columns = tuple(column[row_ids] for column in left.columns)
    return ColumnStore(left.dictionary, columns, int(row_ids.shape[0]))


def select_eq_store(store: ColumnStore, position: int, value: Any) -> ColumnStore:
    """Equality selection ``column == value`` keeping every column."""
    code = store.dictionary.code_of(value)
    if code is None or store.length == 0:
        return ColumnStore.empty(store.dictionary, len(store.columns))
    row_ids = _np.flatnonzero(store.columns[position] == code)
    columns = tuple(column[row_ids] for column in store.columns)
    return ColumnStore(store.dictionary, columns, int(row_ids.shape[0]))


def project_store(store: ColumnStore, positions: Sequence[int]) -> ColumnStore:
    """Projection onto the given (distinct) positions, deduplicating rows.

    A projection onto a permutation of *all* columns cannot introduce
    duplicates and skips the dedup pass entirely; otherwise the distinct
    rows come out in ascending code order.
    """
    if not positions:
        return ColumnStore(store.dictionary, (), 1 if store.length else 0)
    gathered = [store.columns[p] for p in positions]
    if sorted(positions) == list(range(len(store.columns))):
        return ColumnStore(store.dictionary, tuple(gathered), store.length)
    if len(gathered) == 1:
        unique = _np.unique(gathered[0])
        return ColumnStore(store.dictionary, (unique,), int(unique.shape[0]))
    packed = _pack_codes([gathered])
    if packed is not None:
        _, first = _np.unique(packed[0], return_index=True)
        columns = tuple(column[first] for column in gathered)
        return ColumnStore(store.dictionary, columns, int(first.shape[0]))
    unique = _np.unique(_np.stack(gathered, axis=1), axis=0)
    columns = tuple(_np.ascontiguousarray(unique[:, k]) for k in range(len(gathered)))
    return ColumnStore(store.dictionary, columns, int(unique.shape[0]))


def atom_select_store(
    store: ColumnStore,
    constants: Sequence[tuple[int, Any]],
    repeats: Sequence[tuple[int, int]],
    keep: Sequence[int],
) -> ColumnStore:
    """The relation of one atom over ``store``: the fused constants filter,
    repeated-variable filter and first-occurrence projection.

    ``constants`` pairs ``(position, value)``, ``repeats`` pairs
    ``(position, first_position_of_same_variable)``, ``keep`` the first
    occurrence position of each distinct variable in order.  The kept
    positions plus the filters determine the whole input row, so distinct
    inputs stay distinct and no deduplication is needed — except the
    zero-variable case, which collapses to at most one empty tuple via the
    explicit ``length`` computation below.
    """
    codes: list[tuple[int, int]] = []
    for position, value in constants:
        code = store.dictionary.code_of(value)
        if code is None:
            return ColumnStore.empty(store.dictionary, len(keep))
        codes.append((position, code))
    if store.length == 0:
        return ColumnStore.empty(store.dictionary, len(keep))
    columns = store.columns
    mask = _np.ones(store.length, dtype=bool)
    for position, code in codes:
        mask &= columns[position] == code
    for position, first in repeats:
        mask &= columns[position] == columns[first]
    row_ids = _np.flatnonzero(mask)
    matched = int(row_ids.shape[0])
    if not keep:
        return ColumnStore(store.dictionary, (), 1 if matched else 0)
    return ColumnStore(store.dictionary, tuple(columns[p][row_ids] for p in keep), matched)
