"""Lazily built, cached hash indexes on column subsets of a relation.

:func:`build_index` is the probe API that every layer above the relational
core consumes: a mapping ``{key_tuple: [row, ...]}`` over a relation's
value tuples, cached per column-position tuple in
``Relation._index_cache``.  The batching layer intersects key sets and
sums bucket lengths through exactly this shape.  The columnar kernels of
:mod:`repro.relational.columnar` need no index: they sort and search the
encoded columns directly.

Keys are *positions* rather than column names so that renamed views created
via :meth:`Relation.rename_columns` / :meth:`Relation.with_name` (which keep
the column order) can share the cache of the relation they were derived
from.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["build_index"]

Row = tuple


def build_index(
    rows: Iterable[Row], positions: Sequence[int]
) -> dict[tuple[Any, ...], list[Row]]:
    """Build a hash index ``{key: [rows]}`` grouping rows by the given positions."""
    index: dict[tuple[Any, ...], list[Row]] = {}
    if len(positions) == 1:
        pos = positions[0]
        for row in rows:
            index.setdefault((row[pos],), []).append(row)
    else:
        for row in rows:
            index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index

