"""Dictionary encoding: interning arbitrary hashable values to dense ints.

A :class:`ValueDictionary` is the translation table behind the columnar
storage layer (:mod:`repro.relational.columnar`): every constant appearing
in a relation is *interned* to a small non-negative integer code, and the
relation's columns store those codes in int64 NumPy arrays.  One
dictionary is shared per :class:`~repro.relational.database.Database`, so
equal constants in different relations of the same database map to the
same code and join kernels can compare plain int64s instead of hashing
Python objects per probe.

Design points:

* **Append-only.**  Codes are assigned by first-intern order and never
  change or disappear; growing the dictionary never invalidates codes
  already stored in a column.  This is what makes it safe to share one
  dictionary across every relation of a database, including relations
  encoded at different times.
* **Thread-safe.**  One dictionary is shared by every relation of a
  database, and relations encode *lazily* — under
  :class:`~repro.core.aio.AsyncMetaqueryEngine` up to ``max_concurrency``
  evaluations run concurrently over one engine, so two worker threads can
  intern new values at the same time.  :meth:`intern` therefore uses
  double-checked locking: a lock-free lookup serves the hit path, and the
  assign path re-checks under the lock so two threads interning different
  new values can never hand out the same code.  A value is appended to
  the value list *before* its code is published in the lookup table, so a
  lock-free hit can always decode its code immediately.  Reads
  (:meth:`code_of`, :meth:`value_of`, iteration) stay lock-free: the
  structure is append-only, so a concurrent reader sees either "absent"
  or a fully published entry, never a torn one.
* **Semantic equality.**  Interning uses ordinary ``dict`` key equality,
  exactly like the ``frozenset`` row storage it encodes: values that
  compare equal (``1 == True == 1.0``) share one code and decode to the
  first-interned representative.  Joins therefore match exactly the pairs
  the set-based path matches.  When such a *distinguishable* unification
  is ever observed, the sticky :attr:`unifies_representatives` flag is
  raised; the relation layer consults it to retain original tuples across
  pickling and cache eviction so base-relation values are never silently
  swapped for a cross-relation representative (see
  ``Relation.__getstate__`` / ``Relation.release_indexes``).
* **Picklable.**  Only the value list (plus the unification flag) crosses
  a process boundary; the code lookup table and the lock are rebuilt on
  unpickle.  Relations shipped to pool workers (the PR-5 relation sync)
  carry their encoded columns plus the dictionary, and pickle's memo
  shares one dictionary copy across all relations serialized in the same
  payload (e.g. a whole ``Database``).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

from repro.tools.sanitizer import create_lock

__all__ = ["ValueDictionary"]


def _distinguishable(representative: Any, value: Any) -> bool:
    """True when two *equal* values are nevertheless distinguishable.

    Equal values of different types (``True`` / ``1`` / ``1.0``) render
    differently on the JSON/SSE wire; so do the equal floats ``0.0`` and
    ``-0.0``.  Same-type values whose equality does not determine their
    ``repr`` (e.g. ``Decimal('1')`` vs ``Decimal('1.0')``) are out of
    scope — the storage layer documents them as a known exclusion.
    """
    if type(representative) is not type(value):
        return True
    return type(value) is float and repr(representative) != repr(value)


class ValueDictionary:
    """An append-only bidirectional mapping ``value <-> dense int code``."""

    __slots__ = ("_codes", "_values", "_unifies", "_lock")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self._codes: dict[Any, int] = {}
        self._values: list[Any] = []
        self._unifies = False
        self._lock = create_lock("repro.relational.dictionary:ValueDictionary")
        for value in values:
            self.intern(value)

    def intern(self, value: Hashable) -> int:
        """The code of ``value``, assigning the next dense code if new.

        Safe to call from concurrent threads: the hit path is a single
        lock-free dict read, and the assign path holds the dictionary's
        lock around the re-check + append + publish sequence.
        """
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self._values)
                    # Append before publishing the code so a lock-free
                    # reader that sees the code can always decode it.
                    self._values.append(value)
                    self._codes[value] = code
                    return code
        representative = self._values[code]
        if representative is not value and _distinguishable(representative, value):
            with self._lock:
                self._unifies = True
        return code

    @property
    def unifies_representatives(self) -> bool:
        """True once two equal-but-distinguishable values shared a code.

        Sticky for the life of the dictionary (and preserved across
        pickling): once ``True``, decoding a column may substitute a
        value with an equal representative of a different type, so the
        relation layer keeps original tuples alongside the encoded form.
        """
        return self._unifies

    def code_of(self, value: Hashable) -> int | None:
        """The code of ``value`` if already interned, else ``None``."""
        return self._codes.get(value)

    def value_of(self, code: int) -> Any:
        """The value interned under ``code`` (IndexError when out of range)."""
        return self._values[code]

    @property
    def values(self) -> list[Any]:
        """The interned values in code order.  Treat as read-only."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._codes

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ValueDictionary({len(self._values)} values)"

    # ------------------------------------------------------------------
    # pickling: ship the value list + unification flag; rebuild the rest.
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[list[Any], bool]:
        return (self._values, self._unifies)

    def __setstate__(self, state: tuple[list[Any], bool]) -> None:
        self._values, self._unifies = state
        self._codes = {value: code for code, value in enumerate(self._values)}
        self._lock = create_lock("repro.relational.dictionary:ValueDictionary")
