"""Differential property tests: columnar kernels vs the set-based algebra.

Every operator the vectorized kernels implement is checked against the
original set-based path on random inputs — same tuples, same schema — with
the kernels *forced* on (row threshold pinned to zero) so small Hypothesis
examples exercise them too.

The value domain is a single type (strings) on purpose: the dictionary
interns by semantic equality, so ``1``/``True``/``1.0`` share a code and
decode to the first-interned representative.  Joins stay correct either
way; only the string form of mixed-type outputs could differ, which is a
documented caveat of the encoding, not a kernel property worth fuzzing.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.evaluation import atom_relation
from repro.relational import columnar
from repro.relational.columnar import ColumnStore
from repro.relational.database import Database
from repro.relational.dictionary import ValueDictionary
from repro.relational.relation import Relation

values = st.sampled_from([f"v{i}" for i in range(7)])
pairs = st.tuples(values, values)
pair_sets = st.frozensets(pairs, max_size=25)


@contextmanager
def forced_kernels():
    """Kernels on for any operand size."""
    threshold = columnar.MIN_KERNEL_ROWS
    columnar.MIN_KERNEL_ROWS = 0
    try:
        with columnar.use_columnar(True):
            yield
    finally:
        columnar.MIN_KERNEL_ROWS = threshold


def rel(name, columns, rows):
    return Relation.from_rows(name, columns, rows)


def differential(op, *operand_specs):
    """Run ``op`` once through the forced kernels and once set-based."""
    with forced_kernels():
        encoded = op(*[rel(*spec) for spec in operand_specs])
    with columnar.use_columnar(False):
        legacy = op(*[rel(*spec) for spec in operand_specs])
    assert encoded.columns == legacy.columns
    assert encoded.tuples == legacy.tuples
    return encoded


@given(left=pair_sets, right=pair_sets)
@settings(max_examples=50, deadline=None)
def test_natural_join_matches_set_algebra(left, right):
    differential(
        lambda a, b: a.natural_join(b),
        ("l", ("a", "b"), left),
        ("r", ("b", "c"), right),
    )


@given(left=pair_sets, right=pair_sets)
@settings(max_examples=50, deadline=None)
def test_cartesian_join_matches_set_algebra(left, right):
    differential(
        lambda a, b: a.natural_join(b),
        ("l", ("a", "b"), left),
        ("r", ("c", "d"), right),
    )


@given(left=pair_sets, right=pair_sets)
@settings(max_examples=50, deadline=None)
def test_semijoin_and_antijoin_match_set_algebra(left, right):
    semi = differential(
        lambda a, b: a.semijoin(b),
        ("l", ("a", "b"), left),
        ("r", ("b", "c"), right),
    )
    anti = differential(
        lambda a, b: a.antijoin(b),
        ("l", ("a", "b"), left),
        ("r", ("b", "c"), right),
    )
    assert semi.tuples | anti.tuples == left
    assert not semi.tuples & anti.tuples


@given(rows=pair_sets, needle=values)
@settings(max_examples=50, deadline=None)
def test_select_eq_matches_set_algebra(rows, needle):
    differential(
        lambda r: r.select_eq("a", needle),
        ("r", ("a", "b"), rows),
    )


@pytest.mark.parametrize("keep", [["a"], ["b"], ["b", "a"], ["a", "b"], []])
@given(rows=pair_sets)
@settings(max_examples=30, deadline=None)
def test_project_matches_set_algebra(keep, rows):
    differential(
        lambda r: r.project(keep),
        ("r", ("a", "b"), rows),
    )


@given(left=pair_sets, right=pair_sets)
@settings(max_examples=50, deadline=None)
def test_rename_round_trip_through_kernels(left, right):
    """Renamed views feed the kernels and rename back without distortion."""

    def op(a, b):
        renamed = a.rename_columns({"a": "x", "b": "y"}).with_name("view")
        joined = renamed.natural_join(b.rename_columns({"b": "y", "c": "z"}))
        return joined.rename_columns({"x": "a", "y": "b", "z": "c"})

    differential(op, ("l", ("a", "b"), left), ("r", ("b", "c"), right))


@given(rows=pair_sets)
@settings(max_examples=40, deadline=None)
def test_pickle_round_trip_of_encoded_relation(rows):
    """Encoded relations ship through pickle and decode to the same tuples."""
    with forced_kernels():
        relation = rel("r", ("a", "b"), rows)
        encoded = relation.natural_join(rel("s", ("b", "c"), rows))
        clone = pickle.loads(pickle.dumps(encoded))
        assert clone.tuples == encoded.tuples
        assert clone.columns == encoded.columns


def test_renamed_view_reuses_donor_indexes():
    """A renamed view shares the donor's index cache and columnar store."""
    with forced_kernels():
        base = rel("r", ("a", "b"), {("x", "y"), ("x", "z"), ("w", "y")})
        base._ensure_columnar(None)
        view = base.rename_columns({"a": "p", "b": "q"})
        assert view._columnar is base._columnar
        # an index built through the view lands in the shared cache
        view._hash_index((0,))
        assert base._index_cache is view._index_cache
        assert (0,) in base._index_cache


def test_view_donor_assertion_rejects_arity_mismatch():
    """Regression: donor constructors refuse caches from other arities.

    ``_from_frozen``/``_view`` alias the donor's index cache, which is only
    sound when the schemas have the same arity — positional index keys
    would silently point at the wrong columns otherwise.  The debug
    assertion is the guard; pin it so a refactor cannot drop it.
    """
    base = rel("r", ("a", "b"), {("x", "y")})
    narrow = base.schema.project([0]) if hasattr(base.schema, "project") else None
    index_cache = {(0, 1): {("x", "y"): frozenset({("x", "y")})}}
    wide = Relation._from_frozen(base.schema, frozenset({("x", "y")}), index_cache)
    assert wide._hash_index((0, 1))
    bad_cache = {(5,): {}}
    with pytest.raises(AssertionError):
        Relation._from_frozen(base.schema, frozenset({("x", "y")}), bad_cache)
    del narrow


@pytest.mark.parametrize("flag_rows", [{()}, set()], ids=["unit", "empty"])
@given(rows=pair_sets)
@settings(max_examples=30, deadline=None)
def test_nullary_relation_joins_match_set_algebra(flag_rows, rows):
    """A zero-arity relation holding ``()`` is the join identity and the
    empty one annihilates, on either side of the join."""
    pairs_spec = ("p", ("a", "b"), rows)
    flag_spec = ("flag", (), flag_rows)
    flag_right = differential(lambda p, f: p.natural_join(f), pairs_spec, flag_spec)
    flag_left = differential(lambda f, p: f.natural_join(p), flag_spec, pairs_spec)
    assert flag_right.tuples == flag_left.tuples == (rows if flag_rows else frozenset())



JOIN_OPS = {
    "join": lambda a, b: a.natural_join(b),
    "semijoin": lambda a, b: a.semijoin(b),
    "antijoin": lambda a, b: a.antijoin(b),
}


@pytest.mark.parametrize("translated", ["left", "right"])
@pytest.mark.parametrize("op", list(JOIN_OPS))
@given(left=pair_sets, right=pair_sets, order=st.permutations([f"v{i}" for i in range(7)]))
@settings(max_examples=30, deadline=None)
def test_kernels_translate_between_dictionaries(op, translated, left, right, order):
    """Operands already encoded under different dictionaries — the same
    values under different codes — match the set algebra once the side
    with the smaller dictionary is translated into the larger one."""
    larger, smaller = ValueDictionary(), ValueDictionary()
    for value in [*order, "only-in-larger"]:
        larger.intern(value)
    for value in reversed(order):
        smaller.intern(value)
    dictionaries = (smaller, larger) if translated == "left" else (larger, smaller)
    specs = (("l", ("a", "b"), left), ("r", ("b", "c"), right))
    with forced_kernels():
        operands = [rel(*spec) for spec in specs]
        for operand, dictionary in zip(operands, dictionaries):
            operand._ensure_columnar(dictionary)
        encoded = JOIN_OPS[op](*operands)
        assert all(operand._columnar.dictionary is larger for operand in operands)
    with columnar.use_columnar(False):
        legacy = JOIN_OPS[op](*[rel(*spec) for spec in specs])
    assert encoded.columns == legacy.columns
    assert encoded.tuples == legacy.tuples


# Atom shapes over a ternary relation: distinct and repeated variables,
# constants (one of them in no row), and a ground atom.
ATOM_TERMS = {
    "distinct": ("X", "Y", "Z"),
    "repeat-adjacent": ("X", "X", "Y"),
    "repeat-apart": ("X", "Y", "X"),
    "repeat-all": ("X", "X", "X"),
    "constant-last": ("Y", "X", "v1"),
    "constant-then-repeat": ("v0", "X", "X"),
    "absent-constant": ("X", "nowhere", "Y"),
    "ground": ("v0", "v1", "v2"),
}
few_values = st.sampled_from(["v0", "v1", "v2", "v3"])
triple_sets = st.frozensets(st.tuples(few_values, few_values, few_values), max_size=30)


@pytest.mark.parametrize("shape", list(ATOM_TERMS))
@given(rows=triple_sets)
@settings(max_examples=40, deadline=None)
def test_atom_relation_matches_set_algebra(shape, rows):
    """The fused atom kernel — constants filter, repeated-variable filter
    and first-occurrence projection — matches the per-tuple path."""
    atom = Atom("t", ATOM_TERMS[shape])
    encoded = differential(
        lambda t: atom_relation(atom, Database([t])),
        ("t", ("a", "b", "c"), rows),
    )
    assert encoded._columnar is not None

# Codes of at least 2**40 on both key columns: the product of the two key
# ranges passes 2**62, so the kernels cannot pack keys into one int64 and
# factorize them with np.unique(axis=0) instead.
big_codes = st.sampled_from([(1 << 40) + k for k in range(3)])
code_triples = st.lists(
    st.tuples(big_codes, big_codes, st.integers(0, 3)), min_size=1, max_size=20, unique=True
)


def code_store(dictionary, rows):
    """A store over raw code rows (never decoded, so codes need no values)."""
    columns = tuple(np.array([row[k] for row in rows], dtype=np.int64) for k in range(3))
    return ColumnStore(dictionary, columns, len(rows))


def code_rows(store):
    return list(zip(*(column.tolist() for column in store.columns)))


@given(left=code_triples, right=code_triples)
@settings(max_examples=40, deadline=None)
def test_kernels_match_tuple_keys_past_the_packed_key_range(left, right):
    dictionary = ValueDictionary()
    left_store, right_store = code_store(dictionary, left), code_store(dictionary, right)
    right_keys = {row[:2] for row in right}

    joined = columnar.join_stores(left_store, right_store, (0, 1), (0, 1), (2,))
    assert code_rows(joined) == [
        lrow + (rrow[2],) for lrow in left for rrow in right if lrow[:2] == rrow[:2]
    ]
    semi = columnar.semijoin_stores(left_store, right_store, (0, 1), (0, 1))
    assert code_rows(semi) == [row for row in left if row[:2] in right_keys]
    anti = columnar.semijoin_stores(left_store, right_store, (0, 1), (0, 1), negate=True)
    assert code_rows(anti) == [row for row in left if row[:2] not in right_keys]
    projected = columnar.project_store(left_store, (0, 1))
    assert code_rows(projected) == sorted({row[:2] for row in left})
