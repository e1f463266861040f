"""Unit tests for the shape-grouped batch evaluator.

The batched layer must be observationally identical to the per-rule
fraction computations of :mod:`repro.core.indices`: for any body atom list
and head atom, ``BodyGroup.support`` equals :func:`support`, and
``BatchEvaluator.head_indices`` equals ``(cover, confidence)``.
"""

from fractions import Fraction

import pytest

from repro.core.indices import confidence, cover, support
from repro.core.naive import _make_batcher
from repro.datalog.batching import BatchEvaluator, body_shape
from repro.datalog.context import EvaluationContext
from repro.datalog.parser import parse_query, parse_rule
from repro.datalog.rules import HornRule
from repro.relational.database import Database
from repro.relational.relation import Relation


@pytest.fixture
def db():
    return Database(
        [
            Relation.from_rows("p", ("a", "b"), [(1, 2), (2, 3), (3, 1), (1, 1)]),
            Relation.from_rows("q", ("a", "b"), [(2, 3), (3, 4), (1, 2)]),
            Relation.from_rows("t", ("a", "b", "c"), [(1, 2, 9), (1, 2, 8), (4, 5, 9)]),
            Relation.from_rows("u", ("a",), [(1,), (7,)]),
            Relation.from_rows("empty", ("a", "b"), []),
        ],
        name="unit",
    )


def assert_matches_reference(evaluator, db, rule_text):
    rule = parse_rule(rule_text)
    group = evaluator.body_group(rule.body_atoms)
    cvr, cnf = evaluator.head_indices(group, rule.head)
    assert group.support == support(rule, db), rule_text
    assert cnf == confidence(rule, db), rule_text
    assert cvr == cover(rule, db), rule_text


RULES = [
    "q(X, Z) <- p(X, Y), q(Y, Z)",  # chain body, shared X/Z head
    "p(X, Y) <- p(X, Y)",  # head equals body atom
    "u(X) <- p(X, Y)",  # head over a subset of the body variables
    "p(A, B) <- q(X, Y)",  # disjoint head variables (cartesian semantics)
    "q(X, X) <- p(X, X)",  # repeated variables on both sides
    "p(X, Z) <- t(X, Z, W)",  # ternary body atom, projected head
    "t(X, Y, W) <- p(X, Y)",  # head with a variable absent from the body
    "q(X, Y) <- p(X, 1)",  # constant in the body
    "p(1, 2) <- p(X, Y)",  # ground head
    "q(X, Y) <- p(1, 1)",  # ground body atom
    "p(X, Y) <- empty(X, Y)",  # empty body join
    "empty(X, Y) <- p(X, Y)",  # empty head relation
    "u(W) <- p(X, Y), q(Y, Z)",  # head variable disjoint from body
]


@pytest.mark.parametrize("rule_text", RULES)
def test_matches_per_rule_indices(db, rule_text):
    assert_matches_reference(BatchEvaluator(EvaluationContext(db, caching=False)), db, rule_text)


@pytest.mark.parametrize("rule_text", RULES)
def test_matches_per_rule_indices_with_context(db, rule_text):
    ctx = EvaluationContext(db)
    evaluator = BatchEvaluator(ctx)
    assert_matches_reference(evaluator, db, rule_text)
    # second pass is served from the group cache and must agree too
    assert_matches_reference(evaluator, db, rule_text)


def test_group_core_is_shared_across_alpha_equivalent_bodies(db):
    evaluator = BatchEvaluator(EvaluationContext(db))
    first = evaluator.body_group(parse_query("p(X, Y), q(Y, Z)").atoms)
    second = evaluator.body_group(parse_query("p(A, B), q(B, C)").atoms)
    assert first.core is second.core
    assert evaluator.stats.groups == 1
    assert evaluator.stats.group_hits == 1


def test_permuted_members_share_a_group_but_not_the_alignment(db):
    """p(X, Y) and p(Y, X) share one shape; the member views must map the
    same variable name to different canonical columns."""
    evaluator = BatchEvaluator(EvaluationContext(db))
    forward = evaluator.body_group(parse_query("p(X, Y)").atoms)
    backward = evaluator.body_group(parse_query("p(Y, X)").atoms)
    assert forward.core is backward.core
    assert forward.name_to_number == {"X": 0, "Y": 1}
    assert backward.name_to_number == {"Y": 0, "X": 1}
    for rule_text in ("q(X, Z) <- p(X, Y)", "q(X, Z) <- p(Y, X)"):
        assert_matches_reference(evaluator, db, rule_text)


def test_head_joins_matches_positivity(db):
    evaluator = BatchEvaluator(EvaluationContext(db))
    for rule_text in RULES:
        rule = parse_rule(rule_text)
        group = evaluator.body_group(rule.body_atoms)
        expected = confidence(rule, db) > 0
        assert evaluator.head_joins(group, rule.head) == expected, rule_text


def test_precomputed_join_seeds_the_group(db):
    from repro.datalog.evaluation import join_atoms

    atoms = parse_query("p(X, Y), q(Y, Z)").atoms
    join = join_atoms(atoms, db)
    evaluator = BatchEvaluator(EvaluationContext(db))
    group = evaluator.body_group(atoms, precomputed=join)
    assert group.size == len(join)
    # permuted column order is normalized before storing
    evaluator2 = BatchEvaluator(EvaluationContext(db))
    shuffled = join.project(["Z", "X", "Y"])
    group2 = evaluator2.body_group(atoms, precomputed=shuffled)
    assert group2.size == len(join)
    rule = parse_rule("q(X, Z) <- p(X, Y), q(Y, Z)")
    assert evaluator2.head_indices(group2, rule.head) == (cover(rule, db), confidence(rule, db))


def test_precomputed_thunk_is_lazy(db):
    from repro.datalog.evaluation import join_atoms

    atoms = parse_query("p(X, Y), q(Y, Z)").atoms
    evaluator = BatchEvaluator(EvaluationContext(db))
    calls = []

    def thunk():
        calls.append(1)
        return join_atoms(atoms, db)

    first = evaluator.body_group(atoms, precomputed=thunk)
    second = evaluator.body_group(atoms, precomputed=thunk)
    assert calls == [1], "thunk must run exactly once (never on a group hit)"
    assert first.core is second.core


def test_body_shape_numbers_variables_by_first_occurrence():
    atoms = parse_query("p(X, Y), q(Y, Z)").atoms
    key, names, atom_numbers = body_shape(atoms)
    assert names == ["X", "Y", "Z"]
    assert atom_numbers == [(0, 1), (1, 2)]
    key2, names2, _ = body_shape(parse_query("p(A, B), q(B, C)").atoms)
    assert key == key2 and names2 == ["A", "B", "C"]


def test_foreign_context_is_ignored(db):
    other = Database([Relation.from_rows("p", ("a", "b"), [(1, 2)])], name="other")
    foreign_ctx = EvaluationContext(other)
    foreign = BatchEvaluator(foreign_ctx)
    assert foreign.applies_to(other) and not foreign.applies_to(db)
    evaluator = _make_batcher(db, True, foreign, foreign_ctx)
    assert evaluator is not foreign
    assert evaluator.applies_to(db) and evaluator.ctx.applies_to(db)
    assert _make_batcher(db, False, foreign, None) is None


def test_clear_drops_groups(db):
    ctx = EvaluationContext(db)
    evaluator = BatchEvaluator(ctx)
    evaluator.body_group(parse_query("p(X, Y)").atoms)
    ctx.clear()
    assert evaluator.group_count == 0
    evaluator.body_group(parse_query("p(X, Y)").atoms)
    assert evaluator.stats.groups == 2
