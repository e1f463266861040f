"""Regression tests for the PR-2 bugfixes.

Two of its three correctness bugs are pinned here (the third, support
drift in a FindRules arm that skipped the full reducer's top-down pass,
went with that arm):

1. **Type-2 freshness** — padding variables must not occur elsewhere in
   the instantiated rule (Definition 2.4).  FindRules once gave a head
   image a padding variable its partial body instantiation already used,
   so composing the two turned it into a join variable and corrupted
   cover/confidence.  Padding is now named by pattern and position
   (``_T2_<i>_<j>``), fresh by construction in either engine.
3. **Index ctx detection** — ``PlausibilityIndex`` miscounted callables
   whose ``ctx`` parameter is keyword-only (e.g. after ``functools.partial``
   binding), either dropping cache sharing or raising ``TypeError``.

Plus the padded-fiber variant of bug 1 discovered while fixing it: the
FindRules body join was assembled from χ-projected node relations, which
drop type-2 padding columns, so ``|J(b)|`` (the confidence denominator) was
wrong whenever a body atom's padding positions took several values per
χ-tuple.
"""

import functools
from fractions import Fraction

import pytest

from repro.core.findrules import find_rules
from repro.core.indices import PlausibilityIndex, support
from repro.core.instantiation import (
    Instantiation,
    enumerate_scheme_instantiations,
)
from repro.core.metaquery import LiteralScheme, MetaQuery, parse_metaquery
from repro.core.naive import naive_find_rules
from repro.datalog.context import EvaluationContext
from repro.datalog.parser import parse_atom, parse_rule
from repro.relational.database import Database
from repro.relational.relation import Relation


def answer_keys(answers):
    return sorted((str(a.rule), a.support, a.confidence, a.cover) for a in answers)


# ----------------------------------------------------------------------
# bug 1: type-2 padding freshness
# ----------------------------------------------------------------------
class TestType2Freshness:
    @pytest.fixture
    def ternary_db(self):
        return Database(
            [
                Relation.from_rows("p", ("a", "b", "c"), [(1, 2, 9), (1, 3, 8), (1, 2, 5)]),
                Relation.from_rows("q", ("a", "b", "c"), [(2, 4, 7), (3, 5, 7), (2, 4, 1)]),
            ],
            name="ternary",
        )

    def test_head_enumeration_avoids_base_padding(self, ternary_db):
        head = LiteralScheme.pattern("R", ("X", "Z"))
        body = LiteralScheme.pattern("P", ("X", "Y"))
        numbering = MetaQuery(head, [body]).pattern_numbers
        for sigma_b in enumerate_scheme_instantiations([body], ternary_db, 2, numbering):
            body_padding = sigma_b.fresh_variables()
            for sigma_h in enumerate_scheme_instantiations(
                [head], ternary_db, 2, numbering, base=sigma_b
            ):
                assert not (sigma_h.fresh_variables() & body_padding)

    def test_findrules_matches_naive_on_multinode_type2(self, ternary_db):
        """Head + two body patterns, each padded; decomposition has two nodes,
        so the old code also collided padding *between* body nodes."""
        mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
        naive = naive_find_rules(ternary_db, mq, None, 2)
        fast = find_rules(ternary_db, mq, None, 2)
        assert answer_keys(naive) == answer_keys(fast)

    def test_findrules_padded_fiber_confidence(self):
        """cnf counts over the full J(b), padding columns included: two body
        tuples share the χ-projection (a, b) here, and both must count."""
        db = Database(
            [
                Relation.from_rows("p3", ("a", "b", "c"), [("a", "b", 1), ("a", "b", 2), ("d", "e", 1)]),
                Relation.from_rows("r2", ("a", "b"), [("a", "x")]),
            ],
            name="fiber",
        )
        mq = parse_metaquery("R(X) <- P(X)")
        naive = naive_find_rules(db, mq, None, 2)
        fast = find_rules(db, mq, None, 2)
        assert answer_keys(naive) == answer_keys(fast)
        # the specific corrupted value: body p3(X, _, _) has |J(b)| = 3, and
        # 2 of the 3 tuples join the head r2(X, _), so cnf = 2/3 (not 1/2,
        # which the χ-projected body join used to give).
        target = [
            k for k in answer_keys(fast) if k[0] == "r2(X, _T2_0_1) <- p3(X, _T2_1_1, _T2_1_2)"
        ]
        assert target and target[0][2] == Fraction(2, 3)

    def test_compose_keeps_shared_pattern_padding(self):
        pattern = LiteralScheme.pattern("P", ("X",))
        atom = parse_atom("p(X, _T2_1)")
        sigma = Instantiation({pattern: atom})
        composed = sigma.compose(Instantiation({pattern: atom}))
        assert composed.image(pattern) == atom


# ----------------------------------------------------------------------
# bug 3: keyword-only ctx detection
# ----------------------------------------------------------------------
class TestIndexCtxDetection:
    RULE = parse_rule("r(X) <- p(X, Y)")

    @pytest.fixture
    def db(self):
        return Database(
            [
                Relation.from_rows("p", ("a", "b"), [(1, 2), (1, 3), (4, 5)]),
                Relation.from_rows("r", ("a",), [(1,), (9,)]),
            ],
            name="idx",
        )

    def test_keyword_only_ctx_receives_the_context(self, db):
        received = {}

        def compute(rule, database, *, ctx=None):
            received["ctx"] = ctx
            return support(rule, database, ctx)

        index = PlausibilityIndex("kw", compute)
        ctx = EvaluationContext(db)
        value = index(self.RULE, db, ctx)
        assert received["ctx"] is ctx
        assert value == support(self.RULE, db)

    def test_partial_bound_callable_does_not_raise(self, db):
        def weighted(scale, rule, database, ctx=None):
            return support(rule, database, ctx) * scale

        index = PlausibilityIndex("weighted", functools.partial(weighted, Fraction(1, 2)))
        assert index(self.RULE, db, EvaluationContext(db)) == support(self.RULE, db) / 2

    def test_partial_with_keyword_bound_ctx_param(self, db):
        """partial(f, ...) turning ctx keyword-only must go through ctx=."""

        def compute(rule, database, extra=None, *, ctx=None):
            return support(rule, database, ctx)

        index = PlausibilityIndex("kwbound", functools.partial(compute, extra="x"))
        assert index(self.RULE, db, EvaluationContext(db)) == support(self.RULE, db)

    def test_plain_two_argument_callable_gets_no_ctx(self, db):
        index = PlausibilityIndex("plain", lambda rule, database: Fraction(1, 3))
        assert index(self.RULE, db, EvaluationContext(db)) == Fraction(1, 3)

    def test_positional_ctx_still_positional(self, db):
        received = {}

        def compute(rule, database, ctx=None):
            received["ctx"] = ctx
            return Fraction(0)

        ctx = EvaluationContext(db)
        PlausibilityIndex("pos", compute)(self.RULE, db, ctx)
        assert received["ctx"] is ctx
