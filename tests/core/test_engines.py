"""Tests for the naive engine, the FindRules engine, and their agreement.

The central invariant: for any database, metaquery, thresholds and
instantiation type, FindRules (Figure 4) returns exactly the same set of
instantiated rules (with the same index values) as the naive
enumerate-and-test engine.
"""

from fractions import Fraction

import pytest

from repro.core.answers import Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.findrules import body_decomposition, find_rules, support_via_decomposition
from repro.core.metaquery import parse_metaquery
from repro.core.naive import naive_decide, naive_find_rules, naive_witness
from repro.datalog.parser import parse_rule
from repro.exceptions import MetaqueryError
from repro.workloads.synthetic import (
    chain_database,
    chain_metaquery,
    cyclic_metaquery,
    planted_rule_database,
)
from repro.workloads.telecom import db1, scaled_telecom


def answer_keys(answers):
    return sorted((str(a.rule), a.support, a.confidence, a.cover) for a in answers)


TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")


class TestAgreementNaiveVsFindRules:
    @pytest.mark.parametrize("itype", [0, 1])
    @pytest.mark.parametrize(
        "thresholds",
        [
            Thresholds(0, 0, 0),
            Thresholds(0.3, 0.5, 0.1),
            Thresholds(support=0.5),
            Thresholds(confidence=0.9),
        ],
    )
    def test_telecom(self, itype, thresholds):
        db = db1()
        naive = naive_find_rules(db, TRANSITIVITY, thresholds, itype)
        fast = find_rules(db, TRANSITIVITY, thresholds, itype)
        assert answer_keys(naive) == answer_keys(fast)

    def test_telecom_type2(self, telecom_db_prime):
        thresholds = Thresholds(0.2, 0.5, 0.2)
        naive = naive_find_rules(telecom_db_prime, TRANSITIVITY, thresholds, 2)
        fast = find_rules(telecom_db_prime, TRANSITIVITY, thresholds, 2)
        assert answer_keys(naive) == answer_keys(fast)

    def test_scaled_telecom(self):
        db = scaled_telecom(users=12, carriers=3, technologies=3, seed=4)
        thresholds = Thresholds(0.1, 0.3, 0.1)
        naive = naive_find_rules(db, TRANSITIVITY, thresholds, 0)
        fast = find_rules(db, TRANSITIVITY, thresholds, 0)
        assert answer_keys(naive) == answer_keys(fast)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_chain_workload(self, length):
        db = chain_database(relations=3, tuples_per_relation=15, seed=length)
        mq = chain_metaquery(length)
        thresholds = Thresholds(0.05, 0.0, 0.0)
        naive = naive_find_rules(db, mq, thresholds, 0)
        fast = find_rules(db, mq, thresholds, 0)
        assert answer_keys(naive) == answer_keys(fast)

    def test_cyclic_body_metaquery(self):
        db = chain_database(relations=3, tuples_per_relation=10, seed=9)
        mq = cyclic_metaquery(3)
        thresholds = Thresholds(0.0, 0.0, 0.0)
        naive = naive_find_rules(db, mq, thresholds, 0)
        fast = find_rules(db, mq, thresholds, 0)
        assert answer_keys(naive) == answer_keys(fast)

    def test_no_thresholds_keeps_zero_answers(self, telecom_db):
        naive = naive_find_rules(telecom_db, TRANSITIVITY, Thresholds.none(), 0)
        fast = find_rules(telecom_db, TRANSITIVITY, Thresholds.none(), 0)
        assert len(naive) == 27
        assert answer_keys(naive) == answer_keys(fast)

    def test_reusing_decomposition(self, telecom_db):
        decomposition = body_decomposition(TRANSITIVITY)
        thresholds = Thresholds(0.2, 0.5, 0.2)
        with_reuse = find_rules(telecom_db, TRANSITIVITY, thresholds, 0, decomposition=decomposition)
        without = find_rules(telecom_db, TRANSITIVITY, thresholds, 0)
        assert answer_keys(with_reuse) == answer_keys(without)


class TestFindRulesSpecifics:
    def test_planted_rule_is_found(self):
        db = planted_rule_database(tuples=60, confidence_target=0.9, noise=0.1, seed=2)
        answers = find_rules(db, TRANSITIVITY, Thresholds(0.1, 0.5, 0.1), 0)
        assert answers.contains_rule(parse_rule("head(X,Z) <- left(X,Y), right(Y,Z)"))

    def test_impure_metaquery_rejected_for_type0(self, telecom_db):
        impure = parse_metaquery("P(X) <- P(X,Y)")
        with pytest.raises(MetaqueryError):
            find_rules(telecom_db, impure, Thresholds.positive(), 0)

    def test_missing_relation_in_atom_scheme(self, telecom_db):
        mq = parse_metaquery("R(X,Z) <- P(X,Y), nosuchrelation(Y,Z)")
        assert len(find_rules(telecom_db, mq, Thresholds.positive(), 0)) == 0
        assert len(naive_find_rules(telecom_db, mq, Thresholds.positive(), 0)) == 0

    def test_first_order_metaquery(self, telecom_db):
        mq = parse_metaquery("uspt(X,Z) <- usca(X,Y), cate(Y,Z)", relation_names=telecom_db.relation_names)
        answers = find_rules(telecom_db, mq, Thresholds(0, 0.5, 0), 0)
        assert len(answers) == 1
        assert answers[0].confidence == Fraction(5, 7)

    def test_support_via_decomposition_matches_definition(self, telecom_db):
        from repro.core.indices import support

        rule = parse_rule("uspt(X,Z) <- usca(X,Y), cate(Y,Z)")
        assert support_via_decomposition(rule.body_atoms, telecom_db) == support(rule, telecom_db)

    def test_body_decomposition_width(self):
        assert body_decomposition(TRANSITIVITY).width == 1
        assert body_decomposition(cyclic_metaquery(3)).width == 2


class TestNaiveDecision:
    def test_decide_and_witness(self, telecom_db):
        assert naive_decide(telecom_db, TRANSITIVITY, "cnf", Fraction(1, 2), 0)
        witness = naive_witness(telecom_db, TRANSITIVITY, "cnf", Fraction(1, 2), 0)
        assert witness is not None
        assert witness.confidence > Fraction(1, 2)

    def test_decide_no_instance(self, telecom_db):
        assert not naive_decide(telecom_db, TRANSITIVITY, "cnf", Fraction(99, 100), 0)
        assert naive_witness(telecom_db, TRANSITIVITY, "cnf", Fraction(99, 100), 0) is None

    def test_decide_threshold_validation(self, telecom_db):
        with pytest.raises(ValueError):
            naive_decide(telecom_db, TRANSITIVITY, "cnf", 1, 0)

    def test_threshold_zero_matches_positive_index(self, telecom_db):
        for index in ("sup", "cnf", "cvr"):
            direct = naive_decide(telecom_db, TRANSITIVITY, index, 0, 0)
            witnessed = naive_witness(telecom_db, TRANSITIVITY, index, 0, 0) is not None
            assert direct == witnessed


class TestEngineFacade:
    def test_auto_selects_and_agrees(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        thresholds = Thresholds(0.2, 0.5, 0.2)
        auto = engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)", thresholds)
        naive = engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)", thresholds, algorithm="naive")
        fast = engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)", thresholds, algorithm="findrules")
        assert answer_keys(auto) == answer_keys(naive) == answer_keys(fast)

    def test_auto_without_thresholds_uses_naive(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        answers = engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)")
        assert len(answers) == 27

    def test_unknown_algorithm(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        with pytest.raises(ValueError):
            engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)", Thresholds.positive(), algorithm="magic")

    def test_decide_and_witness(self, telecom_db):
        engine = MetaqueryEngine(telecom_db, default_itype=0)
        assert engine.decide("R(X,Z) <- P(X,Y), Q(Y,Z)", "cvr", 0.9)
        assert engine.witness("R(X,Z) <- P(X,Y), Q(Y,Z)", "cvr", 0.9) is not None

    def test_engine_respects_relation_names_in_parsing(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        mq = engine.parse("R(X,Z) <- usca(X,Y), cate(Y,Z)")
        assert [s.is_pattern for s in mq.body] == [False, False]
