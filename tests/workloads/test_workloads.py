"""Tests for the workload generators (telecom, synthetic, graphs, university)."""

import pytest

from repro.core.acyclicity import classify
from repro.workloads.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disconnected_graph,
    path_graph,
    random_3colorable_graph,
    random_graph,
    random_hamiltonian_graph,
    star_graph,
)
from repro.workloads.synthetic import (
    chain_database,
    chain_metaquery,
    cyclic_metaquery,
    planted_rule_database,
    random_database,
    star_database,
    transitive_chain_metaquery,
    widen_metaquery_arity,
)
from repro.workloads.scaling import scaled_chain_database
from repro.workloads.telecom import db1, db1_prime, scaled_telecom
from repro.workloads.university import university_database


class TestTelecom:
    def test_db1_matches_figure1(self):
        db = db1()
        assert db.arities() == {"usca": 2, "cate": 2, "uspt": 2}
        assert db.total_tuples() == 12

    def test_db1_prime_matches_figure2(self):
        db = db1_prime()
        assert db["uspt"].arity == 3
        assert len(db["uspt"]) == 3

    def test_scaled_telecom_reproducible_and_scalable(self):
        small = scaled_telecom(users=10, seed=1)
        small_again = scaled_telecom(users=10, seed=1)
        big = scaled_telecom(users=40, seed=1)
        assert small == small_again
        assert big.total_tuples() > small.total_tuples()

    def test_scaled_telecom_with_model_column(self):
        db = scaled_telecom(users=5, with_model=True, seed=2)
        assert db["uspt"].arity == 3

    def test_scaled_telecom_schema_matches_db1(self):
        assert set(scaled_telecom(users=5).relation_names) == set(db1().relation_names)


class TestSynthetic:
    def test_chain_database_shapes(self):
        db = chain_database(relations=3, tuples_per_relation=20, seed=0)
        assert len(db) == 3
        assert all(rel.arity == 2 for rel in db)
        assert all(len(rel) >= 20 for rel in db)

    def test_chain_database_reproducible(self):
        assert chain_database(2, 10, seed=5) == chain_database(2, 10, seed=5)

    def test_chain_metaquery_acyclic(self):
        for length in (1, 2, 4):
            assert classify(chain_metaquery(length)) == "acyclic"

    def test_transitive_chain_metaquery_cyclic(self):
        assert classify(transitive_chain_metaquery(2)) == "cyclic"

    def test_cyclic_metaquery_requires_three(self):
        with pytest.raises(ValueError):
            cyclic_metaquery(2)
        assert len(cyclic_metaquery(3).body) == 3

    def test_planted_rule_database_has_high_confidence_rule(self):
        from repro.core.indices import confidence
        from repro.datalog.parser import parse_rule

        db = planted_rule_database(tuples=80, confidence_target=0.9, noise=0.05, seed=1)
        rule = parse_rule("head(X,Z) <- left(X,Y), right(Y,Z)")
        assert confidence(rule, db) > 0.6

    def test_random_database(self):
        db = random_database(relations=2, arity=3, tuples_per_relation=10, domain_size=6, seed=0)
        assert len(db) == 2
        assert all(rel.arity == 3 for rel in db)

    def test_star_database(self):
        db = star_database(rays=4, tuples_per_relation=10, seed=0)
        assert len(db) == 4

    def test_widen_metaquery_arity(self):
        widened = widen_metaquery_arity(chain_metaquery(2), extra=1)
        assert all(s.arity == 3 for s in widened.literal_schemes)


class TestGraphs:
    def test_graph_normalises_edges(self):
        graph = Graph(["a", "b"], [("b", "a"), ("a", "b"), ("a", "a")])
        assert graph.edge_count == 1

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "z")])

    def test_neighbours_and_has_edge(self):
        graph = path_graph(3)
        assert graph.neighbours("v1") == frozenset({"v0", "v2"})
        assert graph.has_edge("v1", "v0")
        assert not graph.has_edge("v0", "v2")

    def test_directed_edges_both_orientations(self):
        graph = path_graph(2)
        assert graph.directed_edges() == frozenset({("v0", "v1"), ("v1", "v0")})

    def test_generators_have_expected_sizes(self):
        assert path_graph(5).edge_count == 4
        assert cycle_graph(5).edge_count == 5
        assert complete_graph(4).edge_count == 6
        assert star_graph(4).edge_count == 4
        assert disconnected_graph([2, 3]).vertex_count == 5

    def test_random_graph_reproducible(self):
        assert random_graph(6, 0.5, seed=1).edges == random_graph(6, 0.5, seed=1).edges

    def test_random_3colorable_is_colorable(self):
        from repro.reductions.coloring import is_3colorable

        for seed in range(3):
            assert is_3colorable(random_3colorable_graph(7, seed=seed))

    def test_random_hamiltonian_has_path(self):
        from repro.reductions.hamiltonian import has_hamiltonian_path

        for seed in range(3):
            assert has_hamiltonian_path(random_hamiltonian_graph(6, seed=seed))


class TestUniversity:
    def test_schema(self):
        db = university_database(students=10, courses=5, instructors=4, departments=2, seed=1)
        assert set(db.relation_names) == {
            "enrolled",
            "teaches",
            "member_of",
            "majors_in",
            "attends_dept",
        }
        assert all(rel.arity == 2 for rel in db)

    def test_reproducible(self):
        assert university_database(seed=3) == university_database(seed=3)

    def test_planted_dependency_is_minable(self):
        """Mining the university workload with a transitivity chain template
        (under type-1 semantics, which can reorient ``teaches``) rediscovers
        the planted enrolled/teaches/member_of -> attends_dept dependency."""
        from repro.core.answers import Thresholds
        from repro.core.findrules import find_rules
        from repro.workloads.synthetic import transitive_chain_metaquery

        db = university_database(students=15, courses=6, instructors=5, departments=3, noise=0.05, seed=2)
        mq = transitive_chain_metaquery(3)
        answers = find_rules(db, mq, Thresholds(support=0.05, confidence=0.3, cover=0.0), 1)
        planted = [
            answer
            for answer in answers
            if answer.rule.head.predicate == "attends_dept"
            and [a.predicate for a in answer.rule.body] == ["enrolled", "teaches", "member_of"]
        ]
        assert planted
        assert all(answer.confidence > 0.3 for answer in planted)


class TestScaling:
    def test_chain_budget_split(self):
        db = scaled_chain_database(1_000, relations=5)
        assert len(db.relation_names) == 5
        assert db.total_tuples() <= 1_000
        # Random generation may dedup a few tuples; the budget should still
        # be substantially filled.
        assert db.total_tuples() >= 900

    def test_chain_reproducible(self):
        assert scaled_chain_database(1_000, seed=7) == scaled_chain_database(1_000, seed=7)

    def test_chain_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            scaled_chain_database(3, relations=5)
