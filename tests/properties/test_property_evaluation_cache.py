"""Property tests for the evaluation acceleration subsystem.

The memo cache must be *observationally invisible*: on any database and
metaquery, the memoized, indexed, Yannakakis-accelerated pipeline returns
exactly the same answers (rules and all three index values) as the
uncached naive reference, and ``join_atoms`` returns the same relation as
the greedy left-deep join of its atom relations.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import Thresholds
from repro.core.findrules import find_rules
from repro.core.metaquery import parse_metaquery
from repro.core.naive import naive_decide, naive_find_rules, naive_witness
from repro.datalog.atoms import variables_of
from repro.datalog.context import EvaluationContext
from repro.datalog.evaluation import atom_relation, join_atoms
from repro.datalog.parser import parse_query
from repro.relational.algebra import natural_join_all
from repro.relational.database import Database
from repro.relational.relation import Relation

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
ONE_PATTERN = parse_metaquery("R(X,Y) <- P(Y,X)")

ACYCLIC_CHAIN = parse_query("r0(X,Y), r1(Y,Z), r2(Z,W)").atoms
CYCLIC_TRIANGLE = parse_query("r0(X,Y), r1(Y,Z), r2(Z,X)").atoms
REPEATED_VARS = parse_query("r0(X,X), r1(X,Y), r2(Y,Y)").atoms
WITH_GROUND_ATOM = parse_query("r0(0,1), r1(X,Y), r2(Y,Z)").atoms
WITH_CONSTANTS = parse_query("r0(X,1), r1(1,Y)").atoms


@st.composite
def small_databases(draw):
    """Random databases with 3 binary relations over a small domain."""
    domain_size = draw(st.integers(min_value=2, max_value=4))
    relations = []
    for i in range(3):
        rows = draw(
            st.frozensets(
                st.tuples(
                    st.integers(min_value=0, max_value=domain_size - 1),
                    st.integers(min_value=0, max_value=domain_size - 1),
                ),
                min_size=0,
                max_size=8,
            )
        )
        relations.append(Relation.from_rows(f"r{i}", ("a", "b"), rows))
    return Database(relations, name="hyp-cache-db")


def _answer_key(answer):
    return (str(answer.rule), answer.support, answer.confidence, answer.cover)


def _assert_same_answers(fast, slow):
    assert sorted(_answer_key(a) for a in fast) == sorted(_answer_key(a) for a in slow)


@given(small_databases())
@settings(max_examples=30, deadline=None)
def test_cached_naive_engine_agrees_with_uncached_on_all_indices(db):
    fast = naive_find_rules(db, TRANSITIVITY, None, 0, cache=True)
    slow = naive_find_rules(db, TRANSITIVITY, None, 0, cache=False)
    _assert_same_answers(fast, slow)


@given(small_databases(), st.integers(min_value=1, max_value=2))
@settings(max_examples=20, deadline=None)
def test_cached_naive_engine_agrees_on_higher_instantiation_types(db, itype):
    fast = naive_find_rules(db, ONE_PATTERN, None, itype, cache=True)
    slow = naive_find_rules(db, ONE_PATTERN, None, itype, cache=False)
    _assert_same_answers(fast, slow)


@given(small_databases())
@settings(max_examples=20, deadline=None)
def test_cached_findrules_agrees_with_uncached_naive(db):
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    fast = find_rules(db, TRANSITIVITY, thresholds, 0, cache=True)
    slow = naive_find_rules(db, TRANSITIVITY, thresholds, 0, cache=False)
    _assert_same_answers(fast, slow)


@given(small_databases(), st.sampled_from([0, Fraction(1, 4), Fraction(1, 2)]))
@settings(max_examples=20, deadline=None)
def test_cached_decide_and_witness_agree_with_uncached(db, k):
    for index in ("sup", "cnf", "cvr"):
        cached = naive_decide(db, TRANSITIVITY, index, k, cache=True)
        uncached = naive_decide(db, TRANSITIVITY, index, k, cache=False)
        assert cached == uncached
        assert (naive_witness(db, TRANSITIVITY, index, k, cache=True) is not None) == cached


@given(
    small_databases(),
    st.sampled_from(
        [ACYCLIC_CHAIN, CYCLIC_TRIANGLE, REPEATED_VARS, WITH_GROUND_ATOM, WITH_CONSTANTS]
    ),
)
@settings(max_examples=30, deadline=None)
def test_join_atoms_matches_greedy_join(db, atoms):
    joined = join_atoms(atoms, db)
    greedy = natural_join_all([atom_relation(atom, db) for atom in atoms])
    greedy = greedy.project([v.name for v in variables_of(atoms)])
    assert joined.columns == greedy.columns
    assert joined.tuples == greedy.tuples


@given(small_databases())
@settings(max_examples=20, deadline=None)
def test_context_reuse_across_calls_stays_correct(db):
    ctx = EvaluationContext(db)
    for _ in range(2):  # second pass is served from the caches
        cached = join_atoms(ACYCLIC_CHAIN, db, ctx)
        reference = join_atoms(ACYCLIC_CHAIN, db)
        assert cached.columns == reference.columns
        assert cached.tuples == reference.tuples
    assert ctx.stats.join_hits >= 1
