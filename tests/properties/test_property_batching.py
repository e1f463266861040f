"""Property tests for shape-grouped batched evaluation.

The batching layer must be *observationally invisible*: on any database and
metaquery, for every instantiation type, the three engine arms — naive,
FindRules, and either one with batching — return the same answer sets
(rules and all three exact index values).  Batch on/off within one engine
must be **byte-identical** (same enumeration, same padding names, same
order); across engines the answers are equal as sorted lists, because
FindRules emits in decomposition order.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import Thresholds
from repro.core.findrules import find_rules
from repro.core.metaquery import parse_metaquery
from repro.core.naive import iter_answers, naive_decide, naive_find_rules, naive_witness
from repro.relational.database import Database
from repro.relational.relation import Relation

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
ONE_PATTERN = parse_metaquery("R(X,Y) <- P(Y,X)")


@st.composite
def mixed_arity_databases(draw):
    """Random databases with two binary and one ternary relation.

    The ternary relation makes type-2 instantiations of binary patterns
    introduce padding variables, and repeated first-two columns create
    non-uniform padding fibers (several padding values per χ-tuple).
    """
    domain = st.integers(min_value=0, max_value=draw(st.integers(min_value=1, max_value=2)))
    relations = []
    for i in range(2):
        rows = draw(st.frozensets(st.tuples(domain, domain), min_size=0, max_size=5))
        relations.append(Relation.from_rows(f"r{i}", ("a", "b"), rows))
    ternary = draw(st.frozensets(st.tuples(domain, domain, domain), min_size=0, max_size=5))
    relations.append(Relation.from_rows("t", ("a", "b", "c"), ternary))
    return Database(relations, name="hyp-batch-db")


def exact_key(answer):
    return (str(answer.rule), answer.support, answer.confidence, answer.cover)


def assert_byte_identical(batched, unbatched):
    assert [exact_key(a) for a in batched] == [exact_key(a) for a in unbatched]


def assert_same_answers(*answer_sets):
    reference = sorted(exact_key(a) for a in answer_sets[0])
    for other in answer_sets[1:]:
        assert sorted(exact_key(a) for a in other) == reference


@given(mixed_arity_databases(), st.sampled_from([0, 1, 2]))
@settings(max_examples=25, deadline=None)
def test_naive_batch_on_off_byte_identical(db, itype):
    on = list(iter_answers(db, ONE_PATTERN, itype, batch=True))
    off = list(iter_answers(db, ONE_PATTERN, itype, batch=False))
    assert_byte_identical(on, off)


@given(mixed_arity_databases(), st.sampled_from([0, 1, 2]))
@settings(max_examples=20, deadline=None)
def test_three_arms_agree_single_pattern(db, itype):
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    naive_batched = naive_find_rules(db, ONE_PATTERN, thresholds, itype, batch=True)
    naive_plain = naive_find_rules(db, ONE_PATTERN, thresholds, itype, batch=False)
    fast_batched = find_rules(db, ONE_PATTERN, thresholds, itype, batch=True)
    fast_plain = find_rules(db, ONE_PATTERN, thresholds, itype, batch=False)
    assert_same_answers(naive_plain, naive_batched, fast_plain, fast_batched)


@given(mixed_arity_databases())
@settings(max_examples=10, deadline=None)
def test_three_arms_agree_multinode_type2(db):
    """Two body patterns land in different decomposition nodes, with type-2
    padding in both head and body — the composed-freshness regression."""
    naive_batched = naive_find_rules(db, TRANSITIVITY, None, 2, batch=True)
    naive_plain = naive_find_rules(db, TRANSITIVITY, None, 2, batch=False)
    fast_batched = find_rules(db, TRANSITIVITY, None, 2, batch=True)
    fast_plain = find_rules(db, TRANSITIVITY, None, 2, batch=False)
    assert_byte_identical(naive_batched, naive_plain)
    assert_same_answers(naive_plain, naive_batched, fast_plain, fast_batched)


@given(mixed_arity_databases(), st.sampled_from([0, Fraction(1, 4), Fraction(1, 2)]))
@settings(max_examples=15, deadline=None)
def test_batched_decide_and_witness_agree(db, k):
    for index in ("sup", "cnf", "cvr"):
        batched = naive_decide(db, ONE_PATTERN, index, k, batch=True)
        plain = naive_decide(db, ONE_PATTERN, index, k, batch=False)
        assert batched == plain
        witness_batched = naive_witness(db, ONE_PATTERN, index, k, batch=True)
        witness_plain = naive_witness(db, ONE_PATTERN, index, k, batch=False)
        assert (witness_batched is None) == (witness_plain is None) == (not batched)
        if witness_batched is not None:
            assert exact_key(witness_batched) == exact_key(witness_plain)
