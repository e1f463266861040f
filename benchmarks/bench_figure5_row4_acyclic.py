"""Figure 5 row 4 — acyclic metaqueries, type 0, threshold 0: LOGCFL (Thm 3.32).

The tractable case.  Sequentially this means polynomial-time evaluation: the
benchmark sweeps both the database size (with a fixed acyclic chain
metaquery) and the chain length (with fixed data), asserting that measured
time stays low and grows tamely — concretely, that quadrupling the data does
not blow the runtime up by more than a generous polynomial factor — in sharp
contrast with the reduction-driven rows.  It also exercises the Theorem 3.32
membership construction: the acyclic type-0 threshold-0 problem is answered
through certifying-set satisfiability only (no counting).
"""

import time

import pytest

from repro.core.acyclicity import classify
from repro.core.answers import Thresholds
from repro.core.findrules import find_rules
from repro.core.naive import naive_decide, naive_find_rules
from repro.workloads.synthetic import chain_database, chain_metaquery

THRESHOLD0 = Thresholds(0, 0, 0)


@pytest.mark.parametrize("tuples", [50, 200])
def test_acyclic_type0_data_scaling(benchmark, record, tuples):
    db = chain_database(relations=3, tuples_per_relation=tuples, seed=1)
    mq = chain_metaquery(2)
    assert classify(mq) == "acyclic"
    answers = benchmark(lambda: find_rules(db, mq, THRESHOLD0, 0))
    assert len(answers) > 0
    record(tuples_per_relation=tuples, answers=len(answers))


@pytest.mark.parametrize("length", [2, 3, 4])
def test_acyclic_type0_query_scaling(benchmark, record, length):
    db = chain_database(relations=length, tuples_per_relation=30, seed=2)
    mq = chain_metaquery(length)
    assert classify(mq) == "acyclic"
    verdict = benchmark(lambda: naive_decide(db, mq, "sup", 0, 0))
    assert verdict
    record(chain_length=length, verdict=verdict)


@pytest.mark.parametrize("cache", [True, False])
def test_ablation_cache_on_acyclic_chain(benchmark, record, cache):
    """The memo cache on an acyclic chain: the chain metaquery's body joins
    are acyclic, so with or without the cache they take the Yannakakis
    full-reducer path."""
    db = chain_database(relations=6, tuples_per_relation=40, planted_fraction=0.3, seed=2)
    mq = chain_metaquery(3)
    assert classify(mq) == "acyclic"
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    answers = benchmark(lambda: naive_find_rules(db, mq, thresholds, 0, cache=cache))
    record(cache=cache, answers=len(answers))


def test_polynomial_shape_of_data_scaling(benchmark, record):
    """Quadrupling the data must not inflate runtime super-polynomially.

    A crude but effective guard: time the small and the large instance once
    and require time(4d) <= 64 * time(d) + 50ms — any exponential data
    dependence would blow straight through this bound, while the expected
    ~d^c (c = 1 here) behaviour sits far below it.
    """
    mq = chain_metaquery(2)
    small_db = chain_database(relations=3, tuples_per_relation=50, seed=3)
    large_db = chain_database(relations=3, tuples_per_relation=200, seed=3)

    start = time.perf_counter()
    find_rules(small_db, mq, THRESHOLD0, 0)
    small_seconds = time.perf_counter() - start

    start = time.perf_counter()
    find_rules(large_db, mq, THRESHOLD0, 0)
    large_seconds = time.perf_counter() - start

    assert large_seconds <= 64 * small_seconds + 0.05
    benchmark(lambda: find_rules(small_db, mq, THRESHOLD0, 0))
    record(
        paper_claim="acyclic/type-0/k=0 metaquerying is tractable (LOGCFL ⊆ P)",
        small_seconds=round(small_seconds, 4),
        large_seconds=round(large_seconds, 4),
    )
