"""Figure 4: the FindRules algorithm versus naive enumeration, plus ablations.

The performance content of Section 4: FindRules shares work across
instantiations (one decomposition, per-node relations, semijoin pruning) and
therefore beats the enumerate-every-instantiation baseline as the database
and the relation count grow.  The benchmark asserts the *direction* of the
comparison (FindRules never returns different answers, and is not slower by
more than a small factor on the planted workloads where pruning bites) and
records the raw timings for EXPERIMENTS.md.

Ablations: the evaluation memo cache on and off.  FindRules itself runs
Figure 4 as written (empty-branch pruning whenever a threshold is set,
the full semijoin reducer), so it has no ablation arms of its own.

Outside the cache ablations both engines run with their production
defaults (evaluation memoization *and* shape-grouped batching on), so the
comparison is between the shipped engines, not the paper's unaccelerated
procedures; ``perfbench/run.py`` measures the shipped engines end to end.
"""

import time

import pytest

from repro.core.answers import Thresholds
from repro.core.findrules import find_rules
from repro.core.metaquery import parse_metaquery
from repro.core.naive import naive_find_rules
from repro.workloads.synthetic import chain_database, chain_metaquery
from repro.workloads.telecom import scaled_telecom

THRESHOLDS = Thresholds(support=0.2, confidence=0.3, cover=0.1)
TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")


def _answers_match(db, mq, itype=0, thresholds=THRESHOLDS):
    fast = find_rules(db, mq, thresholds, itype)
    slow = naive_find_rules(db, mq, thresholds, itype)
    return sorted(str(a.rule) for a in fast) == sorted(str(a.rule) for a in slow)


@pytest.mark.parametrize("users", [40, 120])
def test_findrules_on_scaled_telecom(benchmark, record, users):
    db = scaled_telecom(users=users, carriers=6, technologies=5, noise=0.1, seed=1)
    answers = benchmark(lambda: find_rules(db, TRANSITIVITY, THRESHOLDS, 0))
    assert len(answers) >= 1
    record(users=users, tuples=db.total_tuples(), answers=len(answers))


@pytest.mark.parametrize("users", [40])
def test_naive_on_scaled_telecom(benchmark, record, users):
    db = scaled_telecom(users=users, carriers=6, technologies=5, noise=0.1, seed=1)
    answers = benchmark(lambda: naive_find_rules(db, TRANSITIVITY, THRESHOLDS, 0))
    assert len(answers) >= 1
    record(users=users, engine="naive-baseline")


def test_findrules_and_naive_agree_while_findrules_prunes(record, benchmark):
    """On a workload with many relations (large instantiation space) FindRules'
    pruning pays: measure both once and assert agreement + direction."""
    db = chain_database(relations=6, tuples_per_relation=40, planted_fraction=0.3, seed=2)
    mq = chain_metaquery(3)
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)

    start = time.perf_counter()
    fast = find_rules(db, mq, thresholds, 0)
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    slow = naive_find_rules(db, mq, thresholds, 0)
    slow_seconds = time.perf_counter() - start

    assert sorted(str(a.rule) for a in fast) == sorted(str(a.rule) for a in slow)
    benchmark(lambda: find_rules(db, mq, thresholds, 0))
    record(
        paper_claim="FindRules evaluates bodies once per partial instantiation and prunes",
        findrules_seconds=round(fast_seconds, 4),
        naive_seconds=round(slow_seconds, 4),
        speedup=round(slow_seconds / fast_seconds, 2) if fast_seconds else None,
        answers=len(fast),
    )


@pytest.mark.parametrize("cache", [True, False])
def test_ablation_evaluation_cache_naive(benchmark, record, cache):
    """Tentpole ablation: the EvaluationContext makes the naive baseline share
    body joins across head instantiations (the workload of the ISSUE's
    'indexed, memoized evaluation layer')."""
    db = scaled_telecom(users=40, carriers=6, technologies=5, noise=0.1, seed=1)
    answers = benchmark(lambda: naive_find_rules(db, TRANSITIVITY, THRESHOLDS, 0, cache=cache))
    assert len(answers) >= 1
    record(cache=cache, engine="naive")


@pytest.mark.parametrize("cache", [True, False])
def test_ablation_evaluation_cache_findrules(benchmark, record, cache):
    db = chain_database(relations=6, tuples_per_relation=40, planted_fraction=0.3, seed=2)
    mq = chain_metaquery(3)
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)
    answers = benchmark(lambda: find_rules(db, mq, thresholds, 0, cache=cache))
    record(cache=cache, engine="findrules", answers=len(answers))


def test_cache_on_off_answers_identical(record):
    """The cache must be observationally invisible (see also the property
    tests): identical answers, only faster."""
    db = chain_database(relations=5, tuples_per_relation=30, planted_fraction=0.2, seed=5)
    mq = chain_metaquery(3)
    on = naive_find_rules(db, mq, None, 0, cache=True)
    off = naive_find_rules(db, mq, None, 0, cache=False)
    assert sorted((str(a.rule), a.support, a.confidence, a.cover) for a in on) == sorted(
        (str(a.rule), a.support, a.confidence, a.cover) for a in off
    )
    record(answers=len(on))


@pytest.mark.parametrize("itype", [0, 1, 2])
def test_instantiation_type_cost(benchmark, record, itype):
    """Section 4 cost formulas: the candidate space grows from type-0 to type-2."""
    db = scaled_telecom(users=25, carriers=4, technologies=3, noise=0.1, seed=6, with_model=(itype == 2))
    answers = benchmark(lambda: find_rules(db, TRANSITIVITY, THRESHOLDS, itype))
    assert _answers_match(db, TRANSITIVITY, itype)
    record(itype=itype, answers=len(answers))
