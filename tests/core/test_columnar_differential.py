"""Engine-level differential tests: columnar storage on vs off.

The ``columnar=`` switch must be observationally invisible all the way up
the stack: for both engines, every instantiation type and serial as well
as pooled evaluation, the answer stream — order included, exact Fraction
index values included — is identical with the vectorized kernels on and
off.  The kernel row threshold is pinned to zero so the columnar arm
really runs the kernels even on these test-sized databases.
"""

from __future__ import annotations

import pytest

from repro.core.answers import Thresholds
from repro.core.engine import MetaqueryEngine
from repro.relational import columnar
from repro.workloads.synthetic import chain_database, chain_metaquery
from repro.workloads.telecom import scaled_telecom

TRANSITIVITY = "R(X,Z) <- P(X,Y), Q(Y,Z)"


@pytest.fixture(autouse=True)
def _force_kernels(monkeypatch):
    """Engage the kernels regardless of operand size (in this process)."""
    monkeypatch.setattr(columnar, "MIN_KERNEL_ROWS", 0)


@pytest.fixture(scope="module")
def telecom_db_factory():
    """Fresh telecom databases per arm, so neither arm warms the other."""

    def build(with_model: bool):
        return scaled_telecom(
            users=25, carriers=6, technologies=5, noise=0.1, seed=1, with_model=with_model
        )

    return build


def _answer_stream(db, workers: int, columnar_flag: bool, itype: int, algorithm: str):
    """The ordered, exact answer stream for one engine configuration."""
    thresholds = Thresholds(support=0.2, confidence=0.3, cover=0.1)
    with MetaqueryEngine(db, workers=workers, columnar=columnar_flag) as engine:
        answers = engine.find_rules(TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm)
        assert answers.algorithm == algorithm
        return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]


@pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
@pytest.mark.parametrize("itype", [0, 1, 2])
@pytest.mark.parametrize("algorithm", ["naive", "findrules"])
def test_engine_columnar_on_off_identical(
    telecom_db_factory, algorithm, itype, workers
):
    on = _answer_stream(telecom_db_factory(itype == 2), workers, True, itype, algorithm)
    off = _answer_stream(telecom_db_factory(itype == 2), workers, False, itype, algorithm)
    assert on == off
    assert on, "scenario produced no answers — the comparison is vacuous"


@pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
def test_engine_columnar_on_off_identical_chain(workers):
    """The join-chain Figure-4 scenario, where the kernels do real work."""
    mq = str(chain_metaquery(3))
    thresholds = Thresholds(support=0.1, confidence=0.0, cover=0.0)

    def run(flag: bool):
        db = chain_database(relations=6, tuples_per_relation=25, planted_fraction=0.3, seed=2)
        with MetaqueryEngine(db, workers=workers, columnar=flag) as engine:
            answers = engine.find_rules(mq, thresholds, itype=0, algorithm="findrules")
            return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]

    on = run(True)
    off = run(False)
    assert on == off
    assert len(on) > 10


def test_engine_columnar_flag_validation():
    db = scaled_telecom(users=5, carriers=3, technologies=2, noise=0.0, seed=1)
    for bad in ("yes", None, 1):
        with pytest.raises(Exception):
            MetaqueryEngine(db, columnar=bad)
    assert MetaqueryEngine(db, columnar=True).columnar is True
    assert MetaqueryEngine(db, columnar=False).columnar is False
    # The flag is fixed when the engine is built: on by default, whatever
    # use_columnar context the engine is built or called in.
    with columnar.use_columnar(False):
        assert MetaqueryEngine(db).columnar is True


def test_decide_and_witness_respect_columnar_switch(telecom_db_factory):
    """decide()/witness() run under the engine's pinned columnar setting."""
    db = telecom_db_factory(False)
    results = {}
    for flag in (True, False):
        engine = MetaqueryEngine(db, columnar=flag)
        decided = engine.decide(TRANSITIVITY, "sup", 0.2)
        witness = engine.witness(TRANSITIVITY, "sup", 0.2)
        results[flag] = (decided, None if witness is None else str(witness.rule))
    assert results[True] == results[False]
    assert results[True][0] is True
