"""Regression tests for the threshold/decision-surface bugs.

Two bugs fixed alongside the evaluation cache:

* ``naive_witness`` accepted out-of-range thresholds that ``naive_decide``
  rejected, and lacked the k=0 certifying-set shortcut (Proposition 3.20),
  so the two procedures could disagree on the same instance;
* float thresholds were rounded via ``Fraction(k).limit_denominator(10**9)``,
  which can silently perturb the paper's exact strict ``I(σ(MQ)) > k``
  comparisons (e.g. it collapses ``1e-10`` to ``0``).
"""

from fractions import Fraction

import pytest

from repro.core.answers import Thresholds, exact_fraction
from repro.core.engine import MetaqueryEngine
from repro.core.metaquery import parse_metaquery
from repro.core.naive import naive_decide, naive_witness
from repro.exceptions import ParseError
from repro.relational.database import Database

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")


@pytest.fixture
def db() -> Database:
    return Database.from_dict(
        {
            "p": (("a", "b"), [(1, 2), (2, 3), (5, 6)]),
            "q": (("a", "b"), [(2, 4), (3, 5)]),
            "r": (("a", "b"), [(1, 4), (7, 8)]),
        },
        name="threshold-db",
    )


class TestWitnessDecideConsistency:
    @pytest.mark.parametrize("k", [-0.1, 1, 1.5, Fraction(7, 5)])
    def test_witness_rejects_out_of_range_thresholds_like_decide(self, db, k):
        with pytest.raises(ValueError):
            naive_decide(db, TRANSITIVITY, "cnf", k)
        with pytest.raises(ValueError):
            naive_witness(db, TRANSITIVITY, "cnf", k)

    @pytest.mark.parametrize("index", ["sup", "cnf", "cvr"])
    @pytest.mark.parametrize(
        "k", [0, Fraction(1, 100), Fraction(1, 3), 0.5, Fraction(99, 100)]
    )
    def test_witness_is_some_iff_decide_is_true(self, db, index, k):
        decided = naive_decide(db, TRANSITIVITY, index, k)
        witness = naive_witness(db, TRANSITIVITY, index, k)
        assert decided == (witness is not None)
        if witness is not None:
            assert witness.index(index) > exact_fraction(k)

    @pytest.mark.parametrize("index", ["sup", "cnf", "cvr"])
    def test_witness_k0_certifying_shortcut_returns_positive_witness(self, db, index):
        witness = naive_witness(db, TRANSITIVITY, index, 0)
        assert witness is not None
        assert witness.index(index) > 0


class TestExactThresholdCoercion:
    def test_floats_coerce_via_decimal_repr(self):
        assert exact_fraction(0.1) == Fraction(1, 10)
        assert exact_fraction(0.3) == Fraction(3, 10)
        assert exact_fraction(0.5) == Fraction(1, 2)

    def test_tiny_threshold_is_not_rounded_to_zero(self):
        # The old limit_denominator(10**9) coercion collapsed 1e-10 to 0,
        # silently turning a "> 1e-10" test into "> 0".
        assert Fraction(1e-10).limit_denominator(10**9) == 0
        assert exact_fraction(1e-10) == Fraction(1, 10**10)

    def test_fraction_and_int_pass_through(self):
        third = Fraction(1, 3)
        assert exact_fraction(third) is third
        assert exact_fraction(0) == Fraction(0)
        assert exact_fraction("2/7") == Fraction(2, 7)

    def test_thresholds_store_exact_values(self):
        thresholds = Thresholds(support=1e-10, confidence=0.3, cover=None)
        assert thresholds.support == Fraction(1, 10**10)
        assert thresholds.confidence == Fraction(3, 10)
        assert thresholds.cover is None

    def test_strict_comparison_distinguishes_exact_third_from_float_third(self):
        # With an exact Fraction(1, 3) threshold an index of exactly 1/3 is
        # rejected (strict >); the float 1/3 is slightly below 1/3 in its
        # decimal reading, so the same index passes.  The old rounding
        # coercion conflated the two.
        exact = Thresholds(confidence=Fraction(1, 3))
        assert not exact.accepts(Fraction(1), Fraction(1, 3), Fraction(1))
        decimal = Thresholds(confidence=1 / 3)
        assert decimal.confidence < Fraction(1, 3)
        assert decimal.accepts(Fraction(1), Fraction(1, 3), Fraction(1))


class TestAblationSwitches:
    def test_acyclic_body_takes_the_yannakakis_join_with_and_without_cache(
        self, db, monkeypatch
    ):
        # Regression: the join plan once travelled only on the memo
        # context, so cache=False could lose it.
        import repro.datalog.evaluation as evaluation

        planned = []
        real = evaluation._acyclic_join

        def spy(atoms, relations):
            joined = real(atoms, relations)
            planned.append(joined is not None)
            return joined

        monkeypatch.setattr(evaluation, "_acyclic_join", spy)
        for cache in (False, True):
            planned.clear()
            engine = MetaqueryEngine(db, cache=cache)
            engine.find_rules(TRANSITIVITY, Thresholds(support=0.1), algorithm="naive")
            assert True in planned

    def test_cache_off_engine_memoizes_nothing(self, db):
        engine = MetaqueryEngine(db, cache=False)
        engine.find_rules(TRANSITIVITY, thresholds=None)
        stats = engine.context.stats.as_dict()
        assert all(count == 0 for count in stats.values())

    def test_two_argument_custom_index_still_works(self, db):
        # Custom indices written against the pre-context (rule, db) contract
        # must keep working alongside the three-argument builtins.
        from repro.core.indices import PlausibilityIndex

        legacy = PlausibilityIndex("legacy", lambda rule, database: Fraction(1, 2))
        assert naive_decide(db, TRANSITIVITY, legacy, Fraction(1, 4))
        assert not naive_decide(db, TRANSITIVITY, legacy, Fraction(3, 4))
        # witness must agree with decide for custom indices too (it used to
        # crash with a KeyError looking 'legacy' up among sup/cnf/cvr)
        assert naive_witness(db, TRANSITIVITY, legacy, Fraction(1, 4)) is not None
        assert naive_witness(db, TRANSITIVITY, legacy, Fraction(3, 4)) is None


class TestEngineAlgorithmAnnotation:
    def test_auto_without_thresholds_resolves_to_naive(self, db):
        engine = MetaqueryEngine(db)
        answers = engine.find_rules(TRANSITIVITY, thresholds=None)
        assert answers.algorithm == "naive"

    def test_auto_with_thresholds_resolves_to_findrules(self, db):
        engine = MetaqueryEngine(db)
        answers = engine.find_rules(TRANSITIVITY, Thresholds(support=0.1))
        assert answers.algorithm == "findrules"

    def test_explicit_algorithm_is_annotated(self, db):
        engine = MetaqueryEngine(db)
        answers = engine.find_rules(TRANSITIVITY, Thresholds(support=0.1), algorithm="naive")
        assert answers.algorithm == "naive"

    def test_annotation_survives_filtering_and_sorting(self, db):
        engine = MetaqueryEngine(db)
        answers = engine.find_rules(TRANSITIVITY, thresholds=None)
        assert answers.sorted_by("cnf").algorithm == "naive"
        assert answers.filter(lambda a: True).algorithm == "naive"

    def test_unknown_algorithm_rejected_before_parsing(self, db):
        engine = MetaqueryEngine(db)
        # The metaquery text is unparseable; the bad algorithm string must
        # win (ValueError), proving validation happens before parse work.
        with pytest.raises(ValueError):
            engine.find_rules("((not a metaquery", algorithm="bogus")
        with pytest.raises(ParseError):
            engine.find_rules("((not a metaquery", algorithm="naive")
