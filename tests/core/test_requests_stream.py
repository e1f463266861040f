"""Tests for the request pipeline: requests, prepare, streaming, telemetry.

The pipeline's contract has three legs:

* **validation at the boundary** — malformed requests and engine
  configurations raise :class:`~repro.exceptions.EngineError` (a
  ``ReproError`` *and* a ``ValueError``) at construction, never deep
  inside evaluation;
* **byte-identity** — ``list(prepared.stream())`` equals the materialized
  ``find_rules`` answers in value *and* order, for both engines, every
  instantiation type and any worker count;
* **incrementality** — streams can be stopped early without poisoning the
  engine's persistent state.
"""

from __future__ import annotations

import pytest

from repro.core.answers import AnswerSet, Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.metaquery import parse_metaquery
from repro.core.requests import MetaqueryRequest, PreparedMetaquery, resolve_algorithm
from repro.exceptions import EngineError, MetaqueryError, ReproError
from repro.workloads.synthetic import chain_database, chain_metaquery
from repro.workloads.telecom import scaled_telecom

TRANSITIVITY = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)")
FIGURE4_THRESHOLDS = Thresholds(support=0.2, confidence=0.3, cover=0.1)

#: name -> (tenant, metaquery, thresholds, itype, algorithm): three Figure-4
#: requests on the scaled telecom workload and one acyclic chain.
FIGURE4_SCENARIOS = {
    "naive_baseline_telecom": ("telecom", TRANSITIVITY, None, 0, "naive"),
    "naive_type2_telecom": ("telecom", TRANSITIVITY, FIGURE4_THRESHOLDS, 2, "naive"),
    "findrules_telecom": ("telecom", TRANSITIVITY, FIGURE4_THRESHOLDS, 0, "findrules"),
    "acyclic_chain_findrules": (
        "chain",
        chain_metaquery(3),
        Thresholds(support=0.1, confidence=0.0, cover=0.0),
        0,
        "findrules",
    ),
}


def exact_table(answers):
    """The byte-identity key: rule text (padding names included) + exact indices."""
    return [(str(a.rule), a.support, a.confidence, a.cover) for a in answers]


# ----------------------------------------------------------------------
# MetaqueryRequest validation
# ----------------------------------------------------------------------
class TestMetaqueryRequest:
    def test_valid_request_coerces_fields(self):
        request = MetaqueryRequest(
            "R(X,Z) <- P(X,Y), Q(Y,Z)", thresholds=Thresholds(support=0.2), itype=1
        )
        assert int(request.itype) == 1
        assert request.algorithm == "auto"
        assert request.thresholds.support is not None

    def test_none_thresholds_become_no_filtering(self):
        request = MetaqueryRequest(TRANSITIVITY)
        assert request.thresholds == Thresholds.none()

    def test_requests_are_hashable(self):
        a = MetaqueryRequest("R(X,Z) <- P(X,Y), Q(Y,Z)")
        b = MetaqueryRequest("R(X,Z) <- P(X,Y), Q(Y,Z)")
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"metaquery": ""},
            {"metaquery": "   "},
            {"metaquery": 42},
            {"metaquery": "R(X) <- P(X)", "algorithm": "magic"},
            {"metaquery": "R(X) <- P(X)", "itype": 7},
            {"metaquery": "R(X) <- P(X)", "thresholds": 0.2},
        ],
    )
    def test_invalid_requests_raise_engine_error(self, kwargs):
        with pytest.raises(EngineError):
            MetaqueryRequest(**kwargs)

    def test_engine_error_is_repro_and_value_error(self):
        with pytest.raises(ReproError):
            MetaqueryRequest("")
        with pytest.raises(ValueError):
            MetaqueryRequest("")

    def test_resolve_algorithm(self):
        assert resolve_algorithm("naive", Thresholds(support=0.5)) == "naive"
        assert resolve_algorithm("auto", Thresholds(support=0.5)) == "findrules"
        assert resolve_algorithm("auto", Thresholds.none()) == "naive"


# ----------------------------------------------------------------------
# Engine construction validation (the workers=0 bugfix)
# ----------------------------------------------------------------------
class TestEngineValidation:
    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_workers_below_one_rejected(self, telecom_db, workers):
        with pytest.raises(EngineError, match="workers must be >= 1"):
            MetaqueryEngine(telecom_db, workers=workers)

    @pytest.mark.parametrize("workers", [True, False, 2.0, "2", None])
    def test_non_int_workers_rejected(self, telecom_db, workers):
        with pytest.raises(EngineError, match="workers must be an int"):
            MetaqueryEngine(telecom_db, workers=workers)

    @pytest.mark.parametrize("switch", ["cache", "batch"])
    @pytest.mark.parametrize("value", ["no", 0, 1, None, object()])
    def test_non_bool_switches_rejected(self, telecom_db, switch, value):
        with pytest.raises(EngineError, match=f"{switch} must be a bool"):
            MetaqueryEngine(telecom_db, **{switch: value})

    def test_validation_errors_remain_value_errors(self, telecom_db):
        """Callers that predate the request API catch ValueError; keep them working."""
        with pytest.raises(ValueError):
            MetaqueryEngine(telecom_db, workers=0)
        with pytest.raises(ValueError):
            MetaqueryEngine(telecom_db).find_rules(
                "R(X,Z) <- P(X,Y), Q(Y,Z)", Thresholds.positive(), algorithm="magic"
            )


# ----------------------------------------------------------------------
# prepare()
# ----------------------------------------------------------------------
class TestPrepare:
    def test_prepare_resolves_auto_by_thresholds(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        with_thresholds = engine.prepare(TRANSITIVITY, Thresholds(support=0.2))
        without = engine.prepare(TRANSITIVITY)
        assert with_thresholds.algorithm == "findrules"
        assert without.algorithm == "naive"

    def test_prepare_plans_findrules_once(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        prepared = engine.prepare(TRANSITIVITY, Thresholds(support=0.2))
        assert prepared.decomposition is not None
        assert prepared.classification in ("acyclic", "semi-acyclic", "cyclic")
        # The naive plan carries no decomposition.
        assert engine.prepare(TRANSITIVITY).decomposition is None

    def test_prepare_accepts_request_objects_and_text(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        request = MetaqueryRequest("R(X,Z) <- P(X,Y), Q(Y,Z)", Thresholds(support=0.2))
        assert isinstance(engine.prepare(request), PreparedMetaquery)
        assert isinstance(engine.prepare("R(X,Z) <- P(X,Y), Q(Y,Z)"), PreparedMetaquery)

    def test_prepare_validates_purity_eagerly(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        impure = parse_metaquery("P(X) <- P(X,Y)")
        with pytest.raises(MetaqueryError):
            engine.prepare(impure, Thresholds.positive(), itype=0)

    def test_prepare_uses_engine_default_itype(self, telecom_db):
        engine = MetaqueryEngine(telecom_db, default_itype=1)
        prepared = engine.prepare(TRANSITIVITY)
        assert int(prepared.request.itype) == 1


@pytest.fixture(scope="module")
def scaled_telecom_db():
    return scaled_telecom(users=25, carriers=6, technologies=5, noise=0.1, seed=1)


@pytest.fixture(scope="module")
def figure4_chain_db():
    return chain_database(relations=6, tuples_per_relation=25, planted_fraction=0.3, seed=2)


# ----------------------------------------------------------------------
# Streaming: byte-identity with the materialized path
# ----------------------------------------------------------------------
class TestStreamCollectEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("itype", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ["naive", "findrules"])
    def test_stream_equals_find_rules(self, telecom_db, algorithm, itype, workers):
        thresholds = Thresholds(support=0.1, confidence=0.1, cover=0.0)
        with MetaqueryEngine(telecom_db, workers=workers) as engine:
            prepared = engine.prepare(
                TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm
            )
            streamed = exact_table(prepared.stream())
            materialized = exact_table(
                engine.find_rules(TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm)
            )
        assert streamed == materialized

    def test_prepared_stream_is_repeatable(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        prepared = engine.prepare(TRANSITIVITY, Thresholds(support=0.2), itype=1)
        assert exact_table(prepared.stream()) == exact_table(prepared.stream())

    def test_prepared_is_iterable(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        prepared = engine.prepare(TRANSITIVITY, Thresholds(support=0.2))
        assert exact_table(prepared) == exact_table(prepared.collect())

    def test_collect_tags_resolved_algorithm(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        assert engine.prepare(TRANSITIVITY, Thresholds(support=0.2)).collect().algorithm == "findrules"
        assert engine.prepare(TRANSITIVITY).collect().algorithm == "naive"

    def test_find_rules_accepts_request_objects(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        request = MetaqueryRequest(
            "R(X,Z) <- P(X,Y), Q(Y,Z)", Thresholds(support=0.2), itype=1
        )
        assert exact_table(engine.find_rules(request)) == exact_table(
            engine.find_rules("R(X,Z) <- P(X,Y), Q(Y,Z)", Thresholds(support=0.2), itype=1)
        )

    def test_overriding_a_request_is_rejected(self, telecom_db):
        """Competing thresholds/itype/algorithm next to a MetaqueryRequest
        must not be silently dropped (they used to be, returning unfiltered
        answers)."""
        engine = MetaqueryEngine(telecom_db)
        request = MetaqueryRequest("R(X,Z) <- P(X,Y), Q(Y,Z)", itype=1)
        with pytest.raises(EngineError, match="cannot be overridden"):
            engine.find_rules(request, Thresholds(support=0.99))
        with pytest.raises(EngineError, match="cannot be overridden"):
            engine.prepare(request, itype=2)
        with pytest.raises(EngineError, match="cannot be overridden"):
            engine.prepare(request, algorithm="naive")
        # The unambiguous spellings still work.
        assert engine.find_rules(request)
        assert engine.prepare(request, itype=None, algorithm="auto")

    def test_answer_set_collect_round_trip(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        prepared = engine.prepare(TRANSITIVITY, Thresholds(support=0.2))
        collected = AnswerSet.collect(prepared.stream(), algorithm=prepared.algorithm)
        assert collected.algorithm == "findrules"
        assert exact_table(collected) == exact_table(prepared.collect())

    @pytest.mark.parametrize("scenario", sorted(FIGURE4_SCENARIOS))
    def test_cold_stream_equals_cold_collect_on_figure4_scenarios(
        self, scaled_telecom_db, figure4_chain_db, scenario
    ):
        # Each side runs on its own fresh engine, so both start from cold
        # caches; equal tables mean the first streamed answer is collect()[0].
        tenant, metaquery, thresholds, itype, algorithm = FIGURE4_SCENARIOS[scenario]
        db = scaled_telecom_db if tenant == "telecom" else figure4_chain_db

        def prepare():
            return MetaqueryEngine(db).prepare(
                metaquery, thresholds, itype=itype, algorithm=algorithm
            )

        collected = exact_table(prepare().collect())
        assert collected
        assert exact_table(prepare().stream()) == collected


class TestStreamIncrementality:
    @pytest.mark.parametrize(
        "algorithm, itype, thresholds",
        [
            ("naive", 0, None),
            ("naive", 1, None),
            ("naive", 2, None),
            # FindRules type 0 is left out: its only answer here comes last.
            ("findrules", 1, FIGURE4_THRESHOLDS),
            ("findrules", 2, FIGURE4_THRESHOLDS),
        ],
    )
    def test_first_answer_is_yielded_before_the_search_ends(
        self, scaled_telecom_db, algorithm, itype, thresholds
    ):
        # Time to first answer, counted in work instead of wall time: when
        # the stream yields its first answer the engine has answered fewer
        # head instantiations than a full collection of the same request.
        full = MetaqueryEngine(scaled_telecom_db)
        full.find_rules(TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm)
        total = full.stats()["batch"]["members"]
        engine = MetaqueryEngine(scaled_telecom_db)
        stream = engine.stream(TRANSITIVITY, thresholds, itype=itype, algorithm=algorithm)
        next(stream)
        at_first_answer = engine.stats()["batch"]["members"]
        stream.close()
        assert 0 < at_first_answer < total

    def test_early_stop_serial(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        stream = engine.stream(TRANSITIVITY, itype=0)
        first = next(stream)
        stream.close()
        full = engine.find_rules(TRANSITIVITY, itype=0)
        assert exact_table([first]) == exact_table([full[0]])

    def test_early_stop_sharded_keeps_pool_healthy(self, telecom_db):
        thresholds = Thresholds(support=0.1)
        with MetaqueryEngine(telecom_db, workers=2) as engine:
            stream = engine.stream(TRANSITIVITY, thresholds, itype=1)
            first = next(stream)
            stream.close()
            # The persistent pool must still serve subsequent calls.
            again = engine.find_rules(TRANSITIVITY, thresholds, itype=1)
            assert exact_table([first]) == exact_table([again[0]])

    def test_stream_after_invalidate_cache(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        prepared = engine.prepare(TRANSITIVITY, Thresholds(support=0.2))
        before = exact_table(prepared.stream())
        engine.invalidate_cache()
        assert exact_table(prepared.stream()) == before


# ----------------------------------------------------------------------
# stats()
# ----------------------------------------------------------------------
class TestEngineStats:
    def test_stats_sections_match_configuration(self, telecom_db):
        serial = MetaqueryEngine(telecom_db)
        assert set(serial.stats()) == {"cache", "batch", "lifecycle", "request"}
        unbatched = MetaqueryEngine(telecom_db, batch=False)
        assert set(unbatched.stats()) == {"cache", "lifecycle", "request"}
        uncached_requests = MetaqueryEngine(telecom_db, request_cache=None)
        assert set(uncached_requests.stats()) == {"cache", "batch", "lifecycle"}
        with MetaqueryEngine(telecom_db, workers=2) as parallel:
            assert set(parallel.stats()) == {
                "cache", "batch", "lifecycle", "request", "shard"
            }

    def test_stats_counters_accumulate(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        assert engine.stats()["batch"]["group_count"] == 0
        engine.find_rules(TRANSITIVITY, Thresholds(support=0.2), itype=1)
        stats = engine.stats()
        assert stats["batch"]["group_count"] > 0
        assert stats["cache"]["atom_misses"] > 0
        # A repeat run is served from the caches.
        engine.find_rules(TRANSITIVITY, Thresholds(support=0.2), itype=1)
        assert engine.stats()["cache"]["atom_hits"] >= stats["cache"]["atom_hits"]

    def test_invalidate_cache_drops_groups_keeps_counters(self, telecom_db):
        engine = MetaqueryEngine(telecom_db)
        engine.find_rules(TRANSITIVITY, Thresholds(support=0.2), itype=1)
        before = engine.stats()
        engine.invalidate_cache()
        after = engine.stats()
        assert after["batch"]["group_count"] == 0
        assert after["batch"]["groups"] == before["batch"]["groups"]
