"""End-to-end differential tests: SSE output equals the direct engine stream.

The streaming endpoint's contract is that HTTP changes *nothing* about
the answers: for every Figure-4 scenario, the ``data:`` payloads of the
``answer`` events — order included — must be byte-identical to the same
scenario serialized straight off ``PreparedMetaquery.stream()`` on a
direct engine with the same configuration.  Both sides serialize through
:func:`repro.server.service.encode_answer`, so the comparison below is
an exact string comparison of wire bytes.

The matrix covers ``workers`` 1 and 2 and the request cache on and off;
the cache arm replays each scenario twice so the second pass is served
from :class:`~repro.datalog.lifecycle.RequestCache` replay — which must
also be byte-identical.
"""

from __future__ import annotations

import json
from typing import Dict

import pytest

from repro.core.answers import Thresholds
from repro.core.engine import MetaqueryEngine
from repro.core.requests import MetaqueryRequest
from repro.relational.database import Database
from repro.server.service import encode_answer
from repro.workloads.synthetic import chain_database, chain_metaquery
from repro.workloads.telecom import scaled_telecom

TRANSITIVITY = "R(X,Z) <- P(X,Y), Q(Y,Z)"
CHAIN_MQ = str(chain_metaquery(3))

FIGURE4_THRESHOLDS = {"support": 0.2, "confidence": 0.3, "cover": 0.1}
CHAIN_THRESHOLDS = {"support": 0.1, "confidence": 0.0, "cover": 0.0}

#: (name, tenant, metaquery, flat threshold fields, itype, algorithm) —
#: three Figure-4 requests on the telecom workload and one acyclic chain.
SCENARIOS = [
    ("figure4_naive_baseline_telecom", "telecom", TRANSITIVITY, {}, 0, "naive"),
    ("figure4_naive_type2_telecom", "telecom", TRANSITIVITY, FIGURE4_THRESHOLDS, 2, "naive"),
    ("figure4_findrules_telecom", "telecom", TRANSITIVITY, FIGURE4_THRESHOLDS, 0, "findrules"),
    ("acyclic_chain_findrules", "chain", CHAIN_MQ, CHAIN_THRESHOLDS, 0, "findrules"),
]


@pytest.fixture(scope="module")
def figure4_databases() -> Dict[str, Database]:
    """The two Figure-4 workload databases, keyed by tenant name."""
    return {
        "telecom": scaled_telecom(users=25, carriers=6, technologies=5, noise=0.1, seed=1),
        "chain": chain_database(
            relations=6, tuples_per_relation=25, planted_fraction=0.3, seed=2
        ),
    }


def _direct_wire_answers(
    db: Database,
    metaquery: str,
    thresholds: dict,
    itype: int,
    algorithm: str,
    workers: int,
    request_cache: int | None,
) -> list[str]:
    """The scenario's answers off a direct engine, serialized for the wire."""
    request = MetaqueryRequest(
        metaquery,
        thresholds=Thresholds(**thresholds) if thresholds else None,
        itype=itype,
        algorithm=algorithm,
    )
    engine = MetaqueryEngine(db, workers=workers, request_cache=request_cache)
    return [encode_answer(a) for a in engine.prepare(request).stream()]


def _sse_wire_answers(fixture, payload: dict, scenario: str) -> list[str]:
    """One ``/mine/stream`` round trip: answer payload strings, checked."""
    with fixture.open_sse("/mine/stream", payload) as stream:
        assert stream.status == 200, f"{scenario}: {stream.read_body()!r}"
        assert stream.headers["content-type"].startswith("text/event-stream")
        events = list(stream.events())
    assert events, f"{scenario}: no events at all"
    answers = [e for e in events if e.event == "answer"]
    stats = events[-1]
    assert stats.event == "stats", f"{scenario}: missing terminal stats event"
    assert [e.event_id for e in answers] == [str(i) for i in range(len(answers))]
    stats_doc = json.loads(stats.data)
    assert stats_doc["answers"] == len(answers)
    assert stats_doc["complete"] is True
    assert stats_doc["tenant"] == payload["tenant"]
    return [e.data for e in answers]


@pytest.mark.parametrize("request_cache", [None, 128], ids=["nocache", "cache"])
@pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
def test_sse_byte_identical_to_direct_stream(
    figure4_databases: Dict[str, Database],
    make_server,
    workers: int,
    request_cache: int | None,
) -> None:
    """Every Figure-4 scenario: SSE payloads == direct stream, byte for byte."""
    fixture = make_server(
        figure4_databases, workers=workers, request_cache=request_cache
    )
    for name, tenant, metaquery, thresholds, itype, algorithm in SCENARIOS:
        expected = _direct_wire_answers(
            figure4_databases[tenant],
            metaquery,
            thresholds,
            itype,
            algorithm,
            workers,
            request_cache,
        )
        payload = {
            "metaquery": metaquery,
            "itype": itype,
            "algorithm": algorithm,
            "tenant": tenant,
            **thresholds,
        }
        streamed = _sse_wire_answers(fixture, payload, name)
        assert streamed == expected, f"{name}: SSE diverged from direct stream"
        if request_cache is not None:
            # The replay served from the request cache must be identical too.
            replayed = _sse_wire_answers(fixture, payload, f"{name} (replay)")
            assert replayed == expected, f"{name}: cache replay diverged"


def test_collected_mine_matches_stream(
    figure4_databases: Dict[str, Database], make_server
) -> None:
    """``POST /mine`` returns the same answers the stream delivers."""
    fixture = make_server(figure4_databases)
    for name, tenant, metaquery, thresholds, itype, algorithm in SCENARIOS:
        payload = {
            "metaquery": metaquery,
            "itype": itype,
            "algorithm": algorithm,
            "tenant": tenant,
            **thresholds,
        }
        collected = fixture.post_json("/mine", payload)
        assert collected.status == 200, f"{name}: {collected.body!r}"
        document = collected.json()
        assert document["tenant"] == tenant
        collected_wire = [
            json.dumps(a, sort_keys=True, separators=(",", ":"))
            for a in document["answers"]
        ]
        streamed = _sse_wire_answers(fixture, payload, name)
        assert collected_wire == streamed, f"{name}: /mine diverged from /mine/stream"
        assert document["count"] == len(streamed)
