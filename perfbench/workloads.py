"""The three workloads, each at the shipped program's production defaults.

* :class:`JoinCold` — the paper's *data complexity* axis, as a ``repro
  mine`` user sees it: every request loads a ~3·10^4-tuple chain database
  from CSV, builds a fresh default engine and collects
  ``chain_metaquery(2)``, alternating the naive and FindRules algorithms.
  Every cache misses, so the join kernels, index builds and batch grouping
  do the work.
* :class:`EnumWarm` — the *combined complexity* axis with writes beside
  reads, as a library user sees it: one persistent ``workers=2`` engine
  per small database, a seeded mix of metaqueries, instantiation types,
  both algorithms and ``decide``/``witness`` calls, and about every fifth
  step a write that toggles a seeded tuple set in one relation.  Joins are tiny;
  enumeration, index fractions, cache hits and invalidation, and shard
  dispatch do the work.
* :class:`ServeStream` — the operator's HTTP path: two closed-loop client
  threads against the in-process server, replaying a warmed pool of
  ``/mine/stream`` and ``/mine`` requests from the request cache, from a
  handful of answers up to the ~20.7k-answer type-2 chain stream.

Every workload draws its inputs from the seed alone.  Each request is
recorded as a :class:`Sample` whose answers are checked after the timed
region against a reference computed by an :func:`oracle` engine.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator

from perfbench.client import parse_reply, post
from repro.core.answers import MetaqueryAnswer, Thresholds
from repro.core.engine import MetaqueryEngine
from repro.relational import io as relational_io
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.server.inprocess import InProcessServer
from repro.server.service import encode_answer, parse_mine_payload
from repro.workloads.scaling import scaled_chain_database
from repro.workloads.synthetic import chain_database, chain_metaquery
from repro.workloads.telecom import scaled_telecom

__all__ = ["ORACLE", "WORKLOADS", "Sample", "digest_lines", "oracle"]

#: The reference engine configuration: serial, no memo cache, no batching,
#: no columnar kernels, no request cache.
ORACLE: dict[str, Any] = {
    "workers": 1,
    "cache": False,
    "batch": False,
    "columnar": False,
    "request_cache": None,
}

TRANSITIVITY = "R(X,Z) <- P(X,Y), Q(Y,Z)"
CHAIN3 = str(chain_metaquery(3))
#: The Figure-4 thresholds of the telecom experiments.
FIGURE4 = {"support": "1/5", "confidence": "3/10", "cover": "1/10"}
SUPPORT_0 = {"support": "0"}
NO_THRESHOLDS: dict[str, str] = {}

#: Client-side limit on one served request, seconds.
CLIENT_TIMEOUT = 60.0


def digest_lines(lines: Iterable[str]) -> str:
    """sha256 over answer lines in emission order, one per line."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _lines(results: Iterable[Any]) -> Iterator[str]:
    """Canonical lines of in-process results: answers encode as the wire
    does; ``decide``/``witness`` outcomes are already strings."""
    for item in results:
        yield encode_answer(item) if isinstance(item, MetaqueryAnswer) else item


def oracle(db: Database, memo: bool = False) -> MetaqueryEngine:
    """A fresh reference engine over ``db``.

    ``memo`` turns the memo cache back on.  Each workload names the few
    requests that keep it: those whose uncached reference takes more than
    ~1.5 s on a 2-CPU x86 host (up to ~5 min), which together would push
    the benchmark's set of runs past its hour.  Every other reference,
    covering each kind of call on each database, runs without it.
    """
    return MetaqueryEngine(db, **{**ORACLE, "cache": memo})


def _thresholds(spec: dict[str, str]) -> Thresholds:
    return Thresholds(**{name: Fraction(value) for name, value in spec.items()})


def small_databases(seed: int) -> dict[str, Database]:
    """The two small databases of ``enum_warm`` and ``serve_stream``."""
    return {
        "chain": chain_database(
            relations=6, tuples_per_relation=60, planted_fraction=0.3, seed=seed
        ),
        "telecom": scaled_telecom(users=60, carriers=6, technologies=5, noise=0.1, seed=seed),
    }


def fingerprint(databases: Iterable[Database]) -> str:
    """sha256 of every relation's sorted rows: equal iff the inputs are."""
    digest = hashlib.sha256()
    for db in databases:
        for relation in sorted(db, key=lambda r: r.name):
            digest.update(repr((relation.name, relation.columns)).encode())
            for row in sorted(map(repr, relation.tuples)):
                digest.update(row.encode())
    return digest.hexdigest()


@dataclass
class Sample:
    """One request: its reference key, timings and what it returned."""

    key: Hashable
    start: float
    first: float
    end: float
    results: list[Any] = field(default_factory=list)
    lines: list[str] | None = None
    error: str | None = None

    @property
    def answers(self) -> int:
        """Metaquery answers delivered (a ``decide`` delivers none)."""
        if self.lines is not None:
            return len(self.lines)
        return sum(isinstance(item, MetaqueryAnswer) for item in self.results)

    def digest(self) -> str:
        lines = self.lines if self.lines is not None else _lines(self.results)
        return digest_lines(lines)


def run_in_process(key: Hashable, produce: Callable[[], Iterable[Any]]) -> Sample:
    """Time one in-process request: start, first result, last result."""
    start = time.perf_counter()
    first = None
    results: list[Any] = []
    try:
        for item in produce():
            if first is None:
                first = time.perf_counter()
            results.append(item)
    except Exception as exc:  # a failed request is counted, not fatal
        end = time.perf_counter()
        return Sample(key, start, end, end, error=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    return Sample(key, start, end if first is None else first, end, results)


def add_counters(total: dict[str, dict[str, int]], stats: dict[str, dict[str, int]]) -> None:
    """Sum engine ``stats()`` sections into ``total`` (gauges included)."""
    for section, counters in stats.items():
        bucket = total.setdefault(section, {})
        for name, value in counters.items():
            bucket[name] = bucket.get(name, 0) + value


class Workload:
    """The interface the harness drives.

    ``setup`` builds everything a measurement needs, replacing what an
    earlier ``setup`` built, and is timed as ``setup_s``; ``drive`` runs
    the closed loop until ``deadline``, continuing the request sequence of
    earlier calls, and returns one :class:`Sample` per request;
    ``counters`` sums the live
    engines' ``stats()``; ``reference`` computes the expected digest of a
    request key with a fresh :func:`oracle` engine.
    """

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    #: Engine settings of the measured engines, for the run's facts.
    settings: dict[str, Any] = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (idempotent)."""

    def drive(self, deadline: float) -> list[Sample]:
        raise NotImplementedError

    def counters(self) -> dict[str, dict[str, int]]:
        raise NotImplementedError

    def reference(self, key: Hashable) -> str:
        raise NotImplementedError

    def inputs(self) -> str:
        """A fingerprint of the generated inputs."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# join_cold
# ----------------------------------------------------------------------
class JoinCold(Workload):
    name = "join_cold"
    settings = {"engine": "MetaqueryEngine defaults, fresh per request", "workers": 1}
    #: A set-up takes ~0.1 s, so more of them steady ``setup_s``.  A round
    #: takes 2.5–4 s, longer than each of the six segments, so a run
    #: measures six whole rounds whatever the host's speed, where three
    #: segments measured two or three rounds each.
    setups = 6

    TUPLES = 30_000
    RELATIONS = 5
    METAQUERY = chain_metaquery(2)
    THRESHOLDS = Thresholds(support=Fraction(1, 20), confidence=Fraction(0), cover=Fraction(0))
    ALGORITHMS = ("naive", "findrules")
    #: Uncached, the naive reference takes ~77 s on a 2-CPU x86 host, the
    #: FindRules one ~11 s (see :func:`oracle`).
    MEMO_REFERENCES = frozenset({"naive"})

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.csv_dir = workdir / "join_cold"
        self._counters: dict[str, dict[str, int]] = {}

    def _database(self) -> Database:
        return scaled_chain_database(self.TUPLES, relations=self.RELATIONS, seed=self.seed)

    def setup(self) -> None:
        shutil.rmtree(self.csv_dir, ignore_errors=True)
        relational_io.save_database(self._database(), self.csv_dir)

    def inputs(self) -> str:
        return fingerprint([self._database()])

    def _request(self, algorithm: str) -> Iterator[MetaqueryAnswer]:
        # Looked up on the module at call time, so the traced run's
        # wrapper is the one called.
        engine = MetaqueryEngine(relational_io.load_database(self.csv_dir))
        try:
            yield from engine.stream(self.METAQUERY, self.THRESHOLDS, 0, algorithm)
        finally:
            add_counters(self._counters, engine.stats())
            engine.close()

    def drive(self, deadline: float) -> list[Sample]:
        # Whole naive+FindRules rounds, so every run weighs both equally.
        samples = []
        while not samples or time.perf_counter() < deadline:
            for algorithm in self.ALGORITHMS:
                samples.append(
                    run_in_process(algorithm, lambda a=algorithm: self._request(a))
                )
        return samples

    def counters(self) -> dict[str, dict[str, int]]:
        return {section: dict(values) for section, values in self._counters.items()}

    def reference(self, key: Hashable) -> str:
        engine = oracle(relational_io.load_database(self.csv_dir), key in self.MEMO_REFERENCES)
        answers = engine.stream(self.METAQUERY, self.THRESHOLDS, 0, str(key))
        return digest_lines(map(encode_answer, answers))


# ----------------------------------------------------------------------
# enum_warm
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Call:
    """One library call: ``mine`` (stream), ``decide`` or ``witness``."""

    db: str
    kind: str
    metaquery: str
    itype: int
    algorithm_or_index: str
    thresholds_or_k: Any


def _call_results(engine: MetaqueryEngine, call: Call) -> Iterable[Any]:
    mq, index = call.metaquery, call.algorithm_or_index
    if call.kind == "mine":
        return engine.stream(mq, _thresholds(call.thresholds_or_k), call.itype, index)
    k = Fraction(call.thresholds_or_k)
    if call.kind == "decide":
        return [str(engine.decide(mq, index, k, call.itype)).lower()]
    witness = engine.witness(mq, index, k, call.itype)
    return ["null" if witness is None else witness]


class EnumWarm(Workload):
    name = "enum_warm"
    settings = {"engine": "MetaqueryEngine defaults, one persistent per database", "workers": 2}

    #: Relation whose seeded tuple set every write toggles, per database.
    TOGGLED = {"chain": "r5", "telecom": "uspt"}
    TOGGLE_TUPLES = 3
    #: One write after every this many calls of a round.
    CALLS_PER_WRITE = 4
    #: Calls per round read twice in a row: the second read of a ``mine``
    #: call replays from the request cache; ``decide`` and ``witness``
    #: bypass that cache and rerun on warm memo caches.
    REPEATS = 2
    #: Thresholds on the chain database keep every non-empty instantiation,
    #: so answer counts, and with them the work, vary little with the seed.
    #: The mix leaves out the cheapest telecom calls (5–20 ms each): with
    #: four of them in it, the median fell where latencies are sparse, and
    #: its spread (IQR/median) over five to ten seeds was 0.24–0.32,
    #: against 0.14–0.17 without them.
    CALLS = (
        Call("chain", "mine", CHAIN3, 0, "findrules", SUPPORT_0),
        Call("chain", "mine", CHAIN3, 0, "naive", NO_THRESHOLDS),
        Call("chain", "mine", TRANSITIVITY, 0, "naive", NO_THRESHOLDS),
        Call("chain", "mine", TRANSITIVITY, 1, "findrules", SUPPORT_0),
        Call("chain", "mine", TRANSITIVITY, 2, "naive", NO_THRESHOLDS),
        Call("chain", "decide", TRANSITIVITY, 1, "cnf", "1/2"),
        Call("chain", "witness", CHAIN3, 0, "sup", "1/10"),
        Call("telecom", "mine", TRANSITIVITY, 1, "findrules", FIGURE4),
        Call("telecom", "mine", TRANSITIVITY, 2, "findrules", FIGURE4),
        Call("telecom", "mine", TRANSITIVITY, 2, "naive", FIGURE4),
        Call("telecom", "mine", TRANSITIVITY, 1, "findrules", SUPPORT_0),
        Call("telecom", "mine", TRANSITIVITY, 2, "findrules", SUPPORT_0),
        Call("telecom", "mine", TRANSITIVITY, 2, "naive", NO_THRESHOLDS),
    )
    #: Indices into :attr:`CALLS` whose references keep the memo cache:
    #: uncached, each takes 2–10 s on a 2-CPU x86 host (see :func:`oracle`).
    MEMO_REFERENCES = frozenset({1, 4, 5, 9, 12})

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.engines: dict[str, MetaqueryEngine] = {}
        self.state: dict[str, int] = {}
        # One sequence per run: later set-ups continue it.
        self._steps = self._step_sequence()

    def inputs(self) -> str:
        return fingerprint(small_databases(self.seed).values())

    def _toggled_rows(self, db: Database, name: str) -> tuple[frozenset, frozenset]:
        """The toggled relation's rows in state 0 and in state 1."""
        rows = db[self.TOGGLED[name]].tuples
        rng = random.Random(f"{self.seed}/toggle/{name}")
        removed = frozenset(rng.sample(sorted(rows), self.TOGGLE_TUPLES))
        return rows, rows - removed

    def _state_database(self, name: str, state: int) -> Database:
        """A fresh copy of database ``name`` in toggle state ``state``."""
        db = small_databases(self.seed)[name]
        relation = db[self.TOGGLED[name]]
        db.replace(Relation.from_rows(relation.name, relation.columns,
                                      self._toggled_rows(db, name)[state]))
        return db

    def setup(self) -> None:
        self.teardown()
        databases = small_databases(self.seed)
        self._rows = {name: self._toggled_rows(db, name) for name, db in databases.items()}
        self.engines = {name: MetaqueryEngine(db, workers=2) for name, db in databases.items()}
        self.state = {name: 0 for name in databases}
        for engine in self.engines.values():
            assert engine.sharder is not None
            engine.sharder.warm_up()
        for index in range(len(self.CALLS)):
            self._read(index)
        # As at the end of a round: the next read of every call misses.
        for name in self.TOGGLED:
            self._write(name)

    def teardown(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.engines = {}

    def _step_sequence(self) -> Iterator[tuple[str, Any]]:
        """Seeded rounds.  A round reads every call once in a seeded order,
        a seeded :attr:`REPEATS` of them twice in a row, writes one
        database after every fourth call, alternating, and ends with a
        write to each database.  So a ``mine`` call's first read in a
        round always misses the request cache and its repeat always hits:
        the share of replays, which cost well under a millisecond, is the
        same in every run rather than set by where the writes happen to
        fall."""
        rng = random.Random(f"{self.seed}/steps")
        targets = sorted(self.TOGGLED)
        writes = 0
        while True:
            repeated = set(rng.sample(range(len(self.CALLS)), self.REPEATS))
            order = rng.sample(range(len(self.CALLS)), len(self.CALLS))
            for position, index in enumerate(order, 1):
                yield "read", index
                if index in repeated:
                    yield "read", index
                if position % self.CALLS_PER_WRITE == 0:
                    yield "write", targets[writes % len(targets)]
                    writes += 1
            for target in targets:
                yield "write", target

    def _read(self, index: int) -> Sample:
        call = self.CALLS[index]
        engine = self.engines[call.db]
        return run_in_process((index, self.state[call.db]), lambda: _call_results(engine, call))

    def _write(self, name: str) -> None:
        self.state[name] ^= 1
        db = self.engines[name].db
        relation = db[self.TOGGLED[name]]
        rows = self._rows[name][self.state[name]]
        db.replace(Relation.from_rows(relation.name, relation.columns, rows))

    def drive(self, deadline: float) -> list[Sample]:
        samples: list[Sample] = []
        for kind, argument in self._steps:
            if kind == "write":
                self._write(argument)
                continue
            samples.append(self._read(argument))
            if time.perf_counter() >= deadline:
                return samples
        return samples

    def counters(self) -> dict[str, dict[str, int]]:
        total: dict[str, dict[str, int]] = {}
        for engine in self.engines.values():
            add_counters(total, engine.stats())
        return total

    def reference(self, key: Hashable) -> str:
        index, state = key  # type: ignore[misc]
        call = self.CALLS[index]
        engine = oracle(self._state_database(call.db, state), index in self.MEMO_REFERENCES)
        return digest_lines(_lines(_call_results(engine, call)))


# ----------------------------------------------------------------------
# serve_stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Route:
    """One pooled HTTP request."""

    path: str
    tenant: str
    metaquery: str
    itype: int
    algorithm: str
    thresholds: dict[str, str]

    def body(self) -> bytes:
        payload = {
            "metaquery": self.metaquery,
            "tenant": self.tenant,
            "itype": self.itype,
            "algorithm": self.algorithm,
            **self.thresholds,
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")


class ServeStream(Workload):
    name = "serve_stream"
    settings = {
        "engine": "EngineRegistry defaults per tenant (request cache 128)",
        "workers": 1,
        "rate_limit": None,
        "clients": 2,
    }

    CLIENTS = 2
    #: ``(route, times per cycle)``.  A cycle is 20 steps: 14 small answer
    #: sets, where per-request cost dominates; 5 medium streams of ~1.3k
    #: to ~1.7k answers, where the 90th percentile falls; and the ~20.7k-
    #: answer type-2 chain stream, where per-answer encode and SSE-write
    #: cost dominates.
    MIX = (
        (Route("/mine/stream", "chain", CHAIN3, 2, "naive", NO_THRESHOLDS), 1),
        (Route("/mine/stream", "chain", CHAIN3, 0, "naive", NO_THRESHOLDS), 2),
        (Route("/mine/stream", "chain", TRANSITIVITY, 2, "naive", NO_THRESHOLDS), 2),
        (Route("/mine", "chain", TRANSITIVITY, 1, "findrules", SUPPORT_0), 1),
        (Route("/mine/stream", "telecom", TRANSITIVITY, 0, "findrules", FIGURE4), 2),
        (Route("/mine/stream", "telecom", TRANSITIVITY, 1, "findrules", FIGURE4), 2),
        (Route("/mine/stream", "telecom", TRANSITIVITY, 2, "naive", FIGURE4), 2),
        (Route("/mine/stream", "telecom", TRANSITIVITY, 2, "findrules", FIGURE4), 2),
        (Route("/mine/stream", "telecom", CHAIN3, 1, "findrules", FIGURE4), 2),
        (Route("/mine", "telecom", TRANSITIVITY, 0, "findrules", FIGURE4), 1),
        (Route("/mine", "telecom", TRANSITIVITY, 2, "naive", FIGURE4), 1),
        (Route("/mine/stream", "chain", TRANSITIVITY, 1, "findrules", {"support": "1/2"}), 2),
    )
    CYCLE = tuple(index for index, (_, times) in enumerate(MIX) for _ in range(times))
    #: Indices into :attr:`MIX` whose references keep the memo cache:
    #: uncached, each takes 2–10 s on a 2-CPU x86 host, the ~20.7k-answer
    #: stream ~5 min (see :func:`oracle`).
    MEMO_REFERENCES = frozenset({0, 1, 2, 6, 10})

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.routes = tuple(route for route, _ in self.MIX)
        self.server: InProcessServer | None = None
        self._parsed: dict[bytes, list[str]] = {}
        self._parsed_lock = threading.Lock()
        # One sequence per run, shared by the clients: later set-ups
        # continue it.
        self._order = self._route_sequence()

    def _route_sequence(self) -> Iterator[int]:
        rng = random.Random(f"{self.seed}/routes")
        while True:
            yield from rng.sample(self.CYCLE, len(self.CYCLE))

    def inputs(self) -> str:
        return fingerprint(small_databases(self.seed).values())

    def setup(self) -> None:
        self.teardown()
        self.server = InProcessServer(small_databases(self.seed)).start()
        for index in range(len(self.routes)):
            sample = self._request(index)
            if sample.error is not None:
                raise RuntimeError(f"warm-up request {index} failed: {sample.error}")

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.close()

    def _request(self, index: int) -> Sample:
        route = self.routes[index]
        assert self.server is not None
        try:
            reply = post(self.server.port, route.path, route.body(), CLIENT_TIMEOUT)
        except OSError as exc:
            end = time.perf_counter()
            return Sample(index, end, end, end, error=f"{type(exc).__name__}: {exc}")
        first = reply.last_answer if reply.first_answer is None else reply.first_answer
        sample = Sample(index, reply.start, first, reply.last_answer)
        # Identical bytes parse identically: replays parse once per run.
        key = hashlib.sha256(reply.raw).digest()
        with self._parsed_lock:
            lines = self._parsed.get(key)
        if lines is None:
            try:
                lines = parse_reply(reply.raw, streamed=route.path.endswith("/stream"))
            except (ValueError, KeyError) as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
                return sample
            with self._parsed_lock:
                self._parsed[key] = lines
        sample.lines = lines
        return sample

    def drive(self, deadline: float) -> list[Sample]:
        """At each step both clients send the same route, so small requests
        meet small ones and streams meet streams.  Independent clients
        make a small request's latency depend on whether a stream happened
        to overlap it: over five seeds their ``latency_p50_ms`` spread
        (IQR/median) was 0.40, against 0.12 over ten seeds in lock-step."""
        samples: list[Sample] = []
        with ThreadPoolExecutor(self.CLIENTS, thread_name_prefix="perfbench-client") as clients:
            while time.perf_counter() < deadline:
                samples += clients.map(self._request, [next(self._order)] * self.CLIENTS)
        return samples

    def counters(self) -> dict[str, dict[str, int]]:
        total: dict[str, dict[str, int]] = {}
        assert self.server is not None
        for tenant in self.server.service.registry.stats().values():
            engine_stats = tenant.get("engine")
            if isinstance(engine_stats, dict):
                add_counters(total, engine_stats)
        return total

    def reference(self, key: Hashable) -> str:
        route = self.routes[int(key)]  # type: ignore[call-overload]
        _, request = parse_mine_payload(route.body(), "default")
        engine = oracle(small_databases(self.seed)[route.tenant], key in self.MEMO_REFERENCES)
        return digest_lines(map(encode_answer, engine.stream(request)))


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (JoinCold, EnumWarm, ServeStream)
}
