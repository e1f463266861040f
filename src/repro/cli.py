"""Command-line interface: mine a directory of CSV files with a metaquery.

Usage (also available as ``python -m repro``)::

    python -m repro mine DATA_DIR "R(X,Z) <- P(X,Y), Q(Y,Z)" \
        --support 0.2 --confidence 0.5 --cover 0.0 --type 1

    python -m repro mine DATA_DIR "R(X,Z) <- P(X,Y), Q(Y,Z)" --workers 4
    python -m repro serve DATA_DIR --port 8265
    python -m repro info DATA_DIR
    python -m repro classify "R(X,Z) <- P(X,Y), Q(Y,Z)"

``DATA_DIR`` must contain one CSV file per relation (header row = column
names), as produced by :func:`repro.relational.io.save_database`.

The ``mine`` subcommand runs the engine at its production defaults, with
``--workers N`` (shard shape groups across N worker processes; the
default ``--workers 1`` is fully serial and never spawns a pool) and the
cache lifecycle knobs ``--cache-limit N`` (LRU-bound the memoization
caches for long-running use) and ``--no-request-cache`` (disable the
request-level answer cache).  These only change speed, never answers —
see ``docs/architecture.md`` for the full matrix.  ``--stream`` prints
answers incrementally as the engine confirms them (with ``--limit`` as an
early stop) and ``--stats`` reports the cache/batch/lifecycle/request/shard
telemetry counters after mining.

The ``serve`` subcommand puts the :mod:`repro.server` HTTP/1.1 + SSE
front end over one or more CSV database directories (database-per-tenant)
with per-client rate limits, stream backpressure, and a graceful
SIGTERM drain — see ``docs/architecture.md``'s service-layer section.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Sequence

from repro.core.acyclicity import classify
from repro.core.answers import Thresholds
from repro.core.engine import ALGORITHMS, MetaqueryEngine
from repro.core.metaquery import parse_metaquery
from repro.relational.io import load_database

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Metaquery mining (reproduction of 'Computational Properties of Metaquerying Problems')",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    mine = subparsers.add_parser("mine", help="answer a metaquery over a CSV database directory")
    mine.add_argument("data_dir", help="directory with one CSV file per relation")
    mine.add_argument("metaquery", help="metaquery text, e.g. 'R(X,Z) <- P(X,Y), Q(Y,Z)'")
    mine.add_argument("--support", type=float, default=None, help="support threshold (strict >)")
    mine.add_argument("--confidence", type=float, default=None, help="confidence threshold (strict >)")
    mine.add_argument("--cover", type=float, default=None, help="cover threshold (strict >)")
    mine.add_argument("--type", dest="itype", type=int, choices=(0, 1, 2), default=0,
                      help="instantiation type (default 0)")
    mine.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    mine.add_argument("--sort-by", choices=("sup", "cnf", "cvr"), default="cnf")
    mine.add_argument("--limit", type=int, default=None, help="print at most this many answers")
    mine.add_argument("--workers", type=int, default=1, metavar="N",
                      help="shard shape groups across N worker processes "
                           "(default 1: serial, no pool is spawned)")
    mine.add_argument("--cache-limit", type=int, default=None, metavar="N",
                      help="bound the memoization caches to N entries total "
                           "(atoms + joins + fractions + shape groups, LRU "
                           "eviction; default: unbounded)")
    mine.add_argument("--no-request-cache", action="store_true",
                      help="disable the request-level answer cache (repeat "
                           "requests re-evaluate instead of replaying)")
    mine.add_argument("--stream", action="store_true",
                      help="print answers incrementally as the engine confirms them "
                           "(emission order; --sort-by is ignored, --limit stops early)")
    mine.add_argument("--stats", action="store_true",
                      help="print cache/batch/shard telemetry counters after mining")

    serve = subparsers.add_parser(
        "serve", help="serve metaquery mining over HTTP/1.1 + SSE (see repro.server)"
    )
    serve.add_argument("data_dir", help="CSV database directory for the 'default' tenant")
    serve.add_argument("--tenant", action="append", default=[], metavar="NAME=DIR",
                       help="serve an additional tenant from another CSV database "
                            "directory (repeatable)")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default loopback)")
    serve.add_argument("--port", type=int, default=8265,
                       help="port to bind (0 picks an ephemeral port; default 8265)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes per tenant engine (default 1: serial)")
    serve.add_argument("--cache-limit", type=int, default=None, metavar="N",
                       help="bound each tenant engine's memoization caches to N entries")
    serve.add_argument("--no-request-cache", action="store_true",
                       help="disable the request-level answer cache (repeat requests "
                            "re-evaluate instead of replaying)")
    serve.add_argument("--max-concurrency", type=int, default=8, metavar="N",
                       help="process-wide cap on concurrently executing blocking "
                            "stages, shared by all tenants (default 8)")
    serve.add_argument("--rate", type=float, default=50.0, metavar="R",
                       help="per-client admission rate in requests/second "
                            "(0 disables rate limiting; default 50)")
    serve.add_argument("--burst", type=float, default=20.0, metavar="B",
                       help="per-client token-bucket burst size (default 20)")
    serve.add_argument("--max-streams", type=int, default=8, metavar="N",
                       help="cap on concurrently executing SSE streams; beyond it "
                            "the server answers 503 with Retry-After (default 8)")
    serve.add_argument("--drain-timeout", type=float, default=10.0, metavar="SECONDS",
                       help="how long the SIGTERM drain waits for in-flight streams "
                            "before closing the engines (default 10)")

    info = subparsers.add_parser("info", help="show the schema and sizes of a CSV database directory")
    info.add_argument("data_dir")

    classify_cmd = subparsers.add_parser("classify", help="classify a metaquery (acyclic / semi-acyclic / cyclic)")
    classify_cmd.add_argument("metaquery")
    classify_cmd.add_argument("--relation-names", nargs="*", default=(),
                              help="identifiers to treat as relation names even if capitalised")
    return parser


def _print_stats(engine: MetaqueryEngine) -> None:
    """Print the engine's telemetry counters (``mine --stats``)."""
    print("# stats:")
    for section, counters in engine.stats().items():
        rendered = "  ".join(f"{key}={value}" for key, value in counters.items())
        print(f"#   {section}: {rendered}")


def _run_mine(args: argparse.Namespace) -> int:
    """``mine``: answer one metaquery over a CSV database directory.

    Builds a :class:`~repro.core.engine.MetaqueryEngine` with the requested
    ``--workers``, ``--cache-limit`` and request-cache settings, runs the
    request pipeline and prints a sorted answer table — or, with
    ``--stream``, each answer the moment the engine confirms it
    (time-to-first-answer instead of full-collection latency; ``--limit``
    then stops the evaluation early).  The engine is used as a
    context manager so a ``--workers N`` pool is always released, even when
    mining raises.
    """
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.cache_limit is not None and args.cache_limit < 1:
        print(f"error: --cache-limit must be >= 1, got {args.cache_limit}", file=sys.stderr)
        return 2
    db = load_database(args.data_dir)
    with MetaqueryEngine(
        db,
        default_itype=args.itype,
        workers=args.workers,
        cache_limit=args.cache_limit,
        request_cache=None if args.no_request_cache else 128,
    ) as engine:
        thresholds = Thresholds(support=args.support, confidence=args.confidence, cover=args.cover)
        prepared = engine.prepare(
            args.metaquery, thresholds, itype=args.itype, algorithm=args.algorithm
        )
        print(f"# database: {args.data_dir} ({len(db)} relations, {db.total_tuples()} tuples)")
        print(f"# metaquery: {args.metaquery}")
        print(
            f"# thresholds: {thresholds}   type-{args.itype}   "
            f"algorithm={prepared.algorithm} (requested {args.algorithm})   "
            f"workers={args.workers}"
        )
        if args.stream:
            printed = 0
            for answer in prepared.stream():
                print(answer, flush=True)
                printed += 1
                if args.limit is not None and printed >= args.limit:
                    print(f"... (stopped after {printed} answers)")
                    break
            else:
                print(f"# {printed} answers (streamed in emission order)")
        else:
            answers = prepared.collect()
            print(answers.sorted_by(args.sort_by).to_table(max_rows=args.limit))
        if args.stats:
            _print_stats(engine)
    return 0


def _parse_tenant_specs(specs: Sequence[str]) -> dict[str, str] | None:
    """Parse repeated ``--tenant NAME=DIR`` flags; None on a malformed spec."""
    tenants: dict[str, str] = {}
    for spec in specs:
        name, sep, directory = spec.partition("=")
        if not sep or not name.strip() or not directory.strip():
            return None
        tenants[name.strip()] = directory.strip()
    return tenants


async def _serve_async(server: "object", host: str, drain_timeout: float) -> None:
    """Bind, announce, serve until SIGTERM/SIGINT, then gracefully drain.

    Annotated loosely to keep :mod:`repro.server` imports local to the
    ``serve`` subcommand (the other subcommands never touch asyncio).
    """
    from repro.server.service import MetaqueryServer

    assert isinstance(server, MetaqueryServer)
    await server.start()
    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, shutdown.set)
        except NotImplementedError:
            # Platforms without loop signal handlers (Windows): rely on
            # KeyboardInterrupt cancelling asyncio.run instead.
            pass
    print(f"# serving on http://{host}:{server.port}", flush=True)
    print("# endpoints: POST /mine  POST /mine/stream  GET /healthz  GET /stats", flush=True)
    await server.serve_until(shutdown, drain_timeout=drain_timeout)
    print("# drained; bye", flush=True)


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: put the HTTP/SSE service over one or more CSV databases.

    The positional directory becomes the ``default`` tenant; repeated
    ``--tenant NAME=DIR`` flags add more (database-per-tenant, engines
    built lazily, one shared concurrency budget).  SIGTERM/SIGINT trigger
    the graceful drain: stop accepting, let in-flight streams finish (up
    to ``--drain-timeout``), close the tenant engines, exit 0.
    """
    from repro.server.registry import EngineRegistry
    from repro.server.service import MetaqueryServer, MetaqueryService

    for flag, value, minimum in (
        ("--workers", args.workers, 1),
        ("--max-concurrency", args.max_concurrency, 1),
        ("--max-streams", args.max_streams, 1),
        ("--port", args.port, 0),
    ):
        if value < minimum:
            print(f"error: {flag} must be >= {minimum}, got {value}", file=sys.stderr)
            return 2
    if args.cache_limit is not None and args.cache_limit < 1:
        print(f"error: --cache-limit must be >= 1, got {args.cache_limit}", file=sys.stderr)
        return 2
    if args.rate < 0:
        print(f"error: --rate must be >= 0, got {args.rate}", file=sys.stderr)
        return 2
    tenant_dirs = _parse_tenant_specs(args.tenant)
    if tenant_dirs is None:
        print("error: --tenant expects NAME=DIR", file=sys.stderr)
        return 2
    if "default" in tenant_dirs:
        print("error: tenant 'default' is the positional data_dir", file=sys.stderr)
        return 2
    tenant_dirs = {"default": args.data_dir, **tenant_dirs}
    databases = {name: load_database(path) for name, path in tenant_dirs.items()}
    for name, db in databases.items():
        print(f"# tenant {name!r}: {len(db)} relations, {db.total_tuples()} tuples")
    registry = EngineRegistry(
        databases,
        max_concurrency=args.max_concurrency,
        workers=args.workers,
        cache_limit=args.cache_limit,
        request_cache=None if args.no_request_cache else 128,
    )
    service = MetaqueryService(
        registry,
        rate=args.rate if args.rate > 0 else None,
        burst=args.burst,
        max_streams=args.max_streams,
    )
    server = MetaqueryServer(service, host=args.host, port=args.port)
    asyncio.run(_serve_async(server, args.host, args.drain_timeout))
    return 0


def _run_info(args: argparse.Namespace) -> int:
    """``info``: print the schema, per-relation sizes and domain of a database."""
    db = load_database(args.data_dir)
    print(f"database directory: {args.data_dir}")
    print(f"relations: {len(db)}   tuples: {db.total_tuples()}   domain size: {len(db.active_domain())}")
    for relation in db:
        print(f"  {relation.name}({', '.join(relation.columns)}) — {len(relation)} tuples")
    return 0


def _run_classify(args: argparse.Namespace) -> int:
    """``classify``: report purity and the acyclic/semi-acyclic/cyclic class.

    The classification drives which complexity results of the paper apply
    (acyclic metaqueries admit the polynomial Figure-4 fast paths).
    """
    mq = parse_metaquery(args.metaquery, relation_names=args.relation_names)
    print(f"metaquery: {mq}")
    print(f"pure: {mq.is_pure()}")
    print(f"predicate variables: {', '.join(mq.predicate_variables) or '(none)'}")
    print(f"classification: {classify(mq)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "mine":
        return _run_mine(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "info":
        return _run_info(args)
    if args.command == "classify":
        return _run_classify(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
