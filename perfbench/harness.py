"""Run one workload: set up, measure, check every answer, compute metrics.

A run with tracing off measures the end-to-end metrics of
:data:`END_TO_END`: it sets the workload up several times, each set-up
followed by an equal segment of the measurement.  A traced run sets up
once and measures the same closed loop twice —
first for half the run length with tracing off, then for the full length
with the :class:`~perfbench.tracer.Tracer` installed — and reports the
per-layer metrics of :func:`layer_metrics`, including the tracing
overhead between the two phases.  Both kinds of run check every
request's answers against the workload's reference after the timed
region, and report the number attempted and failed.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

from perfbench.tracer import SpanStats, Tracer
from perfbench.workloads import WORKLOADS, Sample, Workload

__all__ = ["END_TO_END", "LAYER_UNITS", "run"]

#: End-to-end metric -> unit.
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ttfa_p50_ms": "ms",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Layer functions reported as ``<name>.calls`` and ``<name>.ms`` (self
#: time), both per request.
TIMED = (
    "relation.natural_join",
    "relation.semijoin",
    "relation.project",
    "relation.select_eq",
    "columnar.join_stores",
    "columnar.semijoin_stores",
    "columnar.project_store",
    "columnar.select_eq_store",
    "indexes.build_index",
    "batching.body_group",
    "batching.head_indices",
    "evaluation.atom_relation",
    "evaluation.join_atoms",
    "requests.prepare",
    "service.parse_mine_payload",
    "service.encode_answer",
    "protocol.read_request",
    "protocol.write_sse_event",
)
_KERNELS = TIMED[4:8]
_RELATION_OPS = TIMED[0:4]

#: Per-layer metric -> unit.
LAYER_UNITS: dict[str, str] = {
    **{f"{name}.{quantity}": unit for name in TIMED
       for quantity, unit in (("calls", "calls/req"), ("ms", "ms/req"))},
    "relation.natural_join.rows_out": "rows/req",
    "columnar.kernel_share": "ratio",
    "columnar.join_stores.share": "ratio",
    "indexes.build_index.rows": "rows/req",
    "indexes.build_index.share": "ratio",
    "io.load_database.ms": "ms/req",
    "batching.group_hit_ratio": "ratio",
    "instantiation.enumerate.yielded": "items/req",
    "instantiation.enumerate.ms": "ms/req",
    "requests.request_cache.hit_ratio": "ratio",
    "requests.request_cache.invalidated": "count/req",
    "context.atom_hit_ratio": "ratio",
    "context.join_hit_ratio": "ratio",
    "lifecycle.invalidated_entries": "count/req",
    "lifecycle.evictions": "count/req",
    "sharding.dispatch.calls": "calls/req",
    "sharding.dispatch.wait_ms": "ms/req",
    "sharding.relation_syncs": "count/req",
    "untraced.share": "ratio",
    "trace.overhead": "ratio",
}


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _latencies_ms(samples: list[Sample]) -> list[float]:
    return [(s.end - s.start) * 1000 for s in samples]


def check(workload: Workload, samples: list[Sample]) -> list[str]:
    """Every failure: request errors and digests unlike the reference.

    References are computed once per distinct key, outside any timed
    region.
    """
    references: dict[Any, str] = {}
    failures = []
    for sample in samples:
        if sample.error is not None:
            failures.append(f"{sample.key!r}: {sample.error}")
            continue
        if sample.key not in references:
            references[sample.key] = workload.reference(sample.key)
        if sample.digest() != references[sample.key]:
            failures.append(f"{sample.key!r}: answers differ from the reference")
    return failures


def end_to_end(
    samples: list[Sample], elapsed: float, setups: list[float], rss_mb: float
) -> dict[str, float]:
    latencies = _latencies_ms(samples)
    return {
        "throughput_rps": len(samples) / elapsed,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 90),
        "ttfa_p50_ms": statistics.median([(s.first - s.start) * 1000 for s in samples]),
        "answers_per_s": sum(s.answers for s in samples) / elapsed,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


def _delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    return {
        section: {k: v - before.get(section, {}).get(k, 0) for k, v in values.items()}
        for section, values in after.items()
    }


def layer_metrics(
    spans: dict[str, SpanStats],
    counters: dict[str, dict[str, int]],
    traced: list[Sample],
    untraced: list[Sample],
) -> dict[str, float]:
    """Per-request layer metrics of the traced phase.

    ``counters`` is the traced phase's delta of the engines' ``stats()``
    (pool workers' counters included, as ``stats()`` aggregates them).
    """
    requests = len(traced)
    wall_s = sum(s.end - s.start for s in traced)

    def span(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    metrics: dict[str, float] = {}
    for name in TIMED:
        metrics[f"{name}.calls"] = span(name).calls / requests
        metrics[f"{name}.ms"] = span(name).self_s * 1000 / requests
    join, build = span("relation.natural_join"), span("indexes.build_index")
    enumerate_, dispatch = span("instantiation.enumerate"), span("sharding.dispatch")
    cache = counters.get("cache", {})
    batch = counters.get("batch", {})
    request = counters.get("request", {})
    lifecycle = counters.get("lifecycle", {})
    metrics.update({
        "relation.natural_join.rows_out": join.extra / requests,
        "columnar.kernel_share": _ratio(
            sum(span(n).calls for n in _KERNELS), sum(span(n).calls for n in _RELATION_OPS)
        ),
        "columnar.join_stores.share": _ratio(span("columnar.join_stores").self_s, wall_s),
        "indexes.build_index.rows": build.extra / requests,
        "indexes.build_index.share": _ratio(build.self_s, wall_s),
        "io.load_database.ms": span("io.load_database").self_s * 1000 / requests,
        "batching.group_hit_ratio": _ratio(
            batch.get("group_hits", 0), batch.get("group_hits", 0) + batch.get("groups", 0)
        ),
        "instantiation.enumerate.yielded": enumerate_.extra / requests,
        "instantiation.enumerate.ms": enumerate_.self_s * 1000 / requests,
        "requests.request_cache.hit_ratio": _ratio(
            request.get("hits", 0), request.get("hits", 0) + request.get("misses", 0)
        ),
        "requests.request_cache.invalidated": request.get("invalidated", 0) / requests,
        "context.atom_hit_ratio": _ratio(
            cache.get("atom_hits", 0), cache.get("atom_hits", 0) + cache.get("atom_misses", 0)
        ),
        "context.join_hit_ratio": _ratio(
            cache.get("join_hits", 0), cache.get("join_hits", 0) + cache.get("join_misses", 0)
        ),
        "lifecycle.invalidated_entries": lifecycle.get("invalidated_entries", 0) / requests,
        "lifecycle.evictions": lifecycle.get("evictions", 0) / requests,
        "sharding.dispatch.calls": dispatch.calls / requests,
        "sharding.dispatch.wait_ms": dispatch.self_s * 1000 / requests,
        "sharding.relation_syncs": counters.get("shard", {}).get("relation_syncs", 0) / requests,
        "untraced.share": min(1.0, max(0.0, 1 - _ratio(
            sum(stats.self_s for stats in spans.values()), wall_s
        ))),
        "trace.overhead": _ratio(
            statistics.fmean(_latencies_ms(traced)), statistics.fmean(_latencies_ms(untraced))
        ) - 1,
    })
    return metrics


def _measure(workload: Workload, seconds: float) -> tuple[list[Sample], float]:
    start = time.perf_counter()
    samples = workload.drive(start + seconds)
    return samples, time.perf_counter() - start


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One run: the result object and the facts about how it was measured."""
    workload = WORKLOADS[name](seed, workdir)
    facts: dict[str, Any] = {"engine_settings": workload.settings}
    try:
        if trace:
            workload.setup()
            untraced, _ = _measure(workload, seconds / 2)
            before = workload.counters()
            tracer = Tracer()
            with tracer:
                traced, elapsed = _measure(workload, seconds)
            counters = _delta(before, workload.counters())
            workload.teardown()
            samples = untraced + traced
            metrics = layer_metrics(tracer.stats, counters, traced, untraced)
        else:
            # Each set-up starts one equal segment of the measurement, so
            # the set-ups whose median is setup_s are spread over the run.
            setups: list[float] = []
            samples, elapsed = [], 0.0
            for _ in range(workload.setups):
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
                segment, segment_s = _measure(workload, seconds / workload.setups)
                samples += segment
                elapsed += segment_s
            rss_mb = peak_rss_mb()
            workload.teardown()
            metrics = end_to_end(samples, elapsed, setups, rss_mb)
            facts["setup_s_each"] = setups
            latencies = _latencies_ms(samples)
            facts["samples_beyond_p90"] = sum(v > metrics["latency_p90_ms"] for v in latencies)
        # After the peak RSS reading: the fingerprint regenerates the inputs.
        facts["inputs_sha256"] = workload.inputs()
        failures = check(workload, samples)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_UNITS if trace else END_TO_END
    facts.update({
        "samples": len(samples),
        "measured_s": elapsed,
        "error_rate": len(failures) / len(samples),
        "failures": failures[:5],
    })
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, facts
