"""The benchmark's own tests.

Run from the repository root (they are outside the tier-1 suite, which
collects only ``tests/``)::

    python3 -m pytest -q perfbench/tests

The smoke runs go through the command line exactly as a benchmark run
does, at one second of measurement each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]

_runs: dict[tuple[str, int, int], tuple[dict, dict]] = {}


def _run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> tuple[dict, dict]:
    """The facts and result lines of one smoke run (cached per arguments)."""
    key = (workload, trace, seed)
    if key not in _runs:
        completed = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        *_, facts_line, result_line = completed.stdout.strip().splitlines()
        _runs[key] = json.loads(facts_line)["facts"], json.loads(result_line)
    return _runs[key]


def test_workload_names_match_the_spec() -> None:
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_exactly_the_spec_metrics(workload: str, trace: int) -> None:
    facts, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, facts["failures"]
    assert result["attempted"] >= 1 and facts["error_rate"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


#: Per-layer metrics that must read above 0 on the workload whose requests
#: run that layer.
EXERCISED = {
    "join_cold": (
        "io.load_database.ms", "relation.natural_join.calls", "relation.natural_join.ms",
        "relation.natural_join.rows_out", "columnar.join_stores.calls", "columnar.join_stores.ms",
        "columnar.kernel_share", "indexes.build_index.calls", "indexes.build_index.ms",
        "indexes.build_index.rows", "batching.body_group.calls", "batching.head_indices.calls",
        "batching.group_hit_ratio", "evaluation.atom_relation.calls",
        "instantiation.enumerate.yielded", "requests.prepare.calls", "context.atom_hit_ratio",
    ),
    "enum_warm": (
        "instantiation.enumerate.yielded", "instantiation.enumerate.ms",
        "requests.prepare.calls", "requests.request_cache.invalidated",
        "context.atom_hit_ratio", "lifecycle.invalidated_entries",
        "sharding.dispatch.calls", "sharding.dispatch.wait_ms", "sharding.relation_syncs",
    ),
    "serve_stream": (
        "service.parse_mine_payload.calls", "service.encode_answer.calls",
        "service.encode_answer.ms", "protocol.read_request.calls",
        "protocol.write_sse_event.calls", "protocol.write_sse_event.ms",
        "requests.prepare.calls", "requests.request_cache.hit_ratio",
    ),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_sees_each_layer_its_workload_runs(workload: str) -> None:
    _, result = _run(workload, 1)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    silent = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert not silent, silent
    assert 0 < metrics["untraced.share"] < 1


def test_seeds_change_inputs_but_not_metric_names() -> None:
    facts_one, result_one = _run("join_cold", 0, seed=1)
    facts_two, result_two = _run("join_cold", 0, seed=2)
    assert facts_one["inputs_sha256"] != facts_two["inputs_sha256"]
    assert list(result_one["metrics"]) == list(result_two["metrics"])
    for name, workload in WORKLOADS.items():
        assert workload(1, ROOT).inputs() == workload(1, ROOT).inputs(), name
        assert workload(1, ROOT).inputs() != workload(2, ROOT).inputs(), name


def test_corrupted_reference_counts_as_failure(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(WORKLOADS["join_cold"], "reference", lambda self, key: "0" * 64)
    result, facts = harness.run("join_cold", 1, 0.1, False, tmp_path / "work")
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert facts["error_rate"] == 1.0


def test_refuses_ablation_and_debug_switches() -> None:
    for name in ("REPRO_COLUMNAR", "REPRO_COLUMNAR_BACKEND", "REPRO_SANITIZE",
                 "REPRO_LOOP_MONITOR"):
        completed = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "join_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={**os.environ, name: "1"},
        )
        assert completed.returncode != 0 and not completed.stdout, name


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "join_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and not completed.stdout


def test_tracer_wraps_every_binding_and_restores_it() -> None:
    from repro.core.engine import MetaqueryEngine
    from repro.datalog import batching, evaluation
    from repro.workloads.telecom import db1

    original = evaluation.join_atoms
    assert batching.join_atoms is original
    tracer = Tracer()
    with tracer:
        assert evaluation.join_atoms is not original
        assert batching.join_atoms is evaluation.join_atoms
        answers = MetaqueryEngine(db1()).find_rules(
            "R(X,Z) <- P(X,Y), Q(Y,Z)", algorithm="naive"
        )
    assert evaluation.join_atoms is original and batching.join_atoms is original
    assert len(answers) > 0
    assert tracer.stats["evaluation.join_atoms"].calls > 0
    assert tracer.stats["instantiation.enumerate"].extra > 0
    assert tracer.stats["requests.prepare"].calls == 1
    for stats in tracer.stats.values():
        assert 0 <= stats.self_s <= stats.total_s
