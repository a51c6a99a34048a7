"""Byte-identity pins for the cell-based studies without a golden yet.

Captured from the code before the chaos-family cell machinery (stack
builder, fork-pool driver, trace writer) was shared, so any refactor of
that machinery must reproduce these files exactly — at every worker
count, since the worker count is an execution knob only.
"""

from pathlib import Path

import pytest

from repro.experiments.cluster_recovery import (
    ClusterRecoveryConfig,
    render_recovery,
    run_recovery,
)
from repro.experiments.dispatch_zoo import render_dispatch_zoo
from repro.experiments.registry import ExperimentConfig, get
from repro.faas.prewarm import PrewarmConfig, render_replay, run_replay
from repro.sim.sharding import trace_jsonl
from repro.traces.replay import ReplayConfig

GOLDEN = Path(__file__).parents[1] / "resilience" / "golden"

#: ``repro experiment cluster_recovery --fast --seed 0`` shape.
FAST_RECOVERY = ClusterRecoveryConfig(groups=2, requests=200, seed=0)

#: A small four-cell replay: enough pressure to evict, prewarm and
#: restore, so every tier and counter in the render is exercised.
FAST_REPLAY = PrewarmConfig(
    replay=ReplayConfig(functions=240, duration_s=1800.0, seed=0),
    policy="hybrid",
    memory_budget_mb=2048.0,
    groups=4,
    warmup_s=600.0,
)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_dispatch_zoo_fast_render_matches_golden():
    result = get("dispatch_zoo").run(ExperimentConfig(fast=True, seed=0)).raw
    assert render_dispatch_zoo(result) + "\n" == _golden("zoo_fast_seed0.txt")


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cluster_recovery_fast_render_and_trace_match_golden(shards):
    result = run_recovery(FAST_RECOVERY, shards=shards, parallel=False)
    assert render_recovery(result) + "\n" == _golden("recovery_fast_seed0.txt")
    assert trace_jsonl(result.records) == _golden("recovery_fast_seed0.jsonl")


def test_cluster_recovery_registry_fast_run_is_the_pinned_shape():
    result = get("cluster_recovery").run(ExperimentConfig(fast=True, seed=0))
    assert result.summary() + "\n" == _golden("recovery_fast_seed0.txt")


@pytest.mark.parametrize("shards", [1, 2, 3, 8])
def test_replay_fast_render_matches_golden(shards):
    result = run_replay(FAST_REPLAY, shards=shards, parallel=False)
    assert render_replay(result) + "\n" == _golden("replay_fast_seed0.txt")
