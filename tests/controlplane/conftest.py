"""Shared builders: one engine, N gateway shards, a control plane."""

import pytest

from repro.controlplane import ControlPlane, GatewayShard
from repro.experiments.cell import build_cluster, study_functions
from repro.resilience import AdmissionConfig, ResilienceConfig
from repro.sim.engine import Engine
from repro.sim.units import seconds


def build_shard(
    engine,
    shard_id,
    seed=None,
    hosts=2,
    resilience=None,
):
    """One gateway shard with the chaos-study workloads registered."""
    cluster = build_cluster(
        study_functions(),
        hosts=hosts,
        seed=100 + shard_id if seed is None else seed,
        warm_per_host=2,
        engine=engine,
    )
    if resilience is None:
        resilience = ResilienceConfig(
            default_deadline_ns=seconds(30),
            admission=AdmissionConfig(capacity=4096, reserved_slots=8),
        )
    return GatewayShard(
        shard_id, cluster, resilience, seed=100 + shard_id if seed is None else seed
    )


def build_plane(engine, shards=3, hosts=2):
    return ControlPlane(
        engine, [build_shard(engine, i, hosts=hosts) for i in range(shards)]
    )


@pytest.fixture
def engine():
    return Engine()
