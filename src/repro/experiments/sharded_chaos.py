"""Sharded chaos study: the cluster run partitioned over worker processes.

The legacy chaos study (:mod:`repro.experiments.chaos`) simulates one
cluster on one engine in one process — which caps it at a single core.
This study scales the same comparison out: the cluster is modelled as
``groups`` independent failure-domain *cells*, each a full resilient
stack (its own :class:`~repro.faas.cluster.FaaSCluster`, gateway,
breakers, and :class:`~repro.resilience.FailureInjector`) simulated by
its own :class:`~repro.sim.engine.Engine`.  Requests enter through the
shard front-end (:mod:`repro.faas.frontend`): the router assigns each
arrival to a cell and delivers it after the fixed gateway-dispatch hop
— the only cross-shard message in the model, and therefore the
conservative lookahead that lets each cell simulate ahead safely
(:func:`repro.sim.sharding.windowed_run`).

``shards`` selects how many worker processes the fixed set of cells is
distributed over (:func:`repro.sim.sharding.assign_cells`).  The hard
invariant — enforced by the shard-invariance property suite and the CI
subprocess diff — is that the worker count changes only wall-clock:

    same seed  ⇒  byte-identical merged trace, metrics, and rendered
    output for ANY ``shards`` (1, 2, 4, 8, ...).

That holds because every cell is a pure function of ``(config, seed,
group)``: per-cell RNG registries are forked from the root seed by
group id, the routed arrival plan is drawn once from dedicated streams,
and the merge is the pinned deterministic order of
:func:`repro.sim.sharding.merge_records`.  Nothing in the rendered
output or the trace mentions the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.cell import (
    CellOutcome,
    build_cell,
    dispatch_suffix,
    read_cell,
    record_host_failures,
    study_functions,
)
from repro.experiments.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    ChaosResult,
    aggregate_mode,
    mode_resilience,
    mode_table,
)
from repro.faas.frontend import DISPATCH_LATENCY_NS, RoutedArrival, plan_arrivals
from repro.sim.rng import RngRegistry
from repro.sim.sharding import merge_records, run_cells, windowed_run
from repro.sim.units import seconds

#: Tie-break rank for record kinds at equal timestamps within one cell.
_KIND_ORDER = {"crash": 0, "recover": 1, "request": 2}


@dataclass(frozen=True)
class ShardedChaosConfig(ChaosConfig):
    """Shape of one sharded chaos run (identical across modes and
    worker counts): the chaos study's shape, with ``hosts`` per cell.
    ``groups`` is the number of failure-domain cells — a *model*
    parameter fixed by the config; the worker count is an execution
    knob passed to :func:`run_sharded_chaos` separately, so changing it
    cannot change the simulated system.  ``requests`` is the global
    count, routed across the cells.
    """

    #: hosts per cell (the legacy study's ``hosts``, per failure domain)
    hosts: int = 2
    groups: int = 8

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        super().__post_init__()


def cell_seed(seed: int, group: int) -> int:
    """The derived root seed for one cell — pure in (seed, group)."""
    return RngRegistry(seed).fork(f"shard-cell-{group}").root_seed


def run_cell(
    mode: str,
    config: ShardedChaosConfig,
    group: int,
    arrivals: Sequence[RoutedArrival],
) -> CellOutcome:
    """One failure-domain cell, one mode: build, drive, audit.

    Mirrors :func:`repro.experiments.chaos.run_chaos_mode`, scoped to
    the cell's own engine and seeded purely from ``(seed, group)``.
    The arrival stream is delivered through the conservative-lookahead
    windows of :func:`windowed_run` — the cell never simulates past a
    horizon it could still receive a dispatch below.
    """
    seed = cell_seed(config.seed, group)
    cell = build_cell(
        study_functions(vanilla=mode == "vanilla"),
        hosts=config.hosts,
        seed=seed,
        warm_per_host=config.warm_per_host,
        resilience=mode_resilience(mode, config),
        failure_rate=config.failure_rate,
        crash_mtbf_base_s=config.crash_mtbf_base_s,
        domain=group,
    )
    gateway, injector = cell.gateway, cell.injector

    records: List[dict] = []
    record_host_failures(injector, records, shard=group, mode=mode)

    deliveries = [
        (
            arrival.deliver_ns,
            lambda name=arrival.function, priority=arrival.priority: gateway.submit(
                name, priority=priority
            ),
        )
        for arrival in arrivals
    ]
    last = arrivals[-1].deliver_ns if arrivals else 0
    injector.schedule_crashes(until_ns=last)
    windows = windowed_run(
        cell.cluster.engine,
        deliveries,
        lookahead_ns=DISPATCH_LATENCY_NS,
        drain_until=last + seconds(config.drain_s),
        label="chaos-submit",
    )

    for arrival, request in zip(arrivals, gateway.requests):
        records.append(
            {
                "t": request.submit_ns,
                "shard": group,
                "mode": mode,
                "kind": "request",
                "req": arrival.index,
                "fn": request.function,
                "state": request.state.value,
                "lat_ns": request.latency_ns if request.latency_ns is not None else -1,
                "retries": request.retries,
                "hedges": request.hedges_used,
            }
        )
    records.sort(
        key=lambda r: (r["t"], _KIND_ORDER[r["kind"]], r.get("req", r.get("host", 0)))
    )

    outcome = read_cell(cell, mode, group)
    outcome.violations = [
        f"g{group}: {message}" for message in outcome.violations
    ]
    outcome.windows = windows
    outcome.records = records
    return outcome


@dataclass
class ShardedChaosResult(ChaosResult):
    """The mode outcomes plus every cell and the merged trace."""

    cells: Dict[Tuple[str, int], CellOutcome] = field(default_factory=dict)
    #: deterministic merged trace (mode-major, then (t, shard, index))
    records: List[dict] = field(default_factory=list)
    events_executed: int = 0
    windows: int = 0


def run_sharded_chaos(
    config: Optional[ShardedChaosConfig] = None,
    shards: int = 1,
    modes: Tuple[str, ...] = CHAOS_MODES,
    parallel: Optional[bool] = None,
) -> ShardedChaosResult:
    """The full sharded study: every (mode, cell) over *shards* workers.

    ``shards`` is the worker count.  ``parallel=False`` forces the
    worker batches to run sequentially in-process (the partition, the
    windowed drivers, and the merge are exercised identically — only
    the OS processes are skipped); the default uses real worker
    processes whenever ``shards > 1``.  Results are byte-identical
    either way, and for every worker count — that is the contract.
    """
    config = config or ShardedChaosConfig()
    arrivals_by_group = plan_arrivals(
        requests=config.requests,
        groups=config.groups,
        mean_interarrival_ms=config.mean_interarrival_ms,
        ull_fraction=config.ull_fraction,
        seed=config.seed,
    )
    tasks = [
        (mode, config, group, arrivals_by_group[group])
        for mode in modes
        for group in range(config.groups)
    ]
    result = ShardedChaosResult(config=config)
    for cell in run_cells(run_cell, tasks, shards, parallel):
        result.cells[(cell.mode, cell.group)] = cell
    for mode in modes:
        mode_cells = [result.cells[(mode, g)] for g in range(config.groups)]
        result.outcomes[mode] = aggregate_mode(mode, mode_cells)
        result.records.extend(
            merge_records([cell.records for cell in mode_cells])
        )
    result.events_executed = sum(
        cell.events_executed for cell in result.cells.values()
    )
    result.windows = sum(cell.windows for cell in result.cells.values())
    return result


def render_sharded_chaos(result: ShardedChaosResult) -> str:
    """Fixed-width summary, byte-stable and worker-count-free.

    The worker count is deliberately absent: two runs of the same seed
    at any ``shards`` must render identically (the CI shard job diffs
    them), so only model parameters and simulated results may appear.
    """
    config = result.config
    modes = list(result.outcomes)
    lines = [
        f"chaos-sharded: groups={config.groups} hosts/group={config.hosts} "
        f"requests={config.requests} failure_rate={config.failure_rate:g} "
        f"seed={config.seed}{dispatch_suffix(config.dispatch)}",
        "shard-load: "
        + " ".join(
            f"g{group}={result.cells[(modes[0], group)].submitted}"
            for group in range(config.groups)
        ),
        "",
    ]
    lines.extend(mode_table([result.outcomes[mode] for mode in modes]))
    lines.append("")
    lines.append(
        f"sharded: events={result.events_executed} windows={result.windows} "
        f"lookahead_ns={DISPATCH_LATENCY_NS} trace_records={len(result.records)}"
    )
    return "\n".join(lines)

