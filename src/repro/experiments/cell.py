"""The resilient cell: the one stack the chaos-family studies simulate.

Four studies — :mod:`~repro.experiments.chaos`,
:mod:`~repro.experiments.sharded_chaos`,
:mod:`~repro.experiments.dispatch_zoo` and
:mod:`~repro.experiments.cluster_recovery` — drive the same unit: a
:class:`~repro.faas.cluster.FaaSCluster` with the study's functions
registered and warmed, fronted by a
:class:`~repro.resilience.ResilientGateway`, while a
:class:`~repro.resilience.FailureInjector` crashes hosts and corrupts
resumes.  Each study keeps only its arrival driver and its renderer;
this module builds the unit and reads it back:

* :func:`build_cell` builds cluster → register → warm → gateway →
  injector → attach, and :func:`build_cluster` is its cluster half
  (the control-plane study puts its own gateway shards on top).  The
  order is part of the determinism contract: it fixes the RNG forks
  and the engine's event sequence numbers, so every golden depends on
  it.
* :func:`read_cell` turns a drained cell into a :class:`CellOutcome`:
  ledger counters, sorted completion latencies and the audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faas.cluster import FaaSCluster
from repro.faas.function import FunctionSpec
from repro.resilience import (
    BreakerConfig,
    FailureConfig,
    FailureInjector,
    RequestState,
    ResilienceConfig,
    ResilientGateway,
)
from repro.sim.engine import Engine
from repro.sim.units import seconds, to_microseconds
from repro.workloads import FirewallWorkload, SysbenchCpuWorkload
from repro.workloads.base import WorkloadCategory

#: Breaker tuning for the studies: trip fast (2 consecutive failures)
#: and back off for a whole second — on a flaky host faulting more than
#: half its resumes, a high open duty-cycle is what moves the p99.
STUDY_BREAKER = BreakerConfig(failure_threshold=2, open_ns=seconds(1))


def study_functions(vanilla: bool = False) -> List[FunctionSpec]:
    """The uLL ``firewall`` + CPU-heavy ``background`` pair.

    ``vanilla`` runs the *same* bodies but declassifies the firewall out
    of the uLL category: same work, no HORSE fast path — the
    apples-to-apples churn comparison.
    """
    firewall = FirewallWorkload()
    firewall.name = "firewall"
    if vanilla:
        firewall.category = WorkloadCategory.BACKGROUND
    background = SysbenchCpuWorkload()
    background.name = "background"
    return [
        FunctionSpec("firewall", firewall, memory_mb=128),
        FunctionSpec("background", background, memory_mb=256),
    ]


def build_cluster(
    functions: Sequence[FunctionSpec],
    hosts: int,
    seed: int,
    warm_per_host: int,
    engine: Optional[Engine] = None,
) -> FaaSCluster:
    """A cluster with *functions* registered, then warmed on every host
    (uLL functions pause through HORSE, the rest through vanilla)."""
    cluster = FaaSCluster(hosts=hosts, seed=seed, engine=engine)
    for spec in functions:
        cluster.register(spec)
    for spec in functions:
        cluster.provision_warm(spec.name, per_host=warm_per_host)
    return cluster


def host_injector(
    cluster: FaaSCluster,
    failure_rate: float,
    crash_mtbf_base_s: float,
    seed: int,
    domain: int = 0,
) -> FailureInjector:
    """The studies' host-failure injector.  Faults concentrate on the
    flaky hosts (calm hosts are nearly clean): that asymmetry is what
    per-node breakers exploit, and what separates the breaker and
    retries-only columns at the uLL p99."""
    return FailureInjector(
        cluster,
        FailureConfig(
            failure_rate=failure_rate,
            crash_mtbf_base_s=crash_mtbf_base_s,
            calm_factor=0.05,
        ),
        seed=seed,
        domain=domain,
    )



def record_host_failures(
    injector: FailureInjector, records: List[dict], **tags: object
) -> None:
    """Append a ``crash`` / ``recover`` trace record, stamped with
    *tags*, to *records* on every host failure the injector reports."""
    for kind, listeners in (
        ("crash", injector.on_crash),
        ("recover", injector.on_recover),
    ):
        listeners.append(
            lambda index, now, kind=kind: records.append(
                {"t": now, **tags, "kind": kind, "host": index}
            )
        )

@dataclass
class Cell:
    """One built stack, ready for an arrival driver."""

    cluster: FaaSCluster
    gateway: ResilientGateway
    injector: FailureInjector


def build_cell(
    functions: Sequence[FunctionSpec],
    hosts: int,
    seed: int,
    warm_per_host: int,
    resilience: ResilienceConfig,
    failure_rate: float,
    crash_mtbf_base_s: float,
    domain: int = 0,
) -> Cell:
    """The full resilient stack over one seed; the gateway listens to
    the injector's crash and recovery notifications."""
    cluster = build_cluster(functions, hosts, seed, warm_per_host)
    gateway = ResilientGateway(cluster, resilience, seed=seed)
    injector = host_injector(
        cluster, failure_rate, crash_mtbf_base_s, seed=seed, domain=domain
    )
    gateway.attach(injector)
    return Cell(cluster, gateway, injector)


@dataclass
class Tally:
    """A drained gateway's ledger counters and audit — for one cell, or
    summed over every cell of one mode."""

    mode: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    retries: int = 0
    hedges: int = 0
    redundant_hedges: int = 0
    degradations: Dict[str, int] = field(default_factory=dict)
    breaker_opens: int = 0
    crashes: int = 0
    recoveries: int = 0
    fired: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return self.completed + self.shed + self.failed

    @property
    def ok(self) -> bool:
        """Soundness: all requests terminal, all invariants held."""
        return self.resolved == self.submitted and not self.violations


#: The integer :class:`Tally` counters, which add up across cells.
SUMMED_COUNTERS = (
    "submitted",
    "completed",
    "shed",
    "failed",
    "retries",
    "hedges",
    "redundant_hedges",
    "breaker_opens",
    "crashes",
    "recoveries",
)


@dataclass
class CellOutcome(Tally):
    """One (mode, cell) run's results.

    Everything here is picklable plain data: sharded cells cross the
    process boundary on the way back from the workers.
    """

    group: int = 0
    #: sorted completion latencies (µs); pooled for percentiles
    latencies_us: List[float] = field(default_factory=list)
    #: the firewall (uLL-class) subset — the numbers HORSE exists for
    ull_latencies_us: List[float] = field(default_factory=list)
    events_executed: int = 0
    windows: int = 0
    #: per-cell trace stream, sorted by (t, kind, id) — merge input
    records: List[dict] = field(default_factory=list)


def read_cell(cell: Cell, mode: str, group: int = 0) -> CellOutcome:
    """Read a drained cell: ledger counters, latencies and the audit
    (ledger and breaker invariants plus "no lost invocations")."""
    gateway = cell.gateway
    requests = gateway.requests
    completed = gateway.by_state(RequestState.COMPLETED)
    return CellOutcome(
        mode=mode,
        group=group,
        submitted=len(requests),
        completed=len(completed),
        shed=len(gateway.by_state(RequestState.SHED)),
        failed=len(gateway.by_state(RequestState.FAILED)),
        retries=sum(request.retries for request in requests),
        hedges=sum(request.hedges_used for request in requests),
        redundant_hedges=sum(request.redundant_hedges for request in requests),
        degradations=dict(sorted(gateway.degradations.transitions.items())),
        breaker_opens=sum(
            breaker.open_count for breaker in gateway.breakers.values()
        ),
        crashes=cell.cluster.stats.crashes,
        recoveries=cell.cluster.stats.recoveries,
        fired=dict(cell.injector.fired),
        latencies_us=sorted(
            to_microseconds(request.latency_ns) for request in completed
        ),
        ull_latencies_us=sorted(
            to_microseconds(request.latency_ns)
            for request in completed
            if request.function == "firewall"
        ),
        violations=gateway.invariant_violations()
        + gateway.unresolved_violations(),
        events_executed=cell.cluster.engine.events_executed,
    )


def dispatch_suffix(dispatch: str) -> str:
    """The render-header dispatch tag: empty for the default policy, so
    every pre-policy golden stays byte-stable."""
    return f" dispatch={dispatch}" if dispatch != "push-least-loaded" else ""
