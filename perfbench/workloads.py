"""The four benchmark workloads, driven through the simulator's public API.

Importing this module imports the simulator; ``run.py`` times that
import as part of ``setup_s``.  Each workload turns one *sub-seed* into
one round:

* ``prepare(seed)`` builds what the benchmark itself can build before
  the program runs (configs, or the whole stack for ``resume_storm``);
* ``run(state)`` calls the program's entry point and returns its result.

The rest reads the result: ``completed`` and ``submitted`` count
simulated requests, ``render`` is the text whose digest is checked,
``violations`` lists every invariant the program audits, ``sim`` gives
the simulated-time metrics and ``layer_stats`` the per-layer counts that
the program reports itself.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.chaos import ChaosConfig, render_chaos, run_chaos
from repro.experiments.cluster_recovery import (
    ClusterRecoveryConfig,
    render_recovery,
    run_recovery,
)
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.platform import FaaSPlatform
from repro.faas.prewarm import PrewarmConfig, render_replay, run_replay
from repro.faas.startup import PoolMissError
from repro.metrics.stats import percentile
from repro.traces.replay import ReplayConfig
from repro.workloads import NatWorkload
from repro.workloads.base import WorkloadCategory


def _percentile(values: List[float], pct: float) -> float:
    """``percentile`` that reads 0 on no samples (the check then fails)."""
    return percentile(values, pct) if values else 0.0


class ChaosMix:
    """``run_chaos``: all three resilience modes over one churn schedule."""

    name = "chaos_mix"
    subseeds = 32

    def prepare(self, seed: int) -> ChaosConfig:
        return ChaosConfig(hosts=4, failure_rate=0.1, seed=seed)

    def run(self, config: ChaosConfig):
        return run_chaos(config)

    def submitted(self, result) -> int:
        return sum(o.submitted for o in result.outcomes.values())

    def completed(self, result) -> int:
        return sum(o.completed for o in result.outcomes.values())

    def render(self, result) -> str:
        return render_chaos(result)

    def violations(self, result) -> List[str]:
        problems = []
        for mode, outcome in result.outcomes.items():
            if not outcome.ok:
                problems.append(
                    f"{mode}: {outcome.submitted - outcome.resolved} unresolved"
                )
            problems.extend(f"{mode}: {v}" for v in outcome.violations)
        return problems

    def sim(self, result) -> Dict[str, float]:
        breaker = result.outcomes["breaker"]
        return {
            "sim_p50_us": breaker.ull_p50_us,
            "sim_p99_us": breaker.p99_us,
            "sim_ull_p99_us": breaker.ull_p99_us,
        }

    def layer_stats(self, result) -> Dict[str, float]:
        return {}


class GatewayRecovery:
    """``run_recovery``: gateway-shard crashes under the exactly-once oracle,
    with the study's default class mix.  The study keeps one latency list
    per cell with no class split, so its latencies are over all requests.
    """

    name = "gateway_recovery"
    subseeds = 16

    def prepare(self, seed: int) -> ClusterRecoveryConfig:
        return ClusterRecoveryConfig(
            gateways=3,
            gateway_failure_rate=0.2,
            requests=1200,
            seed=seed,
        )

    def run(self, config: ClusterRecoveryConfig):
        return run_recovery(config, shards=1)

    @staticmethod
    def _cells(result):
        return list(result.cells.values()) + list(result.oracle_cells.values())

    def submitted(self, result) -> int:
        return sum(cell.submitted for cell in self._cells(result))

    def completed(self, result) -> int:
        return sum(cell.completed for cell in self._cells(result))

    def render(self, result) -> str:
        return render_recovery(result)

    def violations(self, result) -> List[str]:
        return list(result.violations)

    def sim(self, result) -> Dict[str, float]:
        cells = list(result.cells.values())
        latencies = [v for cell in cells for v in cell.latencies_us]
        return {
            "sim_p50_us": _percentile(latencies, 50.0),
            "sim_p99_us": _percentile(latencies, 99.0),
            "sim_ull_p99_us": 0.0,  # no class split
        }

    def layer_stats(self, result) -> Dict[str, float]:
        return {}


def tier_percentile(counts: Dict[int, int], pct: float) -> float:
    """Percentile of a ``{value: count}`` histogram, interpolated linearly
    inside the bucket between the previous value and the one holding the
    rank (the bucket-interpolation rule of Prometheus'
    ``histogram_quantile``).

    The replay's init latencies take a handful of tier values, so an
    exact percentile reads the same tier for every seed; this one moves
    with the share of arrivals in the tier that holds the rank.  An empty
    histogram reads 0.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = pct / 100.0 * total
    seen = 0
    lower = 0
    for value in sorted(counts):
        count = counts[value]
        if count and seen + count >= rank:
            return lower + (value - lower) * (rank - seen) / count
        seen += count
        lower = value
    return float(lower)


class AzureReplay:
    """``run_replay``: 10k streamed Azure-shaped functions, hybrid keep-alive,
    a memory budget tight enough that LRU evictions happen."""

    name = "azure_replay"
    subseeds = 20

    def prepare(self, seed: int) -> PrewarmConfig:
        return PrewarmConfig(
            replay=ReplayConfig(functions=10_000, duration_s=600.0, seed=seed),
            policy="hybrid",
            memory_budget_mb=16384.0,
        )

    def run(self, config: PrewarmConfig):
        return run_replay(config, shards=1)

    def submitted(self, result) -> int:
        return result.events

    completed = submitted

    def render(self, result) -> str:
        return render_replay(result)

    def violations(self, result) -> List[str]:
        problems = list(result.violations())
        counted = sum(result.latency_counts().values()) + result.total(
            "warmup_events"
        )
        if counted != result.events:
            problems.append(
                f"{result.events} arrivals but {counted} latency samples"
            )
        return problems

    def sim(self, result) -> Dict[str, float]:
        # Every replayed function takes the HORSE tier when resident, so
        # all arrivals are the uLL class.
        counts = result.latency_counts()
        p99_us = tier_percentile(counts, 99.0) / 1000.0
        return {
            "sim_p50_us": tier_percentile(counts, 50.0) / 1000.0,
            "sim_p99_us": p99_us,
            "sim_ull_p99_us": p99_us,
        }

    def layer_stats(self, result) -> Dict[str, float]:
        events = result.events
        return {
            "traces.peak_buffered": result.total("peak_buffered"),
            "faas.prewarm.horse_hit_share": result.total("horse_hits") / events,
            "faas.prewarm.evictions": result.total("pressure_evictions"),
            "faas.prewarm.peak_lifecycle_heap": result.total("peak_lifecycle_heap"),
        }


@dataclass
class StormState:
    """One resume_storm round: the platform plus what its arrivals did."""

    faas: FaaSPlatform
    submitted: int
    misses: List[str] = field(default_factory=list)


class ResumeStorm:
    """A single-host ``FaaSPlatform`` under a benchmark-side Poisson storm.

    Two 16-vCPU functions run the same body on one host: ``horse`` is uLL
    and resumes through HORSE into the reserved uLL run queue; ``vanilla``
    is declassified to BACKGROUND and resumes through the vanilla
    pause/resume path into the general run queues.

    An invocation keeps its vCPUs on a run queue from its trigger to the
    end of its body: 2.2 us on average.  The mean gap is set below that,
    so that about half of the resumes enqueue next to the vCPUs of an
    invocation of the same function still in flight (``same_share``);
    ``other_share`` is the share that find the other function in flight.
    Each function then has 0.75 invocations in flight on average; a pool
    of 10 paused sandboxes per function leaves a Poisson chance of about
    1e-8 per arrival that all are busy.  An arrival that finds none is a
    miss and fails the check.
    """

    name = "resume_storm"
    subseeds = 8
    requests = 4000
    mean_gap_ns = 1_500
    pool = 10
    vcpus = 16

    def prepare(self, seed: int) -> StormState:
        faas = FaaSPlatform.build("firecracker", seed=seed)
        vanilla_body = NatWorkload()
        vanilla_body.category = WorkloadCategory.BACKGROUND
        for name, body in (("horse", NatWorkload()), ("vanilla", vanilla_body)):
            faas.register(
                FunctionSpec(
                    name,
                    body,
                    vcpus=self.vcpus,
                    memory_mb=128,
                    provisioned_concurrency=self.pool,
                )
            )
            faas.provision_warm(name, self.pool)
        state = StormState(faas=faas, submitted=self.requests)
        arrivals = random.Random(seed)

        def fire(name: str, start: StartType) -> None:
            try:
                faas.trigger(name, start)
            except PoolMissError as miss:
                state.misses.append(str(miss))

        t = 0
        for _ in range(self.requests):
            t += max(1, round(arrivals.expovariate(1.0 / self.mean_gap_ns)))
            if arrivals.random() < 0.5:
                call = ("horse", StartType.HORSE)
            else:
                call = ("vanilla", StartType.WARM)
            faas.engine.schedule_at(t, lambda c=call: fire(*c), transient=True)
        return state

    def run(self, state: StormState) -> StormState:
        state.faas.engine.run()
        return state

    def submitted(self, state: StormState) -> int:
        return state.submitted

    def completed(self, state: StormState) -> int:
        return sum(1 for inv in state.faas.gateway.invocations if inv.completed)

    @staticmethod
    def _latencies_us(state: StormState, function: str = "") -> List[float]:
        return [
            inv.total_ns / 1000.0
            for inv in state.faas.gateway.invocations
            if inv.completed and (not function or inv.function_name == function)
        ]

    @staticmethod
    def overlap_shares(state: StormState) -> Tuple[float, float]:
        """Shares of arrivals that find an invocation of the same function,
        and of the other function, in flight (between its trigger and the
        end of its body)."""
        in_flight: Dict[str, List[int]] = {"horse": [], "vanilla": []}
        same = other = 0
        invocations = state.faas.gateway.invocations  # in trigger order
        for inv in invocations:
            for ends in in_flight.values():
                while ends and ends[0] <= inv.trigger_ns:
                    heapq.heappop(ends)
            same += bool(in_flight[inv.function_name])
            other += bool(in_flight["vanilla" if inv.function_name == "horse" else "horse"])
            if inv.exec_end_ns is not None:
                heapq.heappush(in_flight[inv.function_name], inv.exec_end_ns)
        count = max(1, len(invocations))
        return same / count, other / count

    def render(self, state: StormState) -> str:
        faas = state.faas
        lines = [
            f"resume_storm: requests={state.submitted} events={faas.engine.events_executed} "
            f"misses={len(state.misses)} pooled={faas.pool.total_size()} "
            "same_share={:.4f} other_share={:.4f}".format(*self.overlap_shares(state))
        ]
        for function in ("horse", "vanilla"):
            invocations = [
                inv for inv in faas.gateway.invocations if inv.function_name == function
            ]
            latencies = self._latencies_us(state, function)
            starts = sorted({inv.start_type.value for inv in invocations})
            lines.append(
                f"{function}: invocations={len(invocations)} "
                f"completed={len(latencies)} starts={','.join(starts)} "
                f"init_ns={sum(inv.initialization_ns for inv in invocations)} "
                f"p50_us={_percentile(latencies, 50.0):.4f} "
                f"p99_us={_percentile(latencies, 99.0):.4f}"
            )
        return "\n".join(lines)

    def violations(self, state: StormState) -> List[str]:
        problems = list(state.misses) + state.faas.pool.invariant_violations()
        done = self.completed(state)
        if done != state.submitted:
            problems.append(f"{state.submitted - done} of {state.submitted} not completed")
        return problems

    def sim(self, state: StormState) -> Dict[str, float]:
        horse = self._latencies_us(state, "horse")
        return {
            "sim_p50_us": _percentile(horse, 50.0),
            "sim_p99_us": _percentile(self._latencies_us(state), 99.0),
            "sim_ull_p99_us": _percentile(horse, 99.0),
        }

    def layer_stats(self, state: StormState) -> Dict[str, float]:
        return {}


WORKLOADS = {
    w.name: w for w in (ChaosMix(), ResumeStorm(), AzureReplay(), GatewayRecovery())
}
