"""SandboxPool: acquire/release, keep-alive eviction, provisioning."""

import pytest

from repro.faas.pool import SandboxPool
from repro.faas.prewarm import FixedWindow, HybridHistogram
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.sim.engine import Engine
from repro.sim.units import seconds


def paused_box(virt, vcpus=1):
    sandbox = Sandbox(vcpus=vcpus, memory_mb=128)
    virt.vanilla.place_initial(sandbox, 0)
    virt.vanilla.pause(sandbox, 0)
    return sandbox


@pytest.fixture
def setup():
    engine = Engine()
    virt = firecracker_platform()
    pool = SandboxPool(engine, FixedWindow(seconds(10)))
    return engine, virt, pool


class TestAcquireRelease:
    def test_acquire_empty_pool_misses(self, setup):
        _, _, pool = setup
        assert pool.acquire("fw") is None
        assert pool.misses == 1

    def test_release_then_acquire_hits(self, setup):
        _, virt, pool = setup
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        assert pool.acquire("fw") is sandbox
        assert pool.hits == 1

    def test_fifo_order(self, setup):
        _, virt, pool = setup
        first = paused_box(virt)
        second = paused_box(virt)
        pool.release("fw", first)
        pool.release("fw", second)
        assert pool.acquire("fw") is first
        assert pool.acquire("fw") is second

    def test_release_requires_paused(self, setup):
        _, virt, pool = setup
        sandbox = Sandbox(vcpus=1, memory_mb=128)
        virt.vanilla.place_initial(sandbox, 0)  # RUNNING
        with pytest.raises(ValueError):
            pool.release("fw", sandbox)

    def test_per_function_isolation(self, setup):
        _, virt, pool = setup
        pool.release("fw", paused_box(virt))
        assert pool.acquire("other") is None
        assert pool.acquire("fw") is not None

    def test_sizes(self, setup):
        _, virt, pool = setup
        pool.release("fw", paused_box(virt))
        pool.release("fw", paused_box(virt))
        pool.release("nat", paused_box(virt))
        assert pool.size("fw") == 2
        assert pool.total_size() == 3


class TestKeepAliveEviction:
    def test_idle_sandbox_evicted_after_window(self, setup):
        engine, virt, pool = setup
        evicted = []
        pool._on_evict = lambda name, sb: evicted.append(sb)
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(11))
        assert pool.size("fw") == 0
        assert sandbox.state is SandboxState.STOPPED
        assert evicted == [sandbox]
        assert pool.evictions == 1

    def test_acquire_before_window_cancels_eviction(self, setup):
        engine, virt, pool = setup
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(5))
        assert pool.acquire("fw") is sandbox
        engine.run(until=seconds(60))
        assert sandbox.state is SandboxState.PAUSED  # untouched

    def test_provisioned_quota_never_evicted(self, setup):
        engine, virt, pool = setup
        pool.mark_provisioned("fw", 1)
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(120))
        assert pool.size("fw") == 1

    def test_beyond_quota_still_evicted(self, setup):
        engine, virt, pool = setup
        pool.mark_provisioned("fw", 1)
        keeper = paused_box(virt)
        extra = paused_box(virt)
        pool.release("fw", keeper)
        pool.release("fw", extra)
        engine.run(until=seconds(120))
        assert pool.size("fw") == 1
        assert pool.idle_sandboxes("fw") == [keeper]

    def test_negative_quota_rejected(self, setup):
        _, _, pool = setup
        with pytest.raises(ValueError):
            pool.mark_provisioned("fw", -1)

    def test_rerelease_rearms_timer(self, setup):
        engine, virt, pool = setup
        sandbox = paused_box(virt)
        pool.release("fw", sandbox)
        engine.run(until=seconds(5))
        assert pool.acquire("fw") is sandbox
        pool.release("fw", sandbox)
        engine.run(until=seconds(14))  # 9 s after re-release: still alive
        assert pool.size("fw") == 1
        engine.run(until=seconds(16))
        assert pool.size("fw") == 0


def kept_for(engine, pool, virt, function_name):
    """Release one sandbox at the engine's current instant and return
    how long the pool keeps it idle before evicting it."""
    released_at = engine.now
    evicted_at = []
    pool._on_evict = lambda name, sb: evicted_at.append(engine.now)
    pool.release(function_name, paused_box(virt))
    engine.run()
    assert len(evicted_at) == 1
    return evicted_at[0] - released_at


class TestKeepAlivePolicies:
    """The pool keeps an idle sandbox for its policy decision's
    ``prewarm + keep_alive``."""

    def test_fixed_window_is_the_same_for_every_function(self, setup):
        engine, virt, pool = setup
        assert kept_for(engine, pool, virt, "a") == seconds(10)
        assert kept_for(engine, pool, virt, "b") == seconds(10)

    def test_observed_gaps_leave_a_fixed_window_unchanged(self, setup):
        engine, virt, pool = setup
        pool._keepalive.observe_gap("fw", seconds(99999))
        assert kept_for(engine, pool, virt, "fw") == seconds(10)

    def test_hybrid_falls_back_before_enough_observations(self):
        engine, virt = Engine(), firecracker_platform()
        policy = HybridHistogram(min_observations=4, default_keep_ns=seconds(30))
        pool = SandboxPool(engine, policy)
        policy.observe_gap("fw", seconds(1))
        assert kept_for(engine, pool, virt, "fw") == seconds(30)

    def test_hybrid_adapts_to_observed_gaps(self):
        engine, virt = Engine(), firecracker_platform()
        policy = HybridHistogram(
            bin_width_ns=seconds(5), min_observations=4,
            default_keep_ns=seconds(600),
        )
        pool = SandboxPool(engine, policy)
        for _ in range(8):
            policy.observe_gap("fw", seconds(7))
        # Gaps in bin 1: an adaptive window, no longer the fallback.
        assert kept_for(engine, pool, virt, "fw") < seconds(600)

    def test_hybrid_prewarm_window_folds_into_keep_alive(self):
        engine, virt = Engine(), firecracker_platform()
        policy = HybridHistogram(bin_width_ns=seconds(5), min_observations=4)
        pool = SandboxPool(engine, policy)
        for _ in range(8):
            policy.observe_gap("fw", seconds(42))
        decision = policy.decision("fw")
        assert decision.prewarm_ns is not None
        assert kept_for(engine, pool, virt, "fw") == (
            decision.prewarm_ns + decision.keep_alive_ns
        )

    def test_hybrid_windows_are_per_function(self):
        engine, virt = Engine(), firecracker_platform()
        policy = HybridHistogram(bin_width_ns=seconds(5), min_observations=2)
        pool = SandboxPool(engine, policy)
        for _ in range(4):
            policy.observe_gap("short", seconds(2))
            policy.observe_gap("long", seconds(200))
        assert kept_for(engine, pool, virt, "short") < kept_for(
            engine, pool, virt, "long"
        )
