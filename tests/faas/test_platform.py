"""FaaSPlatform end-to-end: registration, provisioning, triggering."""

import pytest

from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.platform import FaaSPlatform
from repro.faas.startup import PoolMissError
from repro.hypervisor.sandbox import SandboxState
from repro.sim.units import microseconds, seconds
from repro.workloads import ArrayFilterWorkload, FirewallWorkload, NatWorkload


def platform_with(spec):
    faas = FaaSPlatform.build("firecracker", seed=7)
    faas.register(spec)
    return faas


class TestRegistration:
    def test_register_and_trigger_cold(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        invocation = faas.trigger("fw", StartType.COLD)
        faas.engine.run()
        assert invocation.completed
        assert invocation.start_type is StartType.COLD

    def test_unknown_function_rejected(self):
        faas = FaaSPlatform.build()
        with pytest.raises(KeyError):
            faas.trigger("ghost", StartType.COLD)

    def test_provisioned_concurrency_marks_pool(self):
        faas = FaaSPlatform.build()
        faas.register(
            FunctionSpec("fw", FirewallWorkload(), provisioned_concurrency=2)
        )
        assert faas.pool.provisioned_count("fw") == 2


class TestProvisioning:
    def test_provision_fills_pool(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=3)
        assert faas.pool.size("fw") == 3

    def test_provisioned_sandboxes_are_paused(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1)
        sandbox = faas.pool.idle_sandboxes("fw")[0]
        assert sandbox.state is SandboxState.PAUSED

    def test_ull_provisioning_builds_horse_artifacts(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1)  # firewall is uLL
        sandbox = faas.pool.idle_sandboxes("fw")[0]
        assert sandbox.p2sm_state is not None
        assert sandbox.coalesced_update is not None

    def test_non_ull_provisioning_uses_vanilla_pause(self):
        from repro.workloads import ThumbnailWorkload

        faas = platform_with(FunctionSpec("thumb", ThumbnailWorkload()))
        faas.provision_warm("thumb", count=1)
        sandbox = faas.pool.idle_sandboxes("thumb")[0]
        assert sandbox.p2sm_state is None

    def test_provision_zero_rejected(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        with pytest.raises(ValueError):
            faas.provision_warm("fw", count=0)

    def test_provision_allocates_host_memory(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload(), memory_mb=256))
        before = faas.virt.host.memory_used_mb
        faas.provision_warm("fw", count=2)
        assert faas.virt.host.memory_used_mb == before + 512


class TestTriggerLifecycle:
    def test_horse_trigger_end_to_end(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1)
        invocation = faas.trigger("fw", StartType.HORSE, run_logic=True)
        faas.engine.run()
        assert invocation.completed
        assert invocation.error is None
        assert invocation.result is not None
        assert invocation.initialization_ns < 200

    def test_warm_trigger_without_provisioning_misses(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        with pytest.raises(PoolMissError):
            faas.trigger("fw", StartType.WARM)

    def test_sandbox_returns_to_pool_after_completion(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1)
        faas.trigger("fw", StartType.HORSE)
        assert faas.pool.size("fw") == 0  # in use
        # Bounded run: an unbounded one would also drain the keep-alive
        # eviction scheduled 600 s out.
        faas.engine.run(until=seconds(1))
        assert faas.pool.size("fw") == 1  # re-paused and pooled

    def test_repeated_horse_triggers_reuse_pool(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1)
        for index in range(5):
            invocation = faas.trigger("fw", StartType.HORSE)
            faas.engine.run(until=faas.engine.now + seconds(1))
            assert invocation.completed, f"trigger {index} incomplete"
        assert faas.pool.hits == 5

    def test_run_logic_all_three_ull_workloads(self):
        for workload in (FirewallWorkload(), NatWorkload(), ArrayFilterWorkload()):
            faas = platform_with(FunctionSpec(workload.name, workload))
            invocation = faas.trigger(workload.name, StartType.COLD, run_logic=True)
            faas.engine.run()
            assert invocation.error is None, invocation.error

    def test_completion_hook_fires(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        done = []
        faas.gateway.completion_hooks.append(done.append)
        faas.trigger("fw", StartType.COLD)
        faas.engine.run()
        assert len(done) == 1

    def test_keepalive_eviction_releases_memory(self):
        faas = FaaSPlatform.build("firecracker", seed=1)
        faas.register(FunctionSpec("fw", FirewallWorkload(), memory_mb=256))
        faas.provision_warm("fw", count=1)
        used = faas.virt.host.memory_used_mb
        faas.engine.run(until=seconds(700))  # beyond default keep-alive
        assert faas.pool.size("fw") == 0
        assert faas.virt.host.memory_used_mb == used - 256

    def test_default_keep_alive_is_10_minutes(self):
        faas = platform_with(FunctionSpec("fw", FirewallWorkload()))
        invocation = faas.trigger("fw", StartType.COLD)
        faas.engine.run(until=invocation.exec_end_ns)
        assert faas.pool.size("fw") == 1
        faas.engine.run(until=invocation.exec_end_ns + seconds(600) - 1)
        assert faas.pool.size("fw") == 1
        faas.engine.run(until=invocation.exec_end_ns + seconds(600))
        assert faas.pool.size("fw") == 0


def closed_loop_client(faas, requests, think_ns, on_done):
    """A closed-loop client built from engine callbacks: trigger, wait
    for the completion instant, think, repeat.  Calls
    ``on_done(invocation, client_ns)`` as each request completes."""

    def issue(remaining):
        start = faas.engine.now
        invocation = faas.trigger("fw", StartType.HORSE)

        def completed():
            on_done(invocation, faas.engine.now - start)
            if remaining > 1:
                faas.engine.schedule_after(think_ns, lambda: issue(remaining - 1))

        faas.engine.schedule_at(invocation.exec_end_ns, completed)

    return issue


class TestProvisionedSandboxReuse:
    """Callback-driven clients and the pool counters on one provisioned
    sandbox."""

    def make_platform(self):
        faas = FaaSPlatform.build("firecracker", seed=23)
        faas.register(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1)
        return faas

    def test_sequential_client_reuses_one_sandbox(self):
        faas = self.make_platform()
        done = []
        issue = closed_loop_client(
            faas, 5, microseconds(100), lambda inv, _: done.append(inv)
        )
        faas.engine.schedule_at(0, lambda: issue(5))
        faas.engine.run(until=seconds(1))
        assert len(done) == 5 and all(inv.completed for inv in done)
        assert faas.pool.misses == 0 and faas.pool.hits == 5

    def test_two_clients_share_one_warm_sandbox(self):
        faas = self.make_platform()
        completions = []

        def client(tag):
            return closed_loop_client(
                faas, 3, microseconds(500), lambda inv, _: completions.append(tag)
            )

        faas.engine.schedule_at(0, lambda: client("a")(3))
        # Stagger the second client so triggers never collide.
        faas.engine.schedule_at(microseconds(250), lambda: client("b")(3))
        faas.engine.run(until=seconds(1))
        assert sorted(completions) == ["a", "a", "a", "b", "b", "b"]
        assert faas.pool.misses == 0

    def test_client_observed_latency_is_total_ns(self):
        faas = self.make_platform()
        observed = []
        issue = closed_loop_client(
            faas, 1, 0, lambda inv, client_ns: observed.append((inv, client_ns))
        )
        faas.engine.schedule_at(microseconds(3), lambda: issue(1))
        faas.engine.run(until=seconds(1))
        [(invocation, client_ns)] = observed
        assert client_ns == invocation.total_ns

    def test_pool_releases_acquires_then_releases(self):
        faas = self.make_platform()
        pool = faas.pool
        assert (pool.size("fw"), pool.hits, pool.misses) == (1, 0, 0)
        faas.trigger("fw", StartType.HORSE)
        assert (pool.size("fw"), pool.hits, pool.misses) == (0, 1, 0)
        faas.engine.run(until=seconds(1))
        assert (pool.size("fw"), pool.hits, pool.misses) == (1, 1, 0)
