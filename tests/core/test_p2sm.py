"""P2SM: precomputation correctness and the O(1) merge phase."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linked_list import SortedLinkedList
from repro.core.p2sm import P2SMState, sorted_merge_reference, target_snapshot
from repro.core.ull_runqueue import UllRunqueueManager
from repro.hypervisor.cpu import Host, HostSpec
from repro.hypervisor.sandbox import Sandbox
from repro.hypervisor.vcpu import Vcpu
from repro.sim.units import microseconds, milliseconds


def make_target(values=()):
    lst = SortedLinkedList(key=lambda v: v)
    for value in values:
        lst.insert_sorted(value)
    return lst


class TestPrecompute:
    def test_array_b_mirrors_target(self):
        target = make_target([10, 20, 30])
        state = P2SMState([], target)
        assert len(state.array_b) == 4  # sentinel + 3 nodes
        assert state.array_b[0] is target.head
        assert [n.value for n in state.array_b[1:]] == [10, 20, 30]

    def test_pos_a_buckets_by_insertion_position(self):
        target = make_target([10, 30])
        state = P2SMState([5, 15, 20, 40], target)
        assert sorted(state.pos_a) == [0, 1, 2]
        assert state.pos_a[0].values() == [5]
        assert state.pos_a[1].values() == [15, 20]
        assert state.pos_a[2].values() == [40]

    def test_empty_target_single_bucket(self):
        state = P2SMState([3, 1, 2], make_target())
        assert sorted(state.pos_a) == [0]
        assert state.pos_a[0].values() == [1, 2, 3]

    def test_values_a_sorted_on_construction(self):
        state = P2SMState([3, 1, 2], make_target([10]))
        assert state.values_a == [1, 2, 3]

    def test_equal_keys_go_after_target_element(self):
        target = make_target([10])
        state = P2SMState([10], target)
        # key 10 ties with target's 10 -> position 1 (after it)
        assert sorted(state.pos_a) == [1]

    def test_report_counts(self):
        target = make_target([10, 20])
        state = P2SMState([5, 15], target)
        report = state.last_report
        assert report.array_entries == 3
        assert report.posa_keys == 2
        assert report.chain_nodes == 2
        assert report.memory_bytes > 0


class TestMerge:
    def test_merge_produces_sorted_union(self):
        target = make_target([10, 30])
        state = P2SMState([5, 20, 40], target)
        report = state.merge()
        assert target.to_list() == [5, 10, 20, 30, 40]
        assert target.is_sorted()
        assert target.check_size()
        assert report.merged_elements == 3

    def test_merge_into_empty_target(self):
        target = make_target()
        state = P2SMState([2, 1], target)
        state.merge()
        assert target.to_list() == [1, 2]

    def test_merge_empty_a_is_noop(self):
        target = make_target([1, 2])
        state = P2SMState([], target)
        report = state.merge()
        assert target.to_list() == [1, 2]
        assert report.threads == 0

    def test_thread_count_equals_posa_keys(self):
        target = make_target([10, 30])
        state = P2SMState([5, 20, 40], target)
        keys = len(state.pos_a)
        report = state.merge()
        assert report.threads == keys

    def test_two_pointer_writes_per_thread(self):
        target = make_target([10, 30])
        state = P2SMState([5, 20, 40], target)
        report = state.merge()
        assert report.pointer_writes == 2 * report.threads

    def test_merge_consumes_state(self):
        target = make_target([10])
        state = P2SMState([5], target)
        state.merge()
        assert state.pos_a == {}
        assert state.values_a == []

    def test_merge_does_not_scan(self):
        target = make_target([10, 20, 30])
        state = P2SMState([5, 15, 25, 35], target)
        target.reset_scan_counter()
        state.merge()
        assert target.scan_steps == 0


class TestIncrementalMaintenance:
    def test_add_to_a_appears_in_merge(self):
        target = make_target([10])
        state = P2SMState([5], target)
        state.add_to_a(15)
        state.merge()
        assert target.to_list() == [5, 10, 15]

    def test_add_keeps_values_sorted(self):
        state = P2SMState([5, 15], make_target([10]))
        state.add_to_a(1)
        state.add_to_a(20)
        assert state.values_a == [1, 5, 15, 20]

    def test_remove_from_a(self):
        target = make_target([10])
        state = P2SMState([5, 15], target)
        assert state.remove_from_a(15) is True
        state.merge()
        assert target.to_list() == [5, 10]

    def test_remove_missing_returns_false(self):
        state = P2SMState([5], make_target())
        assert state.remove_from_a(99) is False

    def test_refresh_after_target_change(self):
        target = make_target([10])
        state = P2SMState([5, 15], target)
        target.insert_sorted(12)
        state.refresh()
        state.merge()
        assert target.to_list() == [5, 10, 12, 15]
        assert target.is_sorted()

    def test_incremental_add_matches_fresh_build(self):
        target = make_target([10, 20])
        incremental = P2SMState([5], target)
        incremental.add_to_a(15)
        fresh = P2SMState([5, 15], target)
        assert sorted(incremental.pos_a) == sorted(fresh.pos_a)
        for key in fresh.pos_a:
            assert incremental.pos_a[key].values() == fresh.pos_a[key].values()


class TestReferenceMerge:
    def test_reference_merge_sorted(self):
        target = make_target([2, 4])
        steps = sorted_merge_reference(target, [1, 3, 5])
        assert target.to_list() == [1, 2, 3, 4, 5]
        assert steps >= 0

    def test_reference_merge_counts_scans(self):
        target = make_target(list(range(10)))
        steps = sorted_merge_reference(target, [100])
        assert steps == 10  # scanned past all existing elements


class TestMergeEquivalenceProperty:
    @given(
        st.lists(st.integers(0, 100), max_size=30),
        st.lists(st.integers(0, 100), max_size=30),
    )
    @settings(max_examples=80)
    def test_p2sm_equals_reference_sorted_merge(self, b_values, a_values):
        """The paper's central correctness claim: P2SM's spliced result
        is exactly the sequential sorted merge's result."""
        p2sm_target = make_target(b_values)
        state = P2SMState(list(a_values), p2sm_target)
        state.merge()

        reference_target = make_target(b_values)
        sorted_merge_reference(reference_target, list(a_values))

        assert p2sm_target.to_list() == reference_target.to_list()
        assert p2sm_target.to_list() == sorted(b_values + a_values)
        assert p2sm_target.is_sorted()
        assert p2sm_target.check_size()

    @given(
        st.lists(st.integers(0, 50), max_size=20),
        st.lists(st.integers(0, 50), min_size=1, max_size=20),
    )
    @settings(max_examples=50)
    def test_merge_is_o1_pointer_writes(self, b_values, a_values):
        """Pointer writes are bounded by 2 * distinct positions, never
        by the list sizes."""
        target = make_target(b_values)
        state = P2SMState(list(a_values), target)
        positions = len(state.pos_a)
        report = state.merge()
        assert report.pointer_writes == 2 * positions
        assert positions <= min(len(a_values), len(b_values) + 1)

    @given(st.lists(st.integers(0, 40), max_size=25), st.integers(0, 40))
    @settings(max_examples=50)
    def test_incremental_add_equivalent_to_rebuild(self, a_values, extra):
        target = make_target([10, 20, 30])
        incremental = P2SMState(list(a_values), target)
        incremental.add_to_a(extra)
        fresh = P2SMState(sorted(a_values + [extra]), target)
        assert incremental.values_a == fresh.values_a
        assert sorted(incremental.pos_a) == sorted(fresh.pos_a)


class TestMemoryModel:
    def test_memory_scales_with_structures(self):
        small = P2SMState([1], make_target([1]))
        large = P2SMState(list(range(50)), make_target(list(range(50, 100))))
        assert large.memory_bytes > small.memory_bytes

    def test_memory_zero_after_merge_consumes_chains(self):
        target = make_target([10])
        state = P2SMState([1, 2], target)
        before = state.memory_bytes
        state.merge()
        assert state.memory_bytes < before


# ----------------------------------------------------------------------
# Shared reserved-queue walk: one snapshot per queue update, relinked
# chain nodes (UllRunqueueManager.on_queue_updated -> refresh(snapshot)).
# ----------------------------------------------------------------------
def tied_states(a_lists, b_keys=(), key=lambda vcpu: vcpu.vruntime):
    """A one-queue manager with one paused sandbox per entry of
    *a_lists* (its vCPU vruntimes), each tied to the queue with a P2SM
    state, and a queue holding one vCPU per entry of *b_keys*."""
    host = make_host(reserved=1, sort_key=key)
    manager = UllRunqueueManager(host)
    queue = manager.queue(manager.queue_ids[0])
    for b_key in b_keys:
        queue.entities.insert_sorted(make_vcpu(b_key))
    sandboxes = []
    for a_keys in a_lists:
        sandbox = Sandbox(vcpus=len(a_keys), memory_mb=128)
        for vcpu, a_key in zip(sandbox.vcpus, a_keys):
            vcpu.vruntime = a_key
        manager.assign(sandbox)
        sandbox.p2sm_state = P2SMState(list(sandbox.vcpus), queue.entities)
        sandboxes.append(sandbox)
    return manager, queue, sandboxes


def make_vcpu(vruntime):
    return Vcpu(index=0, sandbox_id="b", vruntime=vruntime)


def make_host(reserved, sort_key):
    spec = HostSpec(
        name="test",
        sockets=1,
        cores_per_socket=2,
        base_khz=2_000_000,
        max_khz=3_000_000,
        memory_mb=1024,
    )
    return Host(
        spec=spec,
        sort_key=sort_key,
        default_timeslice_ns=milliseconds(5),
        ull_timeslice_ns=microseconds(1),
        reserved_ull_cores=reserved,
    )


def chain_nodes(state):
    nodes = []
    for chain in state.pos_a.values():
        node = chain.head
        for _ in range(chain.length):
            nodes.append(node)
            node = node.next
    return nodes


def assert_matches_fresh_build(state, target):
    fresh = P2SMState(list(state.values_a), target)
    assert [id(n) for n in state.array_b] == [id(n) for n in fresh.array_b]
    assert list(state.pos_a) == list(fresh.pos_a)
    for position, chain in fresh.pos_a.items():
        assert state.pos_a[position].values() == chain.values()
        assert state.pos_a[position].length == chain.length
        assert state.pos_a[position].tail.next is None
    assert state.last_report == fresh.last_report
    assert state.verify_against_target() == []


class TestTargetSnapshot:
    def test_walks_sentinel_first(self):
        target = make_target([10, 20, 30])
        array_b, b_keys = target_snapshot(target)
        assert array_b[0] is target.head
        assert [n.value for n in array_b[1:]] == [10, 20, 30]
        assert b_keys == [10, 20, 30]

    def test_refresh_from_snapshot_equals_own_walk(self):
        target = make_target([10, 30])
        state = P2SMState([5, 15, 20, 40], target)
        walked = state.refresh()
        shared = state.refresh(target_snapshot(target))
        assert walked == shared
        assert_matches_fresh_build(state, target)

    def test_unsorted_target_buckets_like_a_monotone_scan(self):
        """A target whose keys drifted out of order after insertion is
        bucketed by the same forward scan verify_against_target uses."""
        manager, queue, (sandbox,) = tied_states([[5, 15, 25, 35]], [10, 20, 30])
        queue.entities.head.next.value.vruntime = 40  # keys now 40, 20, 30
        manager.on_queue_updated(queue.runqueue_id)
        state = sandbox.p2sm_state
        assert {p: c.values() for p, c in state.pos_a.items()} == {0: state.values_a}
        assert state.verify_against_target() == []


class TestRefreshWork:
    def test_one_update_walks_the_queue_once(self):
        """One queue update costs |B| + k*|A| key calls, not k*(|B| + |A|)."""
        calls = []

        def counting_key(vcpu):
            calls.append(vcpu)
            return vcpu.vruntime

        a_lists = [[1, 2, 3, 4], [5, 15, 25, 35], [40, 41, 42, 43]]
        b_keys = [10, 20, 30, 31, 32]
        manager, queue, _ = tied_states(a_lists, b_keys, key=counting_key)
        del calls[:]
        manager.on_queue_updated(queue.runqueue_id)
        assert len(calls) == len(b_keys) + len(a_lists) * 4
        assert manager.refresh_operations == 3

    def test_no_walk_without_a_state(self):
        calls = []

        def counting_key(vcpu):
            calls.append(vcpu)
            return vcpu.vruntime

        manager, queue, (sandbox,) = tied_states([[1]], [10, 20], key=counting_key)
        sandbox.p2sm_state = None
        del calls[:]
        assert manager.on_queue_updated(queue.runqueue_id) == 0
        assert calls == []

    def test_refresh_relinks_the_same_chain_nodes(self):
        manager, queue, sandboxes = tied_states([[5, 15, 25], [1, 2]], [10, 20])
        before = [chain_nodes(s.p2sm_state) for s in sandboxes]
        queue.entities.insert_sorted(make_vcpu(12))
        manager.on_queue_updated(queue.runqueue_id)
        after = [chain_nodes(s.p2sm_state) for s in sandboxes]
        assert [[id(n) for n in nodes] for nodes in after] == [
            [id(n) for n in nodes] for nodes in before
        ]
        assert sorted(sandboxes[0].p2sm_state.pos_a) == [0, 2, 3]

    def test_a_side_change_and_merge_drop_the_cached_nodes(self):
        target = make_target([10])
        state = P2SMState([5, 15], target)
        first = chain_nodes(state)
        state.add_to_a(20)
        assert not set(map(id, chain_nodes(state))) & set(map(id, first))
        spliced = chain_nodes(state)
        state.merge()
        state.refresh()  # the spliced nodes now belong to B
        assert state.pos_a == {}
        assert target.structure_errors() == []
        state.add_to_a(7)
        assert not set(map(id, chain_nodes(state))) & set(map(id, spliced))
        assert target.to_list() == [5, 10, 15, 20]


b_ops = st.one_of(
    st.tuples(st.just("insert_b"), st.integers(0, 30)),
    st.tuples(st.just("remove_b"), st.integers(0, 100)),
    st.tuples(st.just("add_a"), st.integers(0, 100), st.integers(0, 30)),
    st.tuples(st.just("remove_a"), st.integers(0, 100), st.integers(0, 100)),
)


class TestSharedRefreshProperty:
    @given(
        st.lists(st.integers(0, 30), max_size=12),
        st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=8), min_size=1, max_size=4),
        st.lists(b_ops, max_size=15),
        st.integers(0, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_tied_states_equal_fresh_builds(self, b_keys, a_lists, ops, merger):
        """After every queue change, each of k tied states refreshed from
        the shared snapshot equals a P2SMState built from scratch; one
        merge then gives exactly the sequential sorted merge."""
        manager, queue, sandboxes = tied_states(a_lists, b_keys)
        target = queue.entities
        states = [s.p2sm_state for s in sandboxes]
        for op in ops:
            if op[0] == "insert_b":
                target.insert_sorted(make_vcpu(op[1]))
            elif op[0] == "remove_b" and len(target):
                target.remove(target.to_list()[op[1] % len(target)])
            elif op[0] == "add_a":
                states[op[1] % len(states)].add_to_a(make_vcpu(op[2]))
            elif op[0] == "remove_a":
                state = states[op[1] % len(states)]
                if state.values_a:
                    state.remove_from_a(state.values_a[op[2] % len(state.values_a)])
            manager.on_queue_updated(queue.runqueue_id)
            for state in states:
                assert_matches_fresh_build(state, target)

        state = states[merger % len(states)]
        expected = SortedLinkedList(key=target.key)
        for value in target:
            expected.insert_sorted(value)
        sorted_merge_reference(expected, list(state.values_a))
        state.merge()
        assert [id(v) for v in target] == [id(v) for v in expected]
        assert target.structure_errors() == []
