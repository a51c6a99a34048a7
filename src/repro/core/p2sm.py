"""P2SM: parallel precomputed sorted merge (paper §4.1).

P2SM merges a sorted linked list *A* (the paused sandbox's pre-sorted
vCPUs, ``merge_vcpus``) into another sorted linked list *B* (the
reserved ``ull_runqueue``) in O(1), by shifting all the position work
into a *precomputation phase* that runs while the sandbox is paused:

* ``arrayB`` — an array whose entry *i* is the address of (a reference
  to) the node of *B* at position *i*; index 0 is B's sentinel head, so
  "insert before the first element" is position 0.
* ``posA`` — a hashmap from a position in *B* to the sorted sub-chain
  of *A* elements that belong right after that position.

The *merge phase* (Algorithm 1 in the paper) then spawns one merge
thread per ``posA`` key; each thread performs exactly two pointer
writes to splice its chain after its anchor node.  Because every thread
owns a distinct anchor and the chains are disjoint, no mutual exclusion
on *B* is needed.

This module implements both phases on the real
:class:`~repro.core.linked_list.SortedLinkedList` structure and reports
operation counts (threads spawned, pointer writes, scan steps spent in
precomputation) that the hypervisor cost model converts into simulated
nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.core.linked_list import ListNode, SortedLinkedList

T = TypeVar("T")

# Modeled memory footprint of the precomputed structures, used by the
# overhead study (paper §5.2 reports ~528 KB for 10 paused sandboxes).
ARRAYB_BYTES_PER_ENTRY = 8      # one pointer per B position
POSA_BYTES_PER_BUCKET = 48      # hashmap bucket: key + head/tail/len
CHAIN_BYTES_PER_NODE = 16       # node pointer + key cache in the chain


@dataclass
class SubChain(Generic[T]):
    """A sorted chain of A-nodes anchored at one position of B."""

    head: ListNode[T]
    tail: ListNode[T]
    length: int

    def values(self) -> List[T]:
        out: List[T] = []
        node: Optional[ListNode[T]] = self.head
        remaining = self.length
        while node is not None and remaining > 0:
            out.append(node.value)
            node = node.next
            remaining -= 1
        return out


@dataclass
class MergeReport:
    """Operation counts from one P2SM merge (for the cost model)."""

    threads: int = 0
    pointer_writes: int = 0
    merged_elements: int = 0


@dataclass
class PrecomputeReport:
    """Operation counts from (re)building the precomputed structures."""

    array_entries: int = 0
    posa_keys: int = 0
    scan_steps: int = 0
    chain_nodes: int = 0

    @property
    def memory_bytes(self) -> int:
        """Modeled resident size of arrayB + posA for this pairing."""
        return (
            self.array_entries * ARRAYB_BYTES_PER_ENTRY
            + self.posa_keys * POSA_BYTES_PER_BUCKET
            + self.chain_nodes * CHAIN_BYTES_PER_NODE
        )


#: ``(arrayB, keys)`` from one walk of a target list: see target_snapshot.
Snapshot = Tuple[List[ListNode[Any]], List[Any]]


def target_snapshot(target: SortedLinkedList[T]) -> Snapshot:
    """Walk *target* once: its arrayB (index 0 the sentinel head, then
    every element node in order) and the sort key of each element node.

    ``UllRunqueueManager.on_queue_updated`` takes one snapshot per queue
    update and hands it to every tied sandbox's :meth:`P2SMState.refresh`,
    so k tied sandboxes cost one walk and |B| key calls, not k of each.
    """
    key = target.key
    array_b: List[ListNode[T]] = [target.head]
    b_keys: List[Any] = []
    node = target.head.next
    while node is not None:
        array_b.append(node)
        b_keys.append(key(node.value))
        node = node.next
    return array_b, b_keys


class P2SMState(Generic[T]):
    """Precomputed state tying one sorted list *A* to a target *B*.

    The hypervisor keeps one instance per (paused uLL sandbox,
    ull_runqueue) pair and refreshes it whenever either side changes
    (the paper: "the updates are performed each time ull_runqueue is
    updated").  ``refresh`` is a full rebuild — O(|A| + |B|) — which is
    faithful to the paper's worst-case analysis.  ``add_to_a`` and
    ``remove_from_a`` keep A sorted and then rebuild in full too.

    A refresh allocates no chain nodes: one :class:`ListNode` per A
    value is built the first time it is needed and relinked into the
    posA chains on every refresh, until a merge hands the nodes to B or
    A changes.
    """

    def __init__(self, values_a: List[T], target: SortedLinkedList[T]) -> None:
        self._target = target
        self._key = target.key
        self.values_a: List[T] = sorted(values_a, key=self._key)
        self.array_b: List[ListNode[T]] = []
        self.pos_a: Dict[int, SubChain[T]] = {}
        self.last_report = PrecomputeReport()
        #: chain node per ``values_a`` entry, same order; None = not built
        self._chain_nodes: Optional[List[ListNode[T]]] = None
        self.refresh()

    # ------------------------------------------------------------------
    # Pre-computation phase
    # ------------------------------------------------------------------
    def refresh(self, snapshot: Optional[Snapshot] = None) -> PrecomputeReport:
        """Rebuild arrayB and posA against the target's current state.

        *snapshot* is the target's :func:`target_snapshot`, taken once
        per queue update and shared by every sandbox tied to the queue;
        without one the target is walked here.  arrayB is always this
        state's own list, so corrupting it leaves the siblings intact.
        """
        if snapshot is None:
            array_b, b_keys = target_snapshot(self._target)
        else:
            array_b, b_keys = snapshot
            array_b = array_b[:]
        self.array_b = array_b

        # posA: bucket the (sorted) A values by their insertion position
        # relative to B.  One forward scan over both sequences; the
        # position only grows, so each bucket is one contiguous run of A
        # (closed when the position moves on) and the scan steps add up
        # to the final position.
        nodes = self._chain_nodes
        if nodes is None:
            nodes = self._chain_nodes = [ListNode(value) for value in self.values_a]
        key = self._key
        b_len = len(b_keys)
        pos_a: Dict[int, SubChain[T]] = {}
        position = start = 0
        chain_position = -1  # no chain open yet
        head: Optional[ListNode[T]] = None
        tail: Optional[ListNode[T]] = None
        for index, node in enumerate(nodes):
            value_key = key(node.value)
            while position < b_len and b_keys[position] <= value_key:
                position += 1
            if position == chain_position:
                tail.next = node
            else:
                if head is not None:
                    tail.next = None
                    pos_a[chain_position] = SubChain(head, tail, index - start)
                head, start, chain_position = node, index, position
            tail = node
        if head is not None:
            tail.next = None
            pos_a[chain_position] = SubChain(head, tail, len(nodes) - start)
        self.pos_a = pos_a
        report = self.last_report = PrecomputeReport(
            array_entries=len(array_b),
            posa_keys=len(pos_a),
            scan_steps=position,
            chain_nodes=len(nodes),
        )
        return report

    # ------------------------------------------------------------------
    # A-side updates (paper §4.1.1 complexity analysis)
    # ------------------------------------------------------------------
    def add_to_a(self, value: T) -> None:
        """Add one element to A: binary insertion into the sorted A,
        then a full refresh (O(|A| + |B|))."""
        value_key = self._key(value)
        lo, hi = 0, len(self.values_a)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key(self.values_a[mid]) <= value_key:
                lo = mid + 1
            else:
                hi = mid
        self.values_a.insert(lo, value)
        self._chain_nodes = None
        self.refresh()

    def remove_from_a(self, value: T) -> bool:
        """Remove one element from A (O(|A|) search), then a full
        refresh.  Returns False when *value* is not in A."""
        for index, existing in enumerate(self.values_a):
            if existing is value or existing == value:
                del self.values_a[index]
                self._chain_nodes = None
                self.refresh()
                return True
        return False

    # ------------------------------------------------------------------
    # Freshness verification (repro.check)
    # ------------------------------------------------------------------
    def verify_against_target(self) -> List[str]:
        """Staleness problems in arrayB/posA, as messages (empty = fresh).

        Recomputes what the precomputation *should* hold against the
        target's current state and diffs: arrayB must alias the target's
        nodes position-for-position (index 0 the sentinel), and every
        posA bucket must sit at the insertion position a fresh scan
        would assign its chain.  A stale structure here is exactly the
        corruption a delayed refresh (or a fault injector) produces —
        merging through it splices chains after unlinked or wrong nodes.
        """
        errors: List[str] = []
        expected_nodes, b_keys = target_snapshot(self._target)
        if len(self.array_b) != len(expected_nodes):
            errors.append(
                f"arrayB has {len(self.array_b)} entries, target has "
                f"{len(expected_nodes)} positions"
            )
        else:
            for position, (cached, live) in enumerate(
                zip(self.array_b, expected_nodes)
            ):
                if cached is not live:
                    errors.append(
                        f"arrayB[{position}] references a node no longer at "
                        f"that position of the target"
                    )
                    break
        # Recompute the bucket each A value belongs to and diff posA.
        expected_buckets: Dict[int, List[T]] = {}
        position = 0
        for value in self.values_a:
            value_key = self._key(value)
            while position < len(b_keys) and b_keys[position] <= value_key:
                position += 1
            expected_buckets.setdefault(position, []).append(value)
        if sorted(self.pos_a) != sorted(expected_buckets):
            errors.append(
                f"posA keys {sorted(self.pos_a)} != fresh scan's "
                f"{sorted(expected_buckets)}"
            )
        else:
            for key, chain in self.pos_a.items():
                cached_values = chain.values()
                if len(cached_values) != chain.length:
                    errors.append(
                        f"posA[{key}] chain length {chain.length} but "
                        f"{len(cached_values)} reachable nodes"
                    )
                elif cached_values != expected_buckets[key]:
                    errors.append(
                        f"posA[{key}] chain does not match a fresh scan"
                    )
        return errors

    # ------------------------------------------------------------------
    # Merge phase (Algorithm 1)
    # ------------------------------------------------------------------
    def merge(self) -> MergeReport:
        """Splice every posA chain into the target; O(1) per thread.

        Mutates the target list.  After the merge the precomputed state
        is consumed (A's elements now live in B); callers must call
        :meth:`refresh` with a new A before merging again.
        """
        report = MergeReport(threads=len(self.pos_a))
        for position, chain in self.pos_a.items():
            anchor = self.array_b[position]
            self._target.splice_after(anchor, chain.head, chain.tail, chain.length)
            report.pointer_writes += 2
            report.merged_elements += chain.length
        self.pos_a = {}
        self.values_a = []
        self._chain_nodes = None  # the nodes now live in B
        return report

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Current modeled footprint of the precomputed structures."""
        return (
            len(self.array_b) * ARRAYB_BYTES_PER_ENTRY
            + len(self.pos_a) * POSA_BYTES_PER_BUCKET
            + sum(chain.length for chain in self.pos_a.values()) * CHAIN_BYTES_PER_NODE
        )

    def __repr__(self) -> str:
        return (
            f"P2SMState(|A|={len(self.values_a)}, |arrayB|={len(self.array_b)}, "
            f"posA keys={sorted(self.pos_a)})"
        )


def sorted_merge_reference(
    target: SortedLinkedList[T], values: List[T]
) -> int:
    """Vanilla per-element sorted merge (the baseline for step 4).

    Inserts each value with an O(n) scan, exactly what the unmodified
    resume path does for each vCPU.  Returns the scan steps consumed,
    which the cost model converts to simulated time.
    """
    before = target.scan_steps
    for value in sorted(values, key=target.key):
        target.insert_sorted(value)
    return target.scan_steps - before
