"""Layer spans for the traced run, recorded from outside the program.

The traced run replaces each layer's entry points — public methods and
the methods the engine calls back into — with wrappers that append one
span per call to a :class:`SpanLog`.  Nothing is patched outside
:meth:`Tracer.installed`, so untraced rounds run the program as shipped.

Spans live in flat arrays while a round runs; :func:`self_times` turns
them into per-span self time afterwards (a span's duration minus the
part of it its child spans cover), and :func:`union_length` gives the
part of the round that no span covers.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from array import array
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple

#: Layers, named after the simulator's packages.
LAYERS = (
    "sim",
    "resilience",
    "faas",
    "hypervisor",
    "core",
    "controlplane",
    "traces",
    "faas.prewarm",
)

_GATEWAY = "repro.resilience.gateway"
_CLUSTER_RECOVERY = "repro.experiments.cluster_recovery"

#: (layer, module, attribute path) of every wrapped entry point.  An
#: attribute the program no longer has is skipped and named on stderr.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Engine.run"),
    ("sim", _CLUSTER_RECOVERY, "windowed_run"),
    ("resilience", _GATEWAY, "ResilientGateway.submit"),
    ("resilience", _GATEWAY, "ResilientGateway.restore"),
    ("resilience", _GATEWAY, "ResilientGateway._launch"),
    ("resilience", _GATEWAY, "ResilientGateway._on_complete"),
    ("resilience", _GATEWAY, "ResilientGateway._maybe_hedge"),
    ("resilience", _GATEWAY, "ResilientGateway._on_hang_timeout"),
    ("resilience", _GATEWAY, "ResilientGateway._park"),
    ("resilience", _GATEWAY, "ResilientGateway._wake"),
    ("resilience", _GATEWAY, "ResilientGateway._handle_crash"),
    ("resilience", _GATEWAY, "ResilientGateway._handle_recover"),
    ("resilience", "repro.resilience.failures", "FailureInjector._crash"),
    ("resilience", "repro.resilience.failures", "FailureInjector._recover"),
    ("resilience", "repro.resilience.failures", "GatewayFailureInjector._crash"),
    ("resilience", "repro.resilience.failures", "GatewayFailureInjector._recover"),
    ("faas", "repro.faas.cluster", "FaaSCluster.provision_warm"),
    ("faas", "repro.faas.cluster", "FaaSCluster.trigger_on"),
    ("faas", "repro.faas.cluster", "FaaSCluster._finish"),
    ("faas", "repro.faas.cluster", "FaaSCluster.crash_host"),
    ("faas", "repro.faas.cluster", "FaaSCluster.recover_host"),
    ("faas", "repro.faas.platform", "FaaSPlatform.provision_warm"),
    ("faas", "repro.faas.gateway", "FaaSGateway.trigger"),
    ("faas", "repro.faas.gateway", "FaaSGateway._complete"),
    ("faas", "repro.faas.pool", "SandboxPool.acquire"),
    ("faas", "repro.faas.pool", "SandboxPool.release"),
    ("faas", _CLUSTER_RECOVERY, "plan_arrivals"),
    ("hypervisor", "repro.hypervisor.pause_resume", "VanillaPauseResume.place_initial"),
    ("hypervisor", "repro.hypervisor.pause_resume", "VanillaPauseResume.pause"),
    ("hypervisor", "repro.hypervisor.pause_resume", "VanillaPauseResume.resume"),
    ("core", "repro.core.hot_resume", "HorsePauseResume.pause"),
    ("core", "repro.core.hot_resume", "HorsePauseResume.resume"),
    ("core", "repro.core.p2sm", "P2SMState.merge"),
    ("core", "repro.core.p2sm", "P2SMState.refresh"),
    ("core", "repro.core.ull_runqueue", "UllRunqueueManager.on_queue_updated"),
    ("controlplane", "repro.controlplane.plane", "ControlPlane.submit"),
    ("controlplane", "repro.controlplane.plane", "ControlPlane.crash_shard"),
    ("controlplane", "repro.controlplane.plane", "ControlPlane.recover_shard"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.submit"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.record_admit"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.record_launch"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.record_outcome"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.record_fenced"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.crash"),
    ("controlplane", "repro.controlplane.shard", "GatewayShard.recover"),
    ("controlplane", "repro.controlplane.intentlog", "IntentLog.admit"),
    ("controlplane", "repro.controlplane.intentlog", "IntentLog.launch"),
    ("controlplane", "repro.controlplane.intentlog", "IntentLog.outcome"),
    ("traces", "repro.faas.prewarm", "merged_stream"),
    ("faas.prewarm", "repro.faas.prewarm", "run_cell"),
    ("faas.prewarm", "repro.faas.prewarm", "_Cell.on_arrival"),
    ("faas.prewarm", "repro.faas.prewarm", "_Cell.finish"),
)

#: Entry points overridden per subclass: (layer, module, base class,
#: methods).  Every subclass defined in the module that overrides one of
#: the methods is wrapped under the key ``<base>.<method>``.
FAMILIES = (
    (
        "resilience",
        "repro.resilience.policies",
        "DispatchPolicy",
        (
            "on_submit",
            "select_host",
            "order_queue",
            "on_host_idle",
            "on_complete",
            "on_crash",
            "on_recover",
        ),
    ),
    ("faas", "repro.faas.startup", "StartStrategy", ("obtain",)),
)

#: Keys whose return values are summed (events run, orphans re-dispatched).
SUMMED = ("Engine.run", "GatewayShard.recover")
#: Keys whose ``self`` objects are kept until the round ends.
CAPTURED = ("ResilientGateway.submit", "FaaSGateway.trigger", "FaaSCluster.trigger_on")
#: Keys wrapping a generator function: each ``next()`` is one span.
ITERATORS = ("merged_stream",)


class SpanLog:
    """Spans of one traced round, as parallel flat arrays."""

    def __init__(self) -> None:
        self.key = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.sums: Dict[int, float] = {}
        self.instances: Dict[int, Dict[int, object]] = {}

    def open(self, key: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.key.append(key)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()


def union_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(
    parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may nest, overlap each other or stick out of their parent;
    the covered part is the union of their intervals inside the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append((start[index], end[index]))
    out = []
    for index in range(len(start)):
        lo, hi = start[index], end[index]
        covered = union_length(children.get(index, ()), lo, hi)
        out.append(hi - lo - covered)
    return out


def _resolve(module: str, path: str):
    """(owner, attribute name) for ``Class.method`` or ``function``."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = owner.__dict__[name]
    if attr not in owner.__dict__:
        raise KeyError(path)
    return owner, attr


class Tracer:
    """Resolves the entry points once; patches them only while installed."""

    def __init__(self) -> None:
        self.keys: List[str] = []
        self.layer_of: List[str] = []
        #: (owner, attribute, original, key index)
        self.sites: List[Tuple[object, str, object, int]] = []
        self.missing: List[str] = []
        for layer, module, path in TARGETS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, KeyError):
                self.missing.append(f"{module}:{path}")
                continue
            self._add_site(layer, path, owner, attr)
        for layer, module, base_name, methods in FAMILIES:
            try:
                namespace = importlib.import_module(module).__dict__
                base = namespace[base_name]
            except (ImportError, KeyError):
                self.missing.append(f"{module}:{base_name}")
                continue
            for cls in namespace.values():
                if not (isinstance(cls, type) and issubclass(cls, base)):
                    continue
                for method in methods:
                    if method in cls.__dict__:
                        self._add_site(layer, f"{base_name}.{method}", cls, method)

    def _add_site(self, layer: str, key: str, owner, attr: str) -> None:
        if key not in self.keys:
            self.keys.append(key)
            self.layer_of.append(layer)
        index = self.keys.index(key)
        self.sites.append((owner, attr, owner.__dict__[attr], index))

    def _wrapper(self, fn, index: int, log: SpanLog):
        key = self.keys[index]

        if key in ITERATORS:

            def traced_iter(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = log.open(index)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        log.close(span)
                    yield item

            return traced_iter

        summed = key in SUMMED
        captured = key in CAPTURED

        def traced(*args, **kwargs):
            if captured:
                log.instances.setdefault(index, {})[id(args[0])] = args[0]
            span = log.open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(span)
            if summed:
                log.sums[index] = log.sums.get(index, 0) + result
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[SpanLog]:
        """Patch every entry point for one round, recording into a fresh log."""
        log = SpanLog()
        for owner, attr, original, index in self.sites:
            setattr(owner, attr, self._wrapper(original, index, log))
        try:
            yield log
        finally:
            for owner, attr, original, _index in self.sites:
                setattr(owner, attr, original)

    def tally(self, log: SpanLog) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and inclusive seconds per key (every key present)."""
        calls = [0] * len(self.keys)
        inclusive = [0.0] * len(self.keys)
        start, end = log.start, log.end
        for i, key in enumerate(log.key):
            calls[key] += 1
            inclusive[key] += end[i] - start[i]
        return dict(zip(self.keys, calls)), dict(zip(self.keys, inclusive))

    def summed(self, log: SpanLog, key: str) -> float:
        return log.sums.get(self.keys.index(key), 0) if key in self.keys else 0

    def instances(self, log: SpanLog, key: str) -> List[object]:
        if key not in self.keys:
            return []
        return list(log.instances.get(self.keys.index(key), {}).values())

    def layer_self_s(self, log: SpanLog) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, own in zip(log.key, self_times(log.parent, log.start, log.end)):
            totals[self.layer_of[key]] += own
        return totals

    def uncovered_s(self, log: SpanLog, lo: float, hi: float) -> float:
        roots = [
            (log.start[i], log.end[i]) for i, up in enumerate(log.parent) if up < 0
        ]
        return (hi - lo) - union_length(roots, lo, hi)

    def write_chrome(self, log: SpanLog, origin: float, path) -> None:
        """The round's spans as a Chrome trace-event file (Perfetto reads it)."""
        events = [
            {
                "name": self.keys[key],
                "cat": self.layer_of[key],
                "ph": "X",
                "ts": round((log.start[i] - origin) * 1e6, 3),
                "dur": round((log.end[i] - log.start[i]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for i, key in enumerate(log.key)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
