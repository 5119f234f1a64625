"""Per-layer self time, measured from outside the program.

The traced run wraps each layer's *public entry points* (listed in
:data:`ENTRY_POINTS`) with a ``perf_counter_ns`` span.  Spans nest on
one stack — every wrapped call is synchronous and both hosts are
single-threaded — so a span's **self time** is its duration minus the
time its child spans covered; a layer's self time is the sum over its
entry points.  Whatever no span covers (event-loop dispatch, socket
I/O, glue in ``Cluster.run_transaction``, the wrappers' own prologue)
is reported as ``trace.unattributed_us_per_txn``, which closes the
budget against the measured wall.

Spans are aggregated per entry point as they close (call count and
self nanoseconds) instead of being kept one by one: a 10 s run
closes ~10^6 spans, and storing them would cost more than the 25%
overhead ceiling the traced run must stay under.  The aggregate is the
trace artifact written into the result file.

Work that a layer does in a continuation — a closure fired later by
the kernel, e.g. the log manager's I/O completion — is charged to the
span it runs under (``Simulator.run`` in the simulator, nothing in
the live loop), because closures are not callable from outside.
Spans inside the program are a later change.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: layer -> [(module, class or None, [names])].  Class ``None`` means
#: module-level functions, which are re-bound in every ``repro``
#: module that imported them by name.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, List[str]]]] = {
    "sim": [("repro.sim.kernel", "Simulator",
             ["schedule", "at", "call_soon", "timer", "cancel", "run",
              "run_until"])],
    "net": [("repro.net.network", "Network", ["send"])],
    "log": [("repro.log.manager", "LogManager", ["write", "force"])],
    "lrm": [("repro.lrm.locks", "LockManager", ["acquire", "release_all"]),
            ("repro.lrm.resource_manager", "ResourceManager",
             ["perform", "prepare", "commit", "abort"])],
    "core": [("repro.core.node", "TMNode",
              ["begin_transaction", "receive"])],
    "metrics": [("repro.metrics.collector", "MetricsCollector",
                 ["record_flow", "record_drop", "record_log_write",
                  "record_log_io", "record_local_flow",
                  "record_transaction", "record_lock_hold",
                  "record_force_latency", "record_deadlock",
                  "record_heuristic"])],
    "transport.wire": [("repro.transport.wire", "",
                        ["encode_frame", "message_to_wire",
                         "message_from_wire", "spec_from_wire",
                         "record_to_wire"])],
    "transport.tcp": [("repro.transport.tcp", "TcpTransport", ["send"])],
    "transport.clock": [("repro.transport.clock", "LiveClock",
                         ["schedule", "call_soon", "timer"])],
    "transport.storage": [("repro.transport.storage", "FileStableStorage",
                           ["append"])],
}

LAYERS = tuple(ENTRY_POINTS)


class LayerTracer:
    """Wraps the entry points and accumulates per-point self time.

    Install *before* building a cluster: the kernel pre-binds
    ``Simulator.schedule`` into each instance and nodes hand their
    bound ``receive`` to the network at construction.
    """

    def __init__(self) -> None:
        #: (layer, qualified name, read, reset) per wrapped entry point.
        self._points: List[Tuple[str, str, Callable, Callable]] = []
        #: Nanoseconds covered by the spans closed so far under the
        #: currently open span — the whole "stack": a span saves the
        #: value on entry and hands its parent ``saved + own duration``
        #: on exit, which costs four list operations per call.
        self._covered = [0]

    def install(self) -> "LayerTracer":
        import importlib
        for layer, groups in ENTRY_POINTS.items():
            for module_name, class_name, names in groups:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for name in names:
                    original = getattr(owner, name)
                    label = f"{class_name or module_name}.{name}"
                    wrapper = self._wrap(layer, label, original)
                    if class_name:
                        setattr(owner, name, wrapper)
                    else:
                        rebind_function(original, name, wrapper)
        return self

    def _wrap(self, layer: str, label: str,
              function: Callable) -> Callable:
        covered = self._covered
        clock = perf_counter_ns
        calls = 0
        own_ns = 0

        def span(*args, **kwargs):
            nonlocal calls, own_ns
            outer = covered[0]
            covered[0] = 0
            began = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - began
                calls += 1
                own_ns += elapsed - covered[0]
                covered[0] = outer + elapsed

        def read() -> Tuple[int, int]:
            return calls, own_ns

        def reset() -> None:
            nonlocal calls, own_ns
            calls = own_ns = 0

        self._points.append((layer, label, read, reset))
        return span

    def reset(self) -> None:
        """Zero the accumulators (set-up work is not part of the window)."""
        for _layer, _label, _read, reset in self._points:
            reset()

    def snapshot(self) -> dict:
        """The trace artifact: self time per entry point and per layer."""
        layers = {layer: 0 for layer in LAYERS}
        points = []
        for layer, label, read, _reset in self._points:
            calls, own_ns = read()
            layers[layer] += own_ns
            if calls:
                points.append({"layer": layer, "point": label,
                               "calls": calls, "self_ns": own_ns})
        return {"layer_self_ns": layers, "points": points}


def rebind_function(original: Callable, name: str,
                     wrapper: Callable) -> None:
    """Point every ``repro`` module's ``name`` at ``wrapper`` where it
    is currently ``original`` (``from wire import encode_frame`` copies
    the binding, so patching the defining module alone is not enough)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)
