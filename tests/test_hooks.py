"""The attach contract, checked once over every cluster observer.

For each observer: re-attaching to the same cluster is a no-op,
attaching to a second cluster raises and leaves it untouched, and
``detach()`` (idempotent) restores every hook list to its pre-attach
contents — a foreign hook planted on every list beforehand stays.
The cluster includes a node with an ``own_log=True`` detached RM, so
private logs are covered.
"""

import asyncio

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.faults.injector import CrashSite
from repro.obs import (ConformanceAuditor, CostLedger, JournalRecorder,
                       MetricsRegistry, SimTimeSeries, SpanTracer)
from repro.torture.sites import ArmedCrash, SiteRecorder
from repro.trace.recorder import Tracer
from repro.transport import LiveCluster, LiveFaultInjector
from repro.verify.checker import ProtocolChecker


def foreign(*args, **kwargs):
    """A hook somebody else installed."""


def hook_lists(cluster):
    """Every hook list of the cluster, by a stable label."""
    lists = {}
    network = cluster.network
    for name in ("on_send", "on_transmit", "on_deliver", "on_handled"):
        lists[f"network.{name}"] = getattr(network, name)
    for name in ("on_transaction", "on_heuristic", "on_recovery"):
        lists[f"metrics.{name}"] = getattr(cluster.metrics, name)
    event_hooks = getattr(cluster.simulator, "_event_hooks", None)
    if event_hooks is not None:
        lists["simulator.event_hooks"] = event_hooks
    for node_name, node in cluster.nodes.items():
        lists[f"{node_name}.on_transition"] = node.on_transition
        lists[f"{node_name}.on_note"] = node.on_note
        for rm in node.all_rms():
            # A shared log shows up under every RM riding it.
            prefix = f"{node_name}.{rm.name}"
            lists[f"{prefix}.log.on_write"] = rm.log.on_write
            lists[f"{prefix}.log.on_flush"] = rm.log.on_flush
            for name in ("on_wait", "on_grant", "on_release"):
                lists[f"{prefix}.locks.{name}"] = getattr(rm.locks, name)
    return lists


def plant_foreign(cluster):
    for hook_list in hook_lists(cluster).values():
        hook_list.append(foreign)


def hook_state(cluster):
    return {label: list(hook_list)
            for label, hook_list in hook_lists(cluster).items()}


def add_rms(cluster):
    node = cluster.nodes["s"]
    node.add_detached_rm("db", own_log=True)
    node.add_detached_rm("cache")          # rides the TM log
    return cluster


def sim_cluster():
    return add_rms(Cluster(PRESUMED_ABORT, nodes=["c", "s"]))


def check_contract(first, second, make, attach_args):
    plant_foreign(first)
    plant_foreign(second)
    before = hook_state(first)
    untouched = hook_state(second)

    observer = make(first)
    installed = hook_state(first)
    assert installed != before

    assert observer.attach(first, *attach_args(first)) is observer
    assert hook_state(first) == installed
    assert observer.attached and observer.cluster is first

    with pytest.raises(RuntimeError, match=r"already attached to a "
                       r"different cluster; detach\(\) first"):
        observer.attach(second, *attach_args(second))
    assert hook_state(second) == untouched
    assert observer.cluster is first

    observer.detach()
    assert hook_state(first) == before
    assert not observer.attached and observer.cluster is None
    observer.detach()
    assert hook_state(first) == before
    return observer


def _ledger_of(cluster):
    """The ledger an auditor rides, attached once per cluster."""
    ledger = getattr(cluster, "_contract_ledger", None)
    if ledger is None:
        ledger = cluster._contract_ledger = CostLedger().attach(cluster)
    return ledger


#: name -> (constructor, extra attach arguments for a cluster)
SIM_OBSERVERS = {
    "Tracer": (Tracer, lambda cluster: ()),
    "SpanTracer": (SpanTracer, lambda cluster: ()),
    "ProtocolChecker": (ProtocolChecker, lambda cluster: ()),
    "SiteRecorder": (SiteRecorder, lambda cluster: ()),
    "ArmedCrash": (lambda: ArmedCrash(CrashSite("force", "s", 0)),
                   lambda cluster: ()),
    "JournalRecorder": (lambda: JournalRecorder(kernel_events=True),
                        lambda cluster: ()),
    "CostLedger": (CostLedger, lambda cluster: ()),
    "MetricsRegistry": (MetricsRegistry, lambda cluster: ()),
    "ConformanceAuditor": (ConformanceAuditor,
                           lambda cluster: (_ledger_of(cluster),)),
    "SimTimeSeries": (SimTimeSeries, lambda cluster: ()),
}


@pytest.mark.parametrize("name",
                         sorted(SIM_OBSERVERS) + ["LiveFaultInjector"])
def test_attach_contract(name):
    if name == "LiveFaultInjector":
        asyncio.run(_live_injector_contract())
        return
    construct, attach_args = SIM_OBSERVERS[name]
    first, second = sim_cluster(), sim_cluster()
    for cluster in (first, second):
        attach_args(cluster)       # helpers attach before the snapshot

    def make(cluster):
        return construct().attach(cluster, *attach_args(cluster))

    check_contract(first, second, make, attach_args)


async def _live_injector_contract():
    first = add_rms(LiveCluster(PRESUMED_ABORT, nodes=["c", "s"]))
    second = add_rms(LiveCluster(PRESUMED_ABORT, nodes=["c", "s"]))

    def make(cluster):
        injector = LiveFaultInjector(cluster, seed=1)
        injector.arm_crash("subordinate-vote", "s")
        injector.arm_crash("coordinator-decision", "c", when="post")
        return injector

    injector = check_contract(first, second, make, lambda cluster: ())
    assert first.transport.send_filter is None
    assert first.transport.on_frame_dropped is None
    assert injector.killed == []
