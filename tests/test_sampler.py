"""The SIGPROF layer sampler: module -> layer, and samples scaled to CPU."""

from time import process_time

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.obs.sampler import LayerSampler, layer_of

from tests.conftest import updating_spec


def test_layer_of_names_packages_and_groups():
    assert layer_of("repro.core.node") == "core"
    assert layer_of("repro.transport.wire") == "transport.wire"
    assert layer_of("repro.cli") == "cli"
    assert layer_of("asyncio.events") == "loop"
    assert layer_of("json.decoder") == "codec"
    assert layer_of("enum") == "enum"
    assert layer_of("perfbench.host") == "perfbench"


def test_samples_land_on_the_running_layers_and_scale_to_cpu():
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    sampler = LayerSampler()
    began = process_time()
    with sampler:
        index = 0
        while process_time() - began < 0.3:
            cluster.run_transaction(
                updating_spec("c", ["s1", "s2"], txn_id=f"t{index}"))
            index += 1
    assert sum(sampler.counts.values()) > 0
    assert set(sampler.counts) & {"core", "net", "log", "lrm", "sim",
                                  "metrics"}
    total = sum(sampler.cpu_ms().values())
    assert abs(total - sampler.cpu_s * 1000.0) < 1e-6
    assert sampler.cpu_s > 0.2
