"""Workload generation tests."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.sim.randomness import RandomStream
from repro.workload.chains import chained_transaction_specs
from repro.workload.generator import WorkloadGenerator, WorkloadParams
from repro.workload.profiles import (
    PROFILES,
    banking_reconciliation,
    read_mostly_reporting,
    travel_booking,
)
from repro.workload.trees import (
    balanced_tree_spec,
    chain_spec,
    flat_spec,
)


NODES = [f"n{i}" for i in range(6)]


class TestTrees:
    def test_flat(self):
        spec = flat_spec(NODES)
        assert spec.root.node == "n0"
        assert len(spec.children_of("n0")) == 5

    def test_chain(self):
        spec = chain_spec(NODES)
        assert spec.participant("n5").parent == "n4"

    def test_balanced(self):
        spec = balanced_tree_spec(NODES, fanout=2)
        assert spec.participant("n1").parent == "n0"
        assert spec.participant("n2").parent == "n0"
        assert spec.participant("n3").parent == "n1"
        with pytest.raises(ValueError):
            balanced_tree_spec(NODES, fanout=0)

    def test_no_update_variant(self):
        spec = flat_spec(NODES, updates=False)
        assert all(not p.ops for p in spec.participants)


class TestGenerator:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            WorkloadParams(read_only_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadParams(update_fraction=-0.1)
        with pytest.raises(ValueError):
            WorkloadParams(ops_per_participant=-1)
        with pytest.raises(ValueError):
            WorkloadParams(key_space=0)

    def test_stream_produces_valid_specs(self):
        generator = WorkloadGenerator(NODES, WorkloadParams(
            read_only_fraction=0.5), RandomStream(3))
        specs = list(generator.stream(10))
        assert len(specs) == 10
        for spec in specs:
            spec.validate()
            assert spec.size == len(NODES)

    def test_read_only_fraction_zero_means_updates(self):
        generator = WorkloadGenerator(NODES, WorkloadParams(
            read_only_fraction=0.0, update_fraction=1.0),
            RandomStream(3))
        spec = generator.next_spec()
        assert all(any(op.is_update for op in p.ops)
                   for p in spec.participants)

    def test_generated_specs_run(self):
        generator = WorkloadGenerator(NODES, WorkloadParams(
            read_only_fraction=0.4, key_space=8), RandomStream(1))
        cluster = Cluster(PRESUMED_ABORT, nodes=NODES)
        for spec in generator.stream(5):
            handle = cluster.run_transaction(spec)
            assert handle.done

    def test_negative_count_rejected(self):
        generator = WorkloadGenerator(NODES)
        with pytest.raises(ValueError):
            list(generator.stream(-1))


class TestChains:
    def test_alternating_roots(self):
        specs = chained_transaction_specs(4)
        roots = [s.root.node for s in specs]
        assert roots == ["a", "b", "a", "b"]

    def test_last_agent_pairs_require_even(self):
        with pytest.raises(ValueError):
            chained_transaction_specs(3, last_agent_pairs=True)

    def test_pair_pattern_defers_first_of_each_pair(self):
        specs = chained_transaction_specs(4, last_agent_pairs=True)
        assert [s.long_locks for s in specs] == [True, False, True, False]

    def test_r_validation(self):
        with pytest.raises(ValueError):
            chained_transaction_specs(0)


class TestProfiles:
    def test_registry_builds_all(self):
        for name, factory in PROFILES.items():
            profile = factory()
            assert profile.name == name
            assert profile.specs()

    def test_banking_profile_runs_with_long_locks(self):
        profile = banking_reconciliation(r=4)
        cluster = profile.build_cluster()
        specs = profile.specs()
        for spec in specs:
            cluster.run_transaction(spec)
        for spec in specs:
            assert cluster.metrics.commit_flows(txn=spec.txn_id) == 3

    def test_travel_profile_uses_satellite_last_agent(self):
        profile = travel_booking(satellite_delay=40.0)
        cluster = profile.build_cluster()
        [spec] = profile.specs()
        handle = cluster.run_transaction(spec)
        cluster.finalize_implied_acks()
        assert handle.committed
        # One slow round trip with the airline: delegation out, commit
        # back — exactly 2 commit flows on the satellite link.
        airline_flows = (cluster.metrics.commit_flows(src="airline")
                         + cluster.metrics.commit_flows(src="agency"))
        assert cluster.metrics.flows.total(
            phase="commit", src="airline") == 1

    def test_reporting_profile_read_only_savings(self):
        profile = read_mostly_reporting(n=8, readers=6)
        cluster = profile.build_cluster()
        [spec] = profile.specs()
        handle = cluster.run_transaction(spec)
        assert handle.committed
        # 6 read-only branches: 2 flows each; 1 updating branch: 4.
        assert cluster.metrics.commit_flows(txn=spec.txn_id) == 6 * 2 + 4
