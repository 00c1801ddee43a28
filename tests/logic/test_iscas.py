"""Tests for the ISCAS benchmark circuits (real c17 + synthetic stand-ins)."""

import pytest

from repro.errors import WorkloadError
from repro.logic.iscas import (
    ISCAS_PROFILES,
    MAX_GENERATED_GATES,
    c17_network,
    iscas_like_network,
    list_iscas_names,
)


class TestC17:
    def test_real_netlist_statistics(self):
        network = c17_network()
        stats = network.statistics()
        assert stats["inputs"] == 5
        assert stats["outputs"] == 2
        assert stats["gates"] == 6

    def test_c17_dag_matches_paper_profile_shape(self):
        # The paper's c17 row lists 5 PIs and 2 POs; the XMG node count (12)
        # differs from the NAND-gate count (6) because mockturtle re-expresses
        # the circuit, but PI/PO must match exactly.
        dag = c17_network().to_dag()
        dag.validate()
        assert len(dag.outputs()) == 2

    def test_scale_is_ignored_for_c17(self):
        assert iscas_like_network("c17", scale=0.1).num_gates == 6


class TestSyntheticStandIns:
    def test_all_profiles_listed(self):
        names = list_iscas_names()
        assert "c432" in names and "c7552" in names
        assert len(names) == len(ISCAS_PROFILES)

    @pytest.mark.parametrize("name", ["c432", "c499", "c880"])
    def test_full_scale_matches_profile_sizes(self, name):
        profile = ISCAS_PROFILES[name]
        network = iscas_like_network(name, scale=1.0)
        assert network.num_gates == profile.nodes
        assert network.num_inputs == profile.inputs
        assert network.num_outputs == profile.outputs
        network.validate()

    def test_scaling_reduces_gate_count(self):
        full = iscas_like_network("c432", scale=1.0)
        small = iscas_like_network("c432", scale=0.2)
        assert small.num_gates < full.num_gates
        assert small.num_gates >= ISCAS_PROFILES["c432"].outputs

    def test_deterministic_generation(self):
        first = iscas_like_network("c499", scale=0.3)
        second = iscas_like_network("c499", scale=0.3)
        assert [g.output for g in first.gates()] == [g.output for g in second.gates()]
        assert [g.fanins for g in first.gates()] == [g.fanins for g in second.gates()]

    def test_custom_seed_changes_structure(self):
        first = iscas_like_network("c499", scale=0.3, seed=1)
        second = iscas_like_network("c499", scale=0.3, seed=2)
        assert [g.fanins for g in first.gates()] != [g.fanins for g in second.gates()]

    def test_stand_in_converts_to_valid_dag(self):
        dag = iscas_like_network("c880", scale=0.15).to_dag()
        dag.validate()
        assert dag.num_nodes > 10

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            iscas_like_network("c9999")

    def test_non_positive_scale_rejected(self):
        with pytest.raises(WorkloadError):
            iscas_like_network("c432", scale=0)

    @pytest.mark.parametrize("scale", [-1.0, float("nan")])
    def test_a_negative_or_nan_scale_is_rejected(self, scale):
        with pytest.raises(WorkloadError, match="scale must be positive"):
            iscas_like_network("c432", scale=scale)

    @pytest.mark.parametrize("scale", [1e9, float("inf")])
    def test_a_stand_in_past_the_gate_cap_is_refused(self, scale):
        with pytest.raises(WorkloadError, match=f"at most {MAX_GENERATED_GATES}"):
            iscas_like_network("c432", scale=scale)
