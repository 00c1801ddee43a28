"""Tests for the evaluation-workload registry."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    and_tree_dag,
    example_dag,
    hadamard_gate_level_dag,
    list_workloads,
    load_workload,
    table1_rows,
)


class TestExampleDag:
    def test_matches_paper_fig2(self):
        dag = example_dag()
        assert set(dag.nodes()) == {"A", "B", "C", "D", "E", "F"}
        assert set(dag.outputs()) == {"E", "F"}
        assert dag.dependencies("C") == ("A",)
        assert dag.dependencies("D") == ("B",)
        assert dag.dependencies("E") == ("C", "D")
        assert dag.dependencies("F") == ("A",)


class TestAndTree:
    def test_fig6_shape(self):
        dag = and_tree_dag(9)
        assert dag.num_nodes == 8
        assert len(dag.outputs()) == 1
        assert dag.statistics().max_fanin == 2

    def test_other_widths(self):
        assert and_tree_dag(4).num_nodes == 3
        assert and_tree_dag(2).num_nodes == 1

    def test_rejects_single_input(self):
        with pytest.raises(WorkloadError):
            and_tree_dag(1)


class TestHadamardGateLevel:
    def test_b2_m3_size_class(self):
        dag = hadamard_gate_level_dag(2, 3)
        dag.validate()
        # The paper's b2_m3 has 74 XMG nodes; our own gate-level expansion
        # lands in the same size class (tens to low hundreds of nodes).
        assert 40 <= dag.num_nodes <= 200

    def test_larger_bitwidth_grows(self):
        small = hadamard_gate_level_dag(2, 3)
        large = hadamard_gate_level_dag(3, 7)
        assert large.num_nodes > small.num_nodes


class TestRegistry:
    def test_list_contains_all_named_workloads(self):
        names = list_workloads()
        for expected in ["fig2", "and9", "hadamard", "kummer-add", "edwards-add",
                         "b2_m3", "c17", "c6288"]:
            assert expected in names

    @pytest.mark.parametrize("name", ["fig2", "and9", "hadamard", "kummer-add",
                                      "kummer-double", "edwards-add", "c17"])
    def test_load_named_workloads(self, name):
        dag = load_workload(name)
        dag.validate()
        assert dag.num_nodes >= 1

    def test_load_is_case_insensitive(self):
        assert load_workload("FIG2").num_nodes == 6

    def test_hadamard_table_rows_scale(self):
        full = load_workload("b2_m3")
        half = load_workload("b4_m5", scale=0.5)
        assert full.num_nodes > 10
        assert half.num_nodes < load_workload("b4_m5").num_nodes

    def test_iscas_row_scaling(self):
        small = load_workload("c432", scale=0.1)
        assert small.num_nodes < 208
        small.validate()

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            load_workload("nonexistent")

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            load_workload("fig2", scale=0)

    def test_table1_rows_complete(self):
        rows = table1_rows()
        assert len(rows) == 20
        names = [row.name for row in rows]
        assert names[0] == "b2_m3" and names[-1] == "c7552"
        hadamard_rows = [row for row in rows if row.kind == "hadamard"]
        assert all(row.bits is not None and row.modulus is not None for row in hadamard_rows)
        assert all(row.paper_pebbles <= row.paper_bennett_pebbles for row in rows)
        assert all(row.paper_steps >= row.paper_bennett_steps for row in rows)


class TestBatchSuites:
    def test_list_suites(self):
        from repro.workloads import list_suites

        names = list_suites()
        assert "smoke" in names and "default" in names

    def test_suite_entries_resolve_to_valid_workloads(self):
        from repro.workloads import list_suites, load_workload, suite_entries

        for suite in list_suites():
            entries = suite_entries(suite)
            assert entries
            for entry in entries:
                assert entry.pebbles >= 1
                load_workload(entry.workload, scale=entry.scale).validate()

    def test_smoke_suite_is_subset_of_default_workloads(self):
        from repro.workloads import suite_entries

        default_names = {entry.name for entry in suite_entries("default")}
        assert {entry.name for entry in suite_entries("smoke")} <= default_names

    def test_unknown_suite_raises(self):
        from repro.errors import WorkloadError
        from repro.workloads import suite_entries

        with pytest.raises(WorkloadError):
            suite_entries("does-not-exist")

    def test_entry_names_are_unique_per_suite(self):
        from repro.workloads import list_suites, suite_entries

        for suite in list_suites():
            names = [entry.name for entry in suite_entries(suite)]
            assert len(names) == len(set(names))


class TestLoadWorkloadOrPathErrors:
    def test_missing_bench_file_is_a_targeted_error(self):
        from repro.errors import WorkloadError
        from repro.workloads.registry import load_workload_or_path

        with pytest.raises(WorkloadError, match="does not exist"):
            load_workload_or_path("missing_netlist.bench")

    def test_missing_json_file_lists_registry_workloads(self):
        from repro.errors import WorkloadError
        from repro.workloads.registry import load_workload_or_path

        with pytest.raises(WorkloadError, match="fig2"):
            load_workload_or_path("missing_dag.json")

    def test_unknown_name_lists_workloads_and_suites(self):
        from repro.errors import WorkloadError
        from repro.workloads.registry import load_workload_or_path

        with pytest.raises(WorkloadError) as caught:
            load_workload_or_path("definitely-not-a-workload")
        message = str(caught.value)
        assert "fig2" in message  # workload names
        assert "smoke" in message  # batch suite names

    def test_bad_scale_is_not_wrapped(self):
        from repro.errors import WorkloadError
        from repro.workloads.registry import load_workload_or_path

        with pytest.raises(WorkloadError, match="scale must be positive") as caught:
            load_workload_or_path("fig2", scale=0.0)
        assert "smoke" not in str(caught.value)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("spec", ["c432", "b2_m3", "fig2", "c17.bench", "fig2.json"])
    def test_every_spec_refuses_a_scale_that_is_not_finite_and_positive(
        self, tmp_path, monkeypatch, spec, scale
    ):
        from repro.dag.io import dag_to_json
        from repro.errors import WorkloadError
        from repro.logic.bench import write_bench
        from repro.logic.iscas import c17_network
        from repro.workloads import example_dag
        from repro.workloads.registry import (
            load_workload,
            load_workload_network,
            load_workload_or_path,
        )

        monkeypatch.chdir(tmp_path)
        write_bench(c17_network(), "c17.bench")
        dag_to_json(example_dag(), "fig2.json")
        loaders = [load_workload_or_path, load_workload_network]
        if "." not in spec:
            loaders.append(load_workload)
        for load in loaders:
            with pytest.raises(WorkloadError, match="scale must be positive and finite"):
                load(spec, scale=scale)

    @pytest.mark.parametrize("scale", [1e9, 1e308])
    @pytest.mark.parametrize("spec", ["c432", "b16_m23"])
    def test_a_scale_too_large_to_build_fails_at_once(self, spec, scale):
        import time

        from repro.errors import WorkloadError
        from repro.workloads.registry import (
            load_workload,
            load_workload_network,
            load_workload_or_path,
        )

        for load in (load_workload, load_workload_network, load_workload_or_path):
            started = time.perf_counter()
            with pytest.raises(WorkloadError, match="at most") as caught:
                load(spec, scale=scale)
            assert time.perf_counter() - started < 1.0
            assert "batch suites" not in str(caught.value)

    @pytest.mark.parametrize("spec", ["c432", "b16_m23", "c7552"])
    def test_scale_one_still_loads(self, spec):
        from repro.workloads.registry import load_workload, load_workload_network

        assert load_workload(spec, scale=1.0).num_nodes > 100
        assert load_workload_network(spec, scale=1.0) is not None

    @pytest.mark.parametrize("suffix", [".bench", ".json"])
    def test_a_file_that_is_not_utf8_is_a_workload_error(self, tmp_path, suffix):
        from repro.errors import WorkloadError
        from repro.workloads.registry import load_workload_network, load_workload_or_path

        path = tmp_path / f"latin1{suffix}"
        path.write_bytes("INPUT(caf\xe9)\n".encode("latin-1"))
        with pytest.raises(WorkloadError, match="is not UTF-8 text"):
            load_workload_or_path(str(path))
        if suffix == ".bench":
            with pytest.raises(WorkloadError, match="is not UTF-8 text"):
                load_workload_network(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", '"fig2"', "null", "[" * 100_000])
    def test_a_dag_json_that_is_not_an_object_is_a_dag_error(self, tmp_path, text):
        from repro.errors import DagError
        from repro.workloads.registry import load_workload_or_path

        path = tmp_path / "graph.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DagError, match="expected an object|invalid JSON"):
            load_workload_or_path(str(path))

    def test_existing_paths_still_resolve(self, tmp_path):
        from repro.dag.io import dag_to_json
        from repro.workloads import example_dag
        from repro.workloads.registry import load_workload_or_path

        path = tmp_path / "example.json"
        dag_to_json(example_dag(), path)
        dag = load_workload_or_path(str(path))
        assert dag.num_nodes == 6
