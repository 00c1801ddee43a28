"""Unit tests for the dependency DAG container."""

import pytest

from repro.errors import DagError
from repro.dag import Dag


class TestConstruction:
    def test_add_node_and_queries(self, fig2_dag):
        assert fig2_dag.num_nodes == 6
        assert fig2_dag.num_edges == 5
        assert set(fig2_dag.nodes()) == {"A", "B", "C", "D", "E", "F"}
        assert fig2_dag.dependencies("E") == ("C", "D")
        assert set(fig2_dag.dependents("A")) == {"C", "F"}

    def test_children_alias_matches_paper_terminology(self, fig2_dag):
        assert fig2_dag.children("E") == fig2_dag.dependencies("E")
        assert fig2_dag.children("A") == ()

    def test_duplicate_node_rejected(self):
        dag = Dag()
        dag.add_node("a")
        with pytest.raises(DagError):
            dag.add_node("a")

    def test_unknown_dependency_rejected(self):
        dag = Dag()
        with pytest.raises(DagError):
            dag.add_node("a", ["missing"])

    def test_self_dependency_rejected(self):
        dag = Dag()
        with pytest.raises(DagError):
            dag.add_node("a", ["a"])

    def test_forward_references_create_placeholders(self):
        dag = Dag()
        dag.add_node("b", ["a"], allow_forward_references=True)
        assert dag.has_placeholders()
        dag.add_node("a")
        assert not dag.has_placeholders()
        assert dag.dependencies("b") == ("a",)

    def test_validate_rejects_unresolved_placeholders(self):
        dag = Dag()
        dag.add_node("b", ["a"], allow_forward_references=True)
        with pytest.raises(DagError):
            dag.validate()

    def test_duplicate_dependencies_are_merged(self):
        dag = Dag()
        dag.add_node("a")
        dag.add_node("b", ["a", "a"])
        assert dag.dependencies("b") == ("a",)
        assert dag.num_edges == 1

    def test_cycle_rejected_and_rolled_back(self):
        dag = Dag()
        dag.add_node("a")
        dag.add_node("b", ["a"])
        # A placeholder-based cycle: c depends on d, d depends on c.
        dag.add_node("c", ["d"], allow_forward_references=True)
        with pytest.raises(DagError):
            dag.add_node("d", ["c"])
        # The failed insertion must not leave 'd' behind.
        assert "d" in dag.nodes()  # placeholder from the forward reference
        assert dag.dependencies("c") == ("d",)

    def test_only_a_former_forward_reference_is_walked_for_cycles(self, monkeypatch):
        walked = []
        original = Dag._creates_cycle

        def counting(self, start):
            walked.append(start)
            return original(self, start)

        monkeypatch.setattr(Dag, "_creates_cycle", counting)
        dag = Dag()
        dag.add_node(0)
        for node in range(1, 50):
            dag.add_node(node, [node - 1])
        assert walked == []  # a node added in topological order has no dependents
        dag.add_node("late", ["early"], allow_forward_references=True)
        assert walked == []
        dag.add_node("early", [49])
        assert walked == ["early"]

    def test_node_metadata(self):
        dag = Dag()
        node = dag.add_node("m", [], operation="mul", weight=3.0, payload={"bits": 8})
        assert node.operation == "mul"
        assert dag.node("m").weight == 3.0
        assert dag.node("m").payload == {"bits": 8}

    def test_unknown_node_lookup(self):
        with pytest.raises(DagError):
            Dag().node("nope")

    def test_empty_dag_validation_fails(self):
        with pytest.raises(DagError):
            Dag().validate()


class TestOutputs:
    def test_outputs_default_to_sinks(self, fig2_dag):
        assert set(fig2_dag.sinks()) == {"E", "F"}
        assert set(fig2_dag.outputs()) == {"E", "F"}

    def test_explicit_outputs(self):
        dag = Dag()
        dag.add_node("a")
        dag.add_node("b", ["a"])
        dag.set_outputs(["a", "b"])
        assert dag.outputs() == ["a", "b"]
        assert dag.is_output("a") and dag.is_output("b")

    def test_unknown_output_rejected(self, fig2_dag):
        with pytest.raises(DagError):
            fig2_dag.set_outputs(["Z"])

    def test_empty_outputs_rejected(self, fig2_dag):
        with pytest.raises(DagError):
            fig2_dag.set_outputs([])

    def test_sources(self, fig2_dag):
        assert set(fig2_dag.sources()) == {"A", "B"}


class TestTraversal:
    def test_topological_order_respects_dependencies(self, fig2_dag):
        order = fig2_dag.topological_order()
        position = {node: index for index, node in enumerate(order)}
        for producer, consumer in fig2_dag.edges():
            assert position[producer] < position[consumer]

    def test_reverse_topological_order(self, fig2_dag):
        assert fig2_dag.reverse_topological_order() == list(
            reversed(fig2_dag.topological_order())
        )

    def test_transitive_fanin(self, fig2_dag):
        assert fig2_dag.transitive_fanin("E") == {"A", "B", "C", "D"}
        assert fig2_dag.transitive_fanin("A") == set()

    def test_transitive_fanout(self, fig2_dag):
        assert fig2_dag.transitive_fanout("A") == {"C", "E", "F"}
        assert fig2_dag.transitive_fanout("E") == set()

    def test_levels_and_depth(self, fig2_dag):
        levels = fig2_dag.levels()
        assert levels["A"] == 1
        assert levels["C"] == 2
        assert levels["E"] == 3
        assert fig2_dag.depth() == 3

    def test_chain_depth(self, chain_dag):
        assert chain_dag.depth() == 5

    def test_cone_extraction(self, fig2_dag):
        cone = fig2_dag.cone(["E"])
        assert set(cone.nodes()) == {"A", "B", "C", "D", "E"}
        assert cone.outputs() == ["E"]
        cone.validate()

    def test_cone_unknown_output(self, fig2_dag):
        with pytest.raises(DagError):
            fig2_dag.cone(["Z"])


class TestTransformations:
    def test_relabel_with_mapping(self, fig2_dag):
        renamed = fig2_dag.relabel({"A": "a", "E": "e"})
        assert "a" in renamed and "e" in renamed and "A" not in renamed
        assert set(renamed.outputs()) == {"e", "F"}
        renamed.validate()

    def test_relabel_with_callable(self, fig2_dag):
        renamed = fig2_dag.relabel(lambda node: f"{node}_x")
        assert set(renamed.nodes()) == {f"{n}_x" for n in fig2_dag.nodes()}

    def test_relabel_collision_rejected(self, fig2_dag):
        with pytest.raises(DagError):
            fig2_dag.relabel(lambda node: "same")

    def test_copy_is_independent(self, fig2_dag):
        clone = fig2_dag.copy()
        clone.add_node("G", ["E"])
        assert "G" not in fig2_dag
        assert "G" in clone


class TestStatistics:
    def test_statistics_fields(self, fig2_dag):
        stats = fig2_dag.statistics()
        assert stats.num_nodes == 6
        assert stats.num_edges == 5
        assert stats.num_outputs == 2
        assert stats.num_sources == 2
        assert stats.depth == 3
        assert stats.max_fanin == 2
        assert stats.max_fanout == 2
        assert stats.as_dict()["name"] == fig2_dag.name

    def test_operation_counts(self):
        dag = Dag()
        dag.add_node("a", [], operation="add")
        dag.add_node("b", [], operation="add")
        dag.add_node("c", ["a", "b"], operation="mul")
        assert dag.operation_counts() == {"add": 2, "mul": 1}

    def test_repr_mentions_size(self, fig2_dag):
        assert "nodes=6" in repr(fig2_dag)
