"""Unit tests for DAG serialisation (JSON dict and DOT)."""

import json

import pytest

from repro.errors import DagError
from repro.dag import (
    dag_from_dict,
    dag_from_json,
    dag_to_dict,
    dag_to_dot,
    dag_to_json,
)


class TestJsonRoundTrip:
    def test_dict_round_trip_preserves_structure(self, fig2_dag):
        data = dag_to_dict(fig2_dag)
        rebuilt = dag_from_dict(data)
        assert set(rebuilt.nodes()) == set(map(str, fig2_dag.nodes()))
        assert set(rebuilt.outputs()) == set(map(str, fig2_dag.outputs()))
        assert rebuilt.num_edges == fig2_dag.num_edges

    def test_json_round_trip(self, fig2_dag):
        text = dag_to_json(fig2_dag)
        rebuilt = dag_from_json(text)
        assert rebuilt.num_nodes == fig2_dag.num_nodes
        assert json.loads(text)["name"] == fig2_dag.name

    def test_json_file_round_trip(self, fig2_dag, tmp_path):
        path = tmp_path / "dag.json"
        dag_to_json(fig2_dag, path)
        rebuilt = dag_from_json(path)
        assert rebuilt.num_nodes == fig2_dag.num_nodes
        rebuilt_again = dag_from_json(str(path))
        assert rebuilt_again.num_nodes == fig2_dag.num_nodes

    def test_operations_and_weights_preserved(self, fig2_dag):
        fig2_dag.node("A").weight = 2.5
        data = dag_to_dict(fig2_dag)
        rebuilt = dag_from_dict(data)
        assert rebuilt.node("A").weight == 2.5
        assert rebuilt.node("E").operation == "E"

    def test_malformed_dict_raises(self):
        with pytest.raises(DagError):
            dag_from_dict({"nodes": [{"dependencies": []}]})

    @pytest.mark.parametrize(
        "weight", ["x", "2", True, None, [1], {"w": 1}, float("nan"), float("inf")]
    )
    def test_a_weight_that_is_not_a_finite_number_raises(self, weight):
        data = {"nodes": [{"id": "a", "weight": weight}], "outputs": ["a"]}
        with pytest.raises(DagError, match="weight"):
            dag_from_dict(data)

    @pytest.mark.parametrize("weight", [0, -2, 2.5, 10**400])
    def test_any_finite_weight_loads(self, weight):
        # Whether a weight is a positive integer is the weighted game's
        # check, not the loader's.
        data = {"nodes": [{"id": "a", "weight": weight}], "outputs": ["a"]}
        assert dag_from_dict(data).node("a").weight == weight

    def test_a_weight_past_the_float_range_in_a_json_file_raises(self):
        with pytest.raises(DagError, match="weight"):
            dag_from_json('{"nodes": [{"id": "a", "weight": 1e400}], "outputs": ["a"]}')

    def test_invalid_json_raises(self):
        with pytest.raises(DagError):
            dag_from_json('{"nodes": not-json}')


class TestDot:
    def test_dot_contains_nodes_and_edges(self, fig2_dag):
        dot = dag_to_dot(fig2_dag)
        assert dot.startswith("digraph")
        for node in fig2_dag.nodes():
            assert f'"{node}"' in dot
        assert '"A" -> "C";' in dot

    def test_dot_highlights_outputs_and_marked_nodes(self, fig2_dag):
        dot = dag_to_dot(fig2_dag, highlight={"C"})
        assert "indianred1" in dot
        assert "lightblue" in dot
