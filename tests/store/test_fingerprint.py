"""Tests for the canonical DAG/network/request fingerprints."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import Dag
from repro.pebbling.encoding import EncodingOptions
from repro.pebbling.search import GeometricRefine, LinearSearch
from repro.sat.cards import CardinalityEncoding
from repro.store import (
    dag_fingerprint,
    exact_dag_digest,
    network_digest,
    options_key,
    pebble_request_key,
)
from repro.workloads import and_tree_network, example_dag, example_network


def _relabelled_fig2() -> Dag:
    return example_dag().relabel(
        {"A": "n1", "B": "n2", "C": "n3", "D": "n4", "E": "n5", "F": "n6"}
    )


def _reordered_fig2() -> Dag:
    """Fig. 2 with the same labels but a different insertion order."""
    dag = Dag("fig2_example")
    dag.add_node("B", [], operation="B")
    dag.add_node("A", [], operation="A")
    dag.add_node("F", ["A"], operation="F")
    dag.add_node("D", ["B"], operation="D")
    dag.add_node("C", ["A"], operation="C")
    dag.add_node("E", ["C", "D"], operation="E")
    dag.set_outputs(["E", "F"])
    return dag


class TestDagFingerprint:
    def test_relabelling_preserves_fingerprint(self):
        assert dag_fingerprint(example_dag()) == dag_fingerprint(_relabelled_fig2())

    def test_insertion_order_is_irrelevant(self):
        assert dag_fingerprint(example_dag()) == dag_fingerprint(_reordered_fig2())

    def test_extra_edge_changes_fingerprint(self):
        dag = Dag("fig2_example")
        dag.add_node("A", [], operation="A")
        dag.add_node("B", [], operation="B")
        dag.add_node("C", ["A"], operation="C")
        dag.add_node("D", ["B"], operation="D")
        dag.add_node("E", ["C", "D"], operation="E")
        dag.add_node("F", ["A", "B"], operation="F")  # extra edge B -> F
        dag.set_outputs(["E", "F"])
        assert dag_fingerprint(dag) != dag_fingerprint(example_dag())

    def test_output_designation_changes_fingerprint(self):
        full = example_dag()
        other = example_dag()
        other.set_outputs(["E"])
        assert dag_fingerprint(full) != dag_fingerprint(other)

    def test_operation_and_weight_change_fingerprint(self):
        base = Dag("d")
        base.add_node("x", [], operation="AND")
        renamed_op = Dag("d")
        renamed_op.add_node("x", [], operation="XOR")
        heavier = Dag("d")
        heavier.add_node("x", [], operation="AND", weight=2.0)
        prints = {dag_fingerprint(base), dag_fingerprint(renamed_op),
                  dag_fingerprint(heavier)}
        assert len(prints) == 3

    def test_dag_name_does_not_matter(self):
        a = Dag("one")
        a.add_node("x", [])
        b = Dag("two")
        b.add_node("x", [])
        assert dag_fingerprint(a) == dag_fingerprint(b)

    def test_chain_versus_star_differ(self):
        chain = Dag("g")
        chain.add_node("a", [])
        chain.add_node("b", ["a"])
        chain.add_node("c", ["b"])
        star = Dag("g")
        star.add_node("a", [])
        star.add_node("b", ["a"])
        star.add_node("c", ["a"])
        assert dag_fingerprint(chain) != dag_fingerprint(star)

    def test_twin_chains_refine_past_initial_colours(self):
        # Two disjoint chains vs one chain plus a disconnected pair: the
        # initial degree colours coincide pairwise, only WL refinement
        # separates the depth-3 chain from the depth-2 one.
        twins = Dag("g")
        for prefix in ("p", "q"):
            twins.add_node(f"{prefix}1", [])
            twins.add_node(f"{prefix}2", [f"{prefix}1"])
            twins.add_node(f"{prefix}3", [f"{prefix}2"])
        lopsided = Dag("g")
        lopsided.add_node("p1", [])
        lopsided.add_node("p2", ["p1"])
        lopsided.add_node("p3", ["p2"])
        lopsided.add_node("p4", ["p3"])
        lopsided.add_node("q1", [])
        lopsided.add_node("q2", ["q1"])
        assert dag_fingerprint(twins) != dag_fingerprint(lopsided)


# ---------------------------------------------------------------------------
# hypothesis: random DAGs stay fingerprint-equal under relabel + reorder
# ---------------------------------------------------------------------------
def _random_dag(edge_bits: list[bool], num_nodes: int) -> Dag:
    """Deterministic DAG from an edge-choice bitmap over the upper triangle."""
    dag = Dag("random")
    bit = 0
    for target in range(num_nodes):
        dependencies = []
        for source in range(target):
            if edge_bits[bit % len(edge_bits)] if edge_bits else False:
                dependencies.append(f"v{source}")
            bit += 1
        dag.add_node(f"v{target}", dependencies, operation=f"op{target % 3}")
    return dag


@st.composite
def dag_and_permutation(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    edge_bits = draw(
        st.lists(st.booleans(), min_size=1, max_size=num_nodes * num_nodes)
    )
    permutation = draw(st.permutations(list(range(num_nodes))))
    return num_nodes, edge_bits, permutation


class TestFingerprintProperties:
    @given(dag_and_permutation())
    @settings(max_examples=60, deadline=None)
    def test_relabelled_and_reordered_dags_hash_equal(self, case):
        num_nodes, edge_bits, permutation = case
        dag = _random_dag(edge_bits, num_nodes)
        mapping = {f"v{i}": f"w{permutation[i]}" for i in range(num_nodes)}
        relabelled = dag.relabel(mapping)
        assert dag_fingerprint(dag) == dag_fingerprint(relabelled)
        # Rebuild the relabelled DAG from scratch in alphabetical (usually
        # non-topological) insertion order: same structure, different
        # construction history.
        rebuilt = Dag("rebuilt")
        for node in sorted(relabelled.nodes(), key=str):
            record = relabelled.node(node)
            rebuilt.add_node(
                node,
                relabelled.dependencies(node),
                operation=record.operation,
                weight=record.weight,
                allow_forward_references=True,
            )
        rebuilt.set_outputs(relabelled.outputs())
        assert dag_fingerprint(rebuilt) == dag_fingerprint(dag)
        # The exact digest is label-sensitive: the v* -> w* rename always
        # changes it, even though the fingerprint is unmoved.
        assert exact_dag_digest(dag) != exact_dag_digest(relabelled)

    @given(dag_and_permutation(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_structurally_distinct_dags_hash_differently(self, case, extra):
        num_nodes, edge_bits, _ = case
        dag = _random_dag(edge_bits, num_nodes)
        # Grow a structurally different DAG: one more sink node hanging off
        # an existing node — node count is part of the structure, so the
        # fingerprints must differ.
        grown = dag.copy()
        grown.add_node("vX", [f"v{extra % num_nodes}"], operation="op0")
        assert dag_fingerprint(dag) != dag_fingerprint(grown)


class TestExactDigest:
    def test_relabelling_changes_exact_digest(self):
        assert exact_dag_digest(example_dag()) != exact_dag_digest(_relabelled_fig2())

    def test_reordering_preserves_exact_digest(self):
        assert exact_dag_digest(example_dag()) == exact_dag_digest(_reordered_fig2())

    def test_name_is_part_of_exact_digest(self):
        a = example_dag()
        b = example_dag()
        b.name = "different"
        assert exact_dag_digest(a) != exact_dag_digest(b)


class TestNetworkDigest:
    def test_identical_networks_agree(self):
        assert network_digest(example_network()) == network_digest(example_network())

    def test_gate_function_matters(self):
        assert network_digest(example_network()) != network_digest(
            and_tree_network(9)
        )


class TestRequestKeys:
    def test_options_key_ignores_cardinality(self):
        sequential = EncodingOptions(cardinality=CardinalityEncoding.SEQUENTIAL)
        totalizer = EncodingOptions(cardinality=CardinalityEncoding.TOTALIZER)
        assert options_key(sequential) == options_key(totalizer)
        assert options_key(sequential) != options_key(
            EncodingOptions(weighted=True)
        )
        assert options_key(sequential) != options_key(
            EncodingOptions(max_moves_per_step=1)
        )

    def test_pebble_request_key_separates_parameters(self):
        base = dict(
            exact_digest="d",
            budget=4,
            options=EncodingOptions(),
            search=LinearSearch(),
            incremental=True,
            initial_steps=None,
            max_steps=None,
            step_floor=None,
        )
        key = pebble_request_key(**base)
        assert key == pebble_request_key(**base)
        for tweak in (
            {"budget": 5},
            {"search": GeometricRefine()},
            {"search": LinearSearch(step_increment=2)},
            {"incremental": False},
            {"initial_steps": 3},
            {"max_steps": 10},
            {"step_floor": 2},
            {"options": EncodingOptions(cardinality=CardinalityEncoding.SEQUENTIAL)},
            {"exact_digest": "other"},
        ):
            assert pebble_request_key(**{**base, **tweak}) != key

    def test_search_signatures(self):
        assert LinearSearch().signature == "linear:1"
        assert LinearSearch(step_increment=3).signature == "linear:3"
        assert GeometricRefine().signature == "geometric-refine:1.5"
        assert LinearSearch().certifies_minimality
        assert not LinearSearch(step_increment=3).certifies_minimality
        assert GeometricRefine().certifies_minimality


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
