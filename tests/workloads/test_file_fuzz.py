"""Fuzzing the workload file loaders: a graph or a typed error, every time.

Arbitrary bytes, and mutated copies of a valid ``.bench`` netlist and a
valid DAG-JSON file, are saved under each suffix.  ``load_workload_or_path``
and ``load_workload_network`` must return a graph (or, for a DAG-JSON
file, no network) or raise a :class:`~repro.errors.ReproError`; the next
loads of the same bytes go through the parse cache and must agree with
the first.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.io import dag_to_json
from repro.errors import ReproError
from repro.logic.bench import network_to_bench
from repro.logic.iscas import c17_network
from repro.workloads import example_dag
from repro.workloads.registry import load_workload_network, load_workload_or_path

VALID = (
    network_to_bench(c17_network()).encode("utf-8"),
    dag_to_json(example_dag()).encode("utf-8"),
)

def _mutate(data: bytes, edits: list[tuple[int, int, bytes]]) -> bytes:
    """Apply (position, bytes to delete, bytes to insert) edits in order."""
    for position, length, insert in edits:
        at = position % (len(data) + 1)
        data = data[:at] + insert + data[at + length:]
    return data


_edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4096),
        st.integers(min_value=0, max_value=8),
        st.binary(max_size=8)
        | st.sampled_from([b"(", b")", b"=", b",", b"\n", b"{", b"}", b"[", b"]",
                           b'"', b":", b"NAND", b"OUTPUT(", b'"id"', b"null"]),
    ),
    min_size=1,
    max_size=6,
)

contents = (
    st.binary(max_size=512)
    | st.text(max_size=256).map(str.encode)
    | st.builds(_mutate, st.sampled_from(VALID), _edits)
)


def _outcome(load, spec):
    """A comparable record of one load: the graph's shape or the error type.

    Shapes are compared as their ``repr``, so a ``NaN`` read from JSON
    compares equal to itself.
    """
    try:
        graph = load(spec)
    except ReproError as error:
        return type(error)
    if graph is None:
        return None
    if hasattr(graph, "gates"):  # a LogicNetwork
        return repr((
            graph.name,
            graph.inputs,
            [(gate.output, gate.gate_type, gate.fanins) for gate in graph.gates()],
            graph.outputs,
        ))
    graph.validate()
    return repr((
        graph.name,
        [
            (node, graph.node(node).operation, graph.node(node).weight,
             graph.dependencies(node))
            for node in graph.nodes()
        ],
        graph.outputs(),
    ))


@settings(max_examples=200, deadline=None)
@given(content=contents, suffix=st.sampled_from([".bench", ".json"]))
def test_loaders_return_a_graph_or_a_typed_error(content, suffix):
    with tempfile.TemporaryDirectory() as directory:
        spec = str(Path(directory) / f"fuzz{suffix}")
        Path(spec).write_bytes(content)
        for load in (load_workload_or_path, load_workload_network):
            first = _outcome(load, spec)
            if suffix == ".json" and load is load_workload_network:
                assert first is None  # DAG-JSON has no gate-level network
            # The second load admits the content, the third is served from
            # the cache: both agree with the first.
            assert _outcome(load, spec) == first
            assert _outcome(load, spec) == first
