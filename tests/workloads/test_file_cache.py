"""The parse cache behind ``.bench`` and DAG-JSON workload specs."""

import os
import sys
import threading

import pytest

from repro.dag.io import dag_to_json
from repro.logic.bench import network_to_bench, write_bench
from repro.logic.iscas import c17_network
from repro.workloads import and_tree_network, example_dag, example_network
from repro.workloads import registry
from repro.workloads.registry import load_workload_network, load_workload_or_path


@pytest.fixture
def parsed_files():
    """The process's parse cache, empty before and after the test."""
    registry._PARSED_FILES.clear()
    yield registry._PARSED_FILES
    registry._PARSED_FILES.clear()


def _shape(dag):
    return (
        dag.name,
        [(str(node), sorted(map(str, dag.dependencies(node)))) for node in dag.nodes()],
        sorted(map(str, dag.outputs())),
    )


class TestParseCache:
    def test_the_same_bytes_load_to_one_object(
        self, tmp_path, parsed_files, bench_parses
    ):
        path = tmp_path / "c17.bench"
        write_bench(c17_network(), path)
        first = load_workload_or_path(str(path))
        kept = load_workload_or_path(str(path))
        assert load_workload_or_path(str(path)) is kept
        assert _shape(first) == _shape(kept) and first is not kept
        network = load_workload_network(str(path))
        assert load_workload_network(str(path)) is network
        # A compile hands the kept network back and gets the kept DAG.
        assert load_workload_or_path(str(path), network=network) is kept
        assert bench_parses == ["c17", "c17"]

        json_path = tmp_path / "fig2.json"
        dag_to_json(example_dag(), json_path)
        load_workload_or_path(str(json_path))
        kept = load_workload_or_path(str(json_path))
        assert load_workload_or_path(str(json_path)) is kept

    def test_registry_names_build_fresh_objects(self, parsed_files):
        for _ in range(2):
            assert load_workload_or_path("fig2") is not load_workload_or_path("fig2")
            assert load_workload_network("c17") is not load_workload_network("c17")
        assert not parsed_files._entries

    def test_a_rewrite_of_equal_length_and_mtime_is_parsed_again(
        self, tmp_path, parsed_files, bench_parses
    ):
        path = tmp_path / "work.bench"
        # Same length, other gate functions: AND -> XOR on every gate.
        old = network_to_bench(and_tree_network(4))
        new = old.replace("AND", "XOR")
        assert old != new and len(old) == len(new)
        path.write_text(old, encoding="utf-8")
        load_workload_network(str(path))
        kept = load_workload_network(str(path))
        assert load_workload_network(str(path)) is kept
        stamp = os.stat(path)
        path.write_text(new, encoding="utf-8")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert os.stat(path).st_mtime_ns == stamp.st_mtime_ns
        fresh = load_workload_network(str(path))
        assert fresh is not kept
        assert {gate.gate_type.value for gate in fresh.gates()} == {"XOR"}
        assert {gate.gate_type.value for gate in kept.gates()} == {"AND"}
        assert len(bench_parses) == 3

    def test_identical_bytes_under_two_paths_keep_their_own_names(
        self, tmp_path, parsed_files
    ):
        text = network_to_bench(c17_network())
        left, right = tmp_path / "left.bench", tmp_path / "right.bench"
        left.write_text(text, encoding="utf-8")
        right.write_text(text, encoding="utf-8")
        dags = {}
        for path in (left, right, left, right, left, right):
            dags.setdefault(path.stem, []).append(load_workload_or_path(str(path)))
        assert [dag.name for dag in dags["left"]] == ["left"] * 3
        assert [dag.name for dag in dags["right"]] == ["right"] * 3
        assert dags["left"][2] is dags["left"][1]
        assert dags["right"][2] is dags["right"][1]
        assert dags["left"][2] is not dags["right"][2]

    def test_a_file_loaded_once_leaves_nothing(self, tmp_path, parsed_files):
        bench_path, json_path = tmp_path / "c17.bench", tmp_path / "fig2.json"
        write_bench(c17_network(), bench_path)
        dag_to_json(example_dag(), json_path)
        # A compile's two calls are one load: the DAG comes from the network.
        network = load_workload_network(str(bench_path))
        load_workload_or_path(str(bench_path), network=network)
        load_workload_or_path(str(json_path))
        assert not parsed_files._entries
        load_workload_or_path(str(json_path))
        assert len(parsed_files._entries) == 1

    def test_past_the_byte_budget_the_least_recently_used_leaves(
        self, tmp_path, parsed_files, bench_parses, monkeypatch
    ):
        paths = []
        for name in ("a", "b", "c"):
            path = tmp_path / f"{name}.bench"
            write_bench(c17_network(), path)
            paths.append(str(path))
        size = os.path.getsize(paths[0])
        monkeypatch.setattr(registry, "FILE_CACHE_BYTES", 2 * size)
        a, b, c = paths
        kept = {}
        for path in (a, a, b, b):
            kept[path] = load_workload_or_path(path)
        assert load_workload_or_path(a) is kept[a]  # a is now the most recent
        load_workload_or_path(c)
        kept[c] = load_workload_or_path(c)  # admitting c evicts b, not a
        assert len(parsed_files._entries) == 2
        before = len(bench_parses)
        assert load_workload_or_path(a) is kept[a]
        assert load_workload_or_path(c) is kept[c]
        assert len(bench_parses) == before
        assert load_workload_or_path(b) is not kept[b]
        assert len(bench_parses) == before + 1

    def test_a_content_larger_than_the_budget_is_never_kept(
        self, tmp_path, parsed_files, monkeypatch
    ):
        path = tmp_path / "c17.bench"
        write_bench(c17_network(), path)
        monkeypatch.setattr(registry, "FILE_CACHE_BYTES", os.path.getsize(path) - 1)
        dags = [load_workload_or_path(str(path)) for _ in range(3)]
        assert len({id(dag) for dag in dags}) == 3
        assert not parsed_files._entries

    def test_threads_loading_one_file_all_get_a_valid_graph(
        self, tmp_path, parsed_files
    ):
        path = tmp_path / "fig2.bench"
        write_bench(example_network(), path)
        expected = _shape(example_network().to_dag())
        expected = ("fig2", *expected[1:])
        results: list[object] = []
        lock = threading.Lock()
        start = threading.Barrier(4)

        def load() -> None:
            start.wait(timeout=10)
            for _ in range(50):
                try:
                    network = load_workload_network(str(path))
                    got = _shape(load_workload_or_path(str(path), network=network))
                except Exception as error:  # noqa: BLE001 — reported below
                    got = error
                with lock:
                    results.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 200
        assert len(parsed_files._entries) == 1
        kept = load_workload_network(str(path))
        dag = load_workload_or_path(str(path))
        assert load_workload_or_path(str(path), network=kept) is dag

    def test_threads_churning_past_the_budget_keep_the_byte_count(
        self, tmp_path, parsed_files, monkeypatch
    ):
        paths = []
        for name in ("a", "b", "c"):
            path = tmp_path / f"{name}.json"
            dag_to_json(example_dag(), path)
            paths.append(str(path))
        size = os.path.getsize(paths[0])
        monkeypatch.setattr(registry, "FILE_CACHE_BYTES", 2 * size)
        failures: list[object] = []
        start = threading.Barrier(4)

        def load(offset: int) -> None:
            start.wait(timeout=10)
            for step in range(300):
                path = paths[(offset + step) % 3]
                try:
                    assert load_workload_or_path(path).name == "fig2_example"
                except Exception as error:  # noqa: BLE001 — reported below
                    failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        kept = list(parsed_files._entries.values())
        assert parsed_files._bytes == sum(entry.size for entry in kept) <= 2 * size
        assert len(kept) == 2
