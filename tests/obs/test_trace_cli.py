"""The ``--trace`` flag and the ``trace`` analysis subcommand end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture
def traced_run(tmp_path):
    """A real pebble run recorded under ``--trace``."""

    path = tmp_path / "run.jsonl"
    assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "30",
                 "--trace", str(path)]) == 0
    return path


class TestTraceFlag:
    def test_pebble_writes_a_merged_trace(self, traced_run, capsys):
        assert traced_run.exists()
        first = json.loads(traced_run.read_text(encoding="utf-8").splitlines()[0])
        assert first["type"] == "meta"
        capsys.readouterr()

    def test_batch_accepts_the_flag(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        assert main(["pebble-batch", "--suite", "smoke", "--jobs", "1",
                     "--timeout", "30", "--trace", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()

    def test_compile_traces_lowering_and_verification(self, tmp_path, capsys):
        from repro.obs.analyze import load_trace, phase_aggregate

        path = tmp_path / "compile.jsonl"
        assert main(["compile", "c17", "--pebbles", "4", "--decompose",
                     "--timeout", "30", "--trace", str(path)]) == 0
        trace = load_trace(path)
        phases = {row["phase"]: row for row in phase_aggregate(trace)}
        assert phases["compile.lower"]["count"] == 1
        assert phases["compile.verify"]["count"] == 1
        spans = {node.name: node.attrs for node in trace.by_id.values()}
        assert spans["compile.lower"]["gates_out"] > spans["compile.lower"]["gates_in"] > 0
        assert spans["compile.verify"]["patterns"] == 32  # exhaustive over c17's 5 inputs
        capsys.readouterr()


class TestTraceSubcommand:
    def test_summarize_exits_zero_on_a_complete_tree(self, traced_run, capsys):
        assert main(["trace", "summarize", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "sat.call" in out

    def test_summarize_json_output(self, traced_run, capsys):
        assert main(["trace", "summarize", str(traced_run), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] is True
        assert report["spans"] > 0
        assert "sat.call" in report["span_names"]

    def test_summarize_exits_one_on_an_empty_tree(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(
            json.dumps({"type": "meta", "schema": 1, "records": 0}) + "\n",
            encoding="utf-8",
        )
        assert main(["trace", "summarize", str(empty)]) == 1
        capsys.readouterr()

    def test_summarize_exits_one_on_unresolved_parents(self, tmp_path, capsys):
        broken = tmp_path / "broken.jsonl"
        broken.write_text(
            json.dumps({"type": "span", "name": "orphan", "trace": "t1",
                        "span": "s1", "parent": "gone", "ts": 0.0, "dur": 1.0,
                        "status": "ok", "attrs": {}, "pid": 1, "seq": 0}) + "\n",
            encoding="utf-8",
        )
        assert main(["trace", "summarize", str(broken)]) == 1
        capsys.readouterr()

    def test_phases_prints_the_aggregate(self, traced_run, capsys):
        assert main(["trace", "phases", str(traced_run)]) == 0
        assert "sat.call" in capsys.readouterr().out

    def test_critical_path_walks_to_a_leaf(self, traced_run, capsys):
        assert main(["trace", "critical-path", str(traced_run)]) == 0
        assert "sat.call" in capsys.readouterr().out

    def test_critical_path_json(self, traced_run, capsys):
        assert main(["trace", "critical-path", str(traced_run), "--json"]) == 0
        path = json.loads(capsys.readouterr().out)
        assert path
        assert path[0]["dur_s"] >= path[-1]["dur_s"]
