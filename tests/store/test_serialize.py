"""Round-trip tests for the JSON forms of results and reports."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.pipeline import CompilationReport, compile_workload
from repro.errors import PebblingError, ReproError
from repro.pebbling.solver import (
    AttemptRecord,
    PebblingOutcome,
    PebblingResult,
    ReversiblePebblingSolver,
)
from repro.workloads import example_dag, load_workload


def _round_trip(result: PebblingResult, dag) -> PebblingResult:
    payload = json.dumps(result.to_json(), sort_keys=True)
    return PebblingResult.from_json(json.loads(payload), dag)


class TestPebblingResultJson:
    def test_solution_round_trip_is_lossless(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(4, time_limit=60)
        assert result.found
        rebuilt = _round_trip(result, fig2_dag)
        assert json.dumps(rebuilt.to_json(), sort_keys=True) == json.dumps(
            result.to_json(), sort_keys=True
        )
        assert rebuilt.strategy.configurations == result.strategy.configurations
        assert rebuilt.num_steps == result.num_steps
        assert rebuilt.runtime == result.runtime
        assert rebuilt.attempts == result.attempts
        # The engines' counters come back once, and still add up the calls.
        assert rebuilt.counters == result.counters
        assert rebuilt.counters["conflicts"] == sum(a.conflicts for a in rebuilt.attempts)

    def test_unsolved_round_trip(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(3, time_limit=60)
        assert result.outcome is PebblingOutcome.STEP_LIMIT
        rebuilt = _round_trip(result, fig2_dag)
        assert rebuilt.strategy is None
        assert rebuilt.outcome is PebblingOutcome.STEP_LIMIT
        assert rebuilt.complete is result.complete is True

    def test_single_move_strategies_keep_their_move_cap(self, fig2_dag):
        from repro.pebbling.encoding import EncodingOptions

        result = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(max_moves_per_step=1)
        ).solve(4, time_limit=60)
        rebuilt = _round_trip(result, fig2_dag)
        assert rebuilt.strategy.max_moves_per_step == 1

    def test_foreign_dag_is_rejected(self, fig2_dag, chain_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(4, time_limit=60)
        with pytest.raises(PebblingError, match="different DAG"):
            PebblingResult.from_json(result.to_json(), chain_dag)


#: The value types each stored field accepts (``bool`` is no count), and
#: whether a payload without it still decodes.
_RESULT_FIELDS = {
    "dag": ((str,), True), "max_pebbles": ((int,), True),
    "outcome": ((str,), True), "runtime": ((int, float), True),
    "complete": ((bool,), True), "weighted": ((bool,), False),
    "minimal": ((bool,), False), "backend": ((str,), False),
    "partial": ((dict, type(None)), False), "proved_infeasible": ((bool,), False),
    "strategy": ((dict, type(None)), False), "attempts": ((list,), False),
    "counters": ((dict,), False),
}
_ATTEMPT_FIELDS = {
    "num_steps": ((int,), True), "status": ((str,), True),
    "conflicts": ((int,), True), "runtime": ((int, float), True),
    "ladder": ((int, type(None)), False), "core_size": ((int, type(None)), False),
    "at": ((int, float, type(None)), False),
}
_STRATEGY_FIELDS = {
    "configurations": ((list,), True),
    "max_moves_per_step": ((int, type(None)), False),
}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
    st.text(max_size=4), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def _accepts(kinds, value) -> bool:
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _stored_shape():
    with_attempts = ReversiblePebblingSolver(example_dag()).solve(4, time_limit=60)
    assert with_attempts.found and len(with_attempts.attempts) > 1
    return with_attempts.to_json()


_PAYLOAD = _stored_shape()


@st.composite
def _mutations(draw):
    """``(payload, must_fail)``: a stored result with one field broken."""
    payload = json.loads(json.dumps(_PAYLOAD))
    target = draw(st.sampled_from(["result", "attempt", "strategy", "counter", "shape"]))
    if target == "shape":
        # The wrong shape one level down (or at the top).
        where = draw(st.sampled_from(
            ["top", "attempts", "attempt", "strategy", "configurations", "counters"]
        ))
        wrong = draw(st.sampled_from([[], {}, "x", 3, [[1]], [{"a": 1}]]))
        if where == "top":
            return wrong, True
        if where == "attempt":
            payload["attempts"][0] = wrong
            return payload, True
        if where == "configurations":
            payload["strategy"]["configurations"] = wrong
            return payload, wrong not in ([],)  # an empty list names no configuration
        payload[where] = wrong
        kinds = _RESULT_FIELDS[where][0]
        # An empty attempt list or counter dict is a valid payload.
        return payload, not (_accepts(kinds, wrong) and not wrong)
    if target == "counter":
        name = draw(st.sampled_from(sorted(payload["counters"])))
        payload["counters"][name] = value = draw(_JSON_VALUES)
        return payload, not _accepts((int, float), value)
    fields, record = {
        "result": (_RESULT_FIELDS, payload),
        "attempt": (_ATTEMPT_FIELDS, payload["attempts"][-1]),
        "strategy": (_STRATEGY_FIELDS, payload["strategy"]),
    }[target]
    name = draw(st.sampled_from(sorted(fields)))
    kinds, required = fields[name]
    if draw(st.booleans()):
        del record[name]
        return payload, required and target != "strategy" or name == "configurations"
    record[name] = value = draw(_JSON_VALUES)
    return payload, not _accepts(kinds, value)


class TestMalformedPayloads:
    """A stored result decodes or fails with a typed error, never deeper."""

    @given(_mutations())
    @settings(max_examples=300, deadline=None)
    def test_a_broken_field_is_a_typed_error(self, mutation):
        payload, must_fail = mutation
        try:
            PebblingResult.from_json(payload, example_dag())
        except ReproError:
            return
        assert not must_fail, payload

    @given(st.sampled_from(sorted(_ATTEMPT_FIELDS)), _JSON_VALUES, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_a_broken_call_record_is_a_typed_error(self, name, value, drop):
        record = dict(_PAYLOAD["attempts"][0])
        kinds, required = _ATTEMPT_FIELDS[name]
        if drop:
            del record[name]
            must_fail = required
        else:
            record[name] = value
            must_fail = not _accepts(kinds, value)
        try:
            AttemptRecord.from_dict(record)
        except PebblingError:
            return
        assert not must_fail, record

    def test_each_required_field_is_named_when_missing(self):
        for name, (_, required) in _RESULT_FIELDS.items():
            payload = dict(_PAYLOAD)
            del payload[name]
            if required:
                with pytest.raises(PebblingError, match=repr(name)):
                    PebblingResult.from_json(payload, example_dag())
            else:
                PebblingResult.from_json(payload, example_dag())

    def test_a_payload_before_the_counters_still_decodes(self):
        payload = json.loads(json.dumps(_PAYLOAD))
        del payload["counters"]
        for record in payload["attempts"]:
            for name in ("ladder", "core_size", "at"):
                del record[name]
        decoded = PebblingResult.from_json(payload, example_dag())
        assert decoded.counters == {}
        assert {
            (record.ladder, record.core_size, record.at) for record in decoded.attempts
        } == {(None, None, None)}


class TestCompilationReportJson:
    def test_verified_report_round_trip(self):
        report = compile_workload(
            "fig2", pebbles=4, decompose=True, time_limit=60
        )
        assert report.found and report.verified
        dag = load_workload("fig2")
        rebuilt = CompilationReport.from_json(report.to_json(), dag)
        assert json.dumps(rebuilt.to_json(), sort_keys=True) == json.dumps(
            report.to_json(), sort_keys=True
        )
        assert rebuilt.as_dict() == report.as_dict()
        # The strategy travels (grids can be reprinted from cache)...
        assert rebuilt.strategy is not None
        assert rebuilt.strategy.num_steps == report.steps
        # ... the compiled circuit object does not (recompute on demand).
        assert rebuilt.circuit is None

    def test_foreign_dag_is_rejected(self, chain_dag):
        report = compile_workload("fig2", pebbles=4, time_limit=60)
        with pytest.raises(PebblingError, match="different DAG"):
            CompilationReport.from_json(report.to_json(), chain_dag)

    def test_unsolved_report_round_trip(self):
        report = compile_workload("fig2", pebbles=3, time_limit=60)
        assert not report.found
        rebuilt = CompilationReport.from_json(
            report.to_json(), load_workload("fig2")
        )
        assert rebuilt.strategy is None
        assert rebuilt.outcome == report.outcome
        assert rebuilt.qubits is None


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
