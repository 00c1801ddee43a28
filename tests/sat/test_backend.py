"""Tests for the incremental-SAT backend protocol and registry.

Covers the registry's spec parsing / availability probing, protocol
conformance of all three bundled backends, and — most importantly — the
soundness of ``failed_assumptions()`` cores: a hypothesis property
cross-checks the CDCL cores against the DPLL oracle on random CNFs.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.sat.backend import (
    CdclSpec,
    DpllBackend,
    ExternalDimacsBackend,
    IncrementalSatBackend,
    backend_names,
    backend_unavailable_reason,
    create_backend,
    describe_backends,
    require_backend,
    resolve_backend,
    split_backend_spec,
)
from repro.sat.cnf import Cnf
from repro.sat.dpll import DpllSolver
from repro.sat.solver import CdclSolver, Status
from tests.external_stub_solver import stub_backend_spec, stub_command

STUB = stub_command()
STUB_SPEC = stub_backend_spec()


class TestRegistry:
    def test_bundled_backends_registered(self):
        assert {"cdcl", "dpll", "external"} <= set(backend_names())

    def test_unknown_backend_lists_names(self):
        with pytest.raises(SolverError, match="registered backends: cdcl"):
            create_backend("bogus")

    def test_spec_argument_splitting(self):
        assert split_backend_spec("cdcl") == ("cdcl", None)
        assert split_backend_spec("external:minisat -v") == ("external", "minisat -v")

    def test_cdcl_rejects_malformed_argument(self):
        with pytest.raises(SolverError, match="expected key=value"):
            create_backend("cdcl:foo")

    def test_external_unavailable_without_command(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAT_EXTERNAL", raising=False)
        reason = backend_unavailable_reason("external")
        assert reason is not None and "REPRO_SAT_EXTERNAL" in reason
        with pytest.raises(SolverError, match="not usable on this host"):
            require_backend("external")

    def test_external_env_configuration(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_EXTERNAL", STUB)
        assert backend_unavailable_reason("external") is None
        backend = create_backend("external")
        assert isinstance(backend, ExternalDimacsBackend)
        assert backend.command == STUB

    def test_external_missing_binary_probed(self):
        reason = backend_unavailable_reason("external:/nonexistent/solver-binary")
        assert reason is not None and "not found" in reason

    def test_describe_backends_rows(self):
        rows = {row["name"]: row for row in describe_backends()}
        assert rows["cdcl"]["available"] is True
        assert rows["dpll"]["available"] is True

    def test_instances_conform_to_protocol(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_EXTERNAL", STUB)
        for spec in ("cdcl", "dpll", "external"):
            backend = create_backend(spec)
            assert isinstance(backend, IncrementalSatBackend)

    def test_conflict_limit_forwarded_to_cdcl(self):
        backend = create_backend("cdcl", conflict_limit=7)
        assert backend.default_conflict_limit == 7


class TestCdclSpec:
    def test_defaults(self):
        spec = CdclSpec.parse(None)
        assert spec == CdclSpec()
        assert spec.render() == "cdcl"

    @pytest.mark.parametrize(
        ("argument", "rendered"),
        [
            ("", "cdcl"),
            ("native=0", "cdcl:native=0"),
            ("native=1", "cdcl:native=1"),
            # Only the Python engine profiles, so profile=1 selects it.
            (" profile=1 ", "cdcl:profile=1,native=0"),
            ("native=0,profile=1", "cdcl:profile=1,native=0"),
            (" native = 1 , ", "cdcl:native=1"),
        ],
    )
    def test_parse_and_render_round_trip(self, argument, rendered):
        spec = CdclSpec.parse(argument)
        assert spec.render() == rendered
        name, rest = split_backend_spec(rendered)
        assert name == "cdcl"
        assert CdclSpec.parse(rest) == spec

    def test_a_spec_names_only_an_engine(self):
        assert [field.name for field in dataclasses.fields(CdclSpec)] == [
            "native", "profile",
        ]
        # The search parameters are the constants the former keys
        # defaulted to.
        solver = CdclSpec(native=False).build()
        assert (
            solver._restart_base,
            solver._reduce_min_learned,
            solver._learned_limit_base,
        ) == (100, 50, 1000)

    def test_profile_flag(self):
        assert CdclSpec.parse("profile=1").profile is True
        assert CdclSpec.parse("profile=0") == CdclSpec()
        assert CdclSpec.parse("profile=1").render() == "cdcl:profile=1,native=0"
        with pytest.raises(SolverError, match="profile wants 0 or 1"):
            CdclSpec.parse("profile=2")

    @pytest.mark.parametrize(
        ("argument", "message"),
        [
            ("native=2", "native wants 0 or 1"),
            ("profile=1,profile=0", "given twice"),
            ("native=1,native=0", "given twice"),
            ("native=yes", "native wants 0 or 1"),
            ("profile=", "profile wants 0 or 1"),
            ("native", "expected key=value"),
            ("native=1,profile=1", "does not honour profile"),
            ("bogus=3", "unknown key"),
            # Keys of the techniques the Python engine no longer has.
            ("bve=0", "unknown key 'bve'"),
            ("bve_grow=1", "unknown key 'bve_grow'"),
            ("vivify=1", "unknown key 'vivify'"),
            ("chrono=0", "unknown key 'chrono'"),
            ("inprocess_interval=0", "unknown key 'inprocess_interval'"),
            # Tuning keys: the search parameters are constants.
            ("seed=7", "unknown key 'seed'"),
            ("restart_base=200", "unknown key 'restart_base'"),
            ("var_decay=0.9", "unknown key 'var_decay'"),
            ("clause_decay=0.99", "unknown key 'clause_decay'"),
            ("reduce_min_learned=20", "unknown key 'reduce_min_learned'"),
            ("learned_limit_base=500", "unknown key 'learned_limit_base'"),
            ("glue_max=3", "unknown key 'glue_max'"),
        ],
    )
    def test_rejections(self, argument, message):
        with pytest.raises(SolverError, match=message):
            CdclSpec.parse(argument)

    def test_build_forwards_options(self):
        solver = CdclSpec.parse("profile=1").build(conflict_limit=9)
        assert isinstance(solver, CdclSolver)
        assert solver._profile is True
        assert solver.default_conflict_limit == 9

    def test_profiled_spec_solves_through_registry(self):
        backend = create_backend("cdcl:profile=1")
        for clause in ([1, 2], [-1, 2], [-2, 3]):
            backend.add_clause(clause)
        result = backend.solve()
        assert result.is_sat
        assert set(result.stats.phase_times) == {"propagate", "analyze", "reduce"}

    def test_probe_reports_bad_specs(self):
        with pytest.raises(SolverError, match="invalid SAT backend spec.*unknown key"):
            backend_unavailable_reason("cdcl:bogus=1")
        assert backend_unavailable_reason("cdcl:profile=1") is None
        require_backend("cdcl:profile=1")

    def test_a_bad_spec_is_invalid_not_unusable(self):
        with pytest.raises(SolverError) as error:
            require_backend("cdcl:seed=7")
        message = str(error.value)
        assert message.startswith("invalid SAT backend spec 'cdcl:seed=7': ")
        assert "unknown key 'seed'" in message
        assert "not usable on this host" not in message

    def test_a_spec_that_parses_but_cannot_run_is_unusable(self, monkeypatch):
        import repro.sat.native as native

        monkeypatch.setattr(
            native, "native_unavailable_reason", lambda: "no C compiler (faked)"
        )
        with pytest.raises(SolverError) as error:
            require_backend("cdcl:native=1")
        message = str(error.value)
        assert message.startswith(
            "SAT backend 'cdcl:native=1' is not usable on this host: "
        )
        assert "no C compiler (faked)" in message
        assert "invalid" not in message


def _load_simple(backend: IncrementalSatBackend) -> None:
    backend.add_clause([1, 2])
    backend.add_clause([-1, 2])
    backend.add_clause([-2, 3])


@pytest.mark.parametrize("spec", ["cdcl", "cdcl:native=0", "dpll", STUB_SPEC])
class TestProtocolConformance:
    def test_solve_and_model(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        result = backend.solve()
        assert result.is_sat and result.model is not None
        assert result.model[2] is True and result.model[3] is True

    def test_incremental_clause_addition(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        assert backend.solve().is_sat
        backend.add_clause([-3])
        assert backend.solve().is_unsat

    def test_assumptions_and_core(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        result = backend.solve([-3])
        assert result.is_unsat
        core = backend.failed_assumptions()
        assert core == [-3]
        assert backend.solve([3]).is_sat

    def test_core_only_after_unsat(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        backend.solve([3])
        with pytest.raises(SolverError, match="UNSAT"):
            backend.failed_assumptions()

    def test_add_variable_and_cnf(self, spec):
        backend = create_backend(spec)
        first = backend.add_variable()
        assert first == 1
        cnf = Cnf()
        a, b = cnf.new_variable("a"), cnf.new_variable("b")
        cnf.add_clause([a, b])
        backend.add_cnf(cnf)
        assert backend.num_variables >= cnf.num_variables
        assert backend.solve().is_sat

    def test_counters_are_reported_subset(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        backend.solve()
        counters = backend.counters()
        assert "solve_time" in counters
        # Only the Python engine tracks watcher blockers.
        assert ("blocker_hits" in counters) == (
            resolve_backend(spec) == "cdcl:native=0"
        )

    def test_counters_are_empty_before_any_solve(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        assert backend.counters() == {}

    def test_counters_add_up_each_solves_stats(self, spec):
        backend = create_backend(spec)
        _load_simple(backend)
        calls = [backend.solve().stats, backend.solve([-3]).stats]
        backend.add_clause([-3])
        calls.append(backend.solve().stats)
        totals = backend.counters()
        assert "solve_time" in totals
        for name, total in totals.items():
            shares = [stats.as_dict()[name] for stats in calls]
            expected = max(shares) if name == "max_decision_level" else sum(shares)
            assert total == pytest.approx(expected), name


class TestDpllCores:
    def test_core_is_subset_minimal(self):
        backend = DpllBackend()
        backend.add_clause([-1, -2])
        result = backend.solve([1, 2, 3, 4])
        assert result.is_unsat
        assert sorted(backend.failed_assumptions()) == [1, 2]

    def test_empty_core_when_formula_unsat(self):
        backend = DpllBackend()
        backend.add_clause([1])
        backend.add_clause([-1])
        assert backend.solve([2]).is_unsat
        assert backend.failed_assumptions() == []

    def test_time_limit_returns_unknown_eventually(self):
        backend = DpllBackend()
        # A hard pigeonhole-ish instance would be overkill; a zero budget
        # trips the deadline on the first recursion instead.
        for v in range(1, 9):
            backend.add_clause([v, -(v % 8 + 1)])
        result = backend.solve(time_limit=-1.0)
        assert result.is_unknown


class TestExternalBackend:
    def test_stdout_convention_parses(self, monkeypatch):
        monkeypatch.setenv("STUB_SOLVER_STDOUT", "1")
        backend = ExternalDimacsBackend(STUB)
        backend.add_clause([1, 2])
        backend.add_clause([-1])
        result = backend.solve()
        assert result.is_sat and result.model[2] is True

    def test_output_file_convention_parses(self):
        backend = ExternalDimacsBackend(STUB)
        backend.add_clause([1])
        assert backend.solve().is_sat
        backend.add_clause([-1])
        assert backend.solve().is_unsat

    def test_trivial_core_is_full_assumption_list(self):
        backend = ExternalDimacsBackend(STUB)
        backend.add_clause([-1, -2])
        result = backend.solve([1, 2, 3])
        assert result.is_unsat
        assert backend.failed_assumptions() == [1, 2, 3]

    def test_missing_binary_raises(self):
        backend = ExternalDimacsBackend("/nonexistent/solver-binary")
        backend.add_clause([1])
        with pytest.raises(SolverError, match="cannot run external SAT solver"):
            backend.solve()

    def test_empty_command_rejected(self):
        with pytest.raises(SolverError, match="needs a solver command"):
            ExternalDimacsBackend("   ")


# ---------------------------------------------------------------------------
# hypothesis: CDCL failed-assumption cores are sound, cross-checked vs DPLL
# ---------------------------------------------------------------------------
MAX_VARIABLES = 8


@st.composite
def cnf_with_assumptions(draw):
    num_variables = draw(st.integers(min_value=1, max_value=MAX_VARIABLES))
    num_clauses = draw(st.integers(min_value=0, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clauses.append(
            [
                draw(st.integers(min_value=1, max_value=num_variables))
                * draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
        )
    num_assumptions = draw(st.integers(min_value=1, max_value=num_variables))
    assumptions = [
        draw(st.integers(min_value=1, max_value=num_variables))
        * draw(st.sampled_from([1, -1]))
        for _ in range(num_assumptions)
    ]
    return clauses, assumptions


@given(cnf_with_assumptions())
@settings(max_examples=200, deadline=None)
def test_cdcl_core_is_sound_and_subset(case):
    """The CDCL core is a subset of the assumptions and F + core is UNSAT.

    Verdicts are cross-checked against the DPLL oracle, and the core's
    refutation is *independently verified* by solving the formula with
    only the core literals as assumptions on a fresh DPLL solver.
    """
    clauses, assumptions = case
    cdcl = CdclSolver()
    dpll = DpllSolver()
    for clause in clauses:
        cdcl.add_clause(clause)
        dpll.add_clause(clause)
    cdcl_result = cdcl.solve(assumptions)
    dpll_result = dpll.solve(assumptions)
    assert cdcl_result.status == dpll_result.status
    if not cdcl_result.is_unsat:
        return
    core = cdcl.failed_assumptions()
    assert set(core) <= set(assumptions)
    # Soundness: the formula plus the core alone must still be UNSAT.
    oracle = DpllSolver()
    for clause in clauses:
        oracle.add_clause(clause)
    assert oracle.solve(core).status is Status.UNSATISFIABLE


@given(cnf_with_assumptions())
@settings(max_examples=100, deadline=None)
def test_dpll_backend_core_is_sound_and_subset(case):
    clauses, assumptions = case
    backend = DpllBackend()
    for clause in clauses:
        backend.add_clause(clause)
    if not backend.solve(assumptions).is_unsat:
        return
    core = backend.failed_assumptions()
    assert set(core) <= set(assumptions)
    oracle = DpllSolver()
    for clause in clauses:
        oracle.add_clause(clause)
    assert oracle.solve(core).status is Status.UNSATISFIABLE


class TestCoreProbeBudget:
    def test_dpll_core_probes_carry_a_deadline(self, monkeypatch):
        backend = DpllBackend()
        backend.add_clause([-1, -2])
        assert backend.solve([1, 2, 3]).is_unsat
        probes: list[float] = []
        original = backend._solver.solve

        def spy(assumptions=(), *, time_limit=None):
            probes.append(time_limit)
            return original(assumptions, time_limit=time_limit)

        monkeypatch.setattr(backend._solver, "solve", spy)
        assert sorted(backend.failed_assumptions()) == [1, 2]
        assert probes, "minimisation ran no probes"
        assert all(limit is not None and limit > 0 for limit in probes)

    def test_exhausted_probe_budget_returns_sound_superset(self, monkeypatch):
        backend = DpllBackend()
        backend.add_clause([-1, -2])
        assert backend.solve([1, 2, 3]).is_unsat
        # Pretend the original solve took forever ago: a zero budget means
        # no probes run and the unminimised (still sound) core comes back.
        monkeypatch.setattr(
            "repro.sat.backend.time.monotonic",
            lambda _clock=iter([0.0] + [10.0] * 100): next(_clock),
        )
        backend._last_seconds = 0.0
        core = backend.failed_assumptions()
        assert core == [1, 2, 3]


class TestExternalTimeoutCounters:
    def test_counters_are_fresh_after_a_timed_out_solve(self):
        backend = ExternalDimacsBackend(STUB)
        backend.add_clause([1])
        assert backend.solve().is_sat
        slow = ExternalDimacsBackend(
            f"{sys.executable} -c \"import time; time.sleep(30)\""
        )
        slow._clauses = backend._clauses
        slow._num_vars = backend._num_vars
        first = backend.counters()["solve_time"]
        assert first > 0
        result = slow.solve(time_limit=0.3)
        assert result.is_unknown
        reported = slow.counters()["solve_time"]
        assert 0 < reported < 5, "timed-out solve must report its own duration"
        with pytest.raises(SolverError, match="UNSAT"):
            slow.failed_assumptions()

    def test_probe_budget_clamped_to_solve_time_limit(self, monkeypatch):
        backend = DpllBackend()
        backend.add_clause([-1, -2])
        assert backend.solve([1, 2, 3], time_limit=0.05).is_unsat
        probes: list[float] = []
        original = backend._solver.solve

        def spy(assumptions=(), *, time_limit=None):
            probes.append(time_limit)
            return original(assumptions, time_limit=time_limit)

        monkeypatch.setattr(backend._solver, "solve", spy)
        core = backend.failed_assumptions()
        assert set(core) <= {1, 2, 3}
        # Every probe stays inside the original call's 0.05 s budget — a
        # caller's tight time limit is never blown by minimisation.
        assert all(limit is not None and limit <= 0.05 for limit in probes)
