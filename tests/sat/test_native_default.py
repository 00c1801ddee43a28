"""The native core as the default engine: resolution, fallback, building.

Bare ``cdcl`` runs the C core whenever it loads and the Python engine
otherwise, and every reporting surface names the engine that ran.  The
fallback tests monkeypatch the loader to fail, so they run on every
host; the rest need the core and skip with the loader's reason without
it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import multiprocessing

import pytest

from repro.errors import SolverError
from repro.sat import native
from repro.sat.backend import (
    CdclSpec,
    backend_fallback_reason,
    backend_unavailable_reason,
    create_backend,
    describe_backends,
    resolve_backend,
)
from repro.sat.instances import pigeonhole
from repro.sat.solver import CdclSolver

NATIVE_REASON = native.native_unavailable_reason()

needs_native = pytest.mark.skipif(
    NATIVE_REASON is not None,
    reason=f"native core unavailable: {NATIVE_REASON}",
)

SIMULATED = "simulated: no C compiler on this host"


@pytest.fixture
def no_native(monkeypatch):
    """The loader fails as it does on a host without a C compiler."""
    monkeypatch.setattr(native, "_ensure_loaded", lambda: (None, SIMULATED))


class TestSpecRules:
    @needs_native
    def test_bare_cdcl_resolves_to_the_native_core(self):
        assert resolve_backend("cdcl") == "cdcl:native=1"
        assert backend_fallback_reason("cdcl") is None
        assert isinstance(create_backend("cdcl"), native.NativeCdclSolver)

    def test_profile_selects_the_python_engine(self):
        spec = "cdcl:profile=1"
        assert resolve_backend(spec).endswith("native=0")
        assert isinstance(create_backend(spec), CdclSolver)
        assert backend_fallback_reason(spec) is None

    def test_profile_with_native_1_is_rejected(self):
        with pytest.raises(SolverError, match="does not honour"):
            CdclSpec.parse("native=1,profile=1")
        with pytest.raises(SolverError, match="invalid SAT backend spec.*does not honour"):
            backend_unavailable_reason("cdcl:profile=1,native=1")

    def test_direct_construction_is_checked_too(self):
        with pytest.raises(SolverError, match="does not honour profile"):
            CdclSpec(native=True, profile=True)

    def test_direct_construction_follows_the_parse_rules(self):
        spec = CdclSpec(profile=True)
        assert spec.native is False and spec.resolved().native is False
        assert isinstance(spec.build(), CdclSolver)
        assert spec == CdclSpec.parse("profile=1")
        assert CdclSpec.parse(spec.render().partition(":")[2]) == spec

    def test_resolution_is_idempotent_and_leaves_other_backends_alone(self):
        for spec in ("cdcl", "cdcl:native=0", "cdcl:profile=1", "cdcl:native=1"):
            once = resolve_backend(spec)
            assert resolve_backend(once) == once
        assert resolve_backend("dpll") == "dpll"
        assert resolve_backend("chaos:3,flaky=1") == "chaos:3,flaky=1"


#: Lifetime (conflicts, decisions, propagations) of each engine on
#: pigeonhole instances, recorded at 482ba9d, when ``seed``,
#: ``restart_base``, ``var_decay``, ``clause_decay``, ``reduce_min_learned``,
#: ``learned_limit_base`` and ``glue_max`` were spec keys left at their
#: defaults.  Both instances restart; 8/7 also reduces its learned clauses.
CONSTANT_SEARCHES = [
    pytest.param("cdcl:native=1", 7, (827, 1038, 10933), marks=needs_native,
                 id="native-7-6"),
    pytest.param("cdcl:native=1", 8, (5044, 6126, 70277), marks=needs_native,
                 id="native-8-7"),
    pytest.param("cdcl:native=0", 7, (827, 995, 10825), id="python-7-6"),
    pytest.param("cdcl:native=0", 8, (4721, 5639, 62383), id="python-8-7"),
]


@pytest.mark.parametrize(("spec", "pigeons", "counts"), CONSTANT_SEARCHES)
def test_the_constant_search_parameters_take_the_former_default_search(
    spec, pigeons, counts
):
    engine = create_backend(spec)
    engine.add_cnf(pigeonhole(pigeons, pigeons - 1))
    assert engine.solve().is_unsat
    totals = engine.counters()
    assert (totals["conflicts"], totals["decisions"], totals["propagations"]) == counts
    assert totals["restarts"] > 0
    assert (totals["deleted_clauses"] > 0) == (pigeons == 8)


class TestFallback:
    def test_bare_cdcl_falls_back_with_the_reason(self, no_native):
        assert resolve_backend("cdcl") == "cdcl:native=0"
        assert SIMULATED in backend_fallback_reason("cdcl")
        assert isinstance(create_backend("cdcl"), CdclSolver)
        # An explicit engine choice is not a fallback.
        assert backend_fallback_reason("cdcl:native=0") is None
        assert backend_fallback_reason("cdcl:profile=1") is None

    def test_native_1_still_refuses(self, no_native):
        from repro.pebbling.solver import ReversiblePebblingSolver
        from repro.workloads import load_workload

        assert SIMULATED in backend_unavailable_reason("cdcl:native=1")
        with pytest.raises(SolverError, match=SIMULATED):
            create_backend("cdcl:native=1")
        with pytest.raises(SolverError, match="not usable on this host"):
            ReversiblePebblingSolver(load_workload("fig2"), backend="cdcl:native=1")

    def test_results_record_the_python_engine(self, no_native):
        from repro.pebbling.solver import ReversiblePebblingSolver
        from repro.workloads import load_workload

        result = ReversiblePebblingSolver(load_workload("fig2")).solve(4)
        assert result.backend == "cdcl:native=0"
        assert result.num_steps == 6
        # The Python engine's own counters come back with it, summed over
        # the search's calls.
        assert "blocker_hits" in result.counters
        assert result.counters["conflicts"] == sum(a.conflicts for a in result.attempts)

    def test_backends_table_names_engine_and_reason(self, no_native, capsys):
        from repro.cli import main

        row = {row["name"]: row for row in describe_backends()}["cdcl"]
        assert row["available"] is True
        assert row["resolves_to"] == "cdcl:native=0"
        assert SIMULATED in row["fallback"]
        assert main(["backends"]) == 0
        line = next(
            text for text in capsys.readouterr().out.splitlines()
            if text.startswith("cdcl ")
        )
        assert "-> cdcl:native=0" in line and SIMULATED in line
        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["backends"]
        assert SIMULATED in {r["name"]: r for r in rows}["cdcl"]["fallback"]

    def test_stats_line_names_engine_and_reason(self, no_native, capsys):
        from repro.cli import main

        assert main(["pebble", "fig2", "--pebbles", "4", "--stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"engine: cdcl:native=0 (fallback: native core unavailable: {SIMULATED})" in lines

    def test_service_health_names_engine_and_reason(self, no_native):
        from repro.service.scheduler import JobRequest, PebblingService

        async def scenario():
            async with PebblingService() as service:
                result = await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4)
                )
                return result, service.health()

        result, health = asyncio.run(scenario())
        assert result.payload["backend"] == "cdcl:native=0"
        assert health["engine"]["default"] == "cdcl"
        assert health["engine"]["resolves_to"] == "cdcl:native=0"
        assert SIMULATED in health["engine"]["fallback"]


@needs_native
class TestReportedEngine:
    def test_stats_line_names_the_native_engine(self, capsys):
        from repro.cli import main

        assert main(["pebble", "fig2", "--pebbles", "4", "--stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "engine: cdcl:native=1" in lines
        stats = next(line for line in lines if line.startswith("stats: "))
        assert "conflicts=" in stats and "blocker_hits=" not in stats

    def test_service_health_and_answers_name_the_native_engine(self):
        from repro.service.scheduler import JobRequest, PebblingService

        async def scenario():
            async with PebblingService() as service:
                result = await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4)
                )
                return result, service.health()

        result, health = asyncio.run(scenario())
        assert result.payload["backend"] == "cdcl:native=1"
        assert health["engine"] == {
            "default": "cdcl", "resolves_to": "cdcl:native=1", "fallback": None,
        }

    def test_compile_reports_name_the_native_engine(self):
        from repro.circuits.pipeline import compile_workload

        report = compile_workload("fig2", pebbles=4)
        assert report.backend == "cdcl:native=1"


@needs_native
class TestPerCallCounters:
    def test_two_solves_report_shares_that_sum_to_the_totals(self):
        engine = create_backend("cdcl:native=1", conflict_limit=200)
        engine.add_cnf(pigeonhole(8, 7))
        assert engine.counters() == {}
        first = engine.solve()
        after_first = engine.counters()
        second = engine.solve()
        after_second = engine.counters()
        assert first.is_unknown  # the budget cut it
        assert first.stats.conflicts == after_first["conflicts"] == 200
        for name in ("decisions", "propagations", "conflicts", "restarts",
                     "learned_clauses", "deleted_clauses"):
            shares = getattr(first.stats, name) + getattr(second.stats, name)
            assert shares == after_second[name]
            assert getattr(first.stats, name) == after_first[name]
        assert after_second["solve_time"] == pytest.approx(
            first.stats.solve_time + second.stats.solve_time
        )
        assert after_second["max_decision_level"] == max(
            first.stats.max_decision_level, second.stats.max_decision_level
        )

    def test_pebbling_attempts_sum_to_the_live_solver_total(self, monkeypatch):
        from repro.pebbling.solver import ReversiblePebblingSolver
        from repro.workloads import load_workload

        made = []
        original = ReversiblePebblingSolver._make_solver

        def keep(self, cnf=None):
            made.append(original(self, cnf))
            return made[-1]

        monkeypatch.setattr(ReversiblePebblingSolver, "_make_solver", keep)
        # An all-UNSAT sweep that stays long under the completeness
        # threshold: 216 SAT calls.
        result = ReversiblePebblingSolver(load_workload("hadamard")).solve(5)
        (solver,) = made
        attempts = [record.conflicts for record in result.attempts]
        assert len(attempts) > 100
        assert sum(attempts) == solver.counters()["conflicts"]
        assert result.counters == solver.counters()


def _build_into(directory: str) -> tuple[str | None, str | None]:
    path, reason = native.build_library(build_dir=directory)
    if path is None:
        return None, reason
    _, reason = native.load_library(path)
    return str(path), reason


class TestBuild:
    @needs_native
    def test_concurrent_first_builds_all_load(self, tmp_path):
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(4, mp_context=spawn) as pool:
            outcomes = list(pool.map(_build_into, [str(tmp_path)] * 4, timeout=300))
        assert [reason for _, reason in outcomes] == [None] * 4
        assert len({path for path, _ in outcomes}) == 1
        assert [entry.name for entry in tmp_path.iterdir()] == [
            outcomes[0][0].rsplit("/", 1)[-1]
        ]

    @needs_native
    def test_instrumented_builds_get_their_own_name(self, tmp_path):
        plain, _ = native.build_library(build_dir=tmp_path)
        instrumented, _ = native.build_library(build_dir=tmp_path, flags=("-O1",))
        assert plain is not None and instrumented is not None
        assert plain != instrumented

    @needs_native
    def test_compile_failure_is_a_reason(self, tmp_path):
        path, reason = native.build_library(
            build_dir=tmp_path, flags=("-fno-such-flag-anywhere",)
        )
        assert path is None and reason.startswith("compile failed")
        assert not list(tmp_path.iterdir())  # the staging file is gone

    @needs_native
    def test_rename_failure_is_a_reason(self, tmp_path, monkeypatch):
        def refuse(self, target):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(native.Path, "replace", refuse)
        path, reason = native.build_library(build_dir=tmp_path)
        assert path is None and "simulated rename failure" in reason
        assert not list(tmp_path.iterdir())

    def test_missing_compiler_is_a_reason(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        path, reason = native.build_library(build_dir=tmp_path)
        assert path is None and reason.startswith("no C compiler found")
