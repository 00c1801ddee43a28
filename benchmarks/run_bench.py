"""Tracked benchmark harness: current CDCL engine vs the frozen seed engine.

Runs a fixed instance set — the paper's Fig. 3/4 example DAG, SLP-derived
sweeps, ISCAS/bench-style circuits from :mod:`repro.logic`, and a pair of
pure-CNF stress instances — once with the frozen pre-overhaul engine
(:mod:`benchmarks.legacy_solver`, registered as the ``legacy`` backend
while the engine scenario runs) and once with the current Python engine
(``cdcl:native=0``), through the *same* pebbling search loop.  It checks
that SAT/UNSAT verdicts and pebbling step counts are identical on every
instance and reports per-instance plus geometric-mean wall-clock
speedups.

Results are written to ``BENCH_<n>.json`` in the repository root (the next
free ``n``), so every future PR has a perf trajectory to compare against;
see EXPERIMENTS.md for the file format.

Usage::

    python benchmarks/run_bench.py             # full set, writes BENCH_<n>.json
    python benchmarks/run_bench.py --quick     # CI smoke subset, no file
    python benchmarks/run_bench.py --smoke     # alias for --quick (CI)
    python benchmarks/run_bench.py --quick --write
    python benchmarks/run_bench.py --repeat 3  # best-of-3 timing per engine

Since schema v2 the report also times the ``pebble-batch`` workload suite
at several ``--jobs`` widths (the portfolio scenario) and requires the
results to be identical at every width.

Since schema v3 the report additionally tracks the end-to-end compile
pipeline (SAT pebbling → circuit → Barenco lowering → simulation-based
verification → costs) on a fixed case set; every network-backed case must
verify, so the scenario guards compiler correctness as well as throughput.

Since schema v4 the report tracks the content-addressed result store
(:mod:`repro.store`): per fixed case it times the *same* geometric-refine
search cold (no store), warm (store seeded with the neighbouring budgets,
as a budget sweep would leave it) and as an exact cache hit, and requires
the warm search to issue strictly fewer SAT calls than the cold one with
identical steps.

Since schema v5 the report additionally tracks the pluggable backend layer
(:mod:`repro.sat.backend`): a backend-comparison scenario solves the small
instances on the Python CDCL engine, the DPLL oracle and the checked-in
external DIMACS stub and requires identical verdicts and step counts everywhere,
and a core-guided scenario compares plain ``geometric-refine`` against its
``core_guided`` variant — same certified minimum, never more SAT calls,
strictly fewer on at least one case.

Since schema v6 the report tracks the fault-tolerant execution layer: a
chaos scenario re-runs the batch suite with the deterministic ``chaos``
fault-injection backend (a flaky first solve on every task, plus seeded
random crashes and slowdowns) under a :class:`RetryPolicy` and requires
verdict/step parity with the fault-free baseline, at least one retry
spent, and bounded wall-clock overhead; a spurious-timeout case must
still certify its minima through retries; and a deadline-preempted
service request must come back ``ok`` with a non-empty anytime partial
instead of an error.

Since schema v7 the report adds a ``profile`` scenario: every instance is
re-run on the current engine with per-phase timers enabled and the report
records the propagate/analyze/reduce wall-clock split,
conflicts/sec and the LBD counters per instance — the
before/after of every solver-layout change lands in the trajectory, not
in prose.  Scenarios are individually selectable via ``--scenario``
(see ``--list-scenarios``), and the harness gates the trajectory: a
geometric-mean speedup more than 10% below the previous ``BENCH_<n>.json``
fails the run.

Since schema v8 full (non-``--quick``) runs default to ``--repeat 3``.

Since schema v9 the report adds an ``obs`` scenario guarding the
observability layer (:mod:`repro.obs`): the batch suite is solved with
tracing+metrics off and on and the per-task geometric-mean overhead must
stay under 5%, and a traced portfolio run on the flaky chaos backend
(forced retries) through a two-worker pool must merge into a *complete*
span tree — every span's parent resolvable and every ``sat.call`` span
carrying its bound and verdict.

Schema v11 drops the ``cubes`` scenario (added in v8) and the ``obs``
scenario's cube trace, because cube-and-conquer was retired: it lost to
the sequential search on wall-clock time in every pair of its last
measurement (EXPERIMENTS.md, "Cube-and-conquer retired").

Schema v12 drops the ``simplify`` scenario (added in v10) and the
profile scenario's ``inprocess``/``bve``/``vivify`` phases, because the
Python engine no longer has inprocessing, variable elimination,
vivification or chronological backtracking: every ablation measured at
noise (EXPERIMENTS.md, "The Python engine as a deterministic reference").

Within schema v12 the ``chaos`` scenario no longer reports
``pool_rebuilds``: its runs are inline, so no pool can break, and
``PortfolioHealth``, which carried the count, is gone.  Its
``retry_attempts`` and ``retried_tasks`` are now summed from the chaos
records (EXPERIMENTS.md, "The service without a pool").
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import re
import shlex
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from legacy_solver import LegacyCdclSolver  # noqa: E402

from repro.circuits.pipeline import compile_workload  # noqa: E402
from repro.errors import SolverError  # noqa: E402
from repro.obs.metrics import merge_counters  # noqa: E402
from repro.pebbling.encoding import EncodingOptions  # noqa: E402
from repro.pebbling.portfolio import (  # noqa: E402
    RetryPolicy,
    run_portfolio,
    tasks_from_suite,
)
from repro.pebbling.solver import ReversiblePebblingSolver  # noqa: E402
from repro.sat.backend import create_backend, register_backend  # noqa: E402
from repro.sat.cnf import Cnf  # noqa: E402
from repro.sat.instances import pigeonhole, random_3sat  # noqa: E402
from repro.pebbling.search import GeometricRefine  # noqa: E402
from repro.store import ResultStore  # noqa: E402
from repro.workloads import load_workload  # noqa: E402

SCHEMA_VERSION = 12

#: A full run fails when the geometric-mean speedup drops more than this
#: fraction below the previous tracked ``BENCH_<n>.json``.
TRAJECTORY_REGRESSION_THRESHOLD = 0.10

#: The checked-in DIMACS stub driven by the external backend scenario
#: (quoted: the spec is shlex-split by the backend, and checkout or
#: interpreter paths may contain spaces).
STUB_BACKEND_SPEC = (
    f"external:{shlex.quote(sys.executable)} "
    f"{shlex.quote(str(ROOT / 'tests' / 'external_stub_solver.py'))}"
)


# ---------------------------------------------------------------------------
# instance definitions
# ---------------------------------------------------------------------------
#: The engines the engine scenario compares, by backend spec.
LEGACY_BACKEND = "legacy"
CURRENT_BACKEND = "cdcl:native=0"


class LegacyBackend(LegacyCdclSolver):
    """The frozen engine plus the two backend calls it predates.

    Its core is the whole assumption set of the last call (sound, never
    faster than a real core); its counters add up every call's stats.
    """

    name = LEGACY_BACKEND

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self._totals: dict[str, float] = {}

    def solve(self, assumptions=(), **limits):
        self._assumptions = list(assumptions)
        result = super().solve(assumptions, **limits)
        merge_counters(self._totals, result.stats.as_dict())
        return result

    def failed_assumptions(self) -> list[int]:
        return list(self._assumptions)

    def counters(self) -> dict[str, float]:
        return dict(self._totals)


def register_legacy_backend() -> None:
    """Make the frozen engine a registry backend, named like any other."""

    def make(argument: str | None, conflict_limit: int | None) -> LegacyBackend:
        if argument is not None:
            raise SolverError(f"the legacy backend takes no argument, got {argument!r}")
        return LegacyBackend(conflict_limit=conflict_limit)

    register_backend(
        LEGACY_BACKEND,
        make,
        description="frozen pre-overhaul CDCL engine (bench baseline)",
    )


@dataclass
class Instance:
    """One benchmark instance: a callable exercised under both engines.

    ``run(spec, counters)`` solves the instance on the backend ``spec``
    and, given a ``counters`` dict, adds the engines' counters to it.
    """

    name: str
    kind: str  # "pebbling" or "cnf"
    quick: bool  # part of the --quick smoke subset
    run: Callable[..., dict[str, object]] = field(repr=False, default=None)  # type: ignore[assignment]


def _cnf_instance(build: Callable[[], Cnf]) -> Callable[..., dict[str, object]]:
    def run(spec: str, counters: dict | None = None) -> dict[str, object]:
        cnf = build()
        started = time.perf_counter()
        backend = create_backend(spec)
        backend.add_cnf(cnf)
        result = backend.solve()
        elapsed = time.perf_counter() - started
        if counters is not None:
            merge_counters(counters, backend.counters())
        return {
            "seconds": elapsed,
            "verdict": result.status.value,
            "steps": None,
            "conflicts": result.stats.conflicts,
            "propagations": result.stats.propagations,
        }

    return run


def _pebbling_instance(
    workload: str,
    pebbles: int,
    *,
    scale: float = 1.0,
    single_move: bool = False,
    time_limit: float = 120.0,
    schedule: str = "linear",
) -> Callable[..., dict[str, object]]:
    def run(spec: str, counters: dict | None = None) -> dict[str, object]:
        dag = load_workload(workload, scale=scale)
        options = EncodingOptions(max_moves_per_step=1 if single_move else None)
        solver = ReversiblePebblingSolver(dag, options=options, backend=spec)
        started = time.perf_counter()
        result = solver.solve(pebbles, time_limit=time_limit, strategy=schedule)
        elapsed = time.perf_counter() - started
        if counters is not None:
            merge_counters(counters, result.counters)
        return {
            "seconds": elapsed,
            "verdict": result.outcome.value,
            "steps": result.num_steps,
            "conflicts": sum(record.conflicts for record in result.attempts),
            "sat_calls": len(result.attempts),
        }

    return run


def instance_set() -> list[Instance]:
    """The fixed benchmark instance set (see EXPERIMENTS.md)."""
    return [
        # Paper Fig. 3: the example DAG pebbled with 4 pebbles (SAT).
        Instance("fig2_p4", "pebbling", True,
                 _pebbling_instance("fig2", 4)),
        # Infeasible budget: a long incremental all-UNSAT sweep.
        Instance("fig2_p3_unsat_sweep", "pebbling", True,
                 _pebbling_instance("fig2", 3)),
        # Paper Fig. 4: single-move semantics on the example DAG.
        Instance("fig2_p4_single_move", "pebbling", False,
                 _pebbling_instance("fig2", 4, single_move=True)),
        # Fig. 6(a) AND-tree oracle, infeasible budget sweep.
        Instance("and9_p4_unsat_sweep", "pebbling", False,
                 _pebbling_instance("and9", 4)),
        # Fig. 6(a) AND-tree oracle with a feasible budget.
        Instance("and9_p5", "pebbling", False,
                 _pebbling_instance("and9", 5)),
        # Fig. 6(a) oracle under single-move (Fig. 4) semantics.
        Instance("and9_p4_single_move", "pebbling", False,
                 _pebbling_instance("and9", 4, single_move=True)),
        # SLP sweep: the Hadamard-operator straight-line program.
        Instance("hadamard_slp_p5", "pebbling", False,
                 _pebbling_instance("hadamard", 5)),
        # ISCAS/bench circuit (c17 profile from repro.logic).
        Instance("c17_p4", "pebbling", True,
                 _pebbling_instance("c17", 4)),
        Instance("c17_p3_unsat_sweep", "pebbling", False,
                 _pebbling_instance("c17", 3)),
        # Pure CNF: pigeonhole instances (conflict-analysis heavy, UNSAT).
        Instance("php_7_6", "cnf", True,
                 _cnf_instance(lambda: pigeonhole(7, 6))),
        Instance("php_8_7", "cnf", False,
                 _cnf_instance(lambda: pigeonhole(8, 7))),
        # Pure CNF: fixed-seed random 3-SAT near the phase transition.
        # Only UNSAT instances are tracked: on satisfiable random formulas
        # the time to *stumble onto* a model is a trajectory lottery that
        # says nothing about engine speed.
        Instance("rand3sat_v120_unsat", "cnf", False,
                 _cnf_instance(lambda: random_3sat(120, 552, seed=7))),
        Instance("rand3sat_v130_unsat", "cnf", False,
                 _cnf_instance(lambda: random_3sat(130, 598, seed=13))),
    ]


# ---------------------------------------------------------------------------
# portfolio scenario: the batch suite, jobs-wide
# ---------------------------------------------------------------------------
def run_portfolio_bench(
    *, quick: bool = False, jobs_list: Sequence[int] = (1, 4)
) -> dict[str, object]:
    """Time the batch suite at several ``--jobs`` widths (current engine only).

    Runs the ``pebble-batch`` workload suite once per entry of
    ``jobs_list`` and checks that verdicts and step counts are identical at
    every width — the parallel sweep must be a pure wall-clock
    transformation.  ``speedup`` is wall-clock of ``jobs_list[0]`` over the
    widest run.  Since the portfolio's single-core inline fallback, a host
    with one usable core (see ``usable_cores``) runs every width in
    process and the speedup sits at ~1.0 by construction — the x0.87
    pool-overhead regression BENCH_2 recorded on this host class is gone;
    on multi-core hosts the sweep still fans out and tracks the core
    count.
    """
    from repro.pebbling.portfolio import _usable_cores

    suite = "smoke" if quick else "default"
    tasks = tasks_from_suite(suite, time_limit=60.0)
    runs: dict[str, object] = {}
    reference: list[tuple[str, str, object]] | None = None
    results_match = True
    for jobs in jobs_list:
        started = time.perf_counter()
        records = run_portfolio(tasks, jobs=jobs)
        elapsed = time.perf_counter() - started
        rows = [(record.name, record.outcome, record.steps) for record in records]
        if any(record.outcome == "error" for record in records):
            # A crashed worker is a harness failure even when it crashes
            # identically at every width — never report a vacuous match.
            results_match = False
        if reference is None:
            reference = rows
        elif rows != reference:
            results_match = False
        runs[str(jobs)] = {
            "seconds": round(elapsed, 3),
            "solved": sum(1 for record in records if record.found),
        }
        print(f"portfolio suite={suite:8s} jobs={jobs}  {elapsed:8.3f}s  "
              f"{'ok' if results_match else 'RESULT MISMATCH'}")
    first = runs[str(jobs_list[0])]["seconds"]
    widest = runs[str(jobs_list[-1])]["seconds"]
    speedup = first / max(widest, 1e-9)
    assert reference is not None
    return {
        "suite": suite,
        "cpu_count": os.cpu_count(),
        "usable_cores": _usable_cores(),
        "tasks": [
            {"name": name, "verdict": outcome, "steps": steps}
            for name, outcome, steps in reference
        ],
        "jobs": runs,
        "speedup": round(speedup, 3),
        "results_match": results_match,
    }


# ---------------------------------------------------------------------------
# compile scenario: the end-to-end pipeline (current engine only)
# ---------------------------------------------------------------------------
#: (workload, budget, weighted, decompose, quick) pipeline cases.  All the
#: network-backed ones must verify by simulation; ``hadamard`` exercises the
#: structural (word-level SLP) path which has nothing to verify against.
COMPILE_CASES: list[tuple[str, int, bool, bool, bool]] = [
    ("fig2", 4, False, False, True),
    ("fig2", 4, False, True, True),
    ("fig2", 4, True, True, False),
    ("c17", 4, False, True, True),
    ("and9", 5, False, True, False),
    ("hadamard", 8, False, False, False),
]


def run_compile_bench(*, quick: bool = False) -> dict[str, object]:
    """Time the compile pipeline on the fixed case set.

    Each case runs the whole chain — SAT pebbling, circuit compilation,
    optional Barenco lowering, simulation-based verification and costing —
    under the current engine.  ``all_verified`` is ``False`` when any case
    fails to find a strategy or any network-backed case fails verification,
    so the scenario doubles as an end-to-end correctness gate.
    """
    rows: list[dict[str, object]] = []
    all_verified = True
    for workload, budget, weighted, decompose, is_quick in COMPILE_CASES:
        if quick and not is_quick:
            continue
        name = f"{workload}_p{budget}" + ("_w" if weighted else "") + (
            "_mct" if decompose else ""
        )
        started = time.perf_counter()
        report = compile_workload(
            workload,
            pebbles=budget,
            weighted=weighted,
            decompose=decompose,
            time_limit=60.0,
        )
        elapsed = time.perf_counter() - started
        ok = report.found and report.verified is not False
        all_verified = all_verified and ok
        rows.append(
            {
                "name": name,
                "seconds": round(elapsed, 3),
                "outcome": report.outcome,
                "steps": report.steps,
                "qubits": report.qubits,
                "gates": report.gates,
                "t_count": report.t_count,
                "verified": report.verified,
                "sat_calls": report.sat_calls,
            }
        )
        verdict = "ok" if ok else "FAILED"
        print(f"compile {name:16s} {elapsed:8.3f}s  "
              f"gates={report.gates!s:>4s} t={report.t_count!s:>5s}  {verdict}")
    return {"cases": rows, "all_verified": all_verified}


# ---------------------------------------------------------------------------
# cache scenario: cold vs warm-started vs cache-hit searches (schema v4)
# ---------------------------------------------------------------------------
#: (workload, low budget, mid budget, high budget, quick) cache cases.  All
#: three budgets must be feasible; the store is seeded with the low/high
#: solves (the state a budget sweep leaves behind) and the mid solve is
#: measured cold, warm and as an exact hit.
CACHE_CASES: list[tuple[str, int, int, int, bool]] = [
    ("fig2", 4, 5, 6, True),
    ("c17", 5, 6, 7, True),
    ("and9", 6, 7, 8, False),
    ("hadamard", 5, 6, 7, False),
]


def run_cache_bench(*, quick: bool = False) -> dict[str, object]:
    """Measure what the result store buys on geometric-refine searches.

    Per case, the mid budget is solved three ways:

    * **cold** — no store: the baseline SAT-call count;
    * **warm** — against a store seeded with the neighbouring budgets:
      the certified floor from the tighter budget and the achievable
      ceiling from the looser one must *strictly* reduce the SAT calls;
    * **hit** — repeated verbatim: answered from the store without a
      solver, byte-identical (JSON-compared) to the stored warm result.

    ``cache_ok`` requires identical step counts everywhere, strictly fewer
    warm SAT calls on every case, and byte-identical hits.
    """
    rows: list[dict[str, object]] = []
    cache_ok = True
    for workload, low, mid, high, is_quick in CACHE_CASES:
        if quick and not is_quick:
            continue
        dag = load_workload(workload)

        def _solve(budget: int, store: ResultStore | None):
            solver = ReversiblePebblingSolver(dag)
            started = time.perf_counter()
            result = solver.solve(
                budget, strategy="geometric-refine", time_limit=120.0, store=store
            )
            return result, time.perf_counter() - started

        cold, cold_seconds = _solve(mid, None)
        with ResultStore(":memory:") as store:
            for budget in (low, high):
                _solve(budget, store)
            warm, warm_seconds = _solve(mid, store)
            hit, hit_seconds = _solve(mid, store)
            hit_identical = json.dumps(
                warm.to_json(), sort_keys=True
            ) == json.dumps(hit.to_json(), sort_keys=True)
            hit_served = store.session["hits"] >= 1
        ok = (
            cold.found
            and warm.found
            and cold.num_steps == warm.num_steps == hit.num_steps
            and len(warm.attempts) < len(cold.attempts)
            and hit_identical
            and hit_served
        )
        cache_ok = cache_ok and ok
        rows.append(
            {
                "workload": workload,
                "budgets": {"low": low, "mid": mid, "high": high},
                "steps": cold.num_steps,
                "cold": {"sat_calls": len(cold.attempts),
                         "seconds": round(cold_seconds, 3)},
                "warm": {"sat_calls": len(warm.attempts),
                         "seconds": round(warm_seconds, 3)},
                "hit": {"sat_calls": 0, "seconds": round(hit_seconds, 3),
                        "byte_identical": hit_identical},
                "ok": ok,
            }
        )
        print(f"cache {workload:10s} p{mid}  cold {len(cold.attempts)} calls "
              f"{cold_seconds:7.3f}s  warm {len(warm.attempts)} calls "
              f"{warm_seconds:7.3f}s  hit {hit_seconds:7.3f}s  "
              f"{'ok' if ok else 'FAILED'}")
    return {"cases": rows, "cache_ok": cache_ok}


# ---------------------------------------------------------------------------
# backend scenario: verdict/step parity across backends (schema v5)
# ---------------------------------------------------------------------------
#: (name, workload, budget, single_move, max_steps, dpll_max_steps, quick)
#: — every instance of the ``default`` batch suite, solved on every
#: applicable backend.  UNSAT sweeps carry a ``max_steps`` cap so the
#: subprocess-per-call external stub stays tractable (the cap applies to
#: every backend of the case, so verdicts remain comparable).
#: ``dpll_max_steps`` gates the exponential DPLL oracle: ``None`` skips it
#: (its exhaustive UNSAT proofs blow up beyond fig2-sized frames — a
#: 6-step fig2 frame already takes ~1 s, a 7-step one ~30 s), a number
#: tightens *its* sweep cap; capped sweeps still agree on the
#: (step-limit, None) verdict.
BACKEND_CASES: list[tuple[str, str, int, bool, "int | None", "int | None", bool]] = [
    ("fig2_p4", "fig2", 4, False, None, 6, True),
    ("fig2_p3", "fig2", 3, False, 12, 5, True),
    ("fig2_p4_sm", "fig2", 4, True, 12, None, False),
    ("and9_p5", "and9", 5, False, None, None, False),
    ("and9_p4", "and9", 4, False, 12, None, False),
    ("and9_p4_sm", "and9", 4, True, 12, None, False),
    ("hadamard_p5", "hadamard", 5, False, 12, None, False),
    ("c17_p4", "c17", 4, False, None, None, True),
    ("c17_p3", "c17", 3, False, 12, None, False),
]


def run_backend_bench(*, quick: bool = False) -> dict[str, object]:
    """Solve every default-suite instance on every applicable backend.

    ``verdicts_match`` requires byte-equal (outcome, steps) on every
    backend that ran a case; per-backend wall-clock is reported so the
    external-process overhead stays visible in the trajectory.
    """
    rows: list[dict[str, object]] = []
    verdicts_match = True
    for name, workload, budget, single_move, cap, dpll_cap, is_quick in BACKEND_CASES:
        if quick and not is_quick:
            continue
        dag = load_workload(workload)
        options = EncodingOptions(max_moves_per_step=1 if single_move else None)
        lanes: list[tuple[str, str, "int | None"]] = [
            ("cdcl", "cdcl:native=0", cap),
            ("external-stub", STUB_BACKEND_SPEC, cap),
        ]
        if dpll_cap is not None:
            lanes.insert(1, ("dpll", "dpll", min(cap, dpll_cap) if cap else dpll_cap))
        runs: dict[str, dict[str, object]] = {}
        reference: tuple[str, object] | None = None
        for label, spec, max_steps in lanes:
            solver = ReversiblePebblingSolver(dag, options=options, backend=spec)
            started = time.perf_counter()
            result = solver.solve(budget, time_limit=120.0, max_steps=max_steps)
            elapsed = time.perf_counter() - started
            verdict = (result.outcome.value, result.num_steps)
            if reference is None:
                reference = verdict
            elif verdict != reference:
                verdicts_match = False
            runs[label] = {
                "verdict": result.outcome.value,
                "steps": result.num_steps,
                "seconds": round(elapsed, 3),
                "sat_calls": len(result.attempts),
            }
        assert reference is not None
        ok = all(
            (run["verdict"], run["steps"]) == reference for run in runs.values()
        )
        rows.append({"name": name, "runs": runs, "ok": ok})
        summary = "  ".join(
            f"{label}={run['verdict']}/{run['steps']} {run['seconds']:.3f}s"
            for label, run in runs.items()
        )
        print(f"backend {name:12s} {summary}  {'ok' if ok else 'MISMATCH'}")
    return {"cases": rows, "verdicts_match": verdicts_match}


# ---------------------------------------------------------------------------
# core-guided scenario: plain vs core-guided GeometricRefine (schema v5)
# ---------------------------------------------------------------------------
#: (workload, budget, quick) cases for the core-guided comparison; all are
#: feasible budgets, so both searches certify a minimum.
CORE_GUIDED_CASES: list[tuple[str, int, bool]] = [
    ("fig2", 4, True),
    ("c17", 4, True),
    ("c17", 5, False),
    ("and9", 5, False),
    ("and9", 6, False),
]


def run_core_guided_bench(*, quick: bool = False) -> dict[str, object]:
    """Compare plain ``geometric-refine`` against the core-guided variant.

    ``core_ok`` requires, per case, the same certified minimal step count
    with *at most* the plain variant's SAT calls; across the whole
    scenario at least one case must save calls strictly (the ladder cores
    earn their keep, they do not just break even).
    """
    rows: list[dict[str, object]] = []
    core_ok = True
    strictly_fewer = 0
    for workload, budget, is_quick in CORE_GUIDED_CASES:
        if quick and not is_quick:
            continue
        dag = load_workload(workload)

        def _timed(strategy):
            solver = ReversiblePebblingSolver(dag)
            started = time.perf_counter()
            result = solver.solve(budget, strategy=strategy, time_limit=120.0)
            return result, time.perf_counter() - started

        plain, plain_seconds = _timed(GeometricRefine())
        core, core_seconds = _timed(GeometricRefine(core_guided=True))
        ok = (
            plain.found
            and core.found
            and plain.minimal
            and core.minimal
            and plain.num_steps == core.num_steps
            and len(core.attempts) <= len(plain.attempts)
        )
        if ok and len(core.attempts) < len(plain.attempts):
            strictly_fewer += 1
        core_ok = core_ok and ok
        rows.append(
            {
                "name": f"{workload}_p{budget}",
                "steps": plain.num_steps,
                "plain": {"sat_calls": len(plain.attempts),
                          "seconds": round(plain_seconds, 3)},
                "core_guided": {"sat_calls": len(core.attempts),
                                "seconds": round(core_seconds, 3)},
                "ok": ok,
            }
        )
        print(f"core-guided {workload:10s} p{budget}  plain {len(plain.attempts)} "
              f"calls {plain_seconds:7.3f}s  core {len(core.attempts)} calls "
              f"{core_seconds:7.3f}s  {'ok' if ok else 'FAILED'}")
    core_ok = core_ok and strictly_fewer >= 1
    return {
        "cases": rows,
        "strictly_fewer_cases": strictly_fewer,
        "core_ok": core_ok,
    }


# ---------------------------------------------------------------------------
# chaos scenario: fault injection, retries, anytime answers (schema v6)
# ---------------------------------------------------------------------------
#: Seed of every chaos lane; the injected fault schedule is a pure function
#: of (seed, task name, attempt, call index), so the scenario is exactly
#: reproducible.
CHAOS_SEED = 7

#: The suite-wide fault mix: a guaranteed flaky failure on every task's
#: first attempt, a ~0.1% crash chance and a 0.5 ms slowdown per SAT call.
CHAOS_SPEC = f"chaos:{CHAOS_SEED},flaky=1,crash=0.001,delay=0.0005"

#: The spurious-timeout case: 30% of SAT calls return UNKNOWN, so whole
#: search attempts die inconclusive and only retries can certify minima.
#: The seed differs from :data:`CHAOS_SEED` — it is chosen so the schedule
#: actually forces retries on the smoke tasks (the gate requires them:
#: a schedule that injects nothing would certify vacuously).
CHAOS_UNKNOWN_SPEC = "chaos:19,unknown=0.3"

#: The retry budget both chaos lanes run under (small backoff: the bench
#: measures fault-recovery, not sleeping).
CHAOS_RETRY = RetryPolicy(max_attempts=6, base_delay=0.005, max_delay=0.05)


def _deadline_probe() -> dict[str, object]:
    """One deadline-preempted service request, as a structured gate.

    ``kummer_double_p13`` takes 7.6 s of search on the C core when nothing
    interrupts it (2-core x86-64 host, Python 3.11), 38x the 0.2 s
    deadline, so the deadline preempts it mid-search however fast the
    engine gets.  The gate requires the graceful degradation the
    service promises: status ``ok`` (not an error), ``complete`` false, a
    non-empty anytime ``partial`` snapshot, and the preemption visible in
    the health counters.
    """
    from repro.service import JobRequest, PebblingService

    async def _run():
        async with PebblingService() as service:
            request = JobRequest(
                kind="pebble", workload="kummer-double", budget=13,
                time_limit=60.0, deadline=0.2,
            )
            result = await service.submit(request)
            return result, service.health()

    result, health = asyncio.run(_run())
    payload = result.payload or {}
    ok = (
        result.ok
        and payload.get("complete") is False
        and bool(payload.get("partial"))
        and health["stats"]["preempted"] >= 1
        and health["stats"]["partial_answers"] >= 1
    )
    return {
        "request": "kummer_double_p13",
        "deadline": 0.2,
        "status": result.status,
        "outcome": payload.get("outcome"),
        "partial": payload.get("partial"),
        "ok": ok,
    }


def run_chaos_bench(*, quick: bool = False) -> dict[str, object]:
    """Prove certified minima survive injected faults (current engine only).

    Three gates, folded into ``chaos_ok``:

    * **parity** — the batch suite re-run on the ``chaos`` backend (flaky
      first attempts, seeded crashes, per-call slowdowns) under
      :data:`CHAOS_RETRY` must reproduce the fault-free (outcome, steps)
      verdict on every task, complete, with at least one retry spent and
      wall-clock bounded by ``10x + 5 s`` of the baseline;
    * **spurious timeouts** — the smoke tasks with 30% of SAT calls
      returning UNKNOWN must still certify their minima through retries
      (and at least one retry must actually have been forced);
    * **deadline probe** — see :func:`_deadline_probe`.
    """
    suite = "smoke" if quick else "default"
    baseline_tasks = tasks_from_suite(suite, time_limit=60.0)
    started = time.perf_counter()
    baseline = run_portfolio(baseline_tasks)
    baseline_seconds = time.perf_counter() - started
    chaos_tasks = tasks_from_suite(suite, time_limit=60.0, backend=CHAOS_SPEC)
    started = time.perf_counter()
    chaos = run_portfolio(chaos_tasks, retry=CHAOS_RETRY)
    chaos_seconds = time.perf_counter() - started
    retry_attempts = sum(record.retries for record in chaos)
    rows: list[dict[str, object]] = []
    parity = True
    for base, record in zip(baseline, chaos):
        ok = (
            record.outcome == base.outcome
            and record.steps == base.steps
            and record.complete
            and record.error is None
        )
        parity = parity and ok
        rows.append(
            {
                "name": base.name,
                "verdict": base.outcome,
                "steps": base.steps,
                "chaos_verdict": record.outcome,
                "chaos_steps": record.steps,
                "retries": record.retries,
                "ok": ok,
            }
        )
        print(f"chaos {base.name:16s} baseline={base.outcome}/{base.steps}  "
              f"chaos={record.outcome}/{record.steps} retries={record.retries}  "
              f"{'ok' if ok else 'MISMATCH'}")
    overhead = chaos_seconds / max(baseline_seconds, 1e-9)
    overhead_ok = chaos_seconds <= baseline_seconds * 10.0 + 5.0
    unknown_tasks = tasks_from_suite(
        "smoke", time_limit=60.0, backend=CHAOS_UNKNOWN_SPEC
    )
    unknown_records = run_portfolio(unknown_tasks, retry=CHAOS_RETRY)
    unknown_ok = all(
        record.outcome == "solution" and record.complete
        for record in unknown_records
    ) and any(record.retries >= 1 for record in unknown_records)
    print(f"chaos spurious-timeout smoke: "
          f"{'certified' if unknown_ok else 'LOST MINIMA'} "
          f"(retries {[record.retries for record in unknown_records]})")
    probe = _deadline_probe()
    print(f"chaos deadline probe {probe['request']}: status={probe['status']} "
          f"outcome={probe['outcome']}  "
          f"{'partial answer' if probe['ok'] else 'FAILED'}")
    chaos_ok = (
        parity
        and retry_attempts >= 1
        and overhead_ok
        and unknown_ok
        and bool(probe["ok"])
    )
    print(f"chaos suite={suite}: baseline {baseline_seconds:.3f}s  "
          f"chaos {chaos_seconds:.3f}s (x{overhead:.2f})  "
          f"retries={retry_attempts}  "
          f"{'ok' if chaos_ok else 'FAILED'}")
    return {
        "suite": suite,
        "spec": CHAOS_SPEC,
        "unknown_spec": CHAOS_UNKNOWN_SPEC,
        "retry_policy": {
            "max_attempts": CHAOS_RETRY.max_attempts,
            "base_delay": CHAOS_RETRY.base_delay,
            "max_delay": CHAOS_RETRY.max_delay,
        },
        "tasks": rows,
        "baseline_seconds": round(baseline_seconds, 3),
        "chaos_seconds": round(chaos_seconds, 3),
        "overhead": round(overhead, 3),
        "retry_attempts": retry_attempts,
        "retried_tasks": sum(1 for record in chaos if record.retries),
        "spurious_timeouts_certified": unknown_ok,
        "deadline_probe": probe,
        "chaos_ok": chaos_ok,
    }


# ---------------------------------------------------------------------------
# profile scenario: per-phase time splits on the current engine (schema v7)
# ---------------------------------------------------------------------------
#: The per-phase timers the Python engine keeps in profile mode.
PROFILE_PHASES = ("propagate", "analyze", "reduce")

#: Engine counters an instance row reports, summed over its SAT calls.
PROFILE_COUNTERS = (
    "conflicts", "propagations", "decisions", "restarts",
    "learned_clauses", "deleted_clauses",
    "lbd_glue", "lbd_mid", "lbd_high", "lbd_sum",
)

#: The Python engine with its phase timers on.
PROFILE_BACKEND = "cdcl:profile=1"


def run_profile_bench(*, quick: bool = False) -> dict[str, object]:
    """Re-run every instance with per-phase timers on the current engine.

    Each instance row records where the wall-clock went — the
    propagate/analyze/reduce split (absolute seconds and the share of
    the total timed solver work), conflicts/sec, and the LBD
    counters — so each solver-layout change is measured
    per move, per instance, in the tracked BENCH file.
    ``phases_present`` confirms every row carries the full split.
    """
    instances = [
        instance for instance in instance_set() if instance.quick or not quick
    ]
    rows: list[dict[str, object]] = []
    phases_present = True
    for instance in instances:
        counters: dict[str, float] = {}
        started = time.perf_counter()
        outcome = instance.run(PROFILE_BACKEND, counters)
        elapsed = time.perf_counter() - started
        # The engine's counters and phase timers (flattened to
        # ``time_<phase>``) come summed over the instance's SAT calls; a
        # CNF instance is one call.
        totals: dict[str, float] = {"solve_calls": outcome.get("sat_calls", 1)}
        for counter in PROFILE_COUNTERS:
            totals[counter] = counters.get(counter, 0)
        for phase in PROFILE_PHASES:
            totals[phase] = counters.get(f"time_{phase}", 0.0)
        timed = sum(totals[phase] for phase in PROFILE_PHASES)
        phases = {
            phase: {
                "seconds": round(totals[phase], 4),
                "share": round(totals[phase] / timed, 3) if timed > 0 else 0.0,
            }
            for phase in PROFILE_PHASES
        }
        conflicts = int(totals["conflicts"])
        row = {
            "name": instance.name,
            "kind": instance.kind,
            "seconds": round(elapsed, 3),
            "verdict": outcome["verdict"],
            "steps": outcome["steps"],
            "solve_calls": int(totals["solve_calls"]),
            "conflicts": conflicts,
            "conflicts_per_sec": round(conflicts / elapsed, 1) if elapsed > 0 else 0.0,
            "phases": phases,
            "counters": {
                counter: int(totals[counter])
                for counter in PROFILE_COUNTERS
                if counter != "conflicts"
            },
        }
        phases_present = phases_present and set(phases) == set(PROFILE_PHASES)
        rows.append(row)
        split = "  ".join(
            f"{phase[:4]}={phases[phase]['seconds']:7.3f}s"
            for phase in PROFILE_PHASES
        )
        print(f"profile {instance.name:26s} {elapsed:8.3f}s  {split}  "
              f"{row['conflicts_per_sec']:9.1f} confl/s")
    return {"instances": rows, "phases_present": phases_present}


# ---------------------------------------------------------------------------
# obs scenario: tracing/metrics overhead and span-tree completeness (schema v9)
# ---------------------------------------------------------------------------
#: The overhead gate: tracing+metrics on must stay within this fraction of
#: tracing-off on the suite's per-task geometric mean.
OBS_OVERHEAD_THRESHOLD = 0.05

#: Tasks faster than this (untraced) are excluded from the overhead
#: geomean — at millisecond scale the ratio measures timer noise, not
#: instrumentation cost.  They still run in both modes.
OBS_TIMING_FLOOR = 0.05

#: Plain and traced passes of the suite, taken in alternation; each task
#: keeps its fastest runtime of either mode.  Three passes of one mode
#: followed by three of the other read between x0.70 and x1.12 on one
#: unchanged tree on a 2-core host; fifteen alternating pairs held each
#: tree within a few percent.
OBS_PASSES = 15


def _trace_tree_gate(path: Path) -> dict[str, object]:
    """Load a merged trace and check the acceptance tree invariants.

    Shares :mod:`repro.obs.analyze` with the ``repro-pebble trace`` CLI,
    so what this gate certifies is exactly what ``trace summarize``
    reports: a complete tree (every parent resolvable) whose ``sat.call``
    spans all carry their ``bound`` and ``verdict`` attributes.
    """
    from repro.obs.analyze import load_trace

    trace = load_trace(path)
    sat_calls = [r for r in trace.spans if r["name"] == "sat.call"]
    # Every SAT-call span must carry its bound; a call that *completed*
    # must carry its verdict too (a span whose call died to an injected
    # fault is marked status="error" instead — there is no verdict).
    sat_attributed = bool(sat_calls) and all(
        "bound" in r.get("attrs", {})
        and ("verdict" in r.get("attrs", {}) or r.get("status") == "error")
        for r in sat_calls
    )
    events: dict[str, int] = {}
    for record in trace.events:
        events[record["name"]] = events.get(record["name"], 0) + 1
    return {
        "spans": len(trace.spans),
        "events": len(trace.events),
        "processes": len({r.get("pid") for r in trace.spans}),
        "complete": trace.complete,
        "sat_call_spans": len(sat_calls),
        "sat_calls_attributed": sat_attributed,
        "event_names": dict(sorted(events.items())),
        "problems": trace.problems[:5],
    }


def run_obs_bench(*, quick: bool = False, repeat: int = 1) -> dict[str, object]:
    """Gate the observability layer: overhead and span-tree completeness.

    Two gates, folded into ``obs_ok``:

    * **overhead** — the batch suite solved with tracing+metrics off and
      on, in :data:`OBS_PASSES` alternating pairs of passes (best of each
      mode per task); the geometric mean of the
      per-task runtime ratios over the timer-reliable tasks must stay
      under ``1 + OBS_OVERHEAD_THRESHOLD`` (instrumentation must be
      cheap enough to leave on); binding on full runs only — quick/smoke
      runs report it advisorily, their two above-floor tasks cannot
      resolve 5% against scheduler noise;
    * **portfolio tree** — a traced portfolio run on the flaky ``chaos``
      backend under a retry policy, through a two-worker process pool,
      must spend at least one retry and merge the owner's and the
      workers' part files into one complete span tree with attributed
      ``sat.call`` spans and the retry visible as a ``task.retry`` event.
    """
    import tempfile

    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    suite = "smoke" if quick else "default"
    tasks = tasks_from_suite(suite, time_limit=60.0)
    was_enabled = obs_metrics.enabled()

    def _keep_fastest(best: dict[str, float], trace_path: "Path | None") -> None:
        if trace_path is None:
            obs_metrics.disable()
            records = run_portfolio(tasks)
        else:
            obs_metrics.enable()
            with obs_trace.tracer(trace_path):
                records = run_portfolio(tasks)
            trace_path.unlink()
        for record in records:
            best[record.name] = min(record.runtime, best.get(record.name, record.runtime))

    try:
        with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as tmp:
            tmpdir = Path(tmp)
            # The overhead gate divides runtimes, so the two modes take
            # turns: host noise that drifts over the run then reaches both.
            plain: dict[str, float] = {}
            traced: dict[str, float] = {}
            for index in range(max(OBS_PASSES, repeat)):
                _keep_fastest(plain, None)
                _keep_fastest(traced, tmpdir / f"overhead-{index}.jsonl")
            ratios = {
                name: traced[name] / max(plain[name], 1e-9)
                for name in plain
                if plain[name] >= OBS_TIMING_FLOOR
                and traced[name] >= OBS_TIMING_FLOOR
            }
            if ratios:
                overhead_geomean = math.exp(
                    sum(math.log(r) for r in ratios.values()) / len(ratios)
                )
            else:
                # Quick suites can be all-tiny; fall back to the summed
                # runtime ratio, which at least aggregates away the noise.
                overhead_geomean = sum(traced.values()) / max(
                    sum(plain.values()), 1e-9
                )
            overhead_ok = overhead_geomean <= 1.0 + OBS_OVERHEAD_THRESHOLD
            # The smoke suite leaves ~2 tasks above the timing floor, each
            # ~0.2 s: the 5% bound sits inside measured scheduler noise
            # (x1.01-x1.06 across identical quick runs on a 1-core host).
            # Quick/smoke runs therefore report the ratio without gating
            # on it — the same exemption the trajectory gate applies —
            # while full runs, whose default suite yields five tasks at
            # x1.03-grade resolution, keep the gate binding.
            overhead_binding = not quick
            print(f"obs overhead suite={suite}: x{overhead_geomean:.3f} over "
                  f"{len(ratios) or len(plain)} task(s)  "
                  f"{'ok' if overhead_ok else 'TOO EXPENSIVE'}"
                  f"{'' if overhead_binding else '  (advisory on quick)'}")

            # Portfolio run with retries: the flaky chaos backend fails every
            # task's first attempt, so the retry machinery must engage and
            # the retries must be visible in the merged trace.  The tasks
            # run in a two-worker pool, so the tree also has to merge the
            # workers' part files with the owner's.
            obs_metrics.enable()
            portfolio_path = tmpdir / "portfolio.jsonl"
            retry_tasks = tasks_from_suite(
                "smoke", time_limit=60.0, backend=f"chaos:{CHAOS_SEED},flaky=1"
            )
            with obs_trace.tracer(portfolio_path):
                retry_records = run_portfolio(
                    retry_tasks, jobs=2, force_pool=True, retry=CHAOS_RETRY
                )
            portfolio_gate = _trace_tree_gate(portfolio_path)
            portfolio_gate["retries"] = sum(r.retries for r in retry_records)
            portfolio_ok = (
                bool(portfolio_gate["complete"])
                and bool(portfolio_gate["sat_calls_attributed"])
                and portfolio_gate["processes"] >= 2
                and portfolio_gate["retries"] >= 1
                and portfolio_gate["event_names"].get("task.retry", 0) >= 1
                and all(r.outcome == "solution" for r in retry_records)
            )
            print(f"obs portfolio trace: {portfolio_gate['spans']} spans across "
                  f"{portfolio_gate['processes']} processes, "
                  f"retries={portfolio_gate['retries']}, "
                  f"complete={portfolio_gate['complete']}  "
                  f"{'ok' if portfolio_ok else 'FAILED'}")
    finally:
        if was_enabled:
            obs_metrics.enable()
        else:
            obs_metrics.disable()

    obs_ok = (overhead_ok or not overhead_binding) and portfolio_ok
    return {
        "suite": suite,
        "overhead_threshold": OBS_OVERHEAD_THRESHOLD,
        "overhead_binding": overhead_binding,
        "overhead_geomean": round(overhead_geomean, 4),
        "overhead_tasks": {
            name: {
                "plain_s": round(plain[name], 3),
                "traced_s": round(traced[name], 3),
                "ratio": round(ratio, 3),
            }
            for name, ratio in sorted(ratios.items())
        },
        "overhead_ok": overhead_ok,
        "portfolio_trace": portfolio_gate,
        "portfolio_ok": portfolio_ok,
        "obs_ok": obs_ok,
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def _best_of(run: Callable[..., dict[str, object]], spec: str, repeat: int) -> dict[str, object]:
    best: dict[str, object] | None = None
    for _ in range(max(1, repeat)):
        outcome = run(spec)
        if best is None or outcome["seconds"] < best["seconds"]:
            best = outcome
    assert best is not None
    return best


def next_bench_path(directory: Path) -> Path:
    """Return ``BENCH_<n>.json`` for the smallest unused ``n`` >= 1."""
    used = set()
    for existing in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", existing.name)
        if match:
            used.add(int(match.group(1)))
    index = 1
    while index in used:
        index += 1
    return directory / f"BENCH_{index}.json"


def run_engine_bench(
    *, quick: bool = False, repeat: int = 1
) -> tuple[list[dict[str, object]], float, bool]:
    """Run the instance set under both engines (legacy vs current).

    Returns the per-instance rows, the geometric-mean speedup over the
    timer-reliable instances, and whether every verdict/step count matched.
    """
    register_legacy_backend()
    instances = [
        instance for instance in instance_set() if instance.quick or not quick
    ]
    rows: list[dict[str, object]] = []
    speedups: list[float] = []
    all_match = True
    for instance in instances:
        legacy = _best_of(instance.run, LEGACY_BACKEND, repeat)
        current = _best_of(instance.run, CURRENT_BACKEND, repeat)
        match = (
            legacy["verdict"] == current["verdict"]
            and legacy["steps"] == current["steps"]
        )
        all_match = all_match and match
        speedup = legacy["seconds"] / max(current["seconds"], 1e-9)
        # Instances below ~50 ms are dominated by encoding/setup work and
        # timer noise rather than the SAT engine; they stay in the set for
        # verdict/step-count tracking but are kept out of the mean.
        if legacy["seconds"] >= 0.05 and current["seconds"] >= 0.05:
            speedups.append(speedup)
        rows.append(
            {
                "name": instance.name,
                "kind": instance.kind,
                "legacy": legacy,
                "current": current,
                "speedup": round(speedup, 3),
                "verdict_match": match,
            }
        )
        print(
            f"{instance.name:26s} legacy {legacy['seconds']:8.3f}s  "
            f"current {current['seconds']:8.3f}s  x{speedup:5.2f}  "
            f"{'ok' if match else 'VERDICT MISMATCH'}"
        )
    geomean = (
        math.exp(sum(math.log(value) for value in speedups) / len(speedups))
        if speedups
        else 1.0
    )
    return rows, geomean, all_match


#: Scenario registry: name -> (report key, gate key, one-line description).
#: ``engine`` is special-cased in :func:`run_benchmarks` (it contributes
#: both the ``instances`` rows and ``geometric_mean_speedup``).
SCENARIOS: dict[str, tuple[str, str, str]] = {
    "engine": ("instances", "verdict_match",
               "legacy vs current CDCL on the fixed instance set"),
    "portfolio": ("portfolio", "results_match",
                  "batch suite at several --jobs widths"),
    "compile": ("compile", "all_verified",
                "end-to-end pipeline (pebble, compile, lower, verify, cost)"),
    "cache": ("cache", "cache_ok",
              "result store: cold vs warm-started vs cache-hit searches"),
    "backends": ("backends", "verdicts_match",
                 "verdict/step parity across cdcl, dpll and the external stub"),
    "core_guided": ("core_guided", "core_ok",
                    "plain vs core-guided geometric-refine"),
    "chaos": ("chaos", "chaos_ok",
              "fault injection, retries and anytime answers"),
    "profile": ("profile", "phases_present",
                "per-phase time splits and LBD counters, current engine only"),
    "obs": ("obs", "obs_ok",
            "tracing/metrics overhead gate and span-tree completeness"),
}


def parse_scenarios(selector: str | None) -> list[str]:
    """Validate a ``--scenario`` selector into an ordered scenario list."""
    if selector is None:
        return list(SCENARIOS)
    chosen: list[str] = []
    for token in selector.split(","):
        name = token.strip()
        if not name:
            continue
        if name not in SCENARIOS:
            raise SystemExit(
                f"unknown scenario {name!r}; known scenarios: "
                f"{', '.join(SCENARIOS)}"
            )
        if name not in chosen:
            chosen.append(name)
    if not chosen:
        raise SystemExit("--scenario selected nothing")
    return [name for name in SCENARIOS if name in chosen]


def check_trajectory(
    geomean: float, directory: Path,
    *, threshold: float = TRAJECTORY_REGRESSION_THRESHOLD,
) -> dict[str, object]:
    """Compare ``geomean`` against the newest tracked ``BENCH_<n>.json``.

    Returns the gate record for the report: the previous file and its
    geomean, the ratio, and ``ok`` — ``False`` only when the new geomean
    dropped more than ``threshold`` below the previous one.  With no
    usable previous report the gate passes vacuously.
    """
    previous_path: Path | None = None
    previous_index = -1
    for existing in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", existing.name)
        if match and int(match.group(1)) > previous_index:
            previous_index = int(match.group(1))
            previous_path = existing
    record: dict[str, object] = {
        "previous": previous_path.name if previous_path else None,
        "previous_geomean": None,
        "ratio": None,
        "threshold": threshold,
        "ok": True,
    }
    if previous_path is None:
        return record
    try:
        previous_geomean = json.loads(previous_path.read_text(encoding="utf-8"))[
            "geometric_mean_speedup"
        ]
    except (OSError, ValueError, KeyError):
        return record
    if not isinstance(previous_geomean, (int, float)) or previous_geomean <= 0:
        return record
    ratio = geomean / previous_geomean
    record["previous_geomean"] = previous_geomean
    record["ratio"] = round(ratio, 3)
    record["ok"] = ratio >= 1.0 - threshold
    return record


def run_benchmarks(
    *,
    quick: bool = False,
    repeat: int = 1,
    scenarios: Sequence[str] | None = None,
) -> dict[str, object]:
    """Run the selected scenarios and return the report dict.

    ``scenarios`` is an ordered subset of :data:`SCENARIOS` (``None`` runs
    everything).  Skipped scenarios are absent from the report — their
    gates do not vacuously pass, they simply are not part of this run —
    and ``all_verdicts_match`` folds only over what actually ran.
    """
    selected = list(SCENARIOS) if scenarios is None else list(scenarios)
    report: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "quick" if quick else "full",
        "repeat": repeat,
        "python": sys.version.split()[0],
        "scenarios": selected,
    }
    all_match = True
    first = True
    for name in selected:
        if not first:
            print()
        first = False
        if name == "engine":
            rows, geomean, engine_match = run_engine_bench(
                quick=quick, repeat=repeat
            )
            report["instances"] = rows
            report["geometric_mean_speedup"] = round(geomean, 3)
            all_match = all_match and engine_match
            continue
        runner = {
            "portfolio": lambda: run_portfolio_bench(
                quick=quick, jobs_list=(1, 2) if quick else (1, 4)
            ),
            "compile": lambda: run_compile_bench(quick=quick),
            "cache": lambda: run_cache_bench(quick=quick),
            "backends": lambda: run_backend_bench(quick=quick),
            "core_guided": lambda: run_core_guided_bench(quick=quick),
            "chaos": lambda: run_chaos_bench(quick=quick),
            "profile": lambda: run_profile_bench(quick=quick),
            "obs": lambda: run_obs_bench(quick=quick, repeat=repeat),
        }[name]
        key, gate, _ = SCENARIOS[name]
        scenario_report = runner()
        report[key] = scenario_report
        all_match = all_match and bool(scenario_report[gate])
    report["all_verdicts_match"] = all_match
    if "geometric_mean_speedup" in report:
        print(f"\ngeometric-mean speedup: x{report['geometric_mean_speedup']:.2f}  "
              f"verdicts {'all match' if all_match else 'MISMATCH'}")
    else:
        print(f"\nverdicts {'all match' if all_match else 'MISMATCH'}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke subset (small instances only)")
    parser.add_argument("--smoke", action="store_true", dest="quick",
                        help="alias for --quick")
    parser.add_argument("--repeat", type=int, default=None,
                        help="best-of-N timing per engine "
                             "(default: 3 for full runs, 1 for --quick)")
    parser.add_argument("--write", action="store_true",
                        help="write BENCH_<n>.json even in --quick mode")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory for BENCH_<n>.json (default: repo root)")
    parser.add_argument("--out-file", type=Path, default=None,
                        help="also write the report JSON to this exact path "
                             "(CI artifacts; independent of --write)")
    parser.add_argument("--scenario", default=None, metavar="NAME[,NAME...]",
                        help="run only these scenarios (see --list-scenarios)")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list scenario names and exit")
    arguments = parser.parse_args(argv)
    if arguments.repeat is None:
        # Full runs are the tracked trajectory: best-of-three per engine
        # keeps scheduler noise out of it.  Quick runs never gate on
        # timings, so one pass is enough.
        arguments.repeat = 1 if arguments.quick else 3
    if arguments.list_scenarios:
        for name, (_, _, description) in SCENARIOS.items():
            print(f"{name:12s} {description}")
        return 0
    selected = parse_scenarios(arguments.scenario)
    report = run_benchmarks(
        quick=arguments.quick, repeat=arguments.repeat, scenarios=selected
    )
    failed = not report["all_verdicts_match"]
    # Trajectory gate: a full engine run must not regress the tracked
    # geomean by more than the threshold.  Quick/smoke runs are exempt —
    # their timings are noise — as are runs that skipped the engine
    # scenario entirely.
    if not arguments.quick and "geometric_mean_speedup" in report:
        trajectory = check_trajectory(
            report["geometric_mean_speedup"], arguments.out
        )
        report["trajectory"] = trajectory
        if trajectory["previous_geomean"] is not None:
            state = "ok" if trajectory["ok"] else "REGRESSION"
            print(f"trajectory vs {trajectory['previous']}: "
                  f"x{trajectory['previous_geomean']:.2f} -> "
                  f"x{report['geometric_mean_speedup']:.2f} "
                  f"(ratio {trajectory['ratio']})  {state}")
        if not trajectory["ok"]:
            failed = True
    if not arguments.quick or arguments.write:
        arguments.out.mkdir(parents=True, exist_ok=True)
        path = next_bench_path(arguments.out)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    if arguments.out_file is not None:
        arguments.out_file.parent.mkdir(parents=True, exist_ok=True)
        arguments.out_file.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {arguments.out_file}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
