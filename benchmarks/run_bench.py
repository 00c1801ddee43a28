"""Tracked benchmark harness: current CDCL engine vs the frozen seed engine.

Runs a fixed instance set — the paper's Fig. 3/4 example DAG, SLP-derived
sweeps, ISCAS/bench-style circuits from :mod:`repro.logic`, and a pair of
pure-CNF stress instances — once with the frozen pre-overhaul engine
(:mod:`benchmarks.legacy_solver`) and once with the current
:class:`repro.sat.solver.CdclSolver`, through the *same* pebbling search
loops.  It checks that SAT/UNSAT verdicts and pebbling step counts are
identical on every instance and reports per-instance plus geometric-mean
wall-clock speedups.

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
records the propagate/analyze/reduce/inprocess wall-clock split,
conflicts/sec and the LBD/inprocessing counters per instance — the
before/after of every solver-layout change lands in the trajectory, not
in prose.  Scenarios are individually selectable via ``--scenario``
(see ``--list-scenarios``), and the harness gates the trajectory: a
geometric-mean speedup more than 10% below the previous ``BENCH_<n>.json``
fails the run.

Since schema v8 the report adds a ``cubes`` scenario: each case is
solved once sequentially and once cube-and-conquer (``cubes=4,
jobs=4`` — an exhaustive assumption-cube cover, a shared SQLite bound
board, first-winner cancellation) and must certify the same minimum;
on at least two hard multi-second cases the cube search must also beat
the sequential wall-clock with at least one cross-lane shared-bound
hit.  Full (non-``--quick``) runs now default to ``--repeat 3``.

Since schema v9 the report adds an ``obs`` scenario guarding the
observability layer (:mod:`repro.obs`): the batch suite is solved with
tracing+metrics off and on and the per-task geometric-mean overhead must
stay under 5%; a traced portfolio run on the flaky chaos backend (forced
retries) and a traced cube-and-conquer run (first-winner cancellation)
must both merge into *complete* span trees — every span's parent
resolvable and every ``sat.call`` span carrying its bound and verdict.
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
from repro.pebbling.encoding import EncodingOptions  # noqa: E402
from repro.pebbling.portfolio import (  # noqa: E402
    PortfolioHealth,
    RetryPolicy,
    run_portfolio,
    tasks_from_suite,
)
from repro.pebbling.solver import ReversiblePebblingSolver  # noqa: E402
from repro.sat.backend import create_backend  # noqa: E402
from repro.sat.cnf import Cnf  # noqa: E402
from repro.sat.instances import pigeonhole, random_3sat  # noqa: E402
from repro.sat.solver import CdclSolver  # noqa: E402
from repro.pebbling.search import GeometricRefine  # noqa: E402
from repro.store import ResultStore  # noqa: E402
from repro.workloads import load_workload  # noqa: E402

SCHEMA_VERSION = 10

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
@dataclass
class Instance:
    """One benchmark instance: a callable exercised under both engines."""

    name: str
    kind: str  # "pebbling" or "cnf"
    quick: bool  # part of the --quick smoke subset
    run: Callable[[type], dict[str, object]] = field(repr=False, default=None)  # type: ignore[assignment]


def _cnf_instance(build: Callable[[], Cnf]) -> Callable[[type], dict[str, object]]:
    def run(engine: type) -> dict[str, object]:
        cnf = build()
        started = time.perf_counter()
        result = engine(cnf).solve()
        elapsed = time.perf_counter() - started
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
    step_schedule: str = "linear",
) -> Callable[[type], dict[str, object]]:
    def run(engine: type) -> dict[str, object]:
        dag = load_workload(workload, scale=scale)
        options = EncodingOptions(max_moves_per_step=1 if single_move else None)
        solver = ReversiblePebblingSolver(dag, options=options, solver_factory=engine)
        started = time.perf_counter()
        result = solver.solve(
            pebbles, time_limit=time_limit, step_schedule=step_schedule
        )
        elapsed = time.perf_counter() - started
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
# simplify scenario: per-technique attribution of the simplification engine
# ---------------------------------------------------------------------------
#: (name, workload, budget, single_move, max_steps, quick) cases for the
#: simplification ablations through the incremental pebbling loop.  These
#: gate *soundness*: ablating a technique must never change a pebbling
#: verdict or a certified step count.  Their per-bound queries are too
#: short for the conflict-counted inprocessing trigger, so the technique
#: counters mostly stay at zero here — attribution comes from the direct
#: CNF cases below, whose single long solves engage the engine for real.
SIMPLIFY_CASES: list[tuple[str, str, int, bool, "int | None", bool]] = [
    ("fig2_p4", "fig2", 4, False, None, True),
    ("c17_p4", "c17", 4, False, None, True),
    ("and9_p4_sm", "and9", 4, True, None, False),
    ("hadamard_p5", "hadamard", 5, False, None, False),
]

#: (name, build, quick) direct-CNF cases: one uninterrupted solve each,
#: long enough that root-level inprocessing fires.  Pigeonhole is the
#: BVE/vivification showcase (dense symmetric clauses, conflict-analysis
#: heavy); random 3-SAT near the phase transition exercises chronological
#: backtracking and the rephasing lane on an unstructured formula.
SIMPLIFY_CNF_CASES: list[tuple[str, Callable[[], Cnf], bool]] = [
    ("php_8_7", lambda: pigeonhole(8, 7), False),
    ("rand3sat_v130", lambda: random_3sat(130, 598, seed=13), False),
]

#: Ablation lanes: the Python engine (every technique at its shipped
#: setting) against one technique disabled at a time, plus the rephasing
#: schedule that measured out negative on this suite (kept visible in the
#: report precisely because it is *not* in the defaults; see
#: EXPERIMENTS.md).
SIMPLIFY_CONFIGS: list[tuple[str, str]] = [
    ("full", "cdcl:native=0"),
    ("no_bve", "cdcl:bve=0"),
    ("no_vivify", "cdcl:vivify=0"),
    ("no_chrono", "cdcl:chrono=0"),
    ("rephase", "cdcl:rephase=2048"),
]

#: Technique counters folded into each simplify row.
SIMPLIFY_COUNTERS = (
    "eliminated_variables", "restored_variables", "bve_resolvents",
    "vivified_clauses", "chrono_backtracks", "rephases",
)


def run_simplify_bench(*, quick: bool = False) -> dict[str, object]:
    """Ablate each simplification technique and attribute its cost/benefit.

    Every case runs once per config; ``simplify_ok`` requires byte-equal
    (outcome, steps) across all of them — turning a technique off must
    never change an answer, only the time it takes.  ``attribution`` sums
    wall-clock per ablation and reports it relative to the full engine
    (``vs_full`` > 1 means the disabled technique was paying for itself).
    """
    rows: list[dict[str, object]] = []
    simplify_ok = True
    totals = {label: 0.0 for label, _ in SIMPLIFY_CONFIGS}

    def record(name: str, runs: dict[str, dict[str, object]], ok: bool) -> None:
        nonlocal simplify_ok
        simplify_ok = simplify_ok and ok
        rows.append({"name": name, "runs": runs, "ok": ok})
        summary = "  ".join(
            f"{label}={run['seconds']:.3f}s" for label, run in runs.items()
        )
        print(f"simplify {name:14s} {summary}  {'ok' if ok else 'MISMATCH'}")

    for name, workload, budget, single_move, cap, is_quick in SIMPLIFY_CASES:
        if quick and not is_quick:
            continue
        dag = load_workload(workload)
        options = EncodingOptions(max_moves_per_step=1 if single_move else None)
        runs: dict[str, dict[str, object]] = {}
        reference: tuple[str, object] | None = None
        ok = True
        for label, spec in SIMPLIFY_CONFIGS:
            solver = ReversiblePebblingSolver(dag, options=options, backend=spec)
            started = time.perf_counter()
            result = solver.solve(budget, time_limit=120.0, max_steps=cap)
            elapsed = time.perf_counter() - started
            totals[label] += elapsed
            counters = dict.fromkeys(SIMPLIFY_COUNTERS, 0)
            for attempt in result.attempts:
                for key in SIMPLIFY_COUNTERS:
                    counters[key] += int(attempt.solver_stats.get(key, 0))
            verdict = (result.outcome.value, result.num_steps)
            if reference is None:
                reference = verdict
            elif verdict != reference:
                ok = False
            runs[label] = {
                "verdict": result.outcome.value,
                "steps": result.num_steps,
                "seconds": round(elapsed, 3),
                "counters": counters,
            }
        record(name, runs, ok)

    for name, build, is_quick in SIMPLIFY_CNF_CASES:
        if quick and not is_quick:
            continue
        instance = build()
        runs = {}
        cnf_reference: str | None = None
        ok = True
        for label, spec in SIMPLIFY_CONFIGS:
            backend = create_backend(spec)
            for clause in instance.clauses:
                backend.add_clause(clause)
            started = time.perf_counter()
            result = backend.solve(time_limit=120.0)
            elapsed = time.perf_counter() - started
            totals[label] += elapsed
            reported = backend.counters()
            counters = {
                key: int(reported.get(key) or 0) for key in SIMPLIFY_COUNTERS
            }
            verdict = result.status.value
            if cnf_reference is None:
                cnf_reference = verdict
            elif verdict != cnf_reference:
                ok = False
            runs[label] = {
                "verdict": verdict,
                "steps": None,
                "seconds": round(elapsed, 3),
                "counters": counters,
            }
        record(name, runs, ok)
    full_seconds = totals["full"]
    attribution: dict[str, dict[str, object]] = {}
    for label, _ in SIMPLIFY_CONFIGS:
        if label == "full":
            continue
        attribution[label] = {
            "seconds": round(totals[label], 3),
            "vs_full": (
                round(totals[label] / full_seconds, 3)
                if full_seconds > 0 else None
            ),
        }
    return {
        "cases": rows,
        "simplify_ok": simplify_ok,
        "full_seconds": round(full_seconds, 3),
        "attribution": attribution,
    }


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

    ``and9_p4_sm`` needs ~1 s of sweep on this host class; a 0.2 s deadline
    preempts it mid-search.  The gate requires the graceful degradation the
    service promises: status ``ok`` (not an error), ``complete`` false, a
    non-empty anytime ``partial`` snapshot, and the preemption visible in
    the health counters.
    """
    from repro.service import JobRequest, PebblingService

    async def _run():
        async with PebblingService(workers=1, batch_window=0.0) as service:
            request = JobRequest(
                kind="pebble", workload="and9", budget=4, single_move=True,
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
        "request": "and9_p4_sm",
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
    health = PortfolioHealth()
    started = time.perf_counter()
    chaos = run_portfolio(chaos_tasks, retry=CHAOS_RETRY, health=health)
    chaos_seconds = time.perf_counter() - started
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
        and health.retry_attempts >= 1
        and overhead_ok
        and unknown_ok
        and bool(probe["ok"])
    )
    print(f"chaos suite={suite}: baseline {baseline_seconds:.3f}s  "
          f"chaos {chaos_seconds:.3f}s (x{overhead:.2f})  "
          f"retries={health.retry_attempts}  "
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
        "retry_attempts": health.retry_attempts,
        "retried_tasks": health.retried_tasks,
        "pool_rebuilds": health.pool_rebuilds,
        "spurious_timeouts_certified": unknown_ok,
        "deadline_probe": probe,
        "chaos_ok": chaos_ok,
    }


# ---------------------------------------------------------------------------
# profile scenario: per-phase time splits on the current engine (schema v7)
# ---------------------------------------------------------------------------
#: The per-phase timers maintained by :class:`CdclSolver` in profile mode
#: (``bve`` and ``vivify`` are sub-slices of ``inprocess``).
PROFILE_PHASES = ("propagate", "analyze", "reduce", "inprocess", "bve", "vivify")

#: Phases summed for the "timed solver work" denominator — excludes the
#: sub-slices so no second is counted twice.
PROFILE_TOP_PHASES = ("propagate", "analyze", "reduce", "inprocess")

#: Per-solve counters accumulated across every SAT call of an instance.
PROFILE_COUNTERS = (
    "conflicts", "propagations", "decisions", "restarts",
    "learned_clauses", "deleted_clauses",
    "lbd_glue", "lbd_mid", "lbd_high", "lbd_sum",
    "subsumed_clauses", "strengthened_clauses", "root_simplified",
    "inprocessings",
    "eliminated_variables", "restored_variables", "bve_resolvents",
    "vivified_clauses", "chrono_backtracks", "rephases",
)


def _profiled_engine() -> tuple[type, dict[str, float]]:
    """A ``CdclSolver`` subclass that folds per-solve stats into one dict.

    The pebbling searches build many solvers (one per step frame) and the
    solver resets its stats on every ``solve`` call, so the accumulator
    hooks the call itself: whatever the search loops do, every phase timer
    and counter of every SAT call of the instance ends up in ``totals``.
    """
    totals: dict[str, float] = {phase: 0.0 for phase in PROFILE_PHASES}
    totals.update({counter: 0 for counter in PROFILE_COUNTERS})
    totals["solve_calls"] = 0

    class ProfiledCdclSolver(CdclSolver):
        def __init__(self, *args, **kwargs):
            kwargs.setdefault("profile", True)
            super().__init__(*args, **kwargs)

        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            stats = result.stats
            totals["solve_calls"] += 1
            for counter in PROFILE_COUNTERS:
                totals[counter] += getattr(stats, counter)
            for phase, seconds in (stats.phase_times or {}).items():
                totals[phase] += seconds
            return result

    return ProfiledCdclSolver, totals


def run_profile_bench(*, quick: bool = False) -> dict[str, object]:
    """Re-run every instance with per-phase timers on the current engine.

    Each instance row records where the wall-clock went — the
    propagate/analyze/reduce/inprocess split (absolute seconds and the
    share of the total timed solver work), conflicts/sec, and the
    LBD/inprocessing counters — so each solver-layout change is measured
    per move, per instance, in the tracked BENCH file.
    ``phases_present`` confirms every row carries the full split.
    """
    instances = [
        instance for instance in instance_set() if instance.quick or not quick
    ]
    rows: list[dict[str, object]] = []
    phases_present = True
    for instance in instances:
        engine, totals = _profiled_engine()
        started = time.perf_counter()
        outcome = instance.run(engine)
        elapsed = time.perf_counter() - started
        timed = sum(totals[phase] for phase in PROFILE_TOP_PHASES)
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
            for phase in PROFILE_TOP_PHASES
        )
        print(f"profile {instance.name:26s} {elapsed:8.3f}s  {split}  "
              f"{row['conflicts_per_sec']:9.1f} confl/s")
    return {"instances": rows, "phases_present": phases_present}


# ---------------------------------------------------------------------------
# cubes scenario: cube-and-conquer vs sequential on one instance (schema v8)
# ---------------------------------------------------------------------------
#: (name, workload, budget, time limit, hard, quick) cube cases.  Easy
#: cases gate on verdict/minimum parity only (at millisecond scale the
#: pool spawn dominates and a speedup number would measure the OS, not
#: the search); *hard* cases are multi-second searches where the gate
#: additionally requires, on two or more of them, a wall-clock
#: ``speedup > 1.0`` — or, on a host with fewer cores than lanes (where
#: four time-shared lanes cannot beat one by parallelism), the
#: oversubscribed criterion documented in ``run_cubes_bench``.
CUBE_CASES: list[tuple[str, str, int, float, bool, bool]] = [
    ("fig2_p4", "fig2", 4, 60.0, False, True),
    ("c17_p4", "c17", 4, 60.0, False, True),
    ("and9_p5", "and9", 5, 60.0, False, False),
    ("kummer_double_p14", "kummer-double", 14, 120.0, True, False),
    ("edwards_add_p9", "edwards-add", 9, 120.0, True, False),
]

#: Oversubscribed hosts: the cube run must stay within this factor of
#: the sequential wall clock.  Four lanes re-deriving the full ladder
#: each would cost ~4x by construction — that is the zero-pruning
#: ceiling, not a defect — and paired best-of-``repeat`` draws on the
#: 1-core host measure anywhere from 0.7x to 4.6x of sequential
#: depending on how the lane schedule interleaves the bound sharing
#: (the same binary, same instance, minutes apart).  A bound below the
#: zero-pruning ceiling therefore gates on scheduler luck; 5x sits just
#: above it and still catches super-linear blowup (board contention,
#: lock spin, a broken striping schedule costing more than the lanes'
#: own redundancy).  The gate takes the best of ``repeat`` PAIRED
#: attempts — sequential and cubed back-to-back, so both sides see the
#: same host-load regime.
CUBE_OVERSUBSCRIBED_SLOWDOWN = 5.0


def run_cubes_bench(*, quick: bool = False, repeat: int = 1) -> dict[str, object]:
    """Race ``cubes=4, jobs=4`` against the sequential search per instance.

    Both sides must certify the same minimum (outcome, steps, and
    minimality whenever the sequential search certified it).  Easy cases
    are repeated ``repeat`` times (best-of, like the engine scenario).
    Hard cases run ``repeat`` *paired* attempts — sequential then cubed
    back-to-back, parity required on every attempt, the pair with the
    best speedup reported.  They used to run once on the premise that
    minute-scale searches dominate timer noise; measured false: identical
    cubed runs span ~2x wall clock on a 1-core host because the lane
    interleaving (not the timer) decides how much cross-lane pruning
    happens, so a single draw straddles the oversubscribed allowance.
    Pairing also cancels slow host-load drift — each ratio compares two
    solves that ran seconds apart, not a lucky sequential from one load
    regime against an unlucky cubed from another.

    ``cubes_ok`` additionally requires at least two *hard-case wins*.
    On a host with at least as many cores as lanes a win is wall-clock
    ``speedup > 1.0`` plus a cross-lane ``shared_bound_hit`` (the board
    actually transferred a bound between lanes, it did not just observe
    its own writes).  On an **oversubscribed** host (fewer cores than
    lanes — the lanes time-share one core, so wall-clock speedup would
    measure the scheduler, not the search) a win instead requires the
    cube machinery to demonstrably engage and stay cheap: the same
    parity, a shared-bound hit or a first-winner cancellation, a
    board-certified minimum, and wall clock within
    ``CUBE_OVERSUBSCRIBED_SLOWDOWN`` of sequential.  Engagement is
    judged across *every* paired attempt, not just the timing-selected
    best pair: whether the board prunes a given draw depends on lane
    interleaving, and the fastest pair can legitimately be one where no
    lane needed the shared bound.  The report records
    ``host_cores``/``oversubscribed`` plus per-case ``engaged`` so
    readers can tell which claim a run makes.
    """
    rows: list[dict[str, object]] = []
    cubes_ok = True
    hard_wins = 0
    hard_total = 0
    host_cores = os.cpu_count() or 1
    oversubscribed = host_cores < 4
    for name, workload, budget, time_limit, hard, is_quick in CUBE_CASES:
        if quick and not is_quick:
            continue
        dag = load_workload(workload)
        tries = max(1, repeat)

        def _best(run):
            best = None
            for _ in range(tries):
                outcome = run()
                if best is None or outcome["seconds"] < best["seconds"]:
                    best = outcome
            return best

        def _solve(cubes):
            solver = ReversiblePebblingSolver(dag)
            started = time.perf_counter()
            result = solver.solve(
                budget,
                time_limit=time_limit,
                cubes=cubes,
                cube_jobs=4 if cubes else 1,
            )
            meta = result.cubes or {}
            return {
                "seconds": time.perf_counter() - started,
                "outcome": result.outcome.value,
                "steps": result.num_steps,
                "minimal": result.minimal,
                "sat_calls": len(result.attempts),
                "shared_bound_hits": result.shared_bound_hits,
                "cancelled_lanes": len(meta.get("cancelled", ())),
            }

        def _pair_parity(seq_run, cube_run):
            return (
                cube_run["outcome"] == seq_run["outcome"]
                and cube_run["steps"] == seq_run["steps"]
                and (not seq_run["minimal"] or cube_run["minimal"])
            )

        if hard:
            # Paired attempts: every attempt must certify parity, the best
            # attempt ratio carries the timing gate (see the docstring).
            sequential = cubed = None
            speedup = 0.0
            attempt_speedups: list[float] = []
            all_parity = True
            any_engaged = False
            for _ in range(tries):
                seq_run = _solve(None)
                cube_run = _solve(4)
                ratio = seq_run["seconds"] / max(cube_run["seconds"], 1e-9)
                attempt_speedups.append(round(ratio, 3))
                all_parity = all_parity and _pair_parity(seq_run, cube_run)
                any_engaged = any_engaged or (
                    cube_run["shared_bound_hits"] >= 1
                    or cube_run["cancelled_lanes"] >= 1
                )
                if sequential is None or ratio > speedup:
                    speedup = ratio
                    sequential, cubed = seq_run, cube_run
        else:
            sequential = _best(lambda: _solve(None))
            cubed = _best(lambda: _solve(4))
            speedup = sequential["seconds"] / max(cubed["seconds"], 1e-9)
            attempt_speedups = [round(speedup, 3)]
            all_parity = True
            any_engaged = (
                cubed["shared_bound_hits"] >= 1
                or cubed["cancelled_lanes"] >= 1
            )
        hits = cubed["shared_bound_hits"]
        parity = all_parity and (
            cubed["outcome"] == sequential["outcome"]
            and cubed["steps"] == sequential["steps"]
            and (not sequential["minimal"] or cubed["minimal"])
        )
        cubes_ok = cubes_ok and parity
        win = False
        if hard:
            hard_total += 1
            # Engagement (a shared-bound hit or a cancellation) is a
            # mechanism property of the *instance*, judged across every
            # paired attempt: the best pair is selected for timing, and
            # a run the board happened not to prune can still be the
            # fastest draw on an oversubscribed host.
            engaged = any_engaged
            if oversubscribed:
                win = (
                    parity
                    and engaged
                    and cubed["minimal"]
                    and speedup * CUBE_OVERSUBSCRIBED_SLOWDOWN >= 1.0
                )
            else:
                win = parity and speedup > 1.0 and engaged
            hard_wins += int(win)
        rows.append(
            {
                "name": name,
                "hard": hard,
                "steps": sequential["steps"],
                "sequential": {
                    "seconds": round(sequential["seconds"], 3),
                    "outcome": sequential["outcome"],
                    "minimal": sequential["minimal"],
                    "sat_calls": sequential["sat_calls"],
                },
                "cubed": {
                    "seconds": round(cubed["seconds"], 3),
                    "outcome": cubed["outcome"],
                    "minimal": cubed["minimal"],
                    "sat_calls": cubed["sat_calls"],
                    "shared_bound_hits": hits,
                    "cancelled_lanes": cubed["cancelled_lanes"],
                },
                "speedup": round(speedup, 3),
                "parity": parity,
                **(
                    {
                        "hard_win": win,
                        "attempt_speedups": attempt_speedups,
                        "engaged": any_engaged,
                    }
                    if hard
                    else {}
                ),
            }
        )
        print(f"cubes {name:20s} seq {sequential['seconds']:8.3f}s  "
              f"cubed {cubed['seconds']:8.3f}s  x{speedup:5.2f}  hits={hits}  "
              f"{'ok' if parity else 'MISMATCH'}")
    if hard_total:
        cubes_ok = cubes_ok and hard_wins >= 2
        criterion = (
            "the oversubscribed criterion (certified + engaged + bounded "
            "overhead)" if oversubscribed else "speedup > 1.0 and a "
            "shared-bound hit"
        )
        print(f"cubes hard cases: {hard_wins}/{hard_total} met {criterion} "
              f"(need >= 2; host has {host_cores} core(s) for 4 lanes)")
    return {
        "cases": rows,
        "jobs": 4,
        "count": 4,
        "host_cores": host_cores,
        "oversubscribed": oversubscribed,
        "hard_wins": hard_wins,
        "cubes_ok": cubes_ok,
    }


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

    Three gates, folded into ``obs_ok``:

    * **overhead** — the batch suite solved with tracing+metrics off and
      on (best-of ``repeat`` per task); the geometric mean of the
      per-task runtime ratios over the timer-reliable tasks must stay
      under ``1 + OBS_OVERHEAD_THRESHOLD`` (instrumentation must be
      cheap enough to leave on); binding on full runs only — quick/smoke
      runs report it advisorily, their two above-floor tasks cannot
      resolve 5% against scheduler noise;
    * **portfolio tree** — a traced portfolio run on the flaky ``chaos``
      backend under a retry policy must spend at least one retry and
      merge into a complete span tree with attributed ``sat.call`` spans
      and the retry visible as a ``task.retry`` event;
    * **cube tree** — a traced ``cubes=4`` search must cancel at least
      one losing lane (first-winner certification) and likewise merge
      into a complete, attributed tree.
    """
    import tempfile

    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    suite = "smoke" if quick else "default"
    tasks = tasks_from_suite(suite, time_limit=60.0)
    was_enabled = obs_metrics.enabled()

    def _suite_runtimes(trace_dir: "Path | None") -> dict[str, float]:
        # Best-of-three minimum even when the harness runs single-pass:
        # the overhead gate divides runtimes, so scheduler noise that the
        # other scenarios tolerate would fail this one spuriously.
        best: dict[str, float] = {}
        for attempt in range(max(3, repeat)):
            if trace_dir is None:
                obs_metrics.disable()
                records = run_portfolio(tasks)
            else:
                obs_metrics.enable()
                with obs_trace.tracer(trace_dir / f"overhead-{attempt}.jsonl"):
                    records = run_portfolio(tasks)
            for record in records:
                previous = best.get(record.name)
                if previous is None or record.runtime < previous:
                    best[record.name] = record.runtime
        return best

    try:
        with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as tmp:
            tmpdir = Path(tmp)
            plain = _suite_runtimes(None)
            traced = _suite_runtimes(tmpdir)
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
            # the retries must be visible in the merged trace.
            obs_metrics.enable()
            portfolio_path = tmpdir / "portfolio.jsonl"
            retry_tasks = tasks_from_suite(
                "smoke", time_limit=60.0, backend=f"chaos:{CHAOS_SEED},flaky=1"
            )
            with obs_trace.tracer(portfolio_path):
                retry_records = run_portfolio(retry_tasks, retry=CHAOS_RETRY)
            portfolio_gate = _trace_tree_gate(portfolio_path)
            portfolio_gate["retries"] = sum(r.retries for r in retry_records)
            portfolio_ok = (
                bool(portfolio_gate["complete"])
                and bool(portfolio_gate["sat_calls_attributed"])
                and portfolio_gate["retries"] >= 1
                and portfolio_gate["event_names"].get("task.retry", 0) >= 1
                and all(r.outcome == "solution" for r in retry_records)
            )
            print(f"obs portfolio trace: {portfolio_gate['spans']} spans, "
                  f"retries={portfolio_gate['retries']}, "
                  f"complete={portfolio_gate['complete']}  "
                  f"{'ok' if portfolio_ok else 'FAILED'}")

            # Cube run with cancellation: four lanes, first winner cancels
            # the rest; the merged tree must still resolve every parent.
            cube_path = tmpdir / "cubes.jsonl"
            with obs_trace.tracer(cube_path):
                result = ReversiblePebblingSolver(load_workload("c17")).solve(
                    4, time_limit=60.0, cubes=4, cube_jobs=2
                )
            cube_gate = _trace_tree_gate(cube_path)
            cancelled = len((result.cubes or {}).get("cancelled", ()))
            cube_gate["cancelled_lanes"] = cancelled
            # The cube machinery must be *visible* in the merged trace:
            # a cancelled lane, a board certification, or a shared-bound
            # hit (board.hit events come from lane pids, so any of these
            # also witnesses cross-process event merging).  Which one
            # fires depends on lane interleaving — all are equally valid.
            cube_events = cube_gate["event_names"]
            cube_ok = (
                bool(cube_gate["complete"])
                and bool(cube_gate["sat_calls_attributed"])
                and result.found
                and (
                    cancelled >= 1
                    or cube_events.get("cubes.certified", 0) >= 1
                    or cube_events.get("board.hit", 0) >= 1
                )
            )
            print(f"obs cube trace: {cube_gate['spans']} spans across "
                  f"{cube_gate['processes']} processes, "
                  f"cancelled={cancelled}, complete={cube_gate['complete']}  "
                  f"{'ok' if cube_ok else 'FAILED'}")
    finally:
        if was_enabled:
            obs_metrics.enable()
        else:
            obs_metrics.disable()

    obs_ok = (overhead_ok or not overhead_binding) and portfolio_ok and cube_ok
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
        "cube_trace": cube_gate,
        "cube_ok": cube_ok,
        "obs_ok": obs_ok,
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def _best_of(run: Callable[[type], dict[str, object]], engine: type, repeat: int) -> dict[str, object]:
    best: dict[str, object] | None = None
    for _ in range(max(1, repeat)):
        outcome = run(engine)
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
    instances = [
        instance for instance in instance_set() if instance.quick or not quick
    ]
    rows: list[dict[str, object]] = []
    speedups: list[float] = []
    all_match = True
    for instance in instances:
        legacy = _best_of(instance.run, LegacyCdclSolver, repeat)
        current = _best_of(instance.run, CdclSolver, repeat)
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
    "simplify": ("simplify", "simplify_ok",
                 "simplification ablations: full engine vs bve/vivify/chrono "
                 "off (verdict parity + per-technique attribution)"),
    "core_guided": ("core_guided", "core_ok",
                    "plain vs core-guided geometric-refine"),
    "chaos": ("chaos", "chaos_ok",
              "fault injection, retries and anytime answers"),
    "profile": ("profile", "phases_present",
                "per-phase time splits and LBD counters, current engine only"),
    "cubes": ("cubes", "cubes_ok",
              "cube-and-conquer (cubes=4, jobs=4) vs the sequential search"),
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
            "simplify": lambda: run_simplify_bench(quick=quick),
            "core_guided": lambda: run_core_guided_bench(quick=quick),
            "chaos": lambda: run_chaos_bench(quick=quick),
            "profile": lambda: run_profile_bench(quick=quick),
            "cubes": lambda: run_cubes_bench(quick=quick, repeat=repeat),
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
