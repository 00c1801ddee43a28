"""Experiment E5 (ablation, not in the paper) — encoding design choices.

DESIGN.md calls out three design decisions of the SAT formulation whose
impact is worth quantifying:

* the cardinality encoding used for the at-most-P constraint (pairwise,
  sequential counter, totalizer);
* incremental solving (final-state constraints selected with assumptions)
  versus re-encoding from scratch for every step bound;
* the step schedule (the paper's linear +1 loop versus a geometric ramp).

Each variant solves the same instances; the harness reports CNF sizes and
wall-clock times.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.pebbling import EncodingOptions, PebblingEncoder, ReversiblePebblingSolver
from repro.sat.cards import CardinalityEncoding
from repro.workloads import load_workload

#: Small instances for the cardinality ablation (the pairwise encoding is
#: binomial and only reasonable on small node counts / loose bounds).
CARDINALITY_INSTANCES = [
    ("fig2", 4),
    ("and9", 7),
]

#: Larger instances for the incremental/schedule ablation.
SEARCH_INSTANCES = [
    ("and9", 7),
    ("edwards-add", 14),
]


def _solve_time(dag, budget, *, encoding, incremental, schedule):
    options = EncodingOptions(cardinality=encoding)
    solver = ReversiblePebblingSolver(dag, options=options, incremental=incremental)
    started = time.monotonic()
    result = solver.solve(budget, time_limit=90, strategy=schedule)
    elapsed = time.monotonic() - started
    return result, elapsed


def test_ablation_cardinality_encodings(benchmark, record):
    def experiment():
        measurements = []
        for name, budget in CARDINALITY_INSTANCES:
            dag = load_workload(name)
            for encoding in CardinalityEncoding:
                cnf = PebblingEncoder(dag, options=EncodingOptions(cardinality=encoding)).encode(
                    max_pebbles=budget, num_steps=dag.depth() + 4
                ).cnf
                result, elapsed = _solve_time(
                    dag, budget, encoding=encoding, incremental=True, schedule="linear"
                )
                measurements.append((name, encoding.value, cnf.stats(), result, elapsed))
        return measurements

    measurements = run_once(benchmark, experiment)
    lines = ["instance      encoding    vars   clauses  solved  steps  time[s]"]
    for name, encoding, stats, result, elapsed in measurements:
        lines.append(
            f"{name:12s}  {encoding:10s}  {stats['variables']:5d}  {stats['clauses']:7d}  "
            f"{str(result.found):6s}  {str(result.num_steps):5s}  {elapsed:7.2f}"
        )
        assert result.found
    record("ablation_cardinality", lines)


def test_ablation_incremental_and_schedule(benchmark, record):
    def experiment():
        measurements = []
        for name, budget in SEARCH_INSTANCES:
            dag = load_workload(name)
            for incremental in (True, False):
                for schedule in ("linear", "geometric"):
                    result, elapsed = _solve_time(
                        dag, budget,
                        encoding=CardinalityEncoding.SEQUENTIAL,
                        incremental=incremental,
                        schedule=schedule,
                    )
                    measurements.append((name, incremental, schedule, result, elapsed))
        return measurements

    measurements = run_once(benchmark, experiment)
    lines = ["instance      incremental  schedule   solved  steps  moves  sat-calls  time[s]"]
    for name, incremental, schedule, result, elapsed in measurements:
        lines.append(
            f"{name:12s}  {str(incremental):11s}  {schedule:9s}  {str(result.found):6s}  "
            f"{str(result.num_steps):5s}  {str(result.num_moves):5s}  "
            f"{len(result.attempts):9d}  {elapsed:7.2f}"
        )
        assert result.found
    record("ablation_incremental_schedule", lines)
