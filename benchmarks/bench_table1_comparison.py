"""Experiment E3 — Table I: Bennett strategy versus SAT-based pebbling.

For every benchmark design the paper reports the Bennett baseline
(pebbles P, steps K) and the best SAT solution found within a two-minute
timeout (pebbles P, steps K, runtime), then summarises the average pebble
reduction (52.77 %) and the average step increase (2.68x).

The rows were sized when the pure-Python engine was the default: it could
not process the paper-sized instances (up to 1257 nodes) within a laptop
benchmark run.  Requests now run on the C core (the Python engine is the
no-compiler fallback), so larger rows may be within reach; until that is
measured (see ROADMAP.md), this harness executes the identical
experiment design on scaled-down instances of the same families:

* gate-level Hadamard ``H`` operator designs (``b*_m*`` rows) with reduced
  bit widths;
* the real ``c17`` plus synthetic ISCAS-sized stand-ins at reduced scale.

The reported columns are the same as Table I, and EXPERIMENTS.md compares
the resulting averages with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from conftest import run_once

from repro.pebbling import ReversiblePebblingSolver, eager_bennett_strategy
from repro.workloads import load_workload, table1_rows

#: (workload name, scale) pairs exercised by the harness, chosen so the
#: whole table completes in a few minutes on the pure-Python SAT engine.
SCALED_ROWS: list[tuple[str, float]] = [
    ("b2_m3", 0.5),
    ("c17", 1.0),
    ("c432", 0.10),
    ("c499", 0.10),
    ("c880", 0.08),
    ("c1355", 0.10),
]
TIMEOUT_PER_BUDGET = 25.0


@dataclass
class Row:
    name: str
    nodes: int
    bennett_pebbles: int
    bennett_steps: int
    pebbles: int | None
    steps: int | None
    runtime: float


def _run_row(name: str, scale: float) -> Row:
    dag = load_workload(name, scale=scale)
    baseline = eager_bennett_strategy(dag)
    solver = ReversiblePebblingSolver(dag)
    best, attempts = solver.minimize_pebbles(
        timeout_per_budget=TIMEOUT_PER_BUDGET,
        strategy="geometric",
        stop_after_failures=1,
    )
    runtime = sum(result.runtime for result in attempts)
    if best is None or best.strategy is None:
        return Row(name, dag.num_nodes, baseline.max_pebbles, baseline.num_moves,
                   None, None, runtime)
    cleaned = best.strategy.remove_redundant_moves()
    return Row(
        name,
        dag.num_nodes,
        baseline.max_pebbles,
        baseline.num_moves,
        cleaned.max_pebbles,
        cleaned.num_moves,
        runtime,
    )


def test_table1_comparison(benchmark, record):
    def experiment():
        return [_run_row(name, scale) for name, scale in SCALED_ROWS]

    rows = run_once(benchmark, experiment)

    paper_by_name = {row.name: row for row in table1_rows()}
    lines = [
        "design     nodes  Bennett P  Bennett K  pebbling P  pebbling K  runtime[s]  %P red.  xK",
        "(scaled-down instances; paper-sized numbers in EXPERIMENTS.md)",
    ]
    reductions = []
    ratios = []
    for row in rows:
        if row.pebbles is None:
            lines.append(f"{row.name:9s}  {row.nodes:5d}  {row.bennett_pebbles:9d}  "
                         f"{row.bennett_steps:9d}  (no solution within timeout)")
            continue
        reduction = 100.0 * (row.bennett_pebbles - row.pebbles) / row.bennett_pebbles
        ratio = row.steps / row.bennett_steps
        reductions.append(reduction)
        ratios.append(ratio)
        lines.append(
            f"{row.name:9s}  {row.nodes:5d}  {row.bennett_pebbles:9d}  {row.bennett_steps:9d}  "
            f"{row.pebbles:10d}  {row.steps:10d}  {row.runtime:10.2f}  {reduction:6.2f}  {ratio:.2f}"
        )
        paper = paper_by_name.get(row.name)
        if paper is not None and paper.paper_bennett_pebbles:
            paper_reduction = 100.0 * (paper.paper_bennett_pebbles - paper.paper_pebbles) / \
                paper.paper_bennett_pebbles
            lines.append(
                f"{'':9s}  paper: nodes={paper.paper_nodes} Bennett P/K="
                f"{paper.paper_bennett_pebbles}/{paper.paper_bennett_steps} "
                f"pebbling P/K={paper.paper_pebbles}/{paper.paper_steps} "
                f"({paper_reduction:.2f}% reduction)"
            )
    assert reductions, "no row produced a pebbling solution"
    average_reduction = sum(reductions) / len(reductions)
    average_ratio = sum(ratios) / len(ratios)
    lines.append("")
    lines.append(f"average pebble reduction: {average_reduction:.2f}%   (paper: 52.77%)")
    lines.append(f"average step factor     : {average_ratio:.2f}x    (paper: 2.68x)")
    record("table1_comparison", lines)

    # Qualitative claims of the paper that must hold on the scaled instances:
    # pebbling reduces the pebble count on average and pays with more steps.
    assert average_reduction > 0
    assert average_ratio >= 1.0
