#!/usr/bin/env python3
"""Show-case A (Fig. 5): memory management for a cryptographic straight-line
program.

The script pebbles the Kummer-surface point-addition program (40 modular
operations, the workload family of the paper's Fig. 5) with a shrinking
ancilla budget and reports, for every budget, how many operations of each
type are executed and how the memory usage evolves over time.

Run with::

    python examples/straight_line_program.py [budget budget ...]
"""

import sys

from repro import eager_bennett_strategy, pebble_dag
from repro.slp import kummer_point_addition_slp
from repro.visualize import memory_profile_chart


def main(budgets: list[int]) -> None:
    program = kummer_point_addition_slp()
    dag = program.to_dag()
    baseline = eager_bennett_strategy(dag)
    print(f"program: {program.name} with {program.num_instructions} operations "
          f"({program.operation_counts()})")
    print(f"Bennett baseline: {baseline.max_pebbles} ancillae, "
          f"{baseline.num_moves} operations\n")

    for budget in budgets:
        result = pebble_dag(dag, budget, time_limit=120, strategy="geometric")
        if not result.found:
            print(f"{budget:3d} ancillae: no strategy found within the time budget "
                  f"({result.outcome.value})")
            continue
        strategy = result.strategy.remove_redundant_moves()
        counts = strategy.operation_counts()
        summary = ", ".join(f"{name}:{count}" for name, count in sorted(counts.items()))
        print(f"{strategy.max_pebbles:3d} ancillae: {strategy.num_moves:3d} operations "
              f"({summary})")
        print(f"{'':14s}{memory_profile_chart(strategy)}")
    print("\nFewer ancillae force values to be recomputed, exactly the "
          "qubits-vs-operations trade-off of Fig. 5.")


if __name__ == "__main__":
    requested = [int(token) for token in sys.argv[1:]] or [30, 26, 22]
    main(requested)
