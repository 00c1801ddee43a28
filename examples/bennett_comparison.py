#!/usr/bin/env python3
"""Show-case B (Table I): Bennett strategy versus constrained SAT pebbling.

For a selection of (scaled-down) Table I designs the script reports the
Bennett baseline and the smallest pebble count for which the SAT solver
finds a strategy within a per-budget timeout, together with the resulting
increase in operations — the pebbles-versus-steps trade-off the paper
quantifies as a 52.77 % average pebble reduction at a 2.68x step increase.

Run with::

    python examples/bennett_comparison.py [--timeout SECONDS]
"""

import argparse

from repro import ReversiblePebblingSolver, eager_bennett_strategy, load_workload

#: (workload, scale) pairs small enough for an interactive run.
DESIGNS = [
    ("b2_m3", 0.5),
    ("c17", 1.0),
    ("c432", 0.1),
    ("c499", 0.1),
]


def main(timeout: float) -> None:
    print("design     nodes  Bennett P/K   pebbling P/K   %P reduction  xK")
    reductions = []
    ratios = []
    for name, scale in DESIGNS:
        dag = load_workload(name, scale=scale)
        baseline = eager_bennett_strategy(dag)
        solver = ReversiblePebblingSolver(dag)
        best, _ = solver.minimize_pebbles(
            timeout_per_budget=timeout, strategy="geometric", stop_after_failures=1
        )
        if best is None or best.strategy is None:
            print(f"{name:9s}  {dag.num_nodes:5d}  {baseline.max_pebbles}/{baseline.num_moves}"
                  f"   no solution within {timeout:.0f} s per budget")
            continue
        strategy = best.strategy.remove_redundant_moves()
        reduction = 100.0 * (baseline.max_pebbles - strategy.max_pebbles) / baseline.max_pebbles
        ratio = strategy.num_moves / baseline.num_moves
        reductions.append(reduction)
        ratios.append(ratio)
        print(f"{name:9s}  {dag.num_nodes:5d}  "
              f"{baseline.max_pebbles:3d}/{baseline.num_moves:<4d}   "
              f"{strategy.max_pebbles:3d}/{strategy.num_moves:<4d}      "
              f"{reduction:6.2f}%      {ratio:.2f}x")
    if reductions:
        print(f"\naverage pebble reduction: {sum(reductions) / len(reductions):.2f}% "
              f"(paper, full-size designs: 52.77%)")
        print(f"average step factor     : {sum(ratios) / len(ratios):.2f}x "
              f"(paper, full-size designs: 2.68x)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=20.0,
                        help="seconds per pebble budget (default: 20)")
    main(parser.parse_args().timeout)
