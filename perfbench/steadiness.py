"""Steadiness evidence: run one workload over several seeds and summarise.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload tight-budget --seeds 1-10 --against 11-20
    python3 perfbench/steadiness.py --workload tight-budget --seeds 1-2 --trace

Untraced, it prints each end-to-end metric's median and spread (the
distance between the first and third quartile over the runs, as a share
of the median).  With ``--against`` it runs a second set of seeds,
alternating one run of each set, and reports how far each set's median
is worse than the other's, in both directions.  Each run's ``host_scale``
(see ``reference.py``) is listed as a record of the host's speed.

For every run it also shows where p50 and p90 fall in the per-request
cost distribution (scaled as ``run.py`` scales it): the request classes
(for service answers: cache or solver) found in a window of ranks around
each percentile, and how wide that window is (see ``_placement``).  The table counts, per class, the runs whose window
held it.

With ``--trace`` it makes two traced runs per seed and reports whether
the exact counts repeat, plus the median layer split.  The table is
printed as JSON on the last line.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT_COUNTS = ("solve.calls", "solve.conflicts", "encoding.clauses", "transfer.clauses")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _work(workload: str, seed: int) -> Path:
    return ROOT / ".bench_build" / "perfbench" / f"{workload}-{seed}-0"


def _spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _label(answer: dict) -> str:
    """Request class of a direct answer; cache or solver for a service one."""
    if "source" in answer:
        return str(answer["source"])
    source, budget, single_move = answer["class"]
    return f"{source} p{budget}" + (" single-move" if single_move else "")


def _placement(workload: str, seed: int) -> dict[str, dict]:
    """What lies around p50 and p90 in one run.

    The window is the two order statistics a percentile interpolates
    between plus ``max(2, n // 20)`` requests on either side; its width is
    the window's value range as a share of the percentile.  A percentile
    on the edge of a cost cluster has a window that spans both clusters.
    """
    report = _work(workload, seed) / "report.json"
    measured = json.loads(report.read_text(encoding="utf-8"))["run"]
    ranked = sorted(
        zip(run.scaled_latencies(measured), measured["answers"]), key=lambda pair: pair[0]
    )
    latencies = [latency for latency, _ in ranked]
    count = len(ranked)
    reach = max(2, count // 20)
    placement = {}
    for name, fraction, value in (
        ("p50", 0.5, statistics.median(latencies)),
        ("p90", 0.9, statistics.quantiles(latencies, n=10, method="inclusive")[8]),
    ):
        position = fraction * (count - 1)
        low = max(0, math.floor(position) - reach)
        high = min(count - 1, math.ceil(position) + reach)
        placement[name] = {
            "classes": sorted({_label(answer) for _, answer in ranked[low:high + 1]}),
            "width": (latencies[high] - latencies[low]) / value,
        }
    return placement


def _worse(name: str, value: float, baseline: float, better: dict[str, str]) -> float:
    """How far ``value`` is worse than ``baseline``, as a share of it."""
    change = (value - baseline) / baseline
    return change if better[name] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, e.g. 1-10")
    parser.add_argument("--against", help="a second range of seeds, run alternately")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    seeds = _seeds(args.seeds)
    if args.trace:
        layers: dict[str, list[float]] = {}
        repeats = {}
        for seed in seeds:
            first, second = (
                _run(args.workload, seed, args.seconds, 1)["metrics"] for _ in range(2)
            )
            repeats[seed] = {
                name: first[name]["value"] == second[name]["value"]
                for name in EXACT_COUNTS
            }
            for name, entry in first.items():
                layers.setdefault(name, []).append(entry["value"])
            print(f"seed {seed}: counts repeat {repeats[seed]}", flush=True)
        print(json.dumps({
            "workload": args.workload, "seeds": seeds, "counts_repeat": repeats,
            "layers": {name: statistics.median(v) for name, v in layers.items()},
        }))
        return 0

    sets = [seeds] + ([_seeds(args.against)] if args.against else [])
    values: list[dict[str, list[float]]] = [{} for _ in sets]
    placements: dict[str, list[dict]] = {"p50": [], "p90": []}
    host = []
    for turn in range(max(map(len, sets))):
        for index, chosen in enumerate(sets):
            if turn >= len(chosen):
                continue
            seed = chosen[turn]
            metrics = _run(args.workload, seed, args.seconds, 0)["metrics"]
            summary = json.loads((_work(args.workload, seed) / "summary.json").read_text())
            host.append(summary["host_scale"])
            for name, entry in metrics.items():
                values[index].setdefault(name, []).append(entry["value"])
            for name, where in _placement(args.workload, seed).items():
                placements[name].append(where)
            print(f"seed {seed}: host_scale={host[-1]} " + " ".join(
                f"{name}={entry['value']:.4g}" for name, entry in metrics.items()
            ), flush=True)
    table = {
        "workload": args.workload,
        "sets": [
            {"seeds": chosen,
             "median": {name: statistics.median(v) for name, v in found.items()},
             "spread": {name: _spread(v) for name, v in found.items()}}
            for chosen, found in zip(sets, values)
        ],
        "host_scale": host,
        "placement": {
            name: {
                "classes": Counter(
                    label for where in found for label in where["classes"]
                ).most_common(),
                "median_width": statistics.median(where["width"] for where in found),
                "max_width": max(where["width"] for where in found),
            }
            for name, found in placements.items()
        },
    }
    if args.against:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
        first, second = (entry["median"] for entry in table["sets"])
        table["second_worse_by"] = {
            name: _worse(name, second[name], first[name], better) for name in first
        }
        table["first_worse_by"] = {
            name: _worse(name, first[name], second[name], better) for name in first
        }
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
