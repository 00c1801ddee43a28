"""Steady end-to-end benchmark of the pebbling tool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tight-budget --seed 1 --seconds 30 --trace 0

Workloads: ``tight-budget``, ``loose-budget``, ``service-mix`` (see
``workloads.py``).  This script generates the seeded inputs (untimed),
sends the plan from a fresh measuring process (``child.py``) and checks
every answer against the expected-answer table and an independent
witness replay (``check.py``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of an untraced measuring
process: ``setup_s`` (median of seven set-up-only processes, interpreter
start to first request), ``answers_per_s``, ``latency_p50_ms``,
``latency_p90_ms`` and ``peak_rss_mb``.  Times are scaled to a nominal
host with the reference task timed around them (``reference.py``): a
set-up time as a whole, a request's latency for the share of it during
which the process was on the CPU (``scaled_latencies``).
``--trace 1`` sends the plan once untraced and once traced, each from its
own fresh process, and reports the traced pass's layer split, its
``unattributed_s`` and ``trace.overhead`` (traced wall over untraced
wall, each scaled, minus 1).  Metric names and units come from ``BENCHMARK.json``.
Work files go to ``.bench_build/perfbench/`` in the checkout.

The exit status is non-zero when the program is missing, a measuring
process fails, or any answer is wrong.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes that only set up: three before the measuring process,
#: four after it.
SETUP_PROBES = 7

#: Seconds on either side of a send whose reference samples scale it:
#: long enough to hold a dozen samples between ``tight-budget``'s long
#: sweeps, short enough to follow the host's speed as it moves.
GAUGE_WINDOW = 5.0

#: Bound on one measuring process.
CHILD_TIMEOUT = 160.0


def _declared_units(group: str) -> dict[str, str]:
    """Name -> unit of every ``group`` metric declared in ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[group]}


def _child(plan: Path, out: Path, *flags: str) -> dict:
    spawned = time.time()
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan), str(out), repr(spawned),
         *flags],
        cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def _failures(run: dict, shadows: dict) -> list[str]:
    failures = []
    for answer in run["answers"]:
        witness = answer.get("witness")
        if witness is None:
            witness = run["witnesses"].get(check.answer_key(answer))
        reason = check.check_answer(answer, shadows[answer["path"]], witness)
        if reason is not None:
            failures.append(f"request {answer['id']} ({answer['path']}): {reason}")
    return failures


def scaled_latencies(run: dict) -> list[float]:
    """Every answer's latency, its busy share scaled to the nominal host.

    The busy share is the process's CPU time over the request; the rest,
    when the process sat idle (the service's batch timer, disk waits), is
    kept as measured.  The scale comes from the reference samples taken
    within ``GAUGE_WINDOW`` seconds of the request's middle (see
    ``reference.py``).
    """
    gauges = sorted(run["gauges"])
    starts = [at for at, _ in gauges]
    latencies = []
    for answer in run["answers"]:
        latency = answer["latency"]
        middle = answer["sent_at"] + latency / 2
        low = bisect.bisect_left(starts, middle - GAUGE_WINDOW)
        high = bisect.bisect_right(starts, middle + GAUGE_WINDOW)
        factor = reference.scale([seconds for _, seconds in gauges[low:high]])
        busy = min(answer["cpu"], latency)
        latencies.append(latency - busy + busy * factor)
    return latencies


def _scaled_time(wall: float, cpu: float, samples: list[float]) -> float:
    """``wall`` with its busy share (``cpu``) scaled as ``samples`` say."""
    busy = min(cpu, wall)
    return wall - busy + busy * reference.scale(samples)


def _counts_differ(first: list[dict], second: list[dict]) -> list[int]:
    """Request ids whose search counts differ between two runs of one plan."""
    def counts(answer):
        return answer.get("source"), answer.get("sat_calls"), answer.get("conflicts")

    by_id = {answer["id"]: counts(answer) for answer in first}
    return sorted(a["id"] for a in second if by_id.get(a["id"]) != counts(a))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "tmp").mkdir()
    # Temporary files (SQLite's, a native build's) stay in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    from repro.sat.backend import DEFAULT_BACKEND, create_backend

    create_backend(DEFAULT_BACKEND)  # builds a native default before timing
    plan, shadows = workloads.build_plan(
        args.workload, args.seed, args.seconds, work / "inputs"
    )
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    def probe_setup(index: int) -> float:
        probe = _child(plan_path, work / f"setup-{index}.json", "--setup-only")
        return probe["setup_s"] * reference.scale(probe["reference"])

    traced = bool(args.trace)
    if traced:
        # One untraced and one traced pass, each from its own fresh process.
        runs = [_child(plan_path, work / "untraced.json", "--bracket")["run"],
                _child(plan_path, work / "traced.json", "--bracket", "--trace")["run"]]
    else:
        before = SETUP_PROBES // 2
        setups = [probe_setup(index) for index in range(before)]
        report = _child(plan_path, work / "report.json")
        setups += [probe_setup(index) for index in range(before, SETUP_PROBES)]
        runs = [report["run"]]

    failures = [reason for run in runs for reason in _failures(run, shadows)]
    attempted = sum(len(run["answers"]) for run in runs)
    first = runs[0]
    backends = Counter(
        str(answer.get("backend")) for run in runs for answer in run["answers"]
    )
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "backends": dict(backends), "requests": len(first["answers"]),
        "failed_ratio": len(failures) / max(1, attempted),
        "failures": failures[:20],
    }
    if traced:
        values = dict(runs[1]["layers"])
        # Each pass's wall time scaled by its own process's reference samples.
        untraced, traced_run = (
            _scaled_time(run["wall"], run["cpu"], run["bracket"]) for run in runs
        )
        values["trace.overhead"] = traced_run / untraced - 1
        summary["counts_differ_between_passes"] = _counts_differ(
            first["answers"], runs[1]["answers"])
    else:
        summary["setup_samples_s"] = setups
        latencies = scaled_latencies(first)
        gauged = [seconds for _, seconds in first["gauges"]]
        summary["host_scale"] = reference.scale(gauged)
        if args.workload == "service-mix":
            # Two clients overlap: the pass's wall time, its busy share
            # scaled, without the reference runs themselves.
            elapsed = _scaled_time(
                first["wall"] - sum(gauged), first["cpu"] - sum(gauged), gauged)
        else:
            # One closed-loop client is busy for its summed latency.
            elapsed = sum(latencies)
        latencies = sorted(1000 * latency for latency in latencies)
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        summary["latency_samples_beyond_p90"] = sum(1 for x in latencies if x > p90)
        measured = sorted(1000 * answer["latency"] for answer in first["answers"])
        summary["measured"] = {
            "latency_p50_ms": statistics.median(measured),
            "latency_p90_ms": statistics.quantiles(measured, n=10, method="inclusive")[8],
            "wall_s": first["wall"], "cpu_s": first["cpu"],
        }
        values = {
            "setup_s": statistics.median(setups),
            "answers_per_s": len(latencies) / elapsed,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": p90,
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = _declared_units("per_layer" if traced else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary["metrics"] = {name: entry["value"] for name, entry in metrics.items()}
    (work / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print("# perfbench " + json.dumps(summary))
    for reason in failures[:20]:
        print(f"# wrong answer: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
