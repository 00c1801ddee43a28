"""The measuring process: one fresh interpreter per pass over the plan.

Usage (from ``run.py``)::

    python3 perfbench/child.py PLAN OUT SPAWNED [--setup-only] [--bracket] [--trace]

``SPAWNED`` is the wall-clock time ``run.py`` started this process, so
the reported set-up time runs from interpreter start to the first
request: imports, engine load and, for ``service-mix``, store open and
service start.  ``--setup-only`` stops there and then times the
reference task (``reference.py``) ``GAUGES`` times.  Otherwise the plan
is sent once over a fresh store while the reference task is timed now
and then (see ``workloads.py``), or with ``--bracket`` ``GAUGES`` times
before and after the plan instead.  With ``--trace`` every layer
boundary is wrapped first, and the layer split is written next to the
wall time.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

SOURCES = Path(__file__).resolve().parent.parent / "src"

#: Reference samples taken at each gauging point.
GAUGES = 20


def _gauge() -> list[float]:
    return [reference.reference_seconds() for _ in range(GAUGES)]


def _setup(workload: str) -> None:
    """Imports and engine load; the service starts inside its event loop."""
    from repro.sat.backend import DEFAULT_BACKEND, create_backend

    if workload == "service-mix":
        import repro.service.scheduler  # noqa: F401
    else:
        import repro.circuits.pipeline  # noqa: F401
        import repro.pebbling.solver  # noqa: F401
    create_backend(DEFAULT_BACKEND)


def _send(plan: dict, database: Path, ready, gauge: bool) -> workloads.Pass:
    if plan["workload"] != "service-mix":
        ready()
        return workloads.run_direct(plan["requests"], gauge)
    return asyncio.run(workloads.run_service(plan["clients"], database, ready, gauge))


def _witnesses(plan: dict, answers: list[dict], database: Path) -> dict:
    if plan["workload"] != "service-mix":
        return {}
    return workloads.stored_witnesses(answers, database)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SOURCES))
    plan_path, out_path, spawned = Path(argv[0]), Path(argv[1]), float(argv[2])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    work = out_path.parent
    first_request: list[float] = []

    def ready() -> None:
        if not first_request:
            first_request.append(time.time())

    _setup(plan["workload"])
    if "--setup-only" in argv:
        empty = {**plan, "requests": [], "clients": []}
        _send(empty, work / f"{out_path.stem}.db", ready, False)
        out_path.write_text(json.dumps({
            "setup_s": first_request[0] - spawned,
            "reference": _gauge(),
        }))
        return 0

    database = work / f"{out_path.stem}.db"
    bracket = "--bracket" in argv
    around = _gauge() if bracket else []
    recorder = patches = None
    if "--trace" in argv:
        recorder = tracing.Recorder()
        patches = tracing.install(recorder)
    try:
        sent = _send(plan, database, ready, gauge=not bracket)
    finally:
        if patches is not None:
            patches.undo()
    if bracket:
        around += _gauge()
    answers, wall = sent.answers, sent.wall
    run = {"traced": recorder is not None, "wall": wall, "cpu": sent.cpu,
           "answers": answers, "gauges": sent.gauges, "bracket": around,
           "witnesses": _witnesses(plan, answers, database)}
    if recorder is not None:
        cached = {answer["id"] for answer in answers if answer.get("source") == "cache"}
        with open(work / "spans.jsonl", "w", encoding="utf-8") as spans:
            for span in recorder.spans:
                spans.write(json.dumps(span) + "\n")
        run["layers"] = tracing.summarize(recorder, wall, len(answers), cached)
    report = {
        "setup_s": first_request[0] - spawned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "run": run,
    }
    out_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
