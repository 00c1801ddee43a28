"""The three workloads: seeded request plans and the clients that send them.

A plan is built by ``run.py`` and replayed by a fresh measuring process
(``child.py``).  Every run of a workload issues the same requests:
``--seconds`` fixes how many whole *rounds* the plan holds, from each
workload's round length on the slow side of the 2-core host the
benchmark was tuned on, and the k-th variant of a source always has the
same node order (see ``_Variants``).  The seed draws the node names and the
request order.

* ``tight-budget`` -- one client calls ``ReversiblePebblingSolver.solve``
  as ``repro-pebble pebble`` does, at budgets where the search refutes
  many step bounds (Problem 1 at its hardest; the solve dominates).
* ``loose-budget`` -- one client compiles gate-level netlists
  (``compile_workload`` with Barenco lowering and the simulation check)
  and solves word-level SLPs at generous budgets, where each step bound
  is settled in a few conflicts and encoding plus clause transfer
  dominate.
* ``service-mix`` -- two closed-loop clients await
  ``PebblingService.submit`` over a fresh on-disk ``ResultStore`` with
  the service's defaults.  Each client round sends a cold pebble miss, a
  warm neighbouring budget, a cold compile miss and twelve exact repeats
  (one pair of them back to back, so in-flight dedup fires); with misses
  a fifth of the traffic, the median sits among cache answers and the
  90th percentile among misses.  The two clients draw from disjoint
  source DAGs and every cold miss is a retyped variant with a fresh store
  fingerprint, so what one client finds in the store never depends on
  the other client's timing.

Requests name no backend and no schedule: they get the library defaults.
Each carries a time limit far above its class's slowest run, so no
outcome depends on machine speed.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference
from check import answer_key
from tracing import CURRENT_REQUEST

#: Per-request time limit in seconds; the slowest class takes about 2 s.
TIME_LIMIT = 300.0

WORKLOADS = ("tight-budget", "loose-budget", "service-mix")

#: Seconds between two runs of the reference task on ``service-mix``.
GAUGE_PERIOD = 0.5


@dataclass
class Pass:
    """One pass over a plan, as the measuring process saw it."""

    answers: list[dict]
    wall: float
    #: The process's CPU time over the pass (every answer records its own).
    cpu: float
    #: (seconds into the pass, reference task seconds) of each gauge.
    gauges: list[tuple[float, float]]


@dataclass(frozen=True)
class RequestClass:
    source: str
    budget: int
    single_move: bool = False
    kind: str = "solve"
    #: Requests of this class in one round.
    per_round: int = 1


#: One below the minimum budget for the small DAGs (all-UNSAT sweeps of
#: the default batch suite) plus and9 p5 single-move; a few pebbles above
#: the minimum for the crypto SLPs.  In scaled time (see ``reference.py``;
#: 5th to 95th percentile over twenty runs) the 24 requests of a round
#: fall into three cost clusters: 18 cheap ones (fig2 and c17 sweeps, and9
#: p5 single-move, edwards-add p11; 0.12-0.37 s), kummer-double p16
#: (0.5-0.8 s) and five long sweeps of 250 or more SAT calls each (and9 p4
#: 0.8-1.1 s, hadamard p5 0.9-1.4 s, and9 p4 single-move 1.1-1.6 s).  Of
#: the 48 requests of two rounds the median interpolates ranks 23 and 24,
#: inside the cheap cluster, and the 90th percentile ranks 42 and 43,
#: among the six hadamard p5 sweeps (ranks 38-47), which share them at
#: times with an and9 p4 sweep below or a single-move one above.
#: edwards-add p10 is left out: its cost moves between 1.0 and 3.5 s with
#: the variable order, and its search crosses the engine's time-budgeted
#: inprocessing, so its conflict count does not repeat.
TIGHT = (
    RequestClass("fig2", 3, per_round=7),
    RequestClass("c17", 3, per_round=7),
    RequestClass("and9", 5, True, per_round=2),
    RequestClass("edwards-add", 11, per_round=2),
    RequestClass("kummer-double", 16),
    RequestClass("and9", 4),
    RequestClass("hadamard", 5, per_round=3),
    RequestClass("and9", 4, True),
)

#: ISCAS stand-ins at scale 0.1 compiled end to end, SLPs solved.
LOOSE = (
    RequestClass("c432", 9, kind="compile"),
    RequestClass("c499", 9, kind="compile"),
    RequestClass("c1355", 12, kind="compile"),
    RequestClass("c1908", 12, kind="compile"),
    RequestClass("kummer-add", 20),
    RequestClass("kummer-double", 20),
    RequestClass("edwards-add", 14),
)

#: Per service client: (pebble source, budget), neighbouring budget,
#: (compile source, budget).  The two clients share no source DAG.
SERVICE_CLIENTS = (
    (("and9", 5), 6, ("fig2", 4)),
    (("hadamard", 6), 7, ("c17", 4)),
)

#: Seconds one round takes when the reference task takes about 15 ms,
#: the slowest this host was seen at; a run then lasts about ``--seconds``,
#: and less on a faster host.
ROUND_SECONDS = {"tight-budget": 14.5, "loose-budget": 1.9, "service-mix": 0.3}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


class _Variants:
    """Writes fresh variants into one directory, remembering their shadows.

    The seeded ``rng`` draws the names; the node order (and, for a
    retyped variant, the operations) of the k-th variant of a source come
    from a generator seeded with the source and k alone.  Every run thus
    searches the same multiset of variable orders: with a fresh order per
    request, the summed conflicts of a ``tight-budget`` run moved by 7%
    from seed to seed.
    """

    def __init__(self, directory: Path, rng: random.Random) -> None:
        self.directory = directory
        self.rng = rng
        self.shadows: dict[str, dict[str, object]] = {}
        self._sources: dict[str, inputs.Source] = {}
        self._counts: dict[str, int] = {}

    def new(self, source: str, *, prefix: str = "", retype: bool = False) -> str:
        if source not in self._sources:
            self._sources[source] = inputs.load_source(source)
        stem = f"{prefix}{source}"
        index = self._counts.get(stem, 0)
        self._counts[stem] = index + 1
        path = self.directory / f"{stem}-{index:04d}{inputs.suffix(source)}"
        shape = random.Random(f"{stem}:{index}")
        self.shadows[str(path)] = inputs.write_variant(
            self._sources[source], path, self.rng, shape, retype=retype
        )
        return str(path)


def build_plan(
    workload: str, seed: int, seconds: float, directory: Path
) -> tuple[dict[str, object], dict[str, dict[str, object]]]:
    """The request plan of one run, and the shadow of every input file."""
    rng = random.Random(f"{workload}:{seed}")
    variants = _Variants(directory, rng)
    rounds = rounds_for(workload, seconds)
    if workload in ("tight-budget", "loose-budget"):
        classes = TIGHT if workload == "tight-budget" else LOOSE
        requests = [
            {
                "kind": entry.kind,
                "path": variants.new(entry.source),
                "class": [entry.source, entry.budget, entry.single_move],
            }
            for _ in range(rounds)
            for entry in classes
            for _ in range(entry.per_round)
        ]
        rng.shuffle(requests)
        for number, request in enumerate(requests):
            request["id"] = number
        plan = {"workload": workload, "requests": requests}
        return plan, variants.shadows
    clients = []
    number = 0
    for client, (pebble, neighbour, compile_) in enumerate(SERVICE_CLIENTS):
        seen: list[dict[str, object]] = []
        steps: list[dict[str, object]] = []

        def send(request: dict[str, object], copies: int = 1) -> None:
            nonlocal number
            steps.append({**request, "ids": list(range(number, number + copies))})
            number += copies

        def repeat(copies: int = 1) -> None:
            send(rng.choice(seen), copies)

        for _ in range(rounds):
            miss = {
                "kind": "pebble",
                "path": variants.new(pebble[0], prefix=f"c{client}-", retype=True),
                "class": [pebble[0], pebble[1], False],
            }
            near = {**miss, "class": [pebble[0], neighbour, False]}
            compiled = {
                "kind": "compile",
                "path": variants.new(compile_[0], prefix=f"c{client}-", retype=True),
                "class": [compile_[0], compile_[1], False],
            }
            for request in (miss, near, compiled):
                send(request)
                seen.append(request)
                for _ in range(3):
                    repeat()
            repeat(copies=2)
            repeat()
        clients.append(steps)
    return {"workload": workload, "clients": clients}, variants.shadows


# ---------------------------------------------------------------------------
# clients (run inside the measuring process)
# ---------------------------------------------------------------------------
def _witness(strategy) -> list[list[str]] | None:
    if strategy is None:
        return None
    return [sorted(map(str, configuration)) for configuration in strategy.configurations]


def run_direct(requests: list[dict[str, object]], gauge: bool) -> Pass:
    """Send every request in order from one closed-loop client.

    With ``gauge``, the reference task runs once after every answer, out
    of every latency.
    """
    from repro.circuits import pipeline
    from repro.pebbling.encoding import EncodingOptions
    from repro.pebbling.solver import ReversiblePebblingSolver
    from repro.workloads import registry

    answers, gauges = [], []
    started, started_cpu = time.perf_counter(), time.process_time()
    for request in requests:
        CURRENT_REQUEST.set(request["id"])
        source, budget, single_move = request["class"]
        answer = {key: request[key] for key in ("id", "kind", "path", "class")}
        sent, sent_cpu = time.perf_counter(), time.process_time()

        def answered() -> None:
            answer["latency"] = time.perf_counter() - sent
            answer["cpu"] = time.process_time() - sent_cpu

        try:
            if request["kind"] == "compile":
                report = pipeline.compile_workload(
                    request["path"], pebbles=budget, decompose=True,
                    time_limit=TIME_LIMIT,
                )
                answered()
                answer.update(
                    outcome=report.outcome, steps=report.steps,
                    complete=report.search_complete, verified=report.verified,
                    backend=report.backend, witness=_witness(report.strategy),
                    sat_calls=report.sat_calls, conflicts=report.conflicts,
                )
            else:
                dag = registry.load_workload_or_path(request["path"])
                options = EncodingOptions(max_moves_per_step=1 if single_move else None)
                result = ReversiblePebblingSolver(dag, options=options).solve(
                    budget, time_limit=TIME_LIMIT
                )
                answered()
                answer.update(
                    outcome=result.outcome.value, steps=result.num_steps,
                    complete=result.complete, backend=result.backend,
                    witness=_witness(result.strategy),
                    sat_calls=len(result.attempts),
                    conflicts=sum(a.conflicts for a in result.attempts),
                )
        except Exception as error:  # noqa: BLE001 — a failed request is counted, not fatal
            answered()
            answer["error"] = f"{type(error).__name__}: {error}"
        answer["sent_at"] = sent - started
        answers.append(answer)
        if gauge:
            gauges.append((time.perf_counter() - started, reference.reference_seconds()))
    return Pass(answers, time.perf_counter() - started,
                time.process_time() - started_cpu, gauges)


def _job(request: dict[str, object]):
    from repro.service.scheduler import JobRequest

    return JobRequest(
        kind=request["kind"], workload=request["path"],
        budget=request["class"][1], time_limit=TIME_LIMIT,
    )


async def run_service(
    clients: list[list[dict[str, object]]], database: Path, ready, gauge: bool
) -> Pass:
    """Two closed-loop clients against one service over a fresh store.

    ``ready`` is called once the service is up, right before the first
    request goes out.  With ``gauge``, every ``GAUGE_PERIOD`` seconds the
    clients hold their next request until no request is in flight, and
    the reference task runs while the service is idle, so that it shares
    the interpreter with none of the program's work.
    """
    from repro.service.scheduler import PebblingService

    answers: list[dict] = []
    gauges: list[tuple[float, float]] = []
    sending, idle = asyncio.Event(), asyncio.Event()
    sending.set()
    idle.set()
    in_flight = 0

    async def send(service, step, job, rid) -> None:
        nonlocal in_flight
        await sending.wait()
        in_flight += 1
        idle.clear()
        try:
            await submit(service, step, job, rid)
        finally:
            in_flight -= 1
            if not in_flight:
                idle.set()

    async def submit(service, step, job, rid) -> None:
        CURRENT_REQUEST.set(rid)
        answer = {key: step[key] for key in ("kind", "path", "class")}
        answer["id"] = rid
        sent, sent_cpu = time.perf_counter(), time.process_time()
        answer["sent_at"] = sent - started
        try:
            result = await service.submit(job)
        except Exception as error:  # noqa: BLE001 — counted as a failed request
            result = None
            answer["error"] = f"{type(error).__name__}: {error}"
        answer["latency"] = time.perf_counter() - sent
        answer["cpu"] = time.process_time() - sent_cpu
        answers.append(answer)
        if result is None:
            return
        payload = result.payload or {}
        answer.update(
            source=result.source, outcome=payload.get("outcome"),
            steps=payload.get("steps"), backend=payload.get("backend"),
            complete=payload.get(
                "search_complete" if step["kind"] == "compile" else "complete"
            ),
            verified=payload.get("verified"), sat_calls=payload.get("sat_calls"),
            conflicts=payload.get("conflicts", (payload.get("counters") or {}).get("conflicts")),
        )
        if not result.ok:
            answer["error"] = result.error or "the service returned an error"

    async def client(service, steps) -> None:
        for step in steps:
            job = _job(step)
            await asyncio.gather(*(send(service, step, job, rid) for rid in step["ids"]))

    async def gauge_host() -> None:
        while True:
            await asyncio.sleep(GAUGE_PERIOD)
            sending.clear()
            await idle.wait()
            gauges.append((time.perf_counter() - started, reference.reference_seconds()))
            sending.set()

    async with PebblingService(store=str(database)) as service:
        ready()
        started, started_cpu = time.perf_counter(), time.process_time()
        gauging = asyncio.create_task(gauge_host()) if gauge else None
        await asyncio.gather(*(client(service, steps) for steps in clients))
        wall, cpu = time.perf_counter() - started, time.process_time() - started_cpu
        if gauging is not None:
            gauging.cancel()
    return Pass(answers, wall, cpu, gauges)


def stored_witnesses(answers: list[dict], database: Path) -> dict[str, list]:
    """Read the witness behind every distinct service answer from the store."""
    from repro.circuits.pipeline import compile_cache_request
    from repro.pebbling.portfolio import task_solve_parameters
    from repro.store.store import ResultStore
    from repro.workloads.registry import load_workload_network, load_workload_or_path

    witnesses: dict[str, list] = {}
    with ResultStore(str(database)) as store:
        for answer in answers:
            key = answer_key(answer)
            if key in witnesses or answer.get("outcome") != "solution":
                continue
            dag = load_workload_or_path(answer["path"])
            if answer["kind"] == "compile":
                cached = store.get_compile(
                    dag, network=load_workload_network(answer["path"]),
                    **compile_cache_request(
                        pebbles=answer["class"][1], workload=answer["path"]
                    ),
                )
            else:
                cached = store.get_pebble(
                    dag, **task_solve_parameters(_job(answer).to_task())
                )
            witnesses[key] = _witness(cached.strategy if cached else None)
    return witnesses

