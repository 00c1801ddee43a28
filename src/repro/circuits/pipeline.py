"""End-to-end quantum compilation pipeline (pebble → circuit → verify → cost).

This module connects every layer of the reproduction into the compiler the
paper describes: a dependency DAG is pebbled by the SAT engine (optionally
under the *weighted* game, where each node's weight is the number of qubits
its value occupies), the strategy is compiled into a reversible circuit
over single-target gates, the gates are optionally lowered to Toffoli
(<= 2-control) gates through the Barenco construction, the circuit is
verified by classical simulation against the source
:class:`~repro.logic.network.LogicNetwork`, and the qubit/gate/T-count
costs are aggregated into a :class:`CompilationReport`.

Two entry points:

* :func:`compile_dag` — the core pipeline over an explicit DAG (and
  optional network for Boolean fidelity);
* :func:`compile_workload` — resolves a registry workload name or file
  path to its DAG *and* network and runs :func:`compile_dag`.

:func:`pareto_sweep` reproduces the space–time trade-off of the paper's
Fig. 6: one compilation per pebble/weight budget, fanned out over the
portfolio process pool, with the Pareto-optimal points marked.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.dag.graph import Dag
from repro.circuits.barenco import decompose_circuit
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.compile import (
    CompiledCircuit,
    compile_strategy,
    dag_controls,
    network_controls,
)
from repro.circuits.costs import CostModel, circuit_cost
from repro.circuits.simulator import check_pattern_count, check_patterns
from repro.logic.network import LogicNetwork
from repro.obs import trace as _trace
from repro.pebbling.encoding import DEFAULT_CARDINALITY, EncodingOptions
from repro.pebbling.portfolio import PortfolioTask, run_portfolio
from repro.pebbling.search import strategy_from_name
from repro.pebbling.solver import ReversiblePebblingSolver
from repro.pebbling.strategy import (
    PebblingStrategy,
    strategy_from_payload,
    strategy_payload,
)
from repro.sat.backend import DEFAULT_BACKEND
from repro.sat.cards import CardinalityEncoding
from repro.workloads.registry import load_workload_network, load_workload_or_path


@dataclass
class CompilationReport:
    """The result of one end-to-end compilation.

    All scalar fields are JSON-serialisable through :meth:`as_dict` (the
    schema is documented in EXPERIMENTS.md); ``strategy`` and ``circuit``
    carry the actual artifacts for callers that want to print grids or
    export gates, and are excluded from the dictionary.
    """

    workload: str
    dag_name: str
    nodes: int
    budget: int
    weighted: bool
    decomposed: bool
    outcome: str
    steps: int | None = None
    moves: int | None = None
    pebbles_used: int | None = None
    weight_used: float | None = None
    qubits: int | None = None
    gates: int | None = None
    toffoli_equivalents: int | None = None
    t_count: int | None = None
    verified: bool | None = None
    verify_patterns: int = 0
    sat_calls: int = 0
    conflicts: int = 0
    solve_runtime: float = 0.0
    runtime: float = 0.0
    search_complete: bool = False
    #: Backend spec that ran the SAT search (metadata only: the store's
    #: compile addresses are backend-invariant, so a cached report may
    #: name a different producer than the requester).
    backend: str = DEFAULT_BACKEND
    strategy: PebblingStrategy | None = field(
        default=None, repr=False, compare=False
    )
    circuit: ReversibleCircuit | None = field(
        default=None, repr=False, compare=False
    )
    #: ``True`` when :func:`compile_dag` answered from the result store.
    #: Never serialised, like
    #: :attr:`~repro.pebbling.solver.PebblingResult.from_cache`.
    from_cache: bool = field(default=False, repr=False, compare=False)

    @property
    def found(self) -> bool:
        """``True`` when the pebbling search produced a strategy."""
        return self.outcome == "solution"

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (see EXPERIMENTS.md for the schema)."""
        return {
            "workload": self.workload,
            "dag": self.dag_name,
            "nodes": self.nodes,
            "budget": self.budget,
            "weighted": self.weighted,
            "decomposed": self.decomposed,
            "outcome": self.outcome,
            "steps": self.steps,
            "moves": self.moves,
            "pebbles_used": self.pebbles_used,
            "weight_used": self.weight_used,
            "qubits": self.qubits,
            "gates": self.gates,
            "toffoli_equivalents": self.toffoli_equivalents,
            "t_count": self.t_count,
            "verified": self.verified,
            "verify_patterns": self.verify_patterns,
            "sat_calls": self.sat_calls,
            "conflicts": self.conflicts,
            "solve_runtime": round(self.solve_runtime, 3),
            "runtime": round(self.runtime, 3),
            "search_complete": self.search_complete,
            "backend": self.backend,
        }

    def to_json(self) -> dict[str, object]:
        """Lossless JSON form for the result store (see :meth:`from_json`).

        Extends :meth:`as_dict` with unrounded runtimes and the strategy's
        configurations so a cached report can rebuild its
        :class:`~repro.pebbling.strategy.PebblingStrategy`; the compiled
        ``circuit`` object is *not* serialised (it is cheap to recompile
        from the strategy when needed).
        """
        payload = self.as_dict()
        payload["schema"] = 1
        payload["solve_runtime"] = self.solve_runtime
        payload["runtime"] = self.runtime
        payload["strategy"] = (
            strategy_payload(self.strategy) if self.strategy is not None else None
        )
        return payload

    @classmethod
    def from_json(cls, data: dict[str, object], dag: Dag) -> "CompilationReport":
        """Rebuild a report from :meth:`to_json` output on its source DAG."""
        payload = data.get("strategy")
        strategy = (
            strategy_from_payload(payload, dag) if payload is not None else None
        )
        return cls(
            workload=str(data["workload"]),
            dag_name=str(data["dag"]),
            nodes=int(data["nodes"]),
            budget=int(data["budget"]),
            weighted=bool(data["weighted"]),
            decomposed=bool(data["decomposed"]),
            outcome=str(data["outcome"]),
            steps=data["steps"],
            moves=data["moves"],
            pebbles_used=data["pebbles_used"],
            weight_used=data["weight_used"],
            qubits=data["qubits"],
            gates=data["gates"],
            toffoli_equivalents=data["toffoli_equivalents"],
            t_count=data["t_count"],
            verified=data["verified"],
            verify_patterns=int(data["verify_patterns"]),
            sat_calls=int(data["sat_calls"]),
            conflicts=int(data["conflicts"]),
            solve_runtime=float(data["solve_runtime"]),
            runtime=float(data["runtime"]),
            search_complete=bool(data["search_complete"]),
            backend=str(data.get("backend", DEFAULT_BACKEND)),
            strategy=strategy,
        )


def verify_compiled_against_network(
    network: LogicNetwork,
    compiled: CompiledCircuit,
    circuit: ReversibleCircuit | None = None,
    *,
    max_patterns: int = 64,
    seed: int = 0,
) -> int:
    """Simulate a compiled circuit against network evaluation; return the
    number of patterns checked.

    ``circuit`` defaults to ``compiled.circuit`` and may be a decomposed
    rewrite of it (same qubit names).  For every input pattern (exhaustive
    when ``2^inputs <= max_patterns``, otherwise a seeded random sample of
    ``max_patterns``, an int of at least 1) the check asserts that every
    DAG output qubit carries the value the network computes for that
    signal, that every ancilla qubit is restored to zero, and that input
    qubits are unchanged.  Raises :class:`~repro.errors.CircuitError` with
    a counter-example on the first mismatch.
    """
    check_pattern_count(max_patterns)
    circuit = circuit if circuit is not None else compiled.circuit
    inputs = network.inputs
    num_inputs = len(inputs)
    if num_inputs <= 30 and (1 << num_inputs) <= max_patterns:
        patterns: Iterable[int] = range(1 << num_inputs)
    else:
        rng = random.Random(seed)
        patterns = (rng.getrandbits(num_inputs) for _ in range(max_patterns))

    def expected(lanes: dict[str, int], width: int) -> dict[object, int]:
        values = network.simulate_lanes(lanes, width)
        return {node: values[str(node)] for node in compiled.output_qubits}

    return check_patterns(
        circuit,
        patterns,
        inputs=inputs,
        input_qubits=compiled.input_qubits,
        outputs=list(compiled.output_qubits.items()),
        expected=expected,
        expected_as="network computes",
    )


def compile_cache_request(
    *,
    pebbles: int,
    weighted: bool = False,
    decompose: bool = False,
    single_move: bool = False,
    cardinality: "str | CardinalityEncoding" = DEFAULT_CARDINALITY.value,
    schedule: str = "linear",
    step_increment: int | None = None,
    max_steps: int | None = None,
    verify: bool = True,
    max_verify_patterns: int = 64,
    verify_seed: int = 0,
    workload: str | None = None,
    name: str | None = None,
) -> dict[str, object]:
    """The normalised cache-key surface of one compilation request.

    Single source of truth shared by :func:`compile_dag` and the service
    layer's cache probe: the defaults here ARE the pipeline defaults, so a
    caller that omits a parameter builds the same content address the
    pipeline does.  ``step_increment`` of 1 normalises to ``None`` (the
    solver treats them identically).
    """
    return {
        "budget": pebbles,
        "weighted": weighted,
        "decompose": decompose,
        "single_move": single_move,
        "cardinality": CardinalityEncoding.from_name(cardinality).value,
        "schedule": schedule,
        "step_increment": None if step_increment == 1 else step_increment,
        "max_steps": max_steps,
        "verify": verify,
        "max_verify_patterns": max_verify_patterns,
        "verify_seed": verify_seed,
        "workload": workload,
        "name": name,
    }


def compile_dag(
    dag: Dag,
    *,
    pebbles: int,
    network: LogicNetwork | None = None,
    weighted: bool = False,
    decompose: bool = False,
    single_move: bool = False,
    cardinality: "str | CardinalityEncoding" = DEFAULT_CARDINALITY.value,
    schedule: str = "linear",
    step_increment: int | None = None,
    time_limit: float | None = 120.0,
    max_steps: int | None = None,
    verify: bool = True,
    max_verify_patterns: int = 64,
    verify_seed: int = 0,
    cost_model: CostModel | None = None,
    workload: str | None = None,
    name: str | None = None,
    backend: str | None = None,
    store=None,
) -> CompilationReport:
    """Run the full pipeline on one DAG and return its report.

    ``pebbles`` is the pebble budget — the *weight* budget when
    ``weighted`` is set.  With a ``network`` the compiled gates carry real
    Boolean control functions and the circuit is verified by simulation
    (unless ``verify=False``); without one the compilation is structural
    and ``verified`` stays ``None``.  ``decompose`` lowers the circuit to
    Toffoli (<= 2-control) gates through the Barenco construction before
    costing, so ``gates``/``t_count`` then reflect elementary-gate counts
    instead of cost-model estimates.  When the circuit will be verified,
    ``max_verify_patterns`` must be an int of at least 1; anything else is
    refused before the search runs.

    ``store`` (an opt-in :class:`~repro.store.ResultStore`) caches at both
    granularities: the whole report is answered from the store when the
    identical compilation was seen before (no SAT call, no simulation —
    the cached report carries its strategy but no circuit object, and
    :attr:`CompilationReport.from_cache` set), and a
    fresh run's inner SAT search still gets exact/warm cache service.
    Reports are only cached under the default cost model (a custom
    ``cost_model`` is not part of the content address).

    ``backend`` selects the incremental-SAT backend by registry spec (see
    :mod:`repro.sat.backend`).  It is deliberately *not* part of the cache
    address — any backend produces the same verdicts, so reports transfer
    across backends; :attr:`CompilationReport.backend` records the actual
    producer.
    """
    if verify and network is not None:
        check_pattern_count(max_verify_patterns)
    started = time.monotonic()
    cacheable = store is not None and cost_model is None
    compile_request = None
    if cacheable:
        compile_request = compile_cache_request(
            pebbles=pebbles,
            weighted=weighted,
            decompose=decompose,
            single_move=single_move,
            cardinality=cardinality,
            schedule=schedule,
            step_increment=step_increment,
            max_steps=max_steps,
            verify=verify,
            max_verify_patterns=max_verify_patterns,
            verify_seed=verify_seed,
            workload=workload,
            name=name,
        )
        cached = store.get_compile(dag, network=network, **compile_request)
        if cached is not None:
            cached.from_cache = True
            return cached
    options = EncodingOptions(
        cardinality=CardinalityEncoding.from_name(cardinality),
        max_moves_per_step=1 if single_move else None,
        weighted=weighted,
    )
    solver = ReversiblePebblingSolver(dag, options=options, backend=backend)
    result = solver.solve(
        pebbles,
        strategy=strategy_from_name(schedule, step_increment=step_increment),
        time_limit=time_limit,
        max_steps=max_steps,
        store=store,
    )
    report = CompilationReport(
        workload=workload or dag.name,
        dag_name=dag.name,
        nodes=dag.num_nodes,
        budget=pebbles,
        weighted=weighted,
        decomposed=decompose,
        outcome=result.outcome.value,
        steps=result.num_steps,
        moves=result.num_moves,
        sat_calls=len(result.attempts),
        conflicts=sum(record.conflicts for record in result.attempts),
        solve_runtime=result.runtime,
        search_complete=result.complete,
        backend=result.backend,
    )
    if result.strategy is None:
        report.runtime = time.monotonic() - started
        if cacheable:
            store.put_compile(dag, report, network=network, **compile_request)
        return report
    strategy = result.strategy
    report.pebbles_used = strategy.max_pebbles
    report.weight_used = strategy.max_weight
    provider = (
        network_controls(network) if network is not None else dag_controls(dag)
    )
    compiled = compile_strategy(dag, strategy, provider=provider, name=name)
    circuit = compiled.circuit
    if decompose:
        with _trace.span("compile.lower", gates_in=circuit.num_gates) as span:
            circuit = decompose_circuit(circuit)
            span.set(gates_out=circuit.num_gates)
    cost = circuit_cost(circuit, cost_model)
    report.qubits = cost.qubits
    report.gates = cost.gates
    report.toffoli_equivalents = cost.toffoli_equivalents
    report.t_count = cost.t_count
    report.strategy = strategy
    report.circuit = circuit
    if verify and network is not None:
        with _trace.span("compile.verify") as span:
            report.verify_patterns = verify_compiled_against_network(
                network,
                compiled,
                circuit,
                max_patterns=max_verify_patterns,
                seed=verify_seed,
            )
            span.set(patterns=report.verify_patterns)
        report.verified = True
    report.runtime = time.monotonic() - started
    if cacheable:
        store.put_compile(dag, report, network=network, **compile_request)
    return report


def compile_workload(
    workload: str,
    *,
    pebbles: int,
    scale: float = 1.0,
    **kwargs: object,
) -> CompilationReport:
    """Resolve a workload (registry name, ``.bench`` or DAG-JSON path) and
    run :func:`compile_dag` on it.

    Workloads backed by a :class:`~repro.logic.network.LogicNetwork` (see
    :func:`repro.workloads.registry.load_workload_network`) compile with
    full Boolean fidelity and are verified end-to-end; the others compile
    structurally.
    """
    network = load_workload_network(workload, scale=scale)
    dag = load_workload_or_path(workload, scale=scale, network=network)
    return compile_dag(
        dag, pebbles=pebbles, network=network, workload=workload, **kwargs
    )


# ---------------------------------------------------------------------------
# Fig. 6-style space-time sweep
# ---------------------------------------------------------------------------
@dataclass
class SweepPoint:
    """One (budget, circuit cost) point of a Pareto sweep."""

    budget: int
    outcome: str
    steps: int | None = None
    pebbles_used: int | None = None
    weight_used: float | None = None
    qubits: int | None = None
    gates: int | None = None
    toffoli_equivalents: int | None = None
    t_count: int | None = None
    runtime: float = 0.0
    pareto: bool = False

    @property
    def found(self) -> bool:
        return self.outcome == "solution"

    def as_dict(self) -> dict[str, object]:
        return {
            "budget": self.budget,
            "outcome": self.outcome,
            "steps": self.steps,
            "pebbles_used": self.pebbles_used,
            "weight_used": self.weight_used,
            "qubits": self.qubits,
            "gates": self.gates,
            "toffoli_equivalents": self.toffoli_equivalents,
            "t_count": self.t_count,
            "runtime": round(self.runtime, 3),
            "pareto": self.pareto,
        }


@dataclass
class SweepReport:
    """Space-time trade-off table across pebble/weight budgets (Fig. 6)."""

    workload: str
    weighted: bool
    decomposed: bool
    points: list[SweepPoint] = field(default_factory=list)

    def pareto_front(self) -> list[SweepPoint]:
        """The Pareto-optimal points, in ascending budget order."""
        return [point for point in self.points if point.pareto]

    def as_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "weighted": self.weighted,
            "decomposed": self.decomposed,
            "points": [point.as_dict() for point in self.points],
        }


def _mark_pareto(points: list[SweepPoint]) -> None:
    """Mark the qubit/gate Pareto-optimal points in place.

    A point is dominated when another solved point needs no more qubits
    *and* no more gates, with at least one strictly fewer.
    """
    solved = [point for point in points if point.found]
    for point in solved:
        point.pareto = not any(
            other is not point
            and other.qubits <= point.qubits
            and other.gates <= point.gates
            and (other.qubits < point.qubits or other.gates < point.gates)
            for other in solved
        )


def pareto_sweep(
    workload: str,
    *,
    budgets: "list[int] | None" = None,
    scale: float = 1.0,
    weighted: bool = False,
    decompose: bool = False,
    jobs: int = 1,
    time_limit: float | None = 60.0,
    schedule: str = "linear",
    cardinality: str = DEFAULT_CARDINALITY.value,
    step_increment: int | None = None,
    single_move: bool = False,
    max_steps: int | None = None,
    cost_model: CostModel | None = None,
    store=None,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport:
    """Compile one workload at every budget and tabulate space vs. time.

    Budgets default to the full feasible range: from the solver's
    structural lower bound up to the eager-Bennett peak (pebbles, or total
    weight in weighted mode).  The SAT searches fan out over the portfolio
    process pool ``jobs`` wide; compilation and costing of the returned
    strategies happen in-process (they are microseconds next to the SAT
    calls).  Points are marked Pareto-optimal over (qubits, gates).

    ``store`` (a database path or an open
    :class:`~repro.store.ResultStore`, as :func:`run_portfolio` takes it)
    opts the SAT searches into a shared result store: a re-run of the
    sweep answers every point from the cache, and a widened budget range
    warm-starts its new interior points from the old ones.
    """
    network = load_workload_network(workload, scale=scale)
    dag = load_workload_or_path(workload, scale=scale, network=network)
    options = EncodingOptions(
        cardinality=CardinalityEncoding.from_name(cardinality),
        max_moves_per_step=1 if single_move else None,
        weighted=weighted,
    )
    if budgets is None:
        lower, upper = ReversiblePebblingSolver(dag, options=options).budget_bounds()
        budgets = list(range(lower, upper + 1))
        # The Bennett baseline is a free witness for the top budget, but the
        # sweep still runs the SAT search there: the table's gate axis needs
        # the *step-minimal* circuit per budget, which the baseline is not.
    tasks = [
        PortfolioTask(
            workload=workload,
            pebbles=budget,
            scale=scale,
            single_move=single_move,
            cardinality=cardinality,
            schedule=schedule,
            step_increment=1 if step_increment is None else step_increment,
            weighted=weighted,
            time_limit=time_limit,
            max_steps=max_steps,
            backend=backend,
        )
        for budget in budgets
    ]
    records = run_portfolio(tasks, jobs=jobs, store=store)
    provider = (
        network_controls(network) if network is not None else dag_controls(dag)
    )
    by_name = {str(node): node for node in dag.nodes()}
    report = SweepReport(workload=workload, weighted=weighted, decomposed=decompose)
    for record in records:
        point = SweepPoint(
            budget=record.task.pebbles,
            outcome=record.outcome,
            steps=record.steps,
            pebbles_used=record.pebbles_used,
            weight_used=record.weight_used,
            runtime=record.runtime,
        )
        report.points.append(point)
        if record.configurations is None:
            continue
        strategy = PebblingStrategy(
            dag,
            [
                {by_name[name] for name in configuration}
                for configuration in record.configurations
            ],
            max_moves_per_step=1 if single_move else None,
        )
        circuit = compile_strategy(dag, strategy, provider=provider).circuit
        if decompose:
            circuit = decompose_circuit(circuit)
        cost = circuit_cost(circuit, cost_model)
        point.qubits = cost.qubits
        point.gates = cost.gates
        point.toffoli_equivalents = cost.toffoli_equivalents
        point.t_count = cost.t_count
    _mark_pareto(report.points)
    return report
