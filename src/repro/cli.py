"""Command-line interface: ``repro-pebble``.

Sub-commands
------------

``list``
    List the named workloads bundled with the library.

``info <workload>``
    Print structural statistics of a workload DAG.

``bennett <workload>``
    Print the Bennett and eager-Bennett baselines for a workload.

``pebble <workload> --pebbles P``
    Run the SAT-based pebbling solver with a pebble budget and print the
    resulting strategy grid.

``compare <workload>``
    Reproduce one row of Table I for the workload: eager-Bennett baseline
    versus the minimum-pebble SAT solution found within a timeout.

``compile <workload> --pebbles P``
    Run the end-to-end pipeline: SAT pebbling (optionally the weighted
    game with ``--weighted``), compilation into a reversible circuit,
    optional Barenco lowering to Toffoli gates (``--decompose``),
    simulation-based verification against the source logic network, and a
    qubit/gate/T-count :class:`~repro.circuits.pipeline.CompilationReport`.

``sweep <workload>``
    Compile the workload at every pebble (or weight) budget and print the
    Fig. 6-style space-time Pareto table, ``--jobs`` processes wide.

``pebble-batch [--suite NAME] --jobs N``
    Sweep every workload of a registered batch suite through the pebbling
    solver, ``N`` worker processes wide, and print a deterministic result
    table (see :mod:`repro.pebbling.portfolio`).

``dimacs <workload> --pebbles P --steps K``
    Write the pebbling encoding of a (workload, budget, steps) instance to
    a DIMACS CNF file (or stdout) for external solvers.

``backends``
    List the registered incremental-SAT backends and whether each is
    usable on this host.  The solving subcommands (``pebble``,
    ``compile``, ``sweep``, ``pebble-batch``, ``cache warm``, ``serve``)
    accept ``--backend SPEC`` to pick one (``cdcl`` — the default native
    engine, ``dpll`` — the debug oracle, ``external[:<command>]`` — any
    minisat-style DIMACS binary).

``cache {stats,clear,warm} --db PATH``
    Inspect, empty or pre-populate the content-addressed result store
    (``warm`` runs a batch suite through the portfolio with the store
    attached, so later requests hit).

``serve --json requests.json [--db PATH]``
    Drive a JSON request file through the async scheduler
    (:mod:`repro.service`): identical requests deduplicate, cached
    requests are answered without a solver, and each batch's misses run
    inline, in the service's batch thread.

``trace {summarize,phases,critical-path} FILE``
    Inspect a JSONL trace written with ``--trace`` (accepted by
    ``pebble``, ``compile``, ``sweep``, ``pebble-batch`` and ``serve``): span/event
    totals and tree health, per-phase time aggregates with self-time, or
    the latest-finishing root-to-leaf chain of the slowest request.

The SAT-solving subcommands (``pebble``, ``compile``, ``sweep``,
``pebble-batch``) additionally accept ``--db PATH`` to opt into the result
store: exact repeats are answered from the cache and neighbouring budgets
warm-start each other.

Workloads are either names from :mod:`repro.workloads` or paths to ``.bench``
or DAG-JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.circuits.pipeline import compile_workload, pareto_sweep
from repro.circuits.simulator import check_pattern_count
from repro.dag.graph import Dag
from repro.errors import CircuitError, ReproError
from repro.pebbling import (
    EncodingOptions,
    PebblingEncoder,
    ReversiblePebblingSolver,
    bennett_strategy,
    eager_bennett_strategy,
    run_portfolio,
    tasks_from_suite,
)
from repro.pebbling.encoding import DEFAULT_CARDINALITY
from repro.pebbling.search import STRATEGY_NAMES, strategy_from_name
from repro.sat.backend import DEFAULT_BACKEND
from repro.sat.cards import CardinalityEncoding
from repro.sat.dimacs import write_dimacs
from repro.visualize import strategy_report
from repro.workloads import list_suites, list_workloads
from repro.workloads.registry import load_workload_or_path


def _load(workload: str, scale: float) -> Dag:
    return load_workload_or_path(workload, scale=scale)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", help="workload name, .bench file or DAG .json file")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="size scale for generated workloads (default 1.0 = paper-sized)",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", default=None, metavar="PATH",
        help="opt into the content-addressed result store at this SQLite "
             "path (cache hits skip the SAT solver, neighbouring budgets "
             "warm-start each other)",
    )


def _open_store(arguments: argparse.Namespace):
    """The ``--db`` store of a solving subcommand, or ``None``."""
    if getattr(arguments, "db", None) is None:
        return None
    from repro.store import ResultStore

    return ResultStore(arguments.db)


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """The search/encoding knobs shared by every SAT-solving subcommand."""
    parser.add_argument("--cardinality",
                        choices=[member.value for member in CardinalityEncoding],
                        default=DEFAULT_CARDINALITY.value,
                        help="at-most-k encoding for the pebble/move budgets "
                             "(weighted budgets with non-unit weights always "
                             "use the generalised sequential counter)")
    parser.add_argument("--schedule", choices=list(STRATEGY_NAMES), default="linear",
                        help="step-bound search strategy ('linear-core' and "
                             "'core-refine' use UNSAT cores over the bound "
                             "guards to skip provably-UNSAT bounds)")
    parser.add_argument("--step-increment", type=int, default=None,
                        help="bound increment per UNSAT answer (linear schedule only)")
    _add_backend_argument(parser)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=DEFAULT_BACKEND, metavar="SPEC",
                        help=f"incremental-SAT backend spec: '{DEFAULT_BACKEND}' "
                             "(default: the C core when it loads, else the "
                             "Python engine), 'cdcl:native=0' (Python engine), "
                             "'dpll', 'external[:<command>]', or "
                             "'chaos:<seed>,...' for deterministic fault "
                             "injection (see 'repro-pebble backends')")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL trace of this run (spans + events "
                             "from every worker process, merged on exit; "
                             "inspect with 'repro-pebble trace summarize FILE')")


def _check_verify_patterns(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> None:
    """Refuse, as a usage error, a ``compile --verify-patterns`` count that
    the verifier would refuse; with ``--no-verify`` it is never used and
    not checked."""
    if arguments.command == "compile" and arguments.verify:
        try:
            check_pattern_count(arguments.verify_patterns)
        except CircuitError as error:
            parser.error(f"argument --verify-patterns: {error}")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-pebble",
        description="SAT-based reversible pebbling for quantum memory management",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list bundled workloads")

    backends = subparsers.add_parser(
        "backends", help="list registered SAT backends and their availability"
    )
    backends.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the backend table as JSON")

    info = subparsers.add_parser("info", help="print DAG statistics")
    _add_common_arguments(info)

    bennett = subparsers.add_parser("bennett", help="print the Bennett baselines")
    _add_common_arguments(bennett)
    bennett.add_argument("--grid", action="store_true", help="print the strategy grid")

    pebble = subparsers.add_parser("pebble", help="run the SAT pebbling solver")
    _add_common_arguments(pebble)
    pebble.add_argument("--pebbles", type=int, required=True,
                        help="pebble budget (weight budget with --weighted)")
    pebble.add_argument("--timeout", type=float, default=120.0, help="time budget in seconds")
    pebble.add_argument("--single-move", action="store_true",
                        help="allow only one pebble move per step (Fig. 4 style)")
    pebble.add_argument("--weighted", action="store_true",
                        help="play the weighted game: bound total node weight")
    _add_search_arguments(pebble)
    pebble.add_argument("--grid", action="store_true", help="print the strategy grid")
    pebble.add_argument("--stats", action="store_true",
                        help="print aggregated SAT-solver counters")
    _add_store_argument(pebble)
    _add_trace_argument(pebble)

    compare = subparsers.add_parser("compare", help="Bennett vs minimum-pebble SAT solution")
    _add_common_arguments(compare)
    compare.add_argument("--timeout", type=float, default=120.0,
                         help="time budget per pebble count in seconds")
    _add_search_arguments(compare)
    compare.add_argument("--grid", action="store_true",
                         help="print the grid of the best SAT strategy")

    compile_parser = subparsers.add_parser(
        "compile",
        help="end-to-end pipeline: pebble, compile, verify, cost report",
    )
    _add_common_arguments(compile_parser)
    compile_parser.add_argument("--pebbles", type=int, required=True,
                                help="pebble budget (weight budget with --weighted)")
    compile_parser.add_argument("--timeout", type=float, default=120.0,
                                help="SAT search time budget in seconds")
    compile_parser.add_argument("--weighted", action="store_true",
                                help="play the weighted game: bound total node weight")
    compile_parser.add_argument("--decompose", action="store_true",
                                help="lower the circuit to Toffoli (<=2-control) gates")
    compile_parser.add_argument("--single-move", action="store_true",
                                help="allow only one pebble move per step")
    _add_search_arguments(compile_parser)
    compile_parser.add_argument("--no-verify", action="store_false", dest="verify",
                                help="skip the simulation-based verification")
    compile_parser.add_argument("--verify-patterns", type=int, default=64,
                                help="max input patterns checked by the verifier "
                                     "(at least 1)")
    compile_parser.add_argument("--json", action="store_true", dest="as_json",
                                help="emit the CompilationReport as JSON")
    compile_parser.add_argument("--grid", action="store_true",
                                help="print the strategy grid")
    _add_store_argument(compile_parser)
    _add_trace_argument(compile_parser)

    sweep = subparsers.add_parser(
        "sweep", help="Fig. 6-style space-time Pareto sweep across budgets"
    )
    _add_common_arguments(sweep)
    sweep.add_argument("--min-budget", type=int, default=None,
                       help="smallest budget (default: structural lower bound)")
    sweep.add_argument("--max-budget", type=int, default=None,
                       help="largest budget (default: eager-Bennett peak)")
    sweep.add_argument("--timeout", type=float, default=60.0,
                       help="SAT time budget per point in seconds")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="number of worker processes (default 1 = inline)")
    sweep.add_argument("--weighted", action="store_true",
                       help="sweep weight budgets instead of pebble budgets")
    sweep.add_argument("--decompose", action="store_true",
                       help="cost Toffoli-lowered circuits")
    sweep.add_argument("--single-move", action="store_true",
                       help="allow only one pebble move per step")
    _add_search_arguments(sweep)
    sweep.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the sweep table as JSON")
    _add_store_argument(sweep)
    _add_trace_argument(sweep)

    batch = subparsers.add_parser(
        "pebble-batch", help="sweep a batch suite across worker processes"
    )
    batch.add_argument("--suite", default="default",
                       help="registered batch suite (see --list-suites)")
    batch.add_argument("--jobs", type=int, default=1,
                       help="number of worker processes (default 1 = inline)")
    batch.add_argument("--timeout", type=float, default=60.0,
                       help="per-task time budget in seconds")
    batch.add_argument("--schedule", choices=list(STRATEGY_NAMES), default="linear",
                       help="step-bound search strategy for every task")
    batch.add_argument("--cardinality",
                       choices=[member.value for member in CardinalityEncoding],
                       default=DEFAULT_CARDINALITY.value,
                       help="at-most-k encoding for every task")
    batch.add_argument("--step-increment", type=int, default=None,
                       help="bound increment per UNSAT answer (linear schedule only)")
    _add_backend_argument(batch)
    batch.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry each failed task up to N extra times with "
                            "exponential backoff, all within its --timeout "
                            "(default 0 = no retries)")
    batch.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the result table as JSON")
    batch.add_argument("--list-suites", action="store_true",
                       help="list registered suites and exit")
    _add_store_argument(batch)
    _add_trace_argument(batch)

    cache = subparsers.add_parser(
        "cache", help="inspect or manage the content-addressed result store"
    )
    cache.add_argument("action", choices=["stats", "clear", "warm"],
                       help="stats: print store contents; clear: drop every "
                            "entry; warm: pre-populate by running a batch suite")
    cache.add_argument("--db", required=True, metavar="PATH",
                       help="SQLite path of the result store")
    cache.add_argument("--suite", default="smoke",
                       help="batch suite used by 'warm' (default: smoke)")
    cache.add_argument("--jobs", type=int, default=1,
                       help="worker processes for 'warm' (default 1)")
    cache.add_argument("--timeout", type=float, default=60.0,
                       help="per-task time budget for 'warm' in seconds")
    cache.add_argument("--schedule", choices=list(STRATEGY_NAMES), default="linear",
                       help="step-bound search strategy for 'warm'")
    _add_backend_argument(cache)
    cache.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON")

    serve = subparsers.add_parser(
        "serve", help="drive a JSON request file through the async scheduler"
    )
    serve.add_argument("--json", required=True, dest="requests", metavar="FILE",
                       help='request file: {"requests": [{"kind": "pebble", '
                            '"workload": "fig2", "budget": 4}, ...]}')
    serve.add_argument("--db", default=None, metavar="PATH",
                       help="attach the result store at this SQLite path")
    serve.add_argument("--backend", default=None, metavar="SPEC",
                       help="default SAT backend for requests that do not "
                            "name their own (see 'repro-pebble backends')")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry each failed solver task up to N extra "
                            "times with exponential backoff, all within the "
                            "request's time limit and deadline (default 0)")
    serve.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="default per-request deadline: requests still "
                            "unfinished after this many seconds are preempted "
                            "into anytime partial answers")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="admission-control bound: shed new requests once "
                            "N are already queued (default: unbounded)")
    serve.add_argument("--health-json", default=None, metavar="FILE",
                       help="write the service health snapshot (queue depth, "
                            "sheds, preemptions, retries, and the cross-layer "
                            "metrics registry) to this file after the run")
    _add_trace_argument(serve)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a JSONL trace written with --trace"
    )
    trace_parser.add_argument(
        "action", choices=["summarize", "phases", "critical-path"],
        help="summarize: span/event totals and tree health; phases: "
             "per-span-name time aggregate; critical-path: the longest "
             "root-to-leaf chain of the slowest trace",
    )
    trace_parser.add_argument("file", help="merged trace file (JSONL)")
    trace_parser.add_argument("--json", action="store_true", dest="as_json",
                              help="emit machine-readable JSON")

    dimacs = subparsers.add_parser(
        "dimacs", help="write a pebbling instance as a DIMACS CNF file"
    )
    _add_common_arguments(dimacs)
    dimacs.add_argument("--pebbles", type=int, required=True, help="pebble budget")
    dimacs.add_argument("--steps", type=int, required=True, help="number of transitions")
    dimacs.add_argument("--single-move", action="store_true",
                        help="allow only one pebble move per step")
    dimacs.add_argument("--cardinality",
                        choices=[member.value for member in CardinalityEncoding],
                        default=DEFAULT_CARDINALITY.value,
                        help="at-most-k encoding for the pebble/move budgets")
    dimacs.add_argument("--output", "-o", default=None,
                        help="destination file (default: stdout)")

    return parser


def _format_stats_line(totals) -> str:
    """The solver-counter line of ``pebble --stats`` for a search's counters.

    Only the counters the backend actually reported are printed (in the
    canonical CDCL order first, then any extras alphabetically): a
    backend without CDCL internals must not have its missing counters
    padded with zeros-as-lies.
    """
    ordered = [
        "decisions", "propagations", "conflicts", "restarts",
        "learned_clauses", "deleted_clauses", "max_decision_level",
        "blocker_hits", "heap_decisions", "deadline_checks_skipped",
        "lbd_glue", "lbd_mid", "lbd_high", "lbd_sum",
    ]
    parts = [f"{key}={int(totals[key])}" for key in ordered if key in totals]
    parts.extend(
        f"{key}={totals[key]:g}"
        for key in sorted(totals)
        if key not in ordered and key != "solve_time"
    )
    if "solve_time" in totals:
        parts.append(f"solve_time={totals['solve_time']:.3f}s")
    if not parts:
        return "stats: (this backend reports no counters)"
    return "stats: " + " ".join(parts)


def _format_engine_line(requested: str, engine: str) -> str:
    """``engine: <spec that ran>`` for ``pebble --stats``, plus the
    reason when the C core was wanted but the Python engine ran."""
    from repro.sat.backend import backend_fallback_reason

    reason = backend_fallback_reason(requested)
    return f"engine: {engine}" + (f" (fallback: {reason})" if reason else "")


def _retry_policy(retries: int):
    """A :class:`RetryPolicy` for ``--retries N``, or ``None`` for 0."""
    if retries < 0:
        raise ReproError("--retries must be >= 0")
    if retries == 0:
        return None
    from repro.pebbling import RetryPolicy

    return RetryPolicy(max_attempts=retries + 1)


def _run_batch(arguments: argparse.Namespace) -> int:
    if arguments.list_suites:
        for name in list_suites():
            print(name)
        return 0
    tasks = tasks_from_suite(
        arguments.suite,
        time_limit=arguments.timeout,
        schedule=arguments.schedule,
        cardinality=arguments.cardinality,
        step_increment=(
            1 if arguments.step_increment is None else arguments.step_increment
        ),
        backend=arguments.backend,
    )
    records = run_portfolio(
        tasks, jobs=arguments.jobs, store=arguments.db,
        retry=_retry_policy(arguments.retries),
    )
    rows = [record.as_dict() for record in records]
    if arguments.as_json:
        print(json.dumps({"suite": arguments.suite, "jobs": arguments.jobs,
                          "results": rows}, indent=2))
    else:
        for row in rows:
            steps = "-" if row["steps"] is None else row["steps"]
            tail = f" retries={row['retries']}" if row.get("retries") else ""
            print(f"{row['name']:24s} {row['outcome']:10s} steps={steps!s:>4s} "
                  f"sat_calls={row['sat_calls']:<3d} {row['runtime']:7.3f}s{tail}")
        solved = sum(1 for row in rows if row["outcome"] == "solution")
        print(f"{len(rows)} tasks, {solved} solved "
              f"(suite={arguments.suite}, jobs={arguments.jobs})")
    return 0 if all(row["outcome"] != "error" for row in rows) else 1


def _run_compile(arguments: argparse.Namespace) -> int:
    store = _open_store(arguments)
    try:
        report = compile_workload(
            arguments.workload,
            pebbles=arguments.pebbles,
            scale=arguments.scale,
            weighted=arguments.weighted,
            decompose=arguments.decompose,
            single_move=arguments.single_move,
            cardinality=arguments.cardinality,
            schedule=arguments.schedule,
            step_increment=arguments.step_increment,
            time_limit=arguments.timeout,
            verify=arguments.verify,
            max_verify_patterns=arguments.verify_patterns,
            backend=arguments.backend,
            store=store,
        )
    finally:
        if store is not None:
            store.close()
    if arguments.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        budget_kind = "weight" if report.weighted else "pebbles"
        print(f"workload   : {report.workload} ({report.nodes} nodes)")
        print(f"budget     : {report.budget} {budget_kind}")
        print(f"outcome    : {report.outcome}")
        if report.found:
            print(f"steps/moves: {report.steps} / {report.moves}")
            print(f"pebbles    : {report.pebbles_used} (weight {report.weight_used:g})")
            print(f"qubits     : {report.qubits}")
            gate_kind = "toffoli-level" if report.decomposed else "single-target"
            print(f"gates      : {report.gates} ({gate_kind})")
            print(f"t-count    : {report.t_count}")
            if report.verified is None:
                print("verified   : n/a (no logic network behind this workload)")
            else:
                print(f"verified   : {report.verified} "
                      f"({report.verify_patterns} patterns)")
        print(f"sat calls  : {report.sat_calls} in {report.solve_runtime:.3f}s")
    if report.found and arguments.grid and not arguments.as_json:
        # The grid is human-readable only; appending it to --json output
        # would corrupt the machine-readable stream.
        print()
        print(strategy_report(report.strategy))
    return 0 if report.found else 2


def _run_sweep(arguments: argparse.Namespace) -> int:
    budgets = None
    if arguments.min_budget is not None or arguments.max_budget is not None:
        if arguments.min_budget is None or arguments.max_budget is None:
            raise ReproError("--min-budget and --max-budget must be given together")
        if arguments.max_budget < arguments.min_budget:
            raise ReproError("--max-budget must be >= --min-budget")
        budgets = list(range(arguments.min_budget, arguments.max_budget + 1))
    report = pareto_sweep(
        arguments.workload,
        budgets=budgets,
        scale=arguments.scale,
        weighted=arguments.weighted,
        decompose=arguments.decompose,
        single_move=arguments.single_move,
        jobs=arguments.jobs,
        time_limit=arguments.timeout,
        schedule=arguments.schedule,
        cardinality=arguments.cardinality,
        step_increment=arguments.step_increment,
        store=arguments.db,
        backend=arguments.backend,
    )
    front = report.pareto_front()
    if arguments.as_json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if front else 2
    budget_kind = "weight" if report.weighted else "pebbles"
    print(f"{budget_kind:>7s} {'outcome':10s} {'steps':>5s} {'qubits':>6s} "
          f"{'gates':>6s} {'t-count':>7s}  pareto")
    for point in report.points:
        steps = "-" if point.steps is None else str(point.steps)
        qubits = "-" if point.qubits is None else str(point.qubits)
        gates = "-" if point.gates is None else str(point.gates)
        t_count = "-" if point.t_count is None else str(point.t_count)
        marker = "*" if point.pareto else ""
        print(f"{point.budget:7d} {point.outcome:10s} {steps:>5s} {qubits:>6s} "
              f"{gates:>6s} {t_count:>7s}  {marker}")
    print(f"{len(report.points)} budgets, {len(front)} on the Pareto front")
    return 0 if front else 2


def _run_cache(arguments: argparse.Namespace) -> int:
    from repro.store import ResultStore

    with ResultStore(arguments.db) as store:
        if arguments.action == "clear":
            removed = store.clear()
            if arguments.as_json:
                print(json.dumps({"cleared": removed}, indent=2))
            else:
                print(f"cleared {removed} entries from {arguments.db}")
            return 0
        if arguments.action == "warm":
            tasks = tasks_from_suite(
                arguments.suite,
                time_limit=arguments.timeout,
                schedule=arguments.schedule,
                backend=arguments.backend,
            )
            records = run_portfolio(tasks, jobs=arguments.jobs, store=store)
            solved = sum(1 for record in records if record.found)
            errors = sum(1 for record in records if record.outcome == "error")
            stats = store.stats().as_dict()
            if arguments.as_json:
                print(json.dumps({"suite": arguments.suite, "tasks": len(records),
                                  "solved": solved, "errors": errors,
                                  "store": stats}, indent=2))
            else:
                print(f"warmed {arguments.db} with suite={arguments.suite}: "
                      f"{len(records)} tasks, {solved} solved, "
                      f"{stats['entries']} entries in store")
            return 0 if errors == 0 else 1
        stats = store.stats().as_dict()
    if arguments.as_json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"store      : {stats['path']}")
        print(f"entries    : {stats['entries']} "
              f"({stats['pebble_entries']} pebble, "
              f"{stats['compile_entries']} compile)")
        print(f"total hits : {stats['total_hits']}")
        print(f"size       : {stats['size_bytes']} bytes")
    return 0


def _run_serve(arguments: argparse.Namespace) -> int:
    from repro.service import run_request_file

    report = run_request_file(
        arguments.requests,
        store=arguments.db,
        default_backend=arguments.backend,
        retry=_retry_policy(arguments.retries),
        deadline=arguments.deadline,
        max_queue=arguments.max_queue,
    )
    print(json.dumps(report, indent=2))
    if arguments.health_json is not None:
        with open(arguments.health_json, "w", encoding="utf-8") as handle:
            json.dump(report["health"], handle, indent=2)
            handle.write("\n")
    failed = sum(
        1 for result in report["results"] if result["status"] != "ok"
    )
    return 0 if failed == 0 else 1


def _run_trace(arguments: argparse.Namespace) -> int:
    from repro.obs.analyze import critical_path, load_trace, phase_aggregate, summarize

    try:
        trace = load_trace(arguments.file)
    except OSError as error:
        raise ReproError(f"cannot read trace file {arguments.file}: {error}")

    if arguments.action == "summarize":
        report = summarize(trace)
        if arguments.as_json:
            print(json.dumps(report, indent=2))
        else:
            print(f"schema     : {report['schema']}")
            print(f"traces     : {report['traces']}")
            print(f"spans      : {report['spans']} across "
                  f"{report['processes']} processes")
            print(f"events     : {report['events']}")
            print(f"complete   : {report['complete']}")
            for problem in report["problems"]:
                print(f"problem    : {problem}")
            print()
            print(f"{'span':24s} {'count':>6s} {'total':>9s} {'mean':>9s} errors")
            for name, row in report["span_names"].items():
                print(f"{name:24s} {row['count']:6d} {row['total_s']:8.3f}s "
                      f"{row['mean_s']:8.3f}s {row['errors']:6d}")
            if report["event_names"]:
                print()
                events = ", ".join(
                    f"{name}×{count}"
                    for name, count in report["event_names"].items()
                )
                print(f"events     : {events}")
        return 0 if report["complete"] and report["spans"] else 1

    if arguments.action == "phases":
        rows = phase_aggregate(trace)
        if arguments.as_json:
            print(json.dumps(rows, indent=2))
        else:
            print(f"{'phase':24s} {'count':>6s} {'total':>9s} {'self':>9s} "
                  f"{'max':>9s} errors")
            for row in rows:
                print(f"{row['phase']:24s} {row['count']:6d} "
                      f"{row['total_s']:8.3f}s {row['self_s']:8.3f}s "
                      f"{row['max_s']:8.3f}s {row['errors']:6d}")
        return 0

    path = critical_path(trace)
    if arguments.as_json:
        print(json.dumps(path, indent=2))
    else:
        for depth, row in enumerate(path):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(row["attrs"].items()))
            indent = "  " * depth
            print(f"{indent}{row['name']} {row['dur_s']:.3f}s "
                  f"(self {row['self_s']:.3f}s, pid {row['pid']})"
                  + (f" [{attrs}]" if attrs else ""))
    return 0 if path else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.obs.trace import tracer

    parser = build_parser()
    arguments = parser.parse_args(argv)
    _check_verify_patterns(parser, arguments)
    try:
        # Solving subcommands accept --trace FILE; wrapping the dispatch in
        # the tracer means every span of the run — including pool workers
        # re-activating the shipped context — merges into one file on exit.
        with tracer(getattr(arguments, "trace", None)):
            return _dispatch(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_backends(arguments: argparse.Namespace) -> int:
    from repro.sat.backend import describe_backends

    rows = describe_backends()
    if arguments.as_json:
        print(json.dumps({"backends": rows}, indent=2))
        return 0
    for row in rows:
        status = "available" if row["available"] else f"unavailable ({row['detail']})"
        if row["available"] and row["resolves_to"] != row["name"]:
            status += f" -> {row['resolves_to']}"
        if row["fallback"]:
            status += f" ({row['fallback']})"
        print(f"{row['name']:10s} {status:60s} {row['description']}")
    print("select with --backend SPEC on pebble/compile/sweep/pebble-batch/"
          "cache warm/serve")
    return 0


def _dispatch(arguments: argparse.Namespace) -> int:
    if arguments.command == "list":
        for name in list_workloads():
            print(name)
        return 0

    if arguments.command == "backends":
        return _run_backends(arguments)

    if arguments.command == "pebble-batch":
        return _run_batch(arguments)

    if arguments.command == "compile":
        return _run_compile(arguments)

    if arguments.command == "sweep":
        return _run_sweep(arguments)

    if arguments.command == "cache":
        return _run_cache(arguments)

    if arguments.command == "serve":
        return _run_serve(arguments)

    if arguments.command == "trace":
        return _run_trace(arguments)

    dag = _load(arguments.workload, arguments.scale)

    if arguments.command == "info":
        print(json.dumps(dag.statistics().as_dict(), indent=2))
        return 0

    if arguments.command == "bennett":
        plain = bennett_strategy(dag)
        eager = eager_bennett_strategy(dag)
        print(f"bennett       : pebbles={plain.max_pebbles} moves={plain.num_moves}")
        print(f"eager bennett : pebbles={eager.max_pebbles} moves={eager.num_moves}")
        if arguments.grid:
            print()
            print(strategy_report(eager))
        return 0

    if arguments.command == "pebble":
        options = EncodingOptions(
            max_moves_per_step=1 if arguments.single_move else None,
            cardinality=CardinalityEncoding.from_name(arguments.cardinality),
            weighted=arguments.weighted,
        )
        solver = ReversiblePebblingSolver(
            dag, options=options, backend=arguments.backend
        )
        store = _open_store(arguments)
        try:
            result = solver.solve(
                arguments.pebbles,
                time_limit=arguments.timeout,
                strategy=strategy_from_name(
                    arguments.schedule, step_increment=arguments.step_increment
                ),
                store=store,
            )
        finally:
            if store is not None:
                store.close()
        print(json.dumps(result.summary(), indent=2))
        if arguments.stats:
            print(_format_engine_line(arguments.backend, result.backend))
            print(_format_stats_line(result.counters))
        if result.found and arguments.grid:
            print()
            print(strategy_report(result.strategy))
        return 0 if result.found else 2

    if arguments.command == "dimacs":
        options = EncodingOptions(
            max_moves_per_step=1 if arguments.single_move else None,
            cardinality=CardinalityEncoding.from_name(arguments.cardinality),
        )
        encoding = PebblingEncoder(dag, options=options).encode(
            max_pebbles=arguments.pebbles, num_steps=arguments.steps
        )
        if arguments.output is None:
            write_dimacs(encoding.cnf, sys.stdout)
        else:
            write_dimacs(encoding.cnf, arguments.output)
            stats = encoding.cnf.stats()
            print(
                f"wrote {arguments.output}: {stats['variables']} variables, "
                f"{stats['clauses']} clauses"
            )
        return 0

    if arguments.command == "compare":
        eager = eager_bennett_strategy(dag)
        options = EncodingOptions(
            cardinality=CardinalityEncoding.from_name(arguments.cardinality),
        )
        solver = ReversiblePebblingSolver(
            dag, options=options, backend=arguments.backend
        )
        best, attempts = solver.minimize_pebbles(
            timeout_per_budget=arguments.timeout,
            strategy=strategy_from_name(
                arguments.schedule, step_increment=arguments.step_increment
            ),
        )
        print(f"nodes                 : {dag.num_nodes}")
        print(f"bennett pebbles/moves : {eager.max_pebbles} / {eager.num_moves}")
        if best is not None and best.strategy is not None:
            reduction = 100.0 * (eager.max_pebbles - best.strategy.max_pebbles) / eager.max_pebbles
            ratio = best.strategy.num_moves / eager.num_moves
            print(f"pebbling pebbles/moves: {best.strategy.max_pebbles} / {best.strategy.num_moves}")
            print(f"pebble reduction      : {reduction:.2f}%")
            print(f"move ratio            : {ratio:.2f}x")
            print(f"sat budgets tried     : {len(attempts)}")
            if arguments.grid:
                print()
                print(strategy_report(best.strategy))
        else:
            print("pebbling              : no improvement found within the timeout")
        return 0

    raise ReproError(f"unhandled command {arguments.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
