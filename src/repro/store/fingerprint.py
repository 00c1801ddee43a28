"""Canonical content fingerprints for DAGs, networks and solve requests.

The result store addresses cached results by *content*, not by name, so
two kinds of digest are needed:

* :func:`dag_fingerprint` — an **isomorphism-invariant** fingerprint of a
  :class:`~repro.dag.graph.Dag`: relabelling the nodes or rebuilding the
  graph in a different insertion order yields the same value, while any
  structural change (an edge, an operation label, a node weight, the
  output set) changes it.  It is computed by Weisfeiler–Leman colour
  refinement: every node starts with a colour hashing its local signature
  (operation, weight, output flag, fan-in/fan-out degrees) and is
  repeatedly re-coloured with the sorted colours of its dependencies and
  dependents until the colour partition stabilises; the fingerprint hashes
  the final colour multiset.  Warm-start extraction keys on it, so bound
  information transfers between any two isomorphic instances.

* :func:`exact_dag_digest` — a **label-sensitive** digest of the same
  graph (node names included).  Exact result reuse requires it: a cached
  strategy stores node names, which are only meaningful on a DAG with the
  same labelling.  Two isomorphic DAGs share a fingerprint but not
  necessarily an exact digest.

:func:`network_digest` fingerprints a :class:`~repro.logic.network.LogicNetwork`
(gate functions included), which the compilation cache folds into its key —
two workloads with identical pebbling DAGs but different gate-level
semantics must not share compiled circuits.

All digests are hex SHA-256 strings, stable across processes and Python
versions (no use of the salted builtin ``hash``).
"""

from __future__ import annotations

import hashlib
import json

from repro.dag.graph import Dag
from repro.logic.network import LogicNetwork
from repro.pebbling.encoding import EncodingOptions
from repro.pebbling.search import SearchStrategy

#: Bump when a digest definition changes: every fingerprint embeds it, so
#: stores written by older code simply miss instead of returning stale or
#: differently-keyed payloads.
FINGERPRINT_VERSION = 1


def _digest(*parts: object) -> str:
    """SHA-256 over a canonical JSON rendering of ``parts``."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dag_fingerprint(dag: Dag) -> str:
    """Isomorphism-invariant fingerprint of a DAG (see module docstring).

    Runs in ``O(rounds * (V + E))`` with at most ``V`` refinement rounds
    (the colour partition can only refine that often); on the bundled
    workloads it stabilises within the DAG depth.

    Soundness boundary: isomorphic DAGs *always* hash equal, but 1-WL is a
    known-incomplete isomorphism test — adversarially constructed
    non-isomorphic graphs (CFI-style gadgets, some degree-regular
    families) can collide.  Operation labels, weights, output flags and
    edge direction make collisions vanishingly unlikely on circuit DAGs,
    and the store only ever keys *advisory bounds* on this digest (exact
    result reuse goes through the label-sensitive
    :func:`exact_dag_digest`), but a deliberately crafted collision could
    transfer a step bound between unrelated DAGs — do not feed the cache
    adversarial workloads.
    """
    nodes = dag.nodes()
    outputs = set(dag.outputs())
    colors: dict[object, str] = {}
    for node in nodes:
        record = dag.node(node)
        colors[node] = _digest(
            "node",
            FINGERPRINT_VERSION,
            record.operation,
            repr(record.weight),
            node in outputs,
            len(dag.dependencies(node)),
            len(dag.dependents(node)),
        )
    distinct = len(set(colors.values()))
    for _ in range(len(nodes)):
        refined = {
            node: _digest(
                "refine",
                colors[node],
                sorted(colors[dep] for dep in dag.dependencies(node)),
                sorted(colors[dep] for dep in dag.dependents(node)),
            )
            for node in nodes
        }
        colors = refined
        now_distinct = len(set(colors.values()))
        if now_distinct == distinct:
            break  # the partition stopped refining
        distinct = now_distinct
    return _digest("dag", FINGERPRINT_VERSION, len(nodes), sorted(colors.values()))


def exact_dag_digest(dag: Dag) -> str:
    """Label-sensitive digest of a DAG: names, edges, operations, weights.

    Unlike :func:`dag_fingerprint` this changes under relabelling (and
    includes ``dag.name``), so a match guarantees a cached strategy's node
    names are directly valid on the queried graph.
    """
    rows = sorted(
        (
            str(node),
            dag.node(node).operation,
            repr(dag.node(node).weight),
            sorted(str(dep) for dep in dag.dependencies(node)),
        )
        for node in dag.nodes()
    )
    return _digest(
        "exact-dag",
        FINGERPRINT_VERSION,
        dag.name,
        rows,
        sorted(str(output) for output in dag.outputs()),
    )


def network_digest(network: LogicNetwork) -> str:
    """Label-sensitive digest of a logic network (gate functions included)."""
    return _digest(
        "network",
        FINGERPRINT_VERSION,
        network.name,
        list(network.inputs),
        sorted(
            (gate.output, gate.gate_type.value, list(gate.fanins))
            for gate in network.gates()
        ),
        list(network.outputs),
    )


def options_key(options: EncodingOptions) -> str:
    """Digest of the *game semantics* of an encoding configuration.

    Two searches whose options share this key play the same pebbling game
    (same move/idle/weight rules), so certified step bounds transfer
    between them.  The cardinality encoding is deliberately excluded — it
    changes the CNF, never the set of legal strategies.
    """
    return _digest(
        "options",
        FINGERPRINT_VERSION,
        options.weighted,
        options.max_moves_per_step,
        options.forbid_idle_steps,
    )


def pebble_request_key(
    *,
    exact_digest: str,
    budget: int,
    options: EncodingOptions,
    search: SearchStrategy,
    incremental: bool,
    initial_steps: int | None,
    max_steps: int | None,
    step_floor: int | None,
) -> str:
    """Content address of one exact pebbling request.

    Everything that can influence the returned result object is included —
    the full encoding options (cardinality too: it shapes per-attempt
    solver statistics), the search schedule signature and seeds, and the
    engine mode.  The time limit is *excluded*: only searches that ran to
    their natural end are stored, and those are time-limit-independent.
    The SAT *backend* is excluded too: every backend returns the same
    verdicts and step counts, so results transfer across backends — the
    stored payload records its producer as metadata instead.
    """
    return _digest(
        "pebble-request",
        FINGERPRINT_VERSION,
        exact_digest,
        budget,
        options.cardinality.value,
        options.max_moves_per_step,
        options.forbid_idle_steps,
        options.weighted,
        search.signature,
        incremental,
        initial_steps,
        max_steps,
        step_floor,
    )


def compile_request_key(
    *,
    exact_digest: str,
    network: LogicNetwork | None,
    budget: int,
    weighted: bool,
    decompose: bool,
    single_move: bool,
    cardinality: str,
    schedule: str,
    step_increment: int | None,
    max_steps: int | None,
    verify: bool,
    max_verify_patterns: int,
    verify_seed: int,
    workload: str | None,
    name: str | None,
) -> str:
    """Content address of one end-to-end compilation request."""
    return _digest(
        "compile-request",
        FINGERPRINT_VERSION,
        exact_digest,
        network_digest(network) if network is not None else None,
        budget,
        weighted,
        decompose,
        single_move,
        cardinality,
        schedule,
        step_increment,
        max_steps,
        verify,
        max_verify_patterns,
        verify_seed,
        workload,
        name,
    )
