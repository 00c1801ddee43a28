"""Construction and registry of the paper's evaluation workloads."""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkloadError
from repro.dag.graph import Dag
from repro.dag.io import parse_dag_json
from repro.fields import is_amount
from repro.logic.iscas import ISCAS_PROFILES, iscas_like_network
from repro.logic.network import LogicNetwork
from repro.slp.crypto import (
    edwards_point_addition_slp,
    hadamard_operator_slp,
    kummer_doubling_slp,
    kummer_point_addition_slp,
)
from repro.slp.expand import expand_slp_to_network


# ---------------------------------------------------------------------------
# individual workload builders
# ---------------------------------------------------------------------------
def example_dag() -> Dag:
    """The six-node example DAG of Fig. 2 (nodes A–F, outputs E and F).

    Dependencies: ``C`` reads ``A``, ``D`` reads ``B``, ``E`` reads ``C`` and
    ``D``, ``F`` reads ``A``; ``A`` and ``B`` read only primary inputs.
    """
    dag = Dag("fig2_example")
    dag.add_node("A", [], operation="A")
    dag.add_node("B", [], operation="B")
    dag.add_node("C", ["A"], operation="C")
    dag.add_node("D", ["B"], operation="D")
    dag.add_node("E", ["C", "D"], operation="E")
    dag.add_node("F", ["A"], operation="F")
    dag.set_outputs(["E", "F"])
    return dag


def example_network() -> LogicNetwork:
    """A concrete gate-level realisation of the Fig. 2 example DAG.

    The paper leaves the six operations of the example abstract; this
    network assigns them real Boolean gates so the fig2 workload can be
    driven through the full compilation pipeline (compile → simulate →
    verify).  ``example_network().to_dag()`` has exactly the dependency
    structure of :func:`example_dag` (same node names, same edges, same
    outputs): every gate reads its DAG dependencies plus fresh primary
    inputs.
    """
    network = LogicNetwork("fig2_example")
    for index in range(6):
        network.add_input(f"x{index}")
    network.add_gate("A", "AND", ["x0", "x1"])
    network.add_gate("B", "XOR", ["x2", "x3"])
    network.add_gate("C", "OR", ["A", "x4"])
    network.add_gate("D", "NAND", ["B", "x5"])
    network.add_gate("E", "AND", ["C", "D"])
    network.add_gate("F", "XOR", ["A", "x4"])
    network.add_output("E")
    network.add_output("F")
    return network


def and_tree_network(num_inputs: int = 9) -> LogicNetwork:
    """The ``num_inputs``-input AND oracle of Fig. 6 as a logic network.

    The paper's Fig. 6(a) DAG combines the nine inputs with eight 2-input
    AND nodes: four leaves pairing ``(x0,x1) ... (x6,x7)``, a binary tree on
    top of them, and a final AND with ``x8``.
    """
    if num_inputs < 2:
        raise WorkloadError("an AND oracle needs at least 2 inputs")
    network = LogicNetwork(f"and{num_inputs}")
    inputs = [network.add_input(f"x{i}") for i in range(num_inputs)]
    level = list(inputs)
    counter = 0
    while len(level) > 1:
        next_level = []
        index = 0
        while index + 1 < len(level):
            name = f"n{counter}"
            counter += 1
            network.add_gate(name, "AND", [level[index], level[index + 1]])
            next_level.append(name)
            index += 2
        if index < len(level):
            next_level.append(level[index])
        level = next_level
    network.add_output(level[0])
    return network


def and_tree_dag(num_inputs: int = 9) -> Dag:
    """The Fig. 6(a) DAG (eight AND nodes for nine inputs)."""
    return and_tree_network(num_inputs).to_dag()


def hadamard_gate_level_network(bits: int, modulus: int) -> LogicNetwork:
    """Gate-level ``H`` operator for the given bit width and modulus.

    This is the generator behind the ``b<bits>_m<modulus>`` rows of Table I.
    """
    program = hadamard_operator_slp(name=f"H_b{bits}_m{modulus}")
    return expand_slp_to_network(program, bits=bits, modulus=modulus)


def hadamard_gate_level_dag(bits: int, modulus: int) -> Dag:
    """Pebbling DAG of the gate-level ``H`` operator.

    Gates outside every output cone (for example the discarded top carry of
    the final modular comparison) are swept away, as any synthesis flow
    would do before mapping.
    """
    dag = hadamard_gate_level_network(bits, modulus).to_dag()
    return dag.cone(dag.outputs())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """One row of the Table I harness: a named workload plus paper numbers.

    ``paper_*`` fields hold the values printed in the paper (for the
    EXPERIMENTS.md comparison); ``scale`` is the size reduction applied to
    the synthetic ISCAS stand-ins so the pure-Python SAT engine can process
    them in reasonable time (1.0 = paper-sized).
    """

    name: str
    kind: str  # "hadamard" or "iscas"
    paper_nodes: int | None = None
    paper_bennett_pebbles: int | None = None
    paper_bennett_steps: int | None = None
    paper_pebbles: int | None = None
    paper_steps: int | None = None
    bits: int | None = None
    modulus: int | None = None
    scale: float = 1.0


#: Paper Table I rows.  The Hadamard rows record (bits, modulus) parsed from
#: the design name; the ISCAS rows reference the profiles in
#: :mod:`repro.logic.iscas`.
TABLE1_ROWS: list[Table1Row] = [
    Table1Row("b2_m3", "hadamard", 74, 66, 124, 30, 186, bits=2, modulus=3),
    Table1Row("b3_m4", "hadamard", 59, 47, 82, 20, 117, bits=3, modulus=4),
    Table1Row("b4_m5", "hadamard", 203, 187, 358, 83, 778, bits=4, modulus=5),
    Table1Row("b5_m7", "hadamard", 256, 236, 452, 106, 888, bits=5, modulus=7),
    Table1Row("b6_m7", "hadamard", 310, 286, 548, 130, 1132, bits=6, modulus=7),
    Table1Row("b8_m7", "hadamard", 422, 390, 748, 187, 1884, bits=8, modulus=7),
    Table1Row("b10_m7", "hadamard", 535, 495, 950, 264, 2938, bits=10, modulus=7),
    Table1Row("b12_m7", "hadamard", 646, 598, 1148, 331, 4228, bits=12, modulus=7),
    Table1Row("b16_m23", "hadamard", 881, 817, 1570, 480, 6218, bits=16, modulus=23),
    Table1Row("c17", "iscas", 12, 7, 12, 4, 12),
    Table1Row("c432", "iscas", 208, 172, 337, 60, 685),
    Table1Row("c499", "iscas", 219, 178, 324, 77, 610),
    Table1Row("c880", "iscas", 334, 274, 522, 82, 1280),
    Table1Row("c1355", "iscas", 219, 178, 324, 77, 594),
    Table1Row("c1908", "iscas", 220, 187, 349, 70, 875),
    Table1Row("c2670", "iscas", 554, 397, 731, 160, 1948),
    Table1Row("c3540", "iscas", 856, 806, 1590, 416, 5434),
    Table1Row("c5315", "iscas", 1257, 1079, 2035, 498, 7635),
    Table1Row("c6288", "iscas", 1011, 979, 1926, 640, 10232),
    Table1Row("c7552", "iscas", 1151, 944, 1780, 540, 7757),
]


def table1_rows() -> list[Table1Row]:
    """Return the Table I rows (paper reference values included)."""
    return list(TABLE1_ROWS)


# ---------------------------------------------------------------------------
# batch suites
# ---------------------------------------------------------------------------
def format_task_name(
    workload: str,
    pebbles: int,
    *,
    single_move: bool = False,
    scale: float = 1.0,
    weighted: bool = False,
) -> str:
    """The canonical display/merge key of a (workload, budget) task.

    Shared by the suite registry and the portfolio layer so suite entries
    and portfolio records always agree on names.  ``weighted`` tasks carry
    a ``_w`` tag because a weight budget and a pebble budget of the same
    number are different instances.
    """
    suffix = "_sm" if single_move else ""
    weight_tag = "_w" if weighted else ""
    scale_tag = "" if scale == 1.0 else f"_s{scale:g}"
    return f"{workload}_p{pebbles}{weight_tag}{suffix}{scale_tag}"


@dataclass(frozen=True)
class BatchEntry:
    """One task of a named batch suite: a workload plus solve parameters.

    ``pebbles`` is the budget handed to the SAT search; entries with an
    infeasible budget are deliberate — all-UNSAT sweeps are part of the
    paper's methodology and exercise a different solver profile than
    satisfiable instances.
    """

    workload: str
    pebbles: int
    scale: float = 1.0
    single_move: bool = False

    @property
    def name(self) -> str:
        """Stable display/merge key of the entry."""
        return format_task_name(
            self.workload, self.pebbles, single_move=self.single_move, scale=self.scale
        )


#: Named suites for ``repro-pebble pebble-batch`` and the portfolio
#: benchmarks.  ``smoke`` is the CI subset; ``default`` is the registered
#: workload suite swept by the Table-I style batch runs (a mix of SAT
#: searches, all-UNSAT sweeps and single-move instances, all sized for the
#: pure-Python engine).
BATCH_SUITES: dict[str, tuple[BatchEntry, ...]] = {
    "smoke": (
        BatchEntry("fig2", 4),
        BatchEntry("c17", 4),
    ),
    "default": (
        BatchEntry("fig2", 4),
        BatchEntry("fig2", 3),
        BatchEntry("fig2", 4, single_move=True),
        BatchEntry("and9", 5),
        BatchEntry("and9", 4),
        BatchEntry("and9", 4, single_move=True),
        BatchEntry("hadamard", 5),
        BatchEntry("c17", 4),
        BatchEntry("c17", 3),
    ),
    "single-move": (
        BatchEntry("fig2", 4, single_move=True),
        BatchEntry("fig2", 6, single_move=True),
        BatchEntry("and9", 4, single_move=True),
    ),
}


def list_suites() -> list[str]:
    """Names accepted by :func:`suite_entries`."""
    return sorted(BATCH_SUITES)


def suite_entries(name: str) -> list[BatchEntry]:
    """Return the entries of the named batch suite."""
    try:
        return list(BATCH_SUITES[name])
    except KeyError as exc:
        raise WorkloadError(
            f"unknown batch suite {name!r}; valid names: {list_suites()}"
        ) from exc


def list_workloads() -> list[str]:
    """Names accepted by :func:`load_workload`."""
    names = ["fig2", "and9", "hadamard", "kummer-add", "kummer-double", "edwards-add"]
    names.extend(row.name for row in TABLE1_ROWS)
    return names


#: The widest operand a scaled Hadamard row may have: at 128 bits the
#: ``H`` operator already has about 7,000 gates.  A wider one is refused
#: before anything is generated.
MAX_HADAMARD_BITS = 128


def _scaled_hadamard_parameters(row: Table1Row, scale: float) -> tuple[int, int]:
    """(bits, modulus) of a scaled Hadamard Table I row.

    The single source of the scale arithmetic: :func:`load_workload` and
    :func:`load_workload_network` must agree on it exactly, otherwise a
    workload's DAG and its verification network would be built at
    different sizes.
    """
    assert row.bits is not None and row.modulus is not None
    if row.bits * scale > MAX_HADAMARD_BITS:
        raise WorkloadError(
            f"scale {scale:g} would give {row.name} {row.bits * scale:.0f}-bit "
            f"operands; a scaled row has at most {MAX_HADAMARD_BITS}"
        )
    bits = max(1, int(round(row.bits * scale)))
    modulus = min(row.modulus, 1 << bits)
    return bits, modulus


def _check_scale(scale: float) -> None:
    """The one scale check of every workload spec, registry name or file."""
    if not is_amount(scale):
        raise WorkloadError(f"scale must be positive and finite, got {scale!r}")


def load_workload(name: str, *, scale: float = 1.0) -> Dag:
    """Load a workload DAG by name.

    ``scale`` only affects the ISCAS stand-ins and the Hadamard gate-level
    designs: values below 1 shrink the instance (smaller bit width /
    fewer gates) so the pure-Python SAT solver can handle it; 1.0 builds the
    paper-sized instance.  Every call builds a fresh DAG, which the caller
    may modify (set node weights, say).
    """
    _check_scale(scale)
    key = name.lower()
    if key == "fig2":
        return example_dag()
    if key == "and9":
        return and_tree_dag(9)
    if key == "hadamard":
        return hadamard_operator_slp().to_dag()
    if key == "kummer-add":
        return kummer_point_addition_slp().to_dag()
    if key == "kummer-double":
        return kummer_doubling_slp().to_dag()
    if key == "edwards-add":
        return edwards_point_addition_slp().to_dag()
    for row in TABLE1_ROWS:
        if row.name == key:
            if row.kind == "hadamard":
                bits, modulus = _scaled_hadamard_parameters(row, scale)
                return hadamard_gate_level_dag(bits, modulus)
            return _iscas_dag(row.name, scale)
    if key in ISCAS_PROFILES:
        return _iscas_dag(key, scale)
    raise WorkloadError(f"unknown workload {name!r}; valid names: {list_workloads()}")


# ---------------------------------------------------------------------------
# workload files
# ---------------------------------------------------------------------------
#: Source bytes of the workload files whose parse the process keeps (about
#: 180 perfbench ``service-mix`` files); past it the least recently used
#: leave first.
FILE_CACHE_BYTES = 96 * 1024

#: Contents loaded once that the cache remembers, so that a second load
#: admits them; the oldest are forgotten first.
_SEEN_ONCE_LIMIT = 1024


@dataclass(frozen=True)
class _ParsedFile:
    """One parse of a workload file: its network (``.bench`` only) and DAG."""

    network: LogicNetwork | None
    dag: Dag
    size: int


class _ParsedFiles:
    """The parse of each workload file's bytes, shared by repeated loads.

    An entry is keyed by the path and the SHA-256 of the bytes read, so a
    rewritten file is parsed again whatever its size or mtime, and one
    content under two paths gives two graphs, each named after its own
    file.  A content is kept only from its second load (a file the process
    reads once costs no memory, as with TinyLFU's doorkeeper), and entries
    leave least recently used once the kept contents exceed
    :data:`FILE_CACHE_BYTES`.  Parsing runs outside the lock; when two
    threads admit one content at once, the first to finish wins and both
    get its objects.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, bytes], _ParsedFile] = OrderedDict()
        self._bytes = 0
        self._seen_once: OrderedDict[tuple[str, bytes], None] = OrderedDict()
        #: The DAG parsed with each ``.bench`` network still alive, kept or not.
        self._dags: weakref.WeakKeyDictionary[LogicNetwork, Dag] = (
            weakref.WeakKeyDictionary()
        )

    def load(self, path: Path) -> _ParsedFile:
        """Read ``path`` once and return the parse of exactly those bytes."""
        data = _read_workload_file(path)
        key = (str(path), hashlib.sha256(data).digest())
        with self._lock:
            parsed = self._entries.get(key)
            if parsed is not None:
                self._entries.move_to_end(key)
                return parsed
            admit = key in self._seen_once and len(data) <= FILE_CACHE_BYTES
            if admit:
                del self._seen_once[key]
            else:
                self._seen_once[key] = None
                if len(self._seen_once) > _SEEN_ONCE_LIMIT:
                    self._seen_once.popitem(last=False)
        parsed = _parse_workload_file(path, data)
        with self._lock:
            if parsed.network is not None:
                self._dags[parsed.network] = parsed.dag
            if not admit:
                return parsed
            kept = self._entries.setdefault(key, parsed)
            if kept is parsed:
                self._bytes += parsed.size
                while self._bytes > FILE_CACHE_BYTES:
                    self._bytes -= self._entries.popitem(last=False)[1].size
        return kept

    def dag_of(self, network: LogicNetwork) -> Dag:
        """The DAG parsed with ``network``, or a new one for a network built elsewhere."""
        with self._lock:
            dag = self._dags.get(network)
        return network.to_dag() if dag is None else dag

    def clear(self) -> None:
        """Forget every kept and every once-seen content."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._seen_once.clear()


_PARSED_FILES = _ParsedFiles()


def _workload_file(spec: str) -> Path | None:
    """The path a ``.bench`` or DAG-JSON spec names, or None for a registry name."""
    path = Path(spec)
    return path if path.suffix in (".bench", ".json") else None


def _read_workload_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise WorkloadError(
            f"workload file {str(path)!r} does not exist; a spec ending in "
            ".bench or .json must name an existing file "
            f"(registry workloads: {list_workloads()})"
        ) from None
    except OSError as exc:
        raise WorkloadError(f"cannot read workload file {str(path)!r}: {exc}") from exc


def _parse_workload_file(path: Path, data: bytes) -> _ParsedFile:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WorkloadError(f"workload file {str(path)!r} is not UTF-8 text: {exc}") from exc
    if path.suffix == ".bench":
        from repro.logic.bench import parse_bench

        network = parse_bench(text, name=path.stem)
        return _ParsedFile(network, network.to_dag(), len(data))
    return _ParsedFile(None, parse_dag_json(text), len(data))


def load_workload_or_path(
    spec: str, *, scale: float = 1.0, network: LogicNetwork | None = None
) -> Dag:
    """Load a workload by registry name, ``.bench`` path or DAG-JSON path.

    This is the resolution rule shared by the CLI, the portfolio workers
    and the serving layer: a ``.bench`` or ``.json`` suffix names a file,
    and anything else is looked up in the registry.  A path-looking spec
    whose file is missing raises a targeted error (the historical
    behaviour fell through to the registry and reported the file name as
    an unknown workload), and an unknown registry name lists every valid
    workload and batch suite.  A malformed file, or a ``scale`` that is
    not a finite number above 0, raises a :class:`~repro.errors.ReproError`
    subclass for every spec.

    A file is read once per call and parsed once per content: from its
    second load in the process, the same bytes under the same path return
    the same :class:`Dag` object (see :data:`FILE_CACHE_BYTES`), so the
    graph a file spec returns is shared and must be treated as read-only.
    Registry names build a fresh DAG on every call.

    ``network`` is what :func:`load_workload_network` already returned for
    the same ``spec``: a ``.bench`` path then takes its DAG from it instead
    of reading the file again.
    """
    _check_scale(scale)
    path = _workload_file(spec)
    if path is None:
        try:
            return load_workload(spec, scale=scale)
        except WorkloadError as exc:
            key = spec.lower()
            if key in list_workloads() or key in ISCAS_PROFILES:
                raise  # a known name at a scale too large to build
            raise WorkloadError(
                f"{exc} (batch suites for pebble-batch/cache warm: {list_suites()})"
            ) from exc
    if network is not None and path.suffix == ".bench":
        return _PARSED_FILES.dag_of(network)
    return _PARSED_FILES.load(path).dag


def load_workload_network(spec: str, *, scale: float = 1.0) -> LogicNetwork | None:
    """Return the :class:`LogicNetwork` behind a workload, if it has one.

    The compilation pipeline needs the Boolean functions of the pebbled
    nodes to emit simulatable gates and verify circuits end-to-end.  DAG
    workloads that are gate-level by construction (``fig2``, ``and9``, the
    Table I rows, ``.bench`` files) resolve to their network; word-level
    SLP workloads (``hadamard``, ``kummer-*``, ``edwards-add``) and DAG-JSON
    files have no gate-level semantics and resolve to ``None`` — the
    pipeline then compiles structurally and skips verification.

    The returned network is always the one whose ``to_dag()`` (restricted
    to the output cones, where :func:`load_workload` does the same sweep)
    produced the DAG of ``load_workload_or_path(spec, scale=scale)``.  A
    ``.bench`` file is parsed as :func:`load_workload_or_path` parses it,
    once per content, so its network is shared and read-only; registry
    names build a fresh one on every call.
    """
    _check_scale(scale)
    path = _workload_file(spec)
    if path is not None:
        if path.suffix == ".json":
            return None
        return _PARSED_FILES.load(path).network
    key = spec.lower()
    if key == "fig2":
        return example_network()
    if key == "and9":
        return and_tree_network(9)
    for row in TABLE1_ROWS:
        if row.name == key:
            if row.kind == "hadamard":
                bits, modulus = _scaled_hadamard_parameters(row, scale)
                return hadamard_gate_level_network(bits, modulus)
            return iscas_like_network(key, scale=scale)
    if key in ISCAS_PROFILES:
        return iscas_like_network(key, scale=scale)
    return None


def list_network_workloads() -> list[str]:
    """Workload names for which :func:`load_workload_network` has a network."""
    names = ["fig2", "and9"]
    names.extend(row.name for row in TABLE1_ROWS)
    return names


def _iscas_dag(name: str, scale: float) -> Dag:
    """ISCAS stand-in as a pebbling DAG, with dangling logic swept away.

    Real netlists contain no dangling gates; the synthetic generator can
    leave a few, so the DAG is restricted to the cones of the primary
    outputs (the same sweep every synthesis tool performs).
    """
    dag = iscas_like_network(name, scale=scale).to_dag()
    return dag.cone(dag.outputs())
