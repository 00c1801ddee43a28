"""Differential tests for the native core's clause transfer.

Random incremental sequences — clause batches, assumptions, solves — run
through the engines side by side: the C core fed one
:meth:`~repro.sat.native.NativeCdclSolver.add_clauses` buffer per batch,
the C core fed the same clauses one :meth:`add_clause` call each, and the
DPLL oracle; a second test adds the C core fed each batch as the slice of
a :class:`~repro.sat.cnf.Cnf` literal stream that the batch appended
(:meth:`~repro.sat.native.NativeCdclSolver.add_clause_buffer`, the live
pebbling oracle's hand-over).  They must agree on every verdict, the
native engines must end in the same state (same models, same cores),
every model must satisfy every clause added so far, and every core must
be a subset of the call's assumptions that is UNSAT together with the
formula.  Further cases reach the core's intake paths that short random
clauses never do: clauses longer than its inline-sort cutoff, a batch
that fills several of its clause chunks, and a clause larger than a whole
chunk.  Malformed buffers and real pebbling frames are covered too, and
the core's search counts on a few fixed sequences are pinned.

In a process started with libasan preloaded, the native engines come
from an AddressSanitizer/UBSan build of ``cdcl.c`` (its own hash name,
made by :func:`~repro.sat.native.build_library` with the flags below)
instead of the shared one, so the same sequences check the C core for
memory errors and undefined behaviour::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        python -m pytest tests/sat/test_native_differential.py
"""

from __future__ import annotations

import ctypes
import os
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.pebbling import ReversiblePebblingSolver
from repro.pebbling.encoding import EncodingOptions
from repro.pebbling.solver import _LiveOracle
from repro.sat import native
from repro.sat.cards import CardinalityEncoding
from repro.sat.cnf import Cnf
from repro.sat.dpll import DpllSolver
from repro.workloads import load_workload

#: Compiler flags of the instrumented build.
SANITIZER_FLAGS = (
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer", "-g",
)

#: True when libasan is already in the process (it must come first).
SANITIZED = hasattr(ctypes.CDLL(None), "__asan_init")

NATIVE_REASON = native.native_unavailable_reason()

#: Clause length up to which the core sorts a clause by insertion instead
#: of qsort (``SORT_INLINE_MAX`` in ``cdcl.c``).
SORT_INLINE_MAX = int(
    re.search(
        r"#define SORT_INLINE_MAX (\d+)",
        (Path(native.__file__).parent / "_native" / "cdcl.c").read_text(),
    ).group(1)
)

#: ``cdcl.c`` carves problem clauses from chunks of 64 KB, then twice the
#: previous size up to this many bytes; a larger clause gets its own chunk.
CHUNK_MAX = 1 << 20


def build_sanitized() -> tuple[ctypes.CDLL | None, str | None]:
    """The instrumented core, loaded: ``(library, None)`` or ``(None, reason)``."""
    path, reason = native.build_library(flags=SANITIZER_FLAGS)
    if path is None:
        return None, reason
    return native.load_library(path)


if SANITIZED:
    LIBRARY, LIBRARY_REASON = build_sanitized()
else:
    LIBRARY, LIBRARY_REASON = None, NATIVE_REASON

pytestmark = pytest.mark.skipif(
    LIBRARY_REASON is not None,
    reason=f"native core unavailable: {LIBRARY_REASON}",
)


def _engine() -> native.NativeCdclSolver:
    return native.NativeCdclSolver(library=LIBRARY)


@st.composite
def long_clauses(draw, num_vars: int):
    """A clause longer than the inline-sort cutoff, with repeated literals;
    about half of them are tautologies."""
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=num_vars, max_size=num_vars))
    variables = draw(st.lists(
        st.integers(min_value=1, max_value=num_vars),
        min_size=SORT_INLINE_MAX + 1, max_size=3 * SORT_INLINE_MAX,
    ))
    clause = [variable * signs[variable - 1] for variable in variables]
    if draw(st.booleans()):
        clause.append(-clause[0])
    return draw(st.permutations(clause))


@st.composite
def incremental_sequences(draw, max_vars: int = 8, long: bool = False):
    """(variable count, steps): each step adds a batch or solves.

    With ``long``, a batch mixes short clauses with :func:`long_clauses`.
    """
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    literal = st.builds(
        lambda variable, sign: variable * sign,
        st.integers(min_value=1, max_value=num_vars),
        st.sampled_from([1, -1]),
    )
    clause = st.lists(literal, min_size=1, max_size=4)
    if long:
        clause = st.one_of(clause, long_clauses(num_vars))
    add = st.tuples(st.just("add"), st.lists(clause, max_size=10))
    solve = st.tuples(st.just("solve"), st.lists(literal, max_size=4))
    steps = draw(st.lists(st.one_of(add, solve), min_size=1, max_size=8))
    return num_vars, steps


def _satisfies(model: dict[int, bool], clauses: list[list[int]]) -> bool:
    return all(
        any(model.get(abs(literal), False) == (literal > 0) for literal in clause)
        for clause in clauses
    )


def _unsat_with(clauses: list[list[int]], units: list[int]) -> bool:
    oracle = DpllSolver()
    for clause in clauses:
        oracle.add_clause(clause)
    for literal in units:
        oracle.add_clause([literal])
    return oracle.solve().is_unsat


@given(incremental_sequences())
@settings(max_examples=200, deadline=None)
def test_batched_per_clause_and_dpll_agree(sequence):
    _check_batched_per_clause_and_dpll_agree(sequence[1])


@given(incremental_sequences(max_vars=24, long=True))
@settings(max_examples=100, deadline=None)
def test_long_clauses_agree_batched_per_clause_and_dpll(sequence):
    _check_batched_per_clause_and_dpll_agree(sequence[1])


def _check_batched_per_clause_and_dpll_agree(steps):
    batched, single, oracle = _engine(), _engine(), DpllSolver()
    clauses: list[list[int]] = []
    for kind, payload in steps:
        if kind == "add":
            ok = batched.add_clauses(payload)
            results = [single.add_clause(clause) for clause in payload]
            for clause in payload:
                oracle.add_clause(clause)
            clauses.extend(payload)
            if results:
                assert ok == results[-1]
            continue
        assumptions = payload
        fast, slow, truth = (
            batched.solve(assumptions), single.solve(assumptions),
            oracle.solve(assumptions),
        )
        assert fast.is_sat == slow.is_sat == truth.is_sat
        if fast.is_sat:
            assert fast.model == slow.model
            assert _satisfies(fast.model, clauses + [[lit] for lit in assumptions])
        else:
            core = batched.failed_assumptions()
            assert core == single.failed_assumptions()
            assert set(core) <= set(assumptions)
            assert _unsat_with(clauses, core)


@given(incremental_sequences())
@settings(max_examples=200, deadline=None)
def test_stream_slices_agree_with_batched_per_clause_and_dpll(sequence):
    num_vars, steps = sequence
    sliced, batched, single, oracle = _engine(), _engine(), _engine(), DpllSolver()
    stream = Cnf()
    stream.new_variables(num_vars)
    clauses: list[list[int]] = []
    for kind, payload in steps:
        if kind == "add":
            start, before = len(stream.literals), stream.num_clauses
            stream.add_generated([x for clause in payload for x in (*clause, 0)])
            ok = sliced.add_clause_buffer(
                stream.literals[start:], stream.num_clauses - before
            )
            assert ok == batched.add_clauses(payload)
            results = [single.add_clause(clause) for clause in payload]
            for clause in payload:
                oracle.add_clause(clause)
            clauses.extend(payload)
            if results:
                assert ok == results[-1]
            continue
        assumptions = payload
        answers = [
            engine.solve(assumptions) for engine in (sliced, batched, single, oracle)
        ]
        assert len({answer.is_sat for answer in answers}) == 1
        if answers[0].is_sat:
            assert answers[0].model == answers[1].model == answers[2].model
            assert _satisfies(answers[0].model, clauses + [[lit] for lit in assumptions])
        else:
            core = sliced.failed_assumptions()
            assert core == batched.failed_assumptions() == single.failed_assumptions()
            assert set(core) <= set(assumptions)
            assert _unsat_with(clauses, core)


@pytest.mark.parametrize(
    ("buffer", "count"),
    [
        pytest.param(array("i", [-2, 0, 3, 0]), 1, id="zero-count-mismatch"),
        pytest.param(array("i", [-2, 0, 3, 0]), 3, id="zero-count-one-too-high"),
        pytest.param(array("i", [-2, 0, 3, 0]), 5, id="zero-count-past-the-buffer"),
        pytest.param(array("i", [-2, 0, 3]), 1, id="unterminated"),
        pytest.param(array("i", [-2, 0, -(2**31), 0]), 2, id="int32-min"),
        pytest.param(array("q", [-2, 0]), 1, id="not-int32"),
        pytest.param([-2, 0], 1, id="not-an-array"),
    ],
)
def test_malformed_buffer_raises_and_adds_nothing(buffer, count):
    engine = _engine()
    assert engine.add_clause_buffer(array("i", [1, 2, 0]), 1)
    with pytest.raises(SolverError):
        engine.add_clause_buffer(buffer, count)
    # Nothing of the rejected buffer arrived: 2 is still allowed.
    result = engine.solve([2, -1])
    assert result.is_sat and result.model[2]


@pytest.mark.parametrize("budget", [3, 4])
def test_fig2_frames_match_the_python_engine(budget):
    verdicts = {}
    for engine in ("native", "cdcl:native=0"):
        owner = ReversiblePebblingSolver(load_workload("fig2"), backend="cdcl:native=0")
        oracle = _LiveOracle(owner, budget)
        if engine == "native":
            oracle.backend = _engine()
        verdicts[engine] = []
        for bound in range(1, 9):
            oracle.pose([bound])
            verdicts[engine].append(oracle.solve(None).status)
    assert verdicts["native"] == verdicts["cdcl:native=0"]
    assert any(status.value == "sat" for status in verdicts["native"]) == (budget == 4)


def _pebbling_frames(workload: str, budget: int, bounds: int):
    """Pose bounds 1..``bounds`` to a live oracle over the C core."""
    owner = ReversiblePebblingSolver(
        load_workload(workload),
        options=EncodingOptions(cardinality=CardinalityEncoding.TOTALIZER),
        backend="cdcl:native=0",
    )
    oracle = _LiveOracle(owner, budget)
    oracle.backend = _engine()
    verdicts = []
    for bound in range(1, bounds + 1):
        oracle.pose([bound])
        verdicts.append(oracle.solve(None).status.value)
    return verdicts, oracle.backend


def _random_with_long_clauses():
    """240 random 3-clauses and 30 longer than the inline-sort cutoff,
    solved under twelve random sets of six assumptions."""
    rng = random.Random(7)
    engine = _engine()
    signs = {variable: rng.choice([1, -1]) for variable in range(1, 61)}
    clauses = [
        [rng.choice([1, -1]) * variable for variable in rng.sample(range(1, 61), 3)]
        for _ in range(240)
    ]
    for _ in range(30):
        variables = rng.choices(range(1, 61), k=rng.randint(17, 48))
        clauses.append([signs[variable] * variable for variable in variables])
    engine.add_clauses(clauses)
    verdicts = [
        engine.solve(
            [rng.choice([1, -1]) * variable for variable in rng.sample(range(1, 61), 6)]
        ).status.value
        for _ in range(12)
    ]
    return verdicts, engine


def _pigeonhole_within_400_conflicts():
    """18 pigeons in 17 holes: every conflict involves the pigeons'
    17-literal clauses, given shuffled and with repeats."""
    rng = random.Random(7)
    pigeons, holes = 18, 17

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = []
    for pigeon in range(pigeons):
        clause = [var(pigeon, hole) for hole in range(holes)]
        clause += rng.choices(clause, k=3)
        rng.shuffle(clause)
        clauses.append(clause)
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                pair = [-var(first, hole), -var(second, hole)]
                rng.shuffle(pair)
                clauses.append(pair)
    engine = _engine()
    engine.add_clauses(clauses)
    return [engine.solve(conflict_limit=400).status.value], engine


#: Verdicts (S, U, ? for unknown) and lifetime counters (decisions,
#: propagations, conflicts) of the C core, recorded at 1da091e, before its
#: clause intake moved to a scratch buffer and chunks.  How a clause is
#: sorted, deduplicated and watched steers the search, so a change there
#: moves these counts even where every verdict stays.  The three pebbling
#: rows were recorded again when the totalizer began to emit the binomial
#: clauses on frames where they are smaller: all three frames are narrow
#: (6 and 8 nodes), so their CNF changed, and with it the search.
SEARCH_COUNTS = {
    "fig2-p4": (lambda: _pebbling_frames("fig2", 4, 10), "UUUUUSSSSS", (67, 277, 3)),
    "c17-p3": (lambda: _pebbling_frames("c17", 3, 9), "UUUUUUUUU", (12, 197, 16)),
    "and9-p4": (lambda: _pebbling_frames("and9", 4, 12), "UUUUUUUUUUUU", (36, 443, 31)),
    "long-clauses": (_random_with_long_clauses, "UUUUUUUSUUSU", (114, 1422, 78)),
    "pigeonhole": (_pigeonhole_within_400_conflicts, "?", (870, 6137, 400)),
}


@pytest.mark.parametrize("name", sorted(SEARCH_COUNTS))
def test_search_counts_repeat_the_recorded_ones(name):
    run, verdicts, counts = SEARCH_COUNTS[name]
    answers, engine = run()
    letters = {"sat": "S", "unsat": "U", "unknown": "?"}
    assert "".join(letters[answer] for answer in answers) == verdicts
    totals = engine.counters()
    assert (totals["decisions"], totals["propagations"], totals["conflicts"]) == counts
    assert _core_totals(engine) == totals


def _core_totals(engine) -> dict[str, float]:
    """The core's own counters, read past the wrapper, in ``counters()`` form.

    The core keeps only the latest solve's maximum decision level, so
    that one is left to the wrapper's own ``counters()``.
    """
    raw = native._CounterArray()
    engine._lib.cdcl_counters(engine._handle, raw)
    totals = {name: float(value) for name, value in zip(native._COUNTER_NAMES, raw)}
    reported = engine.counters()
    totals["max_decision_level"] = reported["max_decision_level"]
    totals["solve_time"] = reported["solve_time"]
    return totals


@given(incremental_sequences())
@settings(max_examples=100, deadline=None)
def test_per_call_counters_add_up_to_the_lifetime_totals(sequence):
    _, steps = sequence
    engine = _engine()
    summed: dict[str, float] = {}
    levels: list[int] = []
    for kind, payload in steps:
        if kind == "add":
            engine.add_clauses(payload)
            continue
        stats = engine.solve(payload).stats.as_dict()
        levels.append(stats["max_decision_level"])
        reported = engine.counters()
        assert reported == _core_totals(engine)
        assert reported["max_decision_level"] == max(levels)
        for name in reported:
            if name != "max_decision_level":
                summed[name] = summed.get(name, 0) + stats[name]
        assert {name: reported[name] for name in summed} == pytest.approx(summed)


def test_batch_is_validated_before_anything_is_added():
    engine = _engine()
    assert engine.add_clauses([[1, 2], [-1, 3]])
    for bad in ([[2], [1, 0, 2]], [[2], [-(2**31)]], [[2], [2**31]], [[2], [1.5]]):
        with pytest.raises(SolverError, match="invalid literal"):
            engine.add_clauses(bad)
    # Nothing of a rejected batch arrived: -2 is still allowed.
    result = engine.solve([-2])
    assert result.is_sat and result.model[2] is False and result.model[3]


@pytest.mark.parametrize("literal", [0, 2**31, -(2**31), True, 1.0])
def test_single_clause_validates_its_literals(literal):
    engine = _engine()
    with pytest.raises(SolverError, match="invalid literal"):
        engine.add_clause([1, literal])
    assert engine.solve([-1]).is_sat  # nothing arrived


@pytest.mark.parametrize(
    "literal", [-(2**32 + 2), 2**32 + 2, 2**31, -(2**31), True, 0, 1.0]
)
def test_assumptions_are_validated_like_clause_literals(literal):
    # ctypes would wrap -(2**32 + 2) into the int32 -2: an UNSAT answer
    # with the core [-2], which the caller never assumed.
    engine = _engine()
    assert engine.add_clauses([[1, 2], [-1, 2]])
    with pytest.raises(SolverError, match="invalid assumption literal"):
        engine.solve([1, literal])
    assert engine.solve([-1]).is_sat


_PAST_THE_BOUND = '''
from array import array
from repro.errors import SolverError
from repro.sat.native import NativeCdclSolver
engine = NativeCdclSolver()
variable = 2**30 + 5
try:
    {call}
except SolverError as exc:
    print("rejected:", exc)
'''


@pytest.mark.parametrize(
    "call",
    [
        "engine.add_clause([variable, 1])",
        "engine.add_clause_buffer(array('i', [1, 0, variable, 1, 0]), 2)",
        "engine.solve([-variable])",
    ],
    ids=["clause", "buffer", "assumption"],
)
def test_a_variable_past_the_core_bound_raises_instead_of_hanging(call):
    # Past 2**30 the core's int32 capacity doubling overflows and never
    # ends, so the call runs in its own process under a timeout.
    source = Path(native.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(source), os.environ.get("PYTHONPATH")])
    )}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _PAST_THE_BOUND.format(call=call)],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{call} did not return within 30 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: invalid"), proc.stdout


def test_literals_just_past_the_variable_bound_are_rejected():
    engine = _engine()
    assert engine.max_variable == 2**29
    assert engine.add_clauses([[1, 2]])
    for call in (
        lambda: engine.add_clause([engine.max_variable + 1]),
        lambda: engine.add_clauses([[-(engine.max_variable + 1)]]),
        lambda: engine.solve([engine.max_variable + 1]),
    ):
        with pytest.raises(SolverError, match="invalid"):
            call()
    assert engine.solve([-1]).is_sat  # nothing arrived


def test_batch_with_an_empty_clause_is_unsat_like_add_clause():
    # The empty clause ends the batch, then sits inside one.
    for batch in ([[1], []], [[1, 2], [], [3, -4]]):
        batched, single, oracle = _engine(), _engine(), DpllSolver()
        assert not batched.add_clauses(batch)
        results = [single.add_clause(clause) for clause in batch]
        assert results == [True, False] + [False] * (len(batch) - 2)
        for clause in batch:
            oracle.add_clause(clause)
        assert batched.solve().is_unsat and single.solve().is_unsat
        assert oracle.solve().is_unsat
        assert not batched.add_clauses([[2]])


def _agree_on_one_batch(clauses, assumption_sets, oracle):
    """Add ``clauses`` as one batch and one call each, then solve each set
    of assumptions on both and on ``oracle``: the same verdicts, the same
    models, and models that satisfy the clauses."""
    batched, single = _engine(), _engine()
    assert batched.add_clauses(clauses)
    assert all([single.add_clause(clause) for clause in clauses])
    for clause in clauses:
        oracle.add_clause(clause)
    for assumptions in assumption_sets:
        fast, slow, truth = (
            batched.solve(assumptions), single.solve(assumptions),
            oracle.solve(assumptions),
        )
        assert fast.is_sat == slow.is_sat == truth.is_sat
        if fast.is_sat:
            assert fast.model == slow.model
            assert _satisfies(fast.model, clauses + [[lit] for lit in assumptions])
        else:
            assert batched.failed_assumptions() == single.failed_assumptions()


def test_a_batch_filling_several_chunks_agrees():
    # 2,000 clauses of 20-64 distinct literals over 64 variables store
    # more than the first two chunks hold (64 + 128 KB), so they fill three.
    # Each repeats some literals, and each agrees with a planted model in
    # its first literal, so the batch is satisfiable.
    rng = random.Random(19)
    planted = {variable: rng.choice([1, -1]) for variable in range(1, 65)}
    clauses = []
    for _ in range(2000):
        variables = rng.sample(range(1, 65), rng.randint(20, 64))
        clause = [planted[variables[0]] * variables[0]]
        clause += [rng.choice([1, -1]) * variable for variable in variables[1:]]
        clause += rng.choices(clause, k=8)
        clauses.append(clause)
    assert sum(16 + 4 * len(set(clause)) for clause in clauses) > (64 + 128) << 10
    _agree_on_one_batch(
        clauses,
        [[], [-planted[v] * v for v in range(1, 9)], [planted[v] * v for v in range(1, 65)]],
        DpllSolver(),
    )


def test_a_clause_larger_than_a_whole_chunk_agrees():
    # 300,000 distinct literals take 1.2 MB, past the largest chunk, and
    # sit between short clauses carved from the ordinary chunks around it.
    width = 300_000
    rng = random.Random(19)
    huge = [rng.choice([1, -1]) * variable for variable in range(1, width + 1)]
    rng.shuffle(huge)
    assert 4 * width > CHUNK_MAX
    short = [[1, 2], [-1, 3], [-2, -3]]
    clauses = [*short, huge + huge[:5], *short[::-1]]
    falsify = [-literal for literal in huge if abs(literal) > 3][:50]
    _agree_on_one_batch(
        clauses, [[], falsify, [1, -3]], DpllSolver(max_variables=width)
    )


def test_sanitized_build_is_the_one_under_test():
    """Under libasan every engine here runs the instrumented build."""
    if not SANITIZED:
        pytest.skip("libasan is not preloaded: the shared build is under test")
    assert LIBRARY is not None
    assert _engine()._lib is LIBRARY
