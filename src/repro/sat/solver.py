"""A CDCL (conflict-driven clause learning) SAT solver.

The solver implements the standard modern architecture:

* two-watched-literal unit propagation with blocker literals and a
  dedicated binary-clause watch layer (binary implications resolve from
  the watcher pair alone, without touching the clause arena),
* first-UIP conflict analysis with clause learning and per-clause
  literal-blocks-distance (LBD/"glue") computed at analyze time,
* conflict-clause minimisation (self-subsumption against reasons),
* VSIDS-style variable activities kept in an indexed binary max-heap
  with lazy re-insertion on backtrack, plus phase saving,
* Luby-sequence restarts,
* glucose-style learned-clause database reduction: glue clauses
  (LBD <= ``glue_max``) are kept forever, the rest are ranked by
  (LBD, activity) under a geometrically growing limit,
* incremental solving under assumptions,
* conflict and time budgets so callers can implement timeouts
  (the paper stops each pebbling instance after a wall-clock budget);
  the wall clock is only consulted every few conflicts, so the hot
  loop does not pay a ``time.monotonic()`` call per iteration.

It is the reference engine and the fallback for hosts without a C
compiler.  It has no inprocessing, variable elimination, vivification
or chronological backtracking: their ablations measured at noise, and
the wall-clock budget of the inprocessing pass made conflict counts
vary from run to run (EXPERIMENTS.md).  Until a time limit cuts it
short, a given formula and call sequence always takes the same search,
conflict for conflict.

It is written in pure Python and optimised for the constant factors that
dominate CPython execution: hot loops cache attribute lookups in locals,
watcher lists are compacted in place instead of being rebuilt, and
propagation enqueues assignments inline.

Literal conventions
-------------------
The public API uses DIMACS literals.  Internally a literal ``l`` is encoded
as ``2*|l| + (l < 0)`` so that literals can index arrays directly and
negation is a single XOR.

Hot-state layout
----------------
Per-variable state lives in preallocated flat arenas grown in power-of-two
chunks rather than per-variable containers resized ad hoc: truth values in
one flat list indexed by encoded literal, decision levels / reasons / heap
positions / activities / saved phases and the trail in flat lists indexed
by variable, and analyze markers in a ``bytearray``.  Plain lists — not
``array`` typecodes — are deliberate: on CPython a list index costs ~1.5-2x
less than the same access on an ``array`` (small ints are cached, so the
stored references are free, and no per-access box/unbox happens), and at
these working-set sizes interpreter dispatch dominates cache behaviour.
Watcher lists are flat stride-2 lists
``[blocker, slot, blocker, slot, ...]`` — no tuple allocation per watcher —
compacted in place during propagation; ``_detach`` is O(1) amortised via
swap-remove on the flat layout.

Clause storage
--------------
Clauses live in a flat arena ``self._arena``: a list of clauses indexed by
*slot*.  Watcher lists, implication reasons, learned-clause activities and
LBD scores all refer to clauses by slot, so clause metadata is an array
access instead of an ``id()``-keyed dictionary lookup.  Slots of deleted
clauses are recycled through a free list.  Binary clauses are watched in
``self._bin_watches`` (the stored "blocker" is the only other literal, so
propagation resolves them without loading the arena); clauses of length
three and up are watched in ``self._watches``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from repro.errors import SolverError
from repro.obs import trace as _trace
from repro.sat.cnf import Cnf, split_clauses


class Status(Enum):
    """Result status of a solver call."""

    SATISFIABLE = "sat"
    UNSATISFIABLE = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters describing the work performed by the solver.

    The ``lbd_*`` fields histogram the literal-blocks-distance of learned
    clauses at learn time: ``lbd_glue`` counts LBD <= 2, ``lbd_mid``
    counts 3..6, ``lbd_high`` counts >= 7, and ``lbd_sum`` accumulates the
    raw values so callers can derive the mean.  ``phase_times`` is only
    populated when the solver was constructed with ``profile=True``; it
    maps phase names (``propagate``/``analyze``/``reduce``) to seconds
    spent in that phase during the last solve call.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    solve_time: float = 0.0
    blocker_hits: int = 0
    heap_decisions: int = 0
    deadline_checks_skipped: int = 0
    lbd_glue: int = 0
    lbd_mid: int = 0
    lbd_high: int = 0
    lbd_sum: int = 0
    phase_times: dict[str, float] | None = None

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a plain dictionary.

        ``phase_times`` is flattened into ``time_<phase>`` keys and only
        present when profiling was enabled (no zeros-as-lies).
        """
        data: dict[str, float] = {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "deleted_clauses": self.deleted_clauses,
            "max_decision_level": self.max_decision_level,
            "solve_time": self.solve_time,
            "blocker_hits": self.blocker_hits,
            "heap_decisions": self.heap_decisions,
            "deadline_checks_skipped": self.deadline_checks_skipped,
            "lbd_glue": self.lbd_glue,
            "lbd_mid": self.lbd_mid,
            "lbd_high": self.lbd_high,
            "lbd_sum": self.lbd_sum,
        }
        if self.phase_times is not None:
            for phase_name, seconds in self.phase_times.items():
                data[f"time_{phase_name}"] = seconds
        return data


@dataclass
class SolveResult:
    """Outcome of a :meth:`CdclSolver.solve` call.

    ``model`` maps every problem variable to a Boolean when the status is
    :attr:`Status.SATISFIABLE`, and is ``None`` otherwise.
    """

    status: Status
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_sat(self) -> bool:
        """``True`` when a satisfying assignment was found."""
        return self.status is Status.SATISFIABLE

    @property
    def is_unsat(self) -> bool:
        """``True`` when the formula was proven unsatisfiable."""
        return self.status is Status.UNSATISFIABLE

    @property
    def is_unknown(self) -> bool:
        """``True`` when the solver gave up (conflict/time budget)."""
        return self.status is Status.UNKNOWN


_UNASSIGNED = -1
_NO_REASON = -1
_NO_CONFLICT = -1

#: The wall clock is consulted once every this many main-loop iterations.
_DEADLINE_CHECK_INTERVAL = 64

#: Initial number of variable slots in the typed arenas.
_INITIAL_VAR_CAPACITY = 64


def _encode(literal: int) -> int:
    """DIMACS literal -> internal literal."""
    return (abs(literal) << 1) | (literal < 0)


def _decode(encoded: int) -> int:
    """Internal literal -> DIMACS literal."""
    variable = encoded >> 1
    return -variable if encoded & 1 else variable


def luby(index: int) -> int:
    """Return the ``index``-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    if index <= 0:
        raise SolverError("luby index must be >= 1")
    while True:
        k = 1
        while (1 << k) - 1 < index:
            k += 1
        if (1 << k) - 1 == index:
            return 1 << (k - 1)
        index -= (1 << (k - 1)) - 1


class CdclSolver:
    """Conflict-driven clause-learning SAT solver.

    Typical use::

        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.is_sat and result.model[2] is True

    The solver is incremental: more clauses may be added after a
    :meth:`solve` call and subsequent calls reuse learned clauses.
    Assumptions allow solving under temporary unit hypotheses without
    permanently adding them.  After an UNSAT answer under assumptions,
    :meth:`failed_assumptions` returns the subset of the assumptions that
    the final conflict analysis proved responsible (the solver's UNSAT
    core over the assumption literals), which is the backend surface the
    core-guided pebbling searches build on.

    ``glue_max`` bounds the LBD below which learned clauses are kept
    forever, and ``profile=True`` records per-phase wall-clock splits in
    ``stats.phase_times``.
    """

    #: Registry name under :mod:`repro.sat.backend` (``cdcl:native=0``).
    name = "cdcl"

    def __init__(
        self,
        cnf: Cnf | None = None,
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        restart_base: int = 100,
        clause_decay: float = 0.999,
        variable_decay: float = 0.95,
        random_seed: int = 2019,
        reduce_min_learned: int = 50,
        learned_limit_base: int = 1000,
        glue_max: int = 2,
        profile: bool = False,
    ) -> None:
        capacity = _INITIAL_VAR_CAPACITY
        self._num_vars = 0
        self._var_capacity = capacity
        # Truth values indexed by *encoded literal* (1 true, 0 false,
        # -1 unassigned): the propagation inner loop answers "is this
        # literal true?" with a single flat-list access.  Entries for
        # ``l`` and ``l ^ 1`` are kept complementary while assigned.
        # The hot per-variable state lives in preallocated flat *lists*
        # grown by doubling — on CPython a list indexing op is ~1.5-2x
        # cheaper than the same op on an ``array``/``bytearray`` (the
        # small-int cache makes the stored references free, and no
        # box/unbox conversion happens per access), and the interpreter
        # dispatch cost dwarfs cache effects at these sizes.
        self._lit_values: list[int] = [_UNASSIGNED] * (2 * capacity)
        # Indexed by variable (1-based).
        self._levels: list[int] = [0] * capacity
        self._reasons: list[int] = [_NO_REASON] * capacity
        self._activity: list[float] = [0.0] * capacity
        self._phase: list[int] = [0] * capacity
        self._seen = bytearray(capacity)
        # Variable-order heap: ``_heap`` holds variables in binary max-heap
        # order by activity, ``_heap_pos`` maps a variable to its heap index
        # (-1 when not enqueued).
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1] * capacity
        # Watcher lists indexed by encoded literal: flat stride-2 arrays
        # ``[blocker, slot, ...]``.  ``_watches`` holds clauses of length
        # >= 3; ``_bin_watches`` holds binary clauses, where the "blocker"
        # is the only other literal and implications resolve without
        # loading the arena.
        self._watches: list[list[int]] = [[] for _ in range(2 * capacity)]
        self._bin_watches: list[list[int]] = [[] for _ in range(2 * capacity)]
        # Flat clause arena indexed by slot; ``None`` marks a freed slot.
        self._arena: list[list[int] | None] = []
        self._clause_act: list[float] = []
        self._learned_flag: list[bool] = []
        self._lbd: list[int] = []
        self._learned_slots: list[int] = []
        self._free_slots: list[int] = []
        self._num_problem_clauses = 0
        # Preallocated trail: ``_trail[:_trail_size]`` holds the assigned
        # literals in assignment order (capacity tracks the variable
        # arenas — every variable is assigned at most once).
        self._trail: list[int] = [0] * capacity
        self._trail_size = 0
        self._trail_limits: list[int] = []
        self._propagation_head = 0
        self._var_inc = 1.0
        self._var_decay = variable_decay
        self._cla_inc = 1.0
        self._cla_decay = clause_decay
        self._restart_base = restart_base
        self._reduce_min_learned = reduce_min_learned
        self._learned_limit_base = learned_limit_base
        self._learned_limit = 0
        self._glue_max = glue_max
        self._glue_count = 0
        self._total_conflicts = 0
        self._profile = profile
        self._ok = True
        self._pending_units: list[int] = []
        self.default_conflict_limit = conflict_limit
        self.default_time_limit = time_limit
        self.stats = SolverStats()
        self._rng_state = random_seed or 1
        self._failed_assumptions: list[int] | None = None
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Highest variable index known to the solver."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learned) clauses."""
        return self._num_problem_clauses

    @property
    def num_learned_clauses(self) -> int:
        """Number of currently retained learned clauses."""
        return len(self._learned_slots)

    def _grow(self, min_variable: int) -> None:
        """Grow every per-variable arena so ``min_variable`` is indexable."""
        old = self._var_capacity
        new = old
        while new <= min_variable:
            new *= 2
        grow = new - old
        self._lit_values.extend([_UNASSIGNED] * (2 * grow))
        self._levels.extend([0] * grow)
        self._reasons.extend([_NO_REASON] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([0] * grow)
        self._seen.extend(bytes(grow))
        self._heap_pos.extend((-1,) * grow)
        self._trail.extend((0,) * grow)
        self._watches.extend([] for _ in range(2 * grow))
        self._bin_watches.extend([] for _ in range(2 * grow))
        self._var_capacity = new

    def _ensure_var(self, variable: int) -> None:
        if variable <= self._num_vars:
            return
        if variable >= self._var_capacity:
            self._grow(variable)
        for fresh in range(self._num_vars + 1, variable + 1):
            self._heap_insert(fresh)
        self._num_vars = variable

    def add_variable(self) -> int:
        """Allocate a fresh variable and return its index."""
        self._ensure_var(self._num_vars + 1)
        return self._num_vars

    def add_cnf(self, cnf: Cnf) -> None:
        """Add every clause of ``cnf`` to the solver."""
        self._ensure_var(cnf.num_variables)
        for literals in split_clauses(cnf.literals):
            self.add_clause(literals)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; return ``False`` if the formula became trivially unsat.

        The clause is simplified: duplicate literals are merged and
        tautological clauses are dropped.
        """
        if not self._ok:
            return False
        # Single validation/dedup/tautology pass — this method is called
        # once per emitted frame clause by the incremental encoders, so
        # every redundant sweep over the literals shows up in profiles.
        seen: set[int] = set()
        clause: list[int] = []
        max_var = 0
        tautology = False
        for literal in literals:
            if type(literal) is not int or literal == 0:
                raise SolverError(f"invalid literal {literal!r}")
            if literal in seen:
                continue
            if -literal in seen:
                tautology = True
            seen.add(literal)
            variable = -literal if literal < 0 else literal
            if variable > max_var:
                max_var = variable
            clause.append(literal)
        if max_var > self._num_vars:
            self._ensure_var(max_var)
        if tautology:
            return True
        # Root-level simplification: literals already false at decision
        # level 0 can never become true again, so they are dropped; a
        # literal true at level 0 satisfies the clause forever.  Without
        # this, a clause added incrementally over variables fixed by an
        # earlier solve call would watch permanently-false literals and
        # never propagate.
        lit_values = self._lit_values
        levels = self._levels
        encoded = []
        for literal in clause:
            enc = (literal + literal) if literal > 0 else (1 - literal - literal)
            value = lit_values[enc]
            if value >= 0 and levels[enc >> 1] == 0:
                if value == 1:
                    return True  # satisfied at the root level
                continue
            encoded.append(enc)
        if not encoded:
            self._ok = False
            return False
        if len(encoded) == 1:
            self._pending_units.append(_decode(encoded[0]))
            return True
        self._attach(encoded, learned=False)
        return True

    def _attach(self, encoded_clause: list[int], *, learned: bool, lbd: int = 0) -> int:
        """Store a clause in the arena and watch its first two literals.

        Returns the clause slot.  The blocker stored with each watcher is
        the *other* watched literal: when it is already true the clause is
        satisfied and propagation never needs to load the clause.
        """
        if self._free_slots:
            slot = self._free_slots.pop()
            self._arena[slot] = encoded_clause
            self._clause_act[slot] = self._cla_inc if learned else 0.0
            self._learned_flag[slot] = learned
            self._lbd[slot] = lbd
        else:
            slot = len(self._arena)
            self._arena.append(encoded_clause)
            self._clause_act.append(self._cla_inc if learned else 0.0)
            self._learned_flag.append(learned)
            self._lbd.append(lbd)
        self._watch_clause(encoded_clause, slot)
        if learned:
            self._learned_slots.append(slot)
            if lbd <= self._glue_max:
                self._glue_count += 1
        else:
            self._num_problem_clauses += 1
        return slot

    def _watch_clause(self, encoded_clause: list[int], slot: int) -> None:
        """Append the watcher pairs for ``encoded_clause`` at ``slot``."""
        first, second = encoded_clause[0], encoded_clause[1]
        lists = self._bin_watches if len(encoded_clause) == 2 else self._watches
        watch_list = lists[first ^ 1]
        watch_list.append(second)
        watch_list.append(slot)
        watch_list = lists[second ^ 1]
        watch_list.append(first)
        watch_list.append(slot)

    # ------------------------------------------------------------------
    # assignment handling
    # ------------------------------------------------------------------
    def _enqueue(self, encoded: int, reason_slot: int = _NO_REASON) -> bool:
        lit_values = self._lit_values
        value = lit_values[encoded]
        if value != _UNASSIGNED:
            return value == 1
        variable = encoded >> 1
        lit_values[encoded] = 1
        lit_values[encoded ^ 1] = 0
        self._levels[variable] = len(self._trail_limits)
        self._reasons[variable] = reason_slot
        self._phase[variable] = (encoded & 1) ^ 1
        self._trail[self._trail_size] = encoded
        self._trail_size += 1
        return True

    def _propagate(self) -> int:
        """Unit propagation; return a conflicting clause slot or -1."""
        lit_values = self._lit_values
        levels = self._levels
        reasons = self._reasons
        phase = self._phase
        watches = self._watches
        bin_watches = self._bin_watches
        arena = self._arena
        trail = self._trail
        depth = len(self._trail_limits)
        propagations = 0
        blocker_hits = 0
        conflict = _NO_CONFLICT
        head = self._propagation_head
        size = self._trail_size
        while head < size:
            propagated = trail[head]
            head += 1
            propagations += 1
            # Binary pass: the stored "blocker" is the only other literal,
            # so the clause is satisfied, unit or conflicting right away
            # and the arena is never loaded.  Binary watchers are never
            # moved, so no compaction is needed.
            bin_list = bin_watches[propagated]
            pairs = iter(bin_list)
            for other, slot in zip(pairs, pairs):
                value = lit_values[other]
                if value > 0:
                    blocker_hits += 1
                    continue
                if value < 0:
                    lit_values[other] = 1
                    lit_values[other ^ 1] = 0
                    variable = other >> 1
                    levels[variable] = depth
                    reasons[variable] = slot
                    phase[variable] = (other & 1) ^ 1
                    trail[size] = other
                    size += 1
                    continue
                conflict = slot
                break
            if conflict >= 0:
                break
            watch_list = watches[propagated]
            total = len(watch_list)
            read = write = 0
            false_literal = propagated ^ 1
            while read < total:
                blocker = watch_list[read]
                value = lit_values[blocker]
                if value > 0:
                    # The cached blocker is true: the clause is satisfied
                    # without ever being loaded from the arena.  Until the
                    # first watcher relocates, write tracks read and the
                    # pair is already in place — no copy needed.
                    if write != read:
                        watch_list[write] = blocker
                        watch_list[write + 1] = watch_list[read + 1]
                    write += 2
                    read += 2
                    blocker_hits += 1
                    continue
                slot = watch_list[read + 1]
                read += 2
                clause = arena[slot]
                if clause[0] == false_literal:
                    clause[0] = clause[1]
                    clause[1] = false_literal
                first = clause[0]
                if first != blocker:
                    value = lit_values[first]
                    if value > 0:
                        watch_list[write] = first
                        watch_list[write + 1] = slot
                        write += 2
                        continue
                # Look for a new literal to watch (any non-false literal).
                found = False
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if lit_values[candidate] != 0:
                        clause[1] = candidate
                        clause[position] = false_literal
                        moved = watches[candidate ^ 1]
                        moved.append(first)
                        moved.append(slot)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting on ``first``.
                watch_list[write] = first
                watch_list[write + 1] = slot
                write += 2
                if value < 0:
                    lit_values[first] = 1
                    lit_values[first ^ 1] = 0
                    variable = first >> 1
                    levels[variable] = depth
                    reasons[variable] = slot
                    phase[variable] = (first & 1) ^ 1
                    trail[size] = first
                    size += 1
                else:
                    conflict = slot
                    # Preserve the unvisited tail with one C-level slice
                    # move instead of a Python copy loop.
                    if write != read:
                        watch_list[write : write + total - read] = (
                            watch_list[read:total]
                        )
                    write += total - read
                    read = total
                    break
            del watch_list[write:]
            if conflict >= 0:
                break
        self._trail_size = size
        # On a conflict the remaining trail entries are skipped: they were
        # all enqueued at the current decision depth, so the backjump that
        # follows removes them anyway.
        self._propagation_head = size if conflict >= 0 else head
        self.stats.propagations += propagations
        self.stats.blocker_hits += blocker_hits
        return conflict

    # ------------------------------------------------------------------
    # variable-order heap (indexed binary max-heap over activity)
    # ------------------------------------------------------------------
    def _heap_up(self, index: int) -> None:
        heap = self._heap
        position = self._heap_pos
        activity = self._activity
        variable = heap[index]
        score = activity[variable]
        while index > 0:
            parent_index = (index - 1) >> 1
            parent = heap[parent_index]
            if activity[parent] >= score:
                break
            heap[index] = parent
            position[parent] = index
            index = parent_index
        heap[index] = variable
        position[variable] = index

    def _heap_down(self, index: int) -> None:
        heap = self._heap
        position = self._heap_pos
        activity = self._activity
        size = len(heap)
        variable = heap[index]
        score = activity[variable]
        while True:
            child_index = 2 * index + 1
            if child_index >= size:
                break
            right_index = child_index + 1
            if right_index < size and activity[heap[right_index]] > activity[heap[child_index]]:
                child_index = right_index
            child = heap[child_index]
            if activity[child] <= score:
                break
            heap[index] = child
            position[child] = index
            index = child_index
        heap[index] = variable
        position[variable] = index

    def _heap_insert(self, variable: int) -> None:
        if self._heap_pos[variable] >= 0:
            return
        self._heap.append(variable)
        self._heap_pos[variable] = len(self._heap) - 1
        self._heap_up(len(self._heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        top = heap[0]
        self._heap_pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self._heap_pos[last] = 0
            self._heap_down(0)
        return top

    # The heap is maintained incrementally — every unassigned variable is
    # always enqueued: ``_ensure_var`` inserts fresh variables, decisions
    # pop variables, and ``_backtrack`` lazily re-inserts whatever it
    # unassigns.  Variables assigned by propagation may linger in the heap;
    # ``_pick_branch_variable`` skips them when popped.

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _bump_variable(self, variable: int) -> None:
        activity = self._activity
        activity[variable] += self._var_inc
        if activity[variable] > 1e100:
            # Rescaling multiplies every activity by the same factor, so the
            # heap order is unaffected.
            for index in range(1, self._num_vars + 1):
                activity[index] *= 1e-100
            self._var_inc *= 1e-100
        if self._heap_pos[variable] >= 0:
            self._heap_up(self._heap_pos[variable])

    def _decay_variable_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, slot: int) -> None:
        if not self._learned_flag[slot]:
            return
        clause_act = self._clause_act
        clause_act[slot] += self._cla_inc
        if clause_act[slot] > 1e20:
            for other in self._learned_slots:
                clause_act[other] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._cla_decay

    def _analyze(self, conflict_slot: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (encoded literals, asserting literal
        first), the backjump level, and the clause's literal-blocks-distance
        (the number of distinct decision levels among its literals).
        """
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        arena = self._arena
        trail = self._trail
        current_level = len(self._trail_limits)
        counter = 0
        literal = -1
        trail_index = self._trail_size - 1
        clause = arena[conflict_slot]
        self._bump_clause(conflict_slot)

        while True:
            assert clause is not None
            start = 0 if literal == -1 else 1
            for position in range(start, len(clause)):
                other = clause[position]
                variable = other >> 1
                if not seen[variable] and levels[variable] > 0:
                    seen[variable] = 1
                    self._bump_variable(variable)
                    if levels[variable] >= current_level:
                        counter += 1
                    else:
                        learned.append(other)
            # Pick the next literal from the trail to resolve on.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            literal = trail[trail_index]
            trail_index -= 1
            variable = literal >> 1
            seen[variable] = 0
            counter -= 1
            if counter == 0:
                break
            reason_slot = reasons[variable]
            clause = arena[reason_slot] if reason_slot >= 0 else None
            if clause is not None:
                self._bump_clause(reason_slot)
                # When resolving, position 0 of the reason holds ``literal``
                # itself; make sure that is the case.
                if clause[0] != literal:
                    clause = [literal] + [lit for lit in clause if lit != literal]
        learned[0] = literal ^ 1

        # Recursive clause minimisation (MiniSat-style): drop every literal
        # whose negation is implied by the *rest* of the clause through a
        # chain of reason clauses.  ``abstract_levels`` is a 32-bit Bloom
        # filter over decision levels used to abort hopeless recursions
        # early.  ``seen`` markers double as the "in clause or proven
        # redundant" set; speculative marks are recorded in ``to_clear``.
        abstract_levels = 0
        for other in learned[1:]:
            abstract_levels |= 1 << (levels[other >> 1] & 31)
        to_clear: list[int] = []
        minimized = [learned[0]]
        for other in learned[1:]:
            if reasons[other >> 1] < 0 or not self._literal_redundant(
                other, abstract_levels, to_clear
            ):
                minimized.append(other)

        # Reset the 'seen' markers for every literal collected during the
        # analysis (including the ones dropped by minimisation), otherwise
        # stale markers corrupt the next conflict analysis.
        for other in learned:
            seen[other >> 1] = 0
        for variable in to_clear:
            seen[variable] = 0
        learned = minimized

        # Literal-blocks-distance: the number of distinct decision levels
        # in the minimised clause (the asserting literal contributes the
        # current level).  Glue clauses (lbd <= glue_max) are retained
        # forever by ``_reduce_learned``.
        distinct_levels = {current_level}
        for other in learned[1:]:
            distinct_levels.add(levels[other >> 1])
        lbd = len(distinct_levels)

        if len(learned) == 1:
            backjump_level = 0
        else:
            # Find the literal with the highest level below the current one
            # and move it to position 1 (it becomes the second watch).
            best_index = 1
            best_level = levels[learned[1] >> 1]
            for position in range(2, len(learned)):
                level = levels[learned[position] >> 1]
                if level > best_level:
                    best_level = level
                    best_index = position
            learned[1], learned[best_index] = learned[best_index], learned[1]
            backjump_level = best_level
        return learned, backjump_level, lbd

    def _literal_redundant(
        self, literal: int, abstract_levels: int, to_clear: list[int]
    ) -> bool:
        """Is ``literal`` implied by the other marked literals of the clause?

        Walks the implication graph backwards from ``literal``; every
        antecedent must eventually hit a literal that is already marked
        (in the learned clause / proven redundant) or assigned at level 0.
        Newly proven-redundant variables stay marked in ``seen`` (recorded
        in ``to_clear``) so later candidates reuse the work.
        """
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        arena = self._arena
        stack = [literal]
        top = len(to_clear)
        while stack:
            current = stack.pop()
            reason = arena[reasons[current >> 1]]
            assert reason is not None
            current_variable = current >> 1
            for other in reason:
                variable = other >> 1
                if variable == current_variable or seen[variable] or levels[variable] == 0:
                    continue
                if reasons[variable] < 0 or not (
                    (1 << (levels[variable] & 31)) & abstract_levels
                ):
                    # A decision literal, or one from a level with no
                    # representative in the clause: not redundant.  Undo the
                    # speculative marks made during this candidate's walk.
                    for marked in to_clear[top:]:
                        seen[marked] = 0
                    del to_clear[top:]
                    return False
                seen[variable] = 1
                to_clear.append(variable)
                stack.append(other)
        return True

    def _backtrack(self, level: int) -> None:
        if len(self._trail_limits) <= level:
            return
        limit = self._trail_limits[level]
        lit_values = self._lit_values
        reasons = self._reasons
        heap_pos = self._heap_pos
        trail = self._trail
        for index in range(self._trail_size - 1, limit - 1, -1):
            encoded = trail[index]
            variable = encoded >> 1
            lit_values[encoded] = _UNASSIGNED
            lit_values[encoded ^ 1] = _UNASSIGNED
            reasons[variable] = _NO_REASON
            # Lazy re-insertion: a variable popped off the heap during the
            # search becomes eligible again the moment it is unassigned.
            if heap_pos[variable] < 0:
                self._heap_insert(variable)
        self._trail_size = limit
        del self._trail_limits[level:]
        if self._propagation_head > limit:
            self._propagation_head = limit

    # ------------------------------------------------------------------
    # decision heuristics
    # ------------------------------------------------------------------
    def _random(self) -> float:
        # xorshift32: deterministic, cheap, good enough for tie-breaking.
        state = self._rng_state
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        self._rng_state = state & 0xFFFFFFFF
        return self._rng_state / 0xFFFFFFFF

    def _pick_branch_variable(self) -> int:
        """Pop unassigned variables with the highest activity off the heap."""
        lit_values = self._lit_values
        heap = self._heap
        while heap:
            variable = self._heap_pop()
            if lit_values[variable << 1] == _UNASSIGNED:
                self.stats.heap_decisions += 1
                return variable
        return 0

    # ------------------------------------------------------------------
    # learned clause database management
    # ------------------------------------------------------------------
    def _locked_slots(self) -> set[int]:
        """Slots currently serving as the reason of a trail assignment."""
        locked: set[int] = set()
        reasons = self._reasons
        trail = self._trail
        for index in range(self._trail_size):
            slot = reasons[trail[index] >> 1]
            if slot >= 0:
                locked.add(slot)
        return locked

    def _reduce_learned(self) -> None:
        """Glucose-style reduction: drop the worse half by (LBD, activity).

        Glue clauses (LBD <= ``glue_max``), binary clauses and clauses
        locked as reasons are never deleted.
        """
        learned_slots = self._learned_slots
        if len(learned_slots) < self._reduce_min_learned:
            return
        arena = self._arena
        lbd = self._lbd
        clause_act = self._clause_act
        glue_max = self._glue_max
        locked = self._locked_slots()
        candidates = [
            slot
            for slot in learned_slots
            if lbd[slot] > glue_max and slot not in locked and len(arena[slot]) > 2
        ]
        if len(candidates) < 2:
            return
        # Highest LBD first; ties broken by lowest activity first.
        candidates.sort(key=lambda slot: (-lbd[slot], clause_act[slot]))
        removed = set(candidates[: len(candidates) // 2])
        if not removed:
            return
        if len(removed) > 16:
            self._detach_batch(removed)
        else:
            for slot in removed:
                self._detach(slot)
        for slot in removed:
            self._free_slot(slot)
        self._learned_slots = [slot for slot in learned_slots if slot not in removed]
        self.stats.deleted_clauses += len(removed)
        if _trace.active():
            _trace.event(
                "solver.reduce",
                deleted=len(removed),
                kept=len(self._learned_slots),
                conflicts=self._total_conflicts,
            )

    def _free_slot(self, slot: int) -> None:
        """Release an (already detached) clause slot back to the free list."""
        if self._learned_flag[slot]:
            if self._lbd[slot] <= self._glue_max:
                self._glue_count -= 1
            self._learned_flag[slot] = False
        else:
            self._num_problem_clauses -= 1
        self._arena[slot] = None
        self._clause_act[slot] = 0.0
        self._lbd[slot] = 0
        self._free_slots.append(slot)

    def _detach(self, slot: int) -> None:
        """Remove the two watcher pairs of ``slot`` (swap-remove, O(1) each)."""
        clause = self._arena[slot]
        assert clause is not None
        lists = self._bin_watches if len(clause) == 2 else self._watches
        for watch_literal in (clause[0] ^ 1, clause[1] ^ 1):
            watch_list = lists[watch_literal]
            for index in range(1, len(watch_list), 2):
                if watch_list[index] == slot:
                    watch_list[index - 1] = watch_list[-2]
                    watch_list[index] = watch_list[-1]
                    del watch_list[-2:]
                    break

    def _detach_batch(self, removed: set[int]) -> None:
        """Drop every watcher pair referencing a slot in ``removed``.

        One compacting sweep over all watch lists — cheaper than repeated
        ``_detach`` scans when a reduction removes many clauses at once.
        """
        for lists in (self._watches, self._bin_watches):
            for watch_list in lists:
                if not watch_list:
                    continue
                total = len(watch_list)
                write = 0
                for read in range(0, total, 2):
                    if watch_list[read + 1] not in removed:
                        watch_list[write] = watch_list[read]
                        watch_list[write + 1] = watch_list[read + 1]
                        write += 2
                if write != total:
                    del watch_list[write:]

    # ------------------------------------------------------------------
    # debug invariants (test support)
    # ------------------------------------------------------------------
    def _debug_check_watches(self) -> None:
        """Assert the watcher invariants; raises AssertionError on violation.

        Every live clause must be watched exactly twice — on the negations
        of its first two literals, in the binary lists for binary clauses
        and in the long lists otherwise — and no watcher pair may reference
        a freed slot.  Test helper; not called from the hot path.
        """
        counts: dict[int, int] = {}
        for literal, watch_list in enumerate(self._watches):
            if len(watch_list) % 2:
                raise AssertionError(f"odd watch list length at literal {literal}")
            for index in range(0, len(watch_list), 2):
                slot = watch_list[index + 1]
                clause = self._arena[slot]
                if clause is None:
                    raise AssertionError(f"watcher references freed slot {slot}")
                if len(clause) == 2:
                    raise AssertionError(f"binary clause {slot} in long watch list")
                if (literal ^ 1) not in (clause[0], clause[1]):
                    raise AssertionError(
                        f"slot {slot} watched on literal {literal ^ 1} "
                        "which is not in its first two positions"
                    )
                counts[slot] = counts.get(slot, 0) + 1
        for literal, watch_list in enumerate(self._bin_watches):
            if len(watch_list) % 2:
                raise AssertionError(f"odd binary watch list length at literal {literal}")
            for index in range(0, len(watch_list), 2):
                slot = watch_list[index + 1]
                clause = self._arena[slot]
                if clause is None:
                    raise AssertionError(f"binary watcher references freed slot {slot}")
                if len(clause) != 2:
                    raise AssertionError(f"non-binary clause {slot} in binary watch list")
                if (literal ^ 1) not in clause or watch_list[index] not in clause:
                    raise AssertionError(f"binary watcher of slot {slot} is inconsistent")
                counts[slot] = counts.get(slot, 0) + 1
        for slot, clause in enumerate(self._arena):
            expected = 0 if clause is None else 2
            actual = counts.get(slot, 0)
            if actual != expected:
                raise AssertionError(
                    f"slot {slot} watched {actual} times, expected {expected}"
                )

    # ------------------------------------------------------------------
    # main search loop
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        """Solve the current formula, optionally under assumptions.

        ``conflict_limit`` and ``time_limit`` bound the search; when either
        budget is exhausted the result status is :attr:`Status.UNKNOWN`.
        """
        start_time = time.monotonic()
        stats = self.stats = SolverStats()
        conflict_limit = conflict_limit if conflict_limit is not None else self.default_conflict_limit
        time_limit = time_limit if time_limit is not None else self.default_time_limit
        profile = self._profile
        phase_times: dict[str, float] | None = None
        if profile:
            phase_times = {"propagate": 0.0, "analyze": 0.0, "reduce": 0.0}
            stats.phase_times = phase_times
        perf = time.perf_counter
        # Every UNSAT exit below records its assumption core first; paths
        # where the formula alone is contradictory record the empty core.
        self._failed_assumptions = None

        if not self._ok:
            self._failed_assumptions = []
            stats.solve_time = time.monotonic() - start_time
            return SolveResult(Status.UNSATISFIABLE, None, stats)

        # Start from a clean assignment (incremental interface keeps
        # clauses, not the trail).
        self._backtrack(0)
        for literal in self._pending_units:
            if not self._enqueue(_encode(literal)):
                self._ok = False
                self._failed_assumptions = []
                stats.solve_time = time.monotonic() - start_time
                return SolveResult(Status.UNSATISFIABLE, None, stats)
        self._pending_units.clear()
        if self._propagate() != _NO_CONFLICT:
            self._ok = False
            self._failed_assumptions = []
            stats.solve_time = time.monotonic() - start_time
            return SolveResult(Status.UNSATISFIABLE, None, stats)

        encoded_assumptions = [_encode(literal) for literal in assumptions]
        for literal in assumptions:
            self._ensure_var(abs(literal))

        restart_count = 0
        conflicts_until_restart = self._restart_base * luby(restart_count + 1)
        conflicts_since_restart = 0
        # The learned-clause limit grows geometrically across reductions
        # and persists across solve calls; glue clauses are exempt from
        # both the trigger and the deletion.
        self._learned_limit = max(
            self._learned_limit, self._learned_limit_base, self.num_clauses // 2
        )
        iterations = 0

        while True:
            iterations += 1
            if time_limit is not None:
                # Deadline batching: the monotonic clock is read on the
                # first iteration and then once every
                # ``_DEADLINE_CHECK_INTERVAL`` iterations.
                if iterations % _DEADLINE_CHECK_INTERVAL == 1:
                    if (time.monotonic() - start_time) > time_limit:
                        self._backtrack(0)
                        stats.solve_time = time.monotonic() - start_time
                        return SolveResult(Status.UNKNOWN, None, stats)
                else:
                    stats.deadline_checks_skipped += 1
            if conflict_limit is not None and stats.conflicts >= conflict_limit:
                self._backtrack(0)
                stats.solve_time = time.monotonic() - start_time
                return SolveResult(Status.UNKNOWN, None, stats)

            if profile:
                mark = perf()
                conflict_slot = self._propagate()
                phase_times["propagate"] += perf() - mark
            else:
                conflict_slot = self._propagate()
            if conflict_slot != _NO_CONFLICT:
                stats.conflicts += 1
                self._total_conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_limits:
                    # Conflict at decision level 0: the trail below the first
                    # pseudo-decision only ever holds formula-derived facts,
                    # so the formula alone is contradictory (empty core) and
                    # every future call is conclusive too.
                    self._failed_assumptions = []
                    self._ok = False
                    self._backtrack(0)
                    stats.solve_time = time.monotonic() - start_time
                    return SolveResult(Status.UNSATISFIABLE, None, stats)
                if profile:
                    mark = perf()
                    learned, backjump_level, lbd_value = self._analyze(conflict_slot)
                    phase_times["analyze"] += perf() - mark
                else:
                    learned, backjump_level, lbd_value = self._analyze(conflict_slot)
                self._backtrack(backjump_level)
                stats.lbd_sum += lbd_value
                if lbd_value <= 2:
                    stats.lbd_glue += 1
                elif lbd_value <= 6:
                    stats.lbd_mid += 1
                else:
                    stats.lbd_high += 1
                if len(learned) == 1:
                    if not self._enqueue(learned[0]):
                        # Learned units are implied by the formula alone.
                        self._ok = False
                        self._failed_assumptions = []
                        stats.solve_time = time.monotonic() - start_time
                        return SolveResult(Status.UNSATISFIABLE, None, stats)
                    self._pending_units.append(_decode(learned[0]))
                else:
                    slot = self._attach(learned, learned=True, lbd=lbd_value)
                    stats.learned_clauses += 1
                    self._enqueue(learned[0], slot)
                self._decay_variable_activity()
                self._decay_clause_activity()
                if len(self._learned_slots) - self._glue_count > self._learned_limit:
                    if profile:
                        mark = perf()
                        self._reduce_learned()
                        phase_times["reduce"] += perf() - mark
                    else:
                        self._reduce_learned()
                    self._learned_limit = int(self._learned_limit * 1.3) + 1
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                restart_count += 1
                stats.restarts += 1
                conflicts_since_restart = 0
                conflicts_until_restart = self._restart_base * luby(restart_count + 1)
                self._backtrack(0)
                if _trace.active():
                    _trace.event(
                        "solver.restart",
                        restart=restart_count,
                        conflicts=self._total_conflicts,
                        next_interval=conflicts_until_restart,
                    )
                continue

            # Place pending assumptions as pseudo-decisions.
            next_assumption = self._next_unassigned_assumption(encoded_assumptions)
            if next_assumption is not None:
                value = self._lit_values[next_assumption]
                if value == 0:
                    # The core must be read off the implication graph before
                    # backtracking tears the trail down.
                    self._failed_assumptions = self._analyze_final(next_assumption)
                    self._backtrack(0)
                    stats.solve_time = time.monotonic() - start_time
                    return SolveResult(Status.UNSATISFIABLE, None, stats)
                self._trail_limits.append(self._trail_size)
                self._enqueue(next_assumption)
                continue

            variable = self._pick_branch_variable()
            if variable == 0:
                model = self._extract_model()
                self._backtrack(0)
                stats.solve_time = time.monotonic() - start_time
                return SolveResult(Status.SATISFIABLE, model, stats)
            stats.decisions += 1
            self._trail_limits.append(self._trail_size)
            if len(self._trail_limits) > stats.max_decision_level:
                stats.max_decision_level = len(self._trail_limits)
            encoded = (variable << 1) | (self._phase[variable] ^ 1)
            self._enqueue(encoded)

    def _analyze_final(self, failed: int) -> list[int]:
        """Assumption literals whose conjunction the search refuted.

        ``failed`` is the encoded assumption found false while placing
        assumptions.  Walking the implication graph backwards from its
        (true) negation, every pseudo-decision reached is an assumption
        that contributed to the refutation — real decisions cannot appear,
        because assumptions are (re)placed before any branching decision
        is made.  The returned DIMACS literals are a subset of the passed
        assumptions, and the formula conjoined with them is unsatisfiable
        (the minimisation is the conflict-analysis restriction itself; the
        core is not guaranteed to be subset-minimal).
        """
        core = [_decode(failed)]
        variable = failed >> 1
        levels = self._levels
        if levels[variable] == 0:
            # The negation is a root-level fact of the formula: the failed
            # assumption alone is already contradictory.
            return core
        seen = self._seen
        reasons = self._reasons
        arena = self._arena
        trail = self._trail
        seen[variable] = 1
        marked = [variable]
        for index in range(self._trail_size - 1, -1, -1):
            encoded = trail[index]
            trail_variable = encoded >> 1
            if not seen[trail_variable]:
                continue
            reason_slot = reasons[trail_variable]
            if reason_slot < 0:
                # A pseudo-decision above level 0 is an assumption; its
                # assigned polarity is the assumed literal itself (covers
                # contradictory assumption pairs too).
                if levels[trail_variable] > 0:
                    core.append(_decode(encoded))
            else:
                reason = arena[reason_slot]
                assert reason is not None
                for other in reason:
                    other_variable = other >> 1
                    if (
                        other_variable != trail_variable
                        and levels[other_variable] > 0
                        and not seen[other_variable]
                    ):
                        seen[other_variable] = 1
                        marked.append(other_variable)
        for cleared in marked:
            seen[cleared] = 0
        return core

    def failed_assumptions(self) -> list[int]:
        """The assumption core of the most recent UNSAT :meth:`solve` call.

        The returned literals are a subset of the assumptions passed to
        that call, and adding them to the formula as units makes it
        unsatisfiable; an empty list means the formula is unsatisfiable on
        its own.  Raises :class:`~repro.errors.SolverError` when the last
        call did not return UNSAT.
        """
        if self._failed_assumptions is None:
            raise SolverError(
                "failed_assumptions() is only defined after an UNSAT solve() call"
            )
        return list(self._failed_assumptions)

    def counters(self) -> dict[str, float]:
        """Counters of the most recent solve (the full CDCL counter set)."""
        return self.stats.as_dict()

    def _next_unassigned_assumption(self, encoded_assumptions: list[int]) -> int | None:
        for encoded in encoded_assumptions:
            value = self._lit_values[encoded]
            if value == _UNASSIGNED or value == 0:
                return encoded
        return None

    def _extract_model(self) -> dict[int, bool]:
        model: dict[int, bool] = {}
        lit_values = self._lit_values
        phase = self._phase
        for variable in range(1, self._num_vars + 1):
            value = lit_values[variable << 1]
            model[variable] = bool(value) if value != _UNASSIGNED else bool(phase[variable])
        return model


def solve_cnf(
    cnf: Cnf,
    assumptions: Sequence[int] = (),
    *,
    conflict_limit: int | None = None,
    time_limit: float | None = None,
) -> SolveResult:
    """One-shot convenience wrapper: build a solver, add ``cnf``, solve."""
    solver = CdclSolver(cnf)
    return solver.solve(
        assumptions,
        conflict_limit=conflict_limit,
        time_limit=time_limit,
    )
