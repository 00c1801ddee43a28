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
* root-level inprocessing between restarts: bounded subsumption and
  self-subsumption over problem and learned clauses, occurrence-list
  based and deadline-bounded,
* bounded variable elimination (SatELite-style) at the root: a variable
  whose resolvent count does not outgrow its occurrence count is
  resolved away; the removed clauses go on an elimination stack used
  for model reconstruction, and any later mention of an eliminated
  variable (new clause or assumption) restores it transparently,
* clause vivification at the root: unit-propagation probing that
  shortens or removes irredundant and low-LBD learned clauses,
* chronological backtracking: conflicts whose assertion level is far
  below the conflict level backtrack a single level instead (the
  learned clause is still asserting there),
* rephasing schedules: the saved phases are periodically reset to the
  best-trail snapshot, inverted, original, or random targets on a
  geometrically growing conflict cadence,
* incremental solving under assumptions,
* conflict and time budgets so callers can implement timeouts
  (the paper stops each pebbling instance after a wall-clock budget);
  the wall clock is only consulted every few conflicts, so the hot
  loop does not pay a ``time.monotonic()`` call per iteration.

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
from repro.sat.cnf import Cnf


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
    maps phase names (``propagate``/``analyze``/``reduce``/``inprocess``/
    ``bve``/``vivify``) to seconds spent in that phase during the last
    solve call (``bve`` and ``vivify`` are sub-slices of ``inprocess``).
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
    subsumed_clauses: int = 0
    strengthened_clauses: int = 0
    root_simplified: int = 0
    inprocessings: int = 0
    eliminated_variables: int = 0
    restored_variables: int = 0
    bve_resolvents: int = 0
    vivified_clauses: int = 0
    chrono_backtracks: int = 0
    rephases: int = 0
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
            "subsumed_clauses": self.subsumed_clauses,
            "strengthened_clauses": self.strengthened_clauses,
            "root_simplified": self.root_simplified,
            "inprocessings": self.inprocessings,
            "eliminated_variables": self.eliminated_variables,
            "restored_variables": self.restored_variables,
            "bve_resolvents": self.bve_resolvents,
            "vivified_clauses": self.vivified_clauses,
            "chrono_backtracks": self.chrono_backtracks,
            "rephases": self.rephases,
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

#: Wall-clock budget of a single inprocessing pass (seconds).
_INPROCESS_BUDGET = 0.3

#: A variable is a BVE candidate only when neither polarity occurs in
#: more than this many clauses (keeps the resolvent products small).
_BVE_OCC_LIMIT = 16

#: Variables whose elimination would create a resolvent longer than
#: this are skipped.
_BVE_CLAUSE_LIMIT = 24

#: Learned clauses with LBD above this are not worth vivifying.
_VIVIFY_LBD_LIMIT = 6

#: Rephasing mode cycle; ``best`` resets to the deepest-trail snapshot.
_REPHASE_CYCLE = ("best", "invert", "best", "random", "best", "original")


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
    forever, ``inprocess_interval`` is the number of conflicts between
    root-level simplification passes (0 disables inprocessing), and
    ``profile=True`` records per-phase wall-clock splits in
    ``stats.phase_times``.

    The simplification/search knobs added by the round-three work:

    ``bve``
        enables bounded variable elimination during inprocessing.
        Eliminated variables are restored transparently when a later
        clause or assumption mentions them; :meth:`freeze` exempts
        named variables (the pebbling layer freezes its state and guard
        variables).  ``bve_grow`` is the number of extra resolvents an
        elimination may add beyond the clauses it removes.
    ``vivify``
        enables root-level clause vivification during inprocessing.
    ``chrono``
        jump-distance threshold for chronological backtracking: a
        conflict whose assertion level is more than ``chrono`` levels
        below the conflict level backtracks a single level instead.
        ``0`` disables.
    ``rephase``
        base conflict interval of the rephasing schedule (``0``
        disables): every interval the saved phases are reset to the
        best-trail snapshot / inverted / original / random targets, and
        the interval grows geometrically.
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
        inprocess_interval: int = 3000,
        bve: bool = True,
        bve_grow: int = 0,
        vivify: bool = True,
        chrono: int = 100,
        rephase: int = 0,
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
        self._inprocess_interval = inprocess_interval
        self._total_conflicts = 0
        self._last_inprocess_conflicts = 0
        self._bve = bve
        self._bve_grow = bve_grow
        self._vivify = vivify
        self._chrono = chrono
        # Bounded variable elimination state: ``_eliminated`` marks
        # variables currently resolved away, ``_frozen`` marks variables
        # exempt from elimination, and ``_elim_stack`` records, per
        # eliminated variable, the removed irredundant clauses split by
        # polarity (encoded literals) — the substrate of both model
        # reconstruction and restore-on-mention.
        self._eliminated = bytearray(capacity)
        self._frozen = bytearray(capacity)
        self._elim_stack: list[tuple[int, list[list[int]], list[list[int]]]] = []
        self._current_assumption_vars: frozenset[int] | set[int] = frozenset()
        # Rephasing state: the saved-phase snapshot of the deepest trail
        # seen since the last rephase, and the geometric schedule.
        self._rephase_base = rephase
        self._rephase_interval = rephase
        self._rephase_next = rephase
        self._rephase_count = 0
        self._best_trail = 0
        self._best_phase: list[int] = [0] * capacity
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
        self._eliminated.extend(bytes(grow))
        self._frozen.extend(bytes(grow))
        self._best_phase.extend([0] * grow)
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
        for clause in cnf.clauses:
            self.add_clause(clause.literals)

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
        if self._elim_stack:
            # Restore-on-mention: a clause over an eliminated variable
            # invalidates its elimination, so the variable (and everything
            # eliminated after it) is put back before the clause lands.
            eliminated = self._eliminated
            for literal in clause:
                variable = -literal if literal < 0 else literal
                if eliminated[variable]:
                    self._restore_variable(variable)
            if not self._ok:
                return False
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
    def _value_of(self, encoded: int) -> int:
        """Return 1 (true), 0 (false) or -1 (unassigned) for a literal."""
        return self._lit_values[encoded]

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

    def _heap_remove(self, variable: int) -> None:
        """Remove ``variable`` from the heap (used by variable elimination)."""
        index = self._heap_pos[variable]
        if index < 0:
            return
        heap = self._heap
        self._heap_pos[variable] = -1
        last = heap.pop()
        if index < len(heap):
            heap[index] = last
            self._heap_pos[last] = index
            self._heap_down(index)
            if self._heap_pos[last] == index:
                self._heap_up(index)

    # The heap is maintained incrementally — every unassigned variable is
    # always enqueued: ``_ensure_var`` inserts fresh variables, decisions
    # pop variables, and ``_backtrack`` lazily re-inserts whatever it
    # unassigns.  Variables assigned by propagation may linger in the heap;
    # ``_pick_branch_variable`` skips them when popped.  Eliminated
    # variables are removed outright and re-inserted on restore.

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

    def _promote(self, slot: int) -> None:
        """Make a learned clause irredundant (it subsumed a problem clause)."""
        if not self._learned_flag[slot]:
            return
        self._learned_flag[slot] = False
        if self._lbd[slot] <= self._glue_max:
            self._glue_count -= 1
        self._clause_act[slot] = 0.0
        self._num_problem_clauses += 1

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
    # root-level inprocessing (subsumption + self-subsumption)
    # ------------------------------------------------------------------
    def _shrink_clause(self, slot: int, kept: list[int]) -> bool:
        """Replace the clause in ``slot`` with ``kept`` (no false literals).

        Handles re-watching, the unit and empty cases, and LBD/glue
        bookkeeping.  Returns ``False`` when the shrink proved the formula
        unsatisfiable.
        """
        self._detach(slot)
        if not kept:
            self._free_slot(slot)
            self._ok = False
            return False
        if len(kept) == 1:
            self._free_slot(slot)
            if not self._enqueue(kept[0]):
                self._ok = False
                return False
            return True
        self._arena[slot] = kept
        self._watch_clause(kept, slot)
        if self._learned_flag[slot]:
            new_lbd = min(self._lbd[slot], len(kept))
            if self._lbd[slot] > self._glue_max >= new_lbd:
                self._glue_count += 1
            self._lbd[slot] = new_lbd
        return True

    def _rebuild_learned_slots(self) -> None:
        self._learned_slots = [
            slot
            for slot in self._learned_slots
            if self._arena[slot] is not None and self._learned_flag[slot]
        ]

    def _inprocess(self, deadline: float | None) -> bool:
        """Bounded subsumption pass at decision level 0.

        Must only be called with an empty ``_trail_limits`` (every current
        assignment is a permanent root fact, so assumption machinery is
        untouched).  Runs three phases: root simplification (drop satisfied
        clauses, strip false literals), forward subsumption (``C ⊆ D``
        deletes ``D``; a learned subsumer of a problem clause is promoted
        to irredundant first), and self-subsumption
        (``(C \\ {l}) ⊆ D`` with ``¬l ∈ D`` strengthens ``D`` by ``¬l``).
        Returns ``False`` when the formula was proven unsatisfiable.
        """
        stats = self.stats
        arena = self._arena
        lit_values = self._lit_values
        reasons = self._reasons
        trail = self._trail
        learned_flag = self._learned_flag
        # Root facts never participate in conflict analysis again (their
        # level-0 variables are skipped by every implication-graph walk),
        # so their reason slots can be released.  This unlocks every clause
        # for simplification and guarantees no freed slot stays reachable
        # through ``_reasons``.
        for index in range(self._trail_size):
            reasons[trail[index] >> 1] = _NO_REASON

        # Phase 1: root simplification.
        for slot in range(len(arena)):
            clause = arena[slot]
            if clause is None:
                continue
            satisfied = False
            falsified = False
            for lit in clause:
                value = lit_values[lit]
                if value == 1:
                    satisfied = True
                    break
                if value == 0:
                    falsified = True
            if satisfied:
                self._detach(slot)
                self._free_slot(slot)
                stats.root_simplified += 1
            elif falsified:
                kept = [lit for lit in clause if lit_values[lit] != 0]
                if not self._shrink_clause(slot, kept):
                    self._rebuild_learned_slots()
                    return False
                stats.root_simplified += 1
        if self._propagate() != _NO_CONFLICT:
            self._rebuild_learned_slots()
            self._ok = False
            return False

        # Occurrence lists, 64-bit signatures and literal sets over the
        # live clauses.  Signatures give a cheap necessary condition for
        # the subset tests: ``sig(C) & ~sig(D) == 0`` whenever C ⊆ D.
        occur: dict[int, list[int]] = {}
        sigs: dict[int, int] = {}
        clause_sets: dict[int, set[int]] = {}
        live: list[int] = []
        for slot in range(len(arena)):
            clause = arena[slot]
            if clause is None:
                continue
            signature = 0
            for lit in clause:
                signature |= 1 << (lit & 63)
                occur.setdefault(lit, []).append(slot)
            sigs[slot] = signature
            clause_sets[slot] = set(clause)
            live.append(slot)
        # Shortest clauses subsume the most; process them first so the
        # deadline cuts off the least profitable work.
        live.sort(key=lambda slot: len(clause_sets[slot]))

        monotonic = time.monotonic
        for processed, c_slot in enumerate(live):
            if deadline is not None and processed % 32 == 31 and monotonic() > deadline:
                break
            if arena[c_slot] is None:
                continue
            c_set = clause_sets[c_slot]
            c_sig = sigs[c_slot]
            c_len = len(c_set)
            # Phase 2: forward subsumption through the rarest literal of C
            # (every superset of C must contain it).
            rare = min(c_set, key=lambda lit: len(occur.get(lit, ())))
            for d_slot in occur.get(rare, ()):
                if d_slot == c_slot or arena[d_slot] is None:
                    continue
                d_set = clause_sets[d_slot]
                if len(d_set) < c_len or (c_sig & ~sigs[d_slot]):
                    continue
                if c_set <= d_set:
                    if learned_flag[c_slot] and not learned_flag[d_slot]:
                        # Keeping only the learned subsumer would weaken the
                        # formula if a later reduction deleted it; make it
                        # irredundant first.
                        self._promote(c_slot)
                    self._detach(d_slot)
                    self._free_slot(d_slot)
                    stats.subsumed_clauses += 1
            # Phase 3: self-subsumption — resolving C and D on l yields a
            # clause that subsumes D, so D can drop ¬l.
            for lit in list(c_set):
                negated = lit ^ 1
                rest_sig = c_sig & ~(1 << (lit & 63))
                for d_slot in occur.get(negated, ()):
                    if d_slot == c_slot:
                        continue
                    clause_d = arena[d_slot]
                    if clause_d is None:
                        continue
                    d_set = clause_sets[d_slot]
                    if negated not in d_set:
                        continue  # stale occurrence left by a strengthening
                    if len(d_set) < c_len or (rest_sig & ~sigs[d_slot]):
                        continue
                    if not (c_set - {lit}) <= d_set:
                        continue
                    kept = []
                    satisfied = False
                    for other in clause_d:
                        if other == negated:
                            continue
                        value = lit_values[other]
                        if value == 1:
                            satisfied = True
                            break
                        if value != 0:
                            kept.append(other)
                    if satisfied:
                        # A root unit enqueued earlier in this pass already
                        # satisfies D; drop it instead of strengthening.
                        self._detach(d_slot)
                        self._free_slot(d_slot)
                        stats.root_simplified += 1
                        continue
                    if not self._shrink_clause(d_slot, kept):
                        self._rebuild_learned_slots()
                        return False
                    stats.strengthened_clauses += 1
                    if arena[d_slot] is not None:
                        remaining = set(arena[d_slot])
                        clause_sets[d_slot] = remaining
                        signature = 0
                        for other in remaining:
                            signature |= 1 << (other & 63)
                        sigs[d_slot] = signature
        # Phase 4/5: bounded variable elimination, then vivification.
        # Both share the pass deadline; their profile times are sub-slices
        # of the enclosing ``inprocess`` phase.
        phase_times = stats.phase_times
        perf = time.perf_counter
        if self._bve:
            mark = perf() if phase_times is not None else 0.0
            bve_ok = self._bve_pass(deadline)
            if phase_times is not None:
                phase_times["bve"] += perf() - mark
            if not bve_ok:
                self._rebuild_learned_slots()
                return False
        if self._vivify:
            mark = perf() if phase_times is not None else 0.0
            vivify_ok = self._vivify_pass(deadline)
            if phase_times is not None:
                phase_times["vivify"] += perf() - mark
            if not vivify_ok:
                self._rebuild_learned_slots()
                return False
        self._rebuild_learned_slots()
        stats.inprocessings += 1
        if _trace.active():
            _trace.event(
                "solver.inprocess",
                pass_number=stats.inprocessings,
                subsumed=stats.subsumed_clauses,
                strengthened=stats.strengthened_clauses,
                root_simplified=stats.root_simplified,
                eliminated=stats.eliminated_variables,
                vivified=stats.vivified_clauses,
            )
        return True

    # ------------------------------------------------------------------
    # bounded variable elimination
    # ------------------------------------------------------------------
    def freeze(self, variables: Iterable[int]) -> None:
        """Exempt ``variables`` from elimination, restoring them if needed.

        The pebbling layer freezes every named state variable and every
        assumption guard; anything else (cardinality ladders, move
        auxiliaries) remains fair game for BVE.  Accepts variables or
        literals (the sign is ignored).
        """
        for literal in variables:
            variable = -literal if literal < 0 else literal
            if variable == 0:
                raise SolverError("cannot freeze variable 0")
            self._ensure_var(variable)
            self._frozen[variable] = 1
            if self._eliminated[variable]:
                self._restore_variable(variable)

    def _restore_variable(self, variable: int) -> None:
        """Undo eliminations until ``variable`` is live again.

        Entries are popped off the elimination stack in reverse order;
        a stored clause only ever references variables eliminated later
        (already restored by the time it is re-attached) or never, so
        suffix-popping re-creates an equivalent formula.
        """
        stack = self._elim_stack
        eliminated = self._eliminated
        while stack and eliminated[variable]:
            entry_var, pos_clauses, neg_clauses = stack.pop()
            eliminated[entry_var] = 0
            self._heap_insert(entry_var)
            self.stats.restored_variables += 1
            for encoded_clause in pos_clauses:
                self._reattach_stored(encoded_clause)
            for encoded_clause in neg_clauses:
                self._reattach_stored(encoded_clause)

    def _reattach_stored(self, encoded_clause: list[int]) -> None:
        """Re-add a stored clause, simplifying against current root facts."""
        lit_values = self._lit_values
        levels = self._levels
        kept: list[int] = []
        for enc in encoded_clause:
            value = lit_values[enc]
            if value >= 0 and levels[enc >> 1] == 0:
                if value == 1:
                    return  # satisfied at the root level
                continue
            kept.append(enc)
        if not kept:
            self._ok = False
            return
        if len(kept) == 1:
            if not self._enqueue(kept[0]):
                self._ok = False
            return
        self._attach(kept, learned=False)

    def _bve_pass(self, deadline: float | None) -> bool:
        """Bounded variable elimination at decision level 0.

        A variable is eliminated when the set of non-tautological
        resolvents of its irredundant occurrences is no larger than the
        clauses removed (plus ``bve_grow``).  Learned clauses over the
        variable are deleted outright — they stay implied by the
        remaining formula, but resolving them would bloat the output.
        Frozen variables, current assumptions and root-assigned
        variables are never touched.  Returns ``False`` on UNSAT.
        """
        arena = self._arena
        lit_values = self._lit_values
        learned_flag = self._learned_flag
        eliminated = self._eliminated
        frozen = self._frozen
        assumption_vars = self._current_assumption_vars
        stats = self.stats
        occur: dict[int, list[int]] = {}
        for slot in range(len(arena)):
            clause = arena[slot]
            if clause is None:
                continue
            for lit in clause:
                occur.setdefault(lit, []).append(slot)
        candidates: list[tuple[int, int]] = []
        for variable in range(1, self._num_vars + 1):
            if eliminated[variable] or frozen[variable]:
                continue
            if variable in assumption_vars:
                continue
            if lit_values[variable << 1] != _UNASSIGNED:
                continue
            num_pos = len(occur.get(variable << 1, ()))
            num_neg = len(occur.get((variable << 1) | 1, ()))
            if num_pos + num_neg == 0:
                continue
            if num_pos > _BVE_OCC_LIMIT or num_neg > _BVE_OCC_LIMIT:
                continue
            candidates.append((num_pos * num_neg, variable))
        candidates.sort()
        monotonic = time.monotonic
        units: list[int] = []
        for processed, (_, variable) in enumerate(candidates):
            if deadline is not None and processed % 8 == 7 and monotonic() > deadline:
                break
            if lit_values[variable << 1] != _UNASSIGNED:
                continue
            plit = variable << 1
            nlit = plit | 1
            # Occurrence lists go stale as eliminations delete clauses and
            # attach resolvents into recycled slots, so membership is
            # re-checked against the arena; a recycled slot can appear
            # twice in a list (old clause and resolvent sharing a
            # literal), hence the order-preserving dedup.
            pos_slots = [
                slot
                for slot in dict.fromkeys(occur.get(plit, ()))
                if arena[slot] is not None and plit in arena[slot]
            ]
            neg_slots = [
                slot
                for slot in dict.fromkeys(occur.get(nlit, ()))
                if arena[slot] is not None and nlit in arena[slot]
            ]
            pos_irr = [slot for slot in pos_slots if not learned_flag[slot]]
            neg_irr = [slot for slot in neg_slots if not learned_flag[slot]]
            limit = len(pos_irr) + len(neg_irr) + self._bve_grow
            resolvents: list[list[int]] = []
            too_many = False
            for p_slot in pos_irr:
                p_clause = arena[p_slot]
                assert p_clause is not None
                p_rest = [lit for lit in p_clause if lit != plit]
                for n_slot in neg_irr:
                    n_clause = arena[n_slot]
                    assert n_clause is not None
                    resolved = list(p_rest)
                    merged = set(p_rest)
                    tautology = False
                    for lit in n_clause:
                        if lit == nlit:
                            continue
                        if lit ^ 1 in merged:
                            tautology = True
                            break
                        if lit not in merged:
                            merged.add(lit)
                            resolved.append(lit)
                    if tautology:
                        continue
                    if len(resolved) > _BVE_CLAUSE_LIMIT:
                        too_many = True
                        break
                    resolvents.append(resolved)
                    if len(resolvents) > limit:
                        too_many = True
                        break
                if too_many:
                    break
            if too_many:
                continue
            # Commit: store the irredundant originals, drop everything
            # mentioning the variable, attach the resolvents.
            stored_pos = [list(arena[slot]) for slot in pos_irr]  # type: ignore[arg-type]
            stored_neg = [list(arena[slot]) for slot in neg_irr]  # type: ignore[arg-type]
            for slot in pos_slots:
                self._detach(slot)
                self._free_slot(slot)
            for slot in neg_slots:
                self._detach(slot)
                self._free_slot(slot)
            eliminated[variable] = 1
            self._heap_remove(variable)
            self._elim_stack.append((variable, stored_pos, stored_neg))
            stats.eliminated_variables += 1
            for resolved in resolvents:
                kept: list[int] = []
                satisfied = False
                for lit in resolved:
                    value = lit_values[lit]
                    if value == 1:
                        satisfied = True
                        break
                    if value == 0:
                        continue
                    kept.append(lit)
                if satisfied:
                    continue
                if not kept:
                    self._ok = False
                    return False
                if len(kept) == 1:
                    if not self._enqueue(kept[0]):
                        self._ok = False
                        return False
                    units.append(kept[0])
                    continue
                slot = self._attach(kept, learned=False)
                for lit in kept:
                    occur.setdefault(lit, []).append(slot)
                stats.bve_resolvents += 1
        if units and self._propagate() != _NO_CONFLICT:
            self._ok = False
            return False
        return True

    # ------------------------------------------------------------------
    # clause vivification
    # ------------------------------------------------------------------
    def _vivify_pass(self, deadline: float | None) -> bool:
        """Unit-propagation probing that shortens clauses at the root.

        For each candidate clause (irredundant, or learned with LBD <=
        ``_VIVIFY_LBD_LIMIT``), the clause is detached and the negations
        of its literals are asserted one decision level at a time:

        * a conflict proves the assumed prefix plus the current literal
          already forms a clause — the rest is dropped;
        * a literal implied true closes the clause the same way;
        * a literal implied false is redundant and removed.

        The probe uses every clause in the database (learned included),
        which is sound even for strengthening irredundant clauses: the
        shortened clause is implied by the formula, and the original is
        subsumed by it.  Returns ``False`` on UNSAT.
        """
        arena = self._arena
        lit_values = self._lit_values
        learned_flag = self._learned_flag
        lbd = self._lbd
        stats = self.stats
        candidates = [
            slot
            for slot in range(len(arena))
            if arena[slot] is not None
            and len(arena[slot]) >= 3  # type: ignore[arg-type]
            and (not learned_flag[slot] or lbd[slot] <= _VIVIFY_LBD_LIMIT)
        ]
        monotonic = time.monotonic
        for processed, slot in enumerate(candidates):
            if deadline is not None and processed % 4 == 3 and monotonic() > deadline:
                break
            clause = arena[slot]
            if clause is None or len(clause) < 3:
                continue
            lits = list(clause)
            self._detach(slot)
            assumed: list[int] = []
            new_lits: list[int] | None = None
            satisfied_root = False
            for enc in lits:
                value = lit_values[enc]
                if value == 1:
                    # Implied by the negated prefix; at an empty prefix the
                    # clause is satisfied at the root outright.
                    if assumed:
                        new_lits = assumed + [enc]
                    else:
                        satisfied_root = True
                    break
                if value == 0:
                    continue  # redundant under the prefix: drop it
                assumed.append(enc)
                self._trail_limits.append(self._trail_size)
                self._enqueue(enc ^ 1)
                if self._propagate() != _NO_CONFLICT:
                    new_lits = list(assumed)
                    break
            self._backtrack(0)
            if satisfied_root:
                self._free_slot(slot)
                stats.root_simplified += 1
            else:
                if new_lits is None:
                    new_lits = assumed
                if len(new_lits) >= len(lits):
                    # Nothing learned: put the original watchers back.
                    self._watch_clause(lits, slot)
                else:
                    self._watch_clause(lits, slot)
                    if not self._shrink_clause(slot, new_lits):
                        return False
                    stats.vivified_clauses += 1
            # Keep level-0 propagation complete before the next probe —
            # a shrink may have enqueued a fresh root unit.
            if self._propagate() != _NO_CONFLICT:
                self._ok = False
                return False
        return True

    # ------------------------------------------------------------------
    # rephasing
    # ------------------------------------------------------------------
    def _apply_rephase(self) -> None:
        """Reset saved phases per the schedule and restart the cadence."""
        mode = _REPHASE_CYCLE[self._rephase_count % len(_REPHASE_CYCLE)]
        phase = self._phase
        count = self._num_vars + 1
        if mode == "best":
            if self._best_trail > 0:
                phase[1:count] = self._best_phase[1:count]
        elif mode == "invert":
            for variable in range(1, count):
                phase[variable] ^= 1
        elif mode == "original":
            for variable in range(1, count):
                phase[variable] = 0
        else:  # random
            random = self._random
            for variable in range(1, count):
                phase[variable] = 1 if random() < 0.5 else 0
        self._rephase_count += 1
        self._rephase_interval = int(self._rephase_interval * 1.5) + 1
        self._rephase_next = self._total_conflicts + self._rephase_interval
        self._best_trail = 0
        self.stats.rephases += 1
        if _trace.active():
            _trace.event(
                "solver.rephase",
                mode=mode,
                count=self._rephase_count,
                next_interval=self._rephase_interval,
                conflicts=self._total_conflicts,
            )

    # ------------------------------------------------------------------
    # explicit simplification entry point
    # ------------------------------------------------------------------
    def simplify(self, budget: float = _INPROCESS_BUDGET) -> bool:
        """Run one root-level inprocessing pass immediately.

        Equivalent to what :meth:`solve` triggers every
        ``inprocess_interval`` conflicts, minus the conflict counting.
        Returns ``False`` when the pass proved the formula UNSAT.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        for literal in self._pending_units:
            if not self._enqueue(_encode(literal)):
                self._ok = False
                return False
        self._pending_units.clear()
        if self._propagate() != _NO_CONFLICT:
            self._ok = False
            return False
        self._current_assumption_vars = frozenset()
        if not self._inprocess(time.monotonic() + budget):
            self._ok = False
            return False
        return True

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
            phase_times = {
                "propagate": 0.0,
                "analyze": 0.0,
                "reduce": 0.0,
                "inprocess": 0.0,
                "bve": 0.0,
                "vivify": 0.0,
            }
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
        if self._elim_stack:
            # Assumptions over eliminated variables void their
            # eliminations (restore-on-mention keeps cores sound).
            eliminated = self._eliminated
            for literal in assumptions:
                variable = -literal if literal < 0 else literal
                if variable <= self._num_vars and eliminated[variable]:
                    self._restore_variable(variable)
            if not self._ok:
                self._failed_assumptions = []
                stats.solve_time = time.monotonic() - start_time
                return SolveResult(Status.UNSATISFIABLE, None, stats)
        self._current_assumption_vars = {
            -literal if literal < 0 else literal for literal in assumptions
        }
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
                current_level = len(self._trail_limits)
                if (
                    self._chrono > 0
                    and len(learned) > 1
                    and current_level - backjump_level > self._chrono
                ):
                    # Chronological backtracking: undo only the conflicting
                    # level.  Every non-asserting literal of the learned
                    # clause lives at a level <= backjump_level, so the
                    # clause is still unit at ``current_level - 1``.
                    stats.chrono_backtracks += 1
                    self._backtrack(current_level - 1)
                else:
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

            if self._rephase_base > 0 and self._trail_size > self._best_trail:
                # Deepest trail since the last rephase: snapshot the saved
                # phases as the "best" target.
                self._best_trail = self._trail_size
                self._best_phase[:] = self._phase

            if conflicts_since_restart >= conflicts_until_restart:
                restart_count += 1
                stats.restarts += 1
                conflicts_since_restart = 0
                conflicts_until_restart = self._restart_base * luby(restart_count + 1)
                self._backtrack(0)
                if self._rephase_base > 0 and self._total_conflicts >= self._rephase_next:
                    self._apply_rephase()
                if _trace.active():
                    _trace.event(
                        "solver.restart",
                        restart=restart_count,
                        conflicts=self._total_conflicts,
                        next_interval=conflicts_until_restart,
                    )
                if (
                    self._inprocess_interval > 0
                    and self._total_conflicts - self._last_inprocess_conflicts
                    >= self._inprocess_interval
                ):
                    self._last_inprocess_conflicts = self._total_conflicts
                    budget = _INPROCESS_BUDGET
                    if time_limit is not None:
                        remaining = time_limit - (time.monotonic() - start_time)
                        if remaining <= 0.05:
                            continue
                        budget = min(budget, 0.5 * remaining)
                    inprocess_deadline = time.monotonic() + budget
                    if profile:
                        mark = perf()
                        inprocess_ok = self._inprocess(inprocess_deadline)
                        phase_times["inprocess"] += perf() - mark
                    else:
                        inprocess_ok = self._inprocess(inprocess_deadline)
                    if not inprocess_ok:
                        self._ok = False
                        self._failed_assumptions = []
                        stats.solve_time = time.monotonic() - start_time
                        return SolveResult(Status.UNSATISFIABLE, None, stats)
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
        # Model reconstruction for eliminated variables, newest first: a
        # stored clause only references variables eliminated later (already
        # reconstructed) or never, and since every resolvent is satisfied,
        # one of the two polarities must satisfy all stored clauses —
        # default to False (every negative occurrence is happy) and flip
        # only when a positive-occurrence clause would otherwise be unsat.
        for variable, pos_clauses, _neg_clauses in reversed(self._elim_stack):
            model[variable] = False
            for clause in pos_clauses:
                satisfied = False
                for enc in clause:
                    other = enc >> 1
                    if other == variable:
                        continue
                    if model[other] == ((enc & 1) == 0):
                        satisfied = True
                        break
                if not satisfied:
                    model[variable] = True
                    break
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
