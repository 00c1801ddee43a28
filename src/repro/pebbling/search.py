"""Step-bound search strategies for the pebbling solver (Problem 1).

The paper's Problem 1 asks for the minimum number of steps ``K`` within a
pebble budget.  The solver probes the SAT oracle at a sequence of step
bounds; *how* that sequence evolves is a pluggable :class:`SearchStrategy`:

* :class:`LinearSearch` — the paper's loop: try ``K, K + d, K + 2d, ...``
  until the first SAT answer, which (with ``d = 1`` and a valid lower
  bound) is step-minimal;
* :class:`GeometricSearch` — multiply the bound after every UNSAT answer;
  far fewer SAT calls on tightly constrained instances, at the price of
  step minimality (used by the Fig. 5 budget sweeps);
* :class:`GeometricRefine` — overshoot geometrically until the first SAT
  answer, then binary-search the interval between the largest known-UNSAT
  bound and the SAT bound down to the minimal ``K``.  Combined with the
  incremental engine this reuses one live solver (and its learned clauses)
  across the whole search, giving geometric's call count *and* linear's
  minimality.

Core-guided variants
--------------------
When idle steps are allowed, step-satisfiability is *monotone* in ``K``
(a ``K``-step strategy pads to ``K+1`` with an idle step), so assuming the
final-configuration guards of a whole **ladder** of bounds
``{b, b+1, ..., t}`` at once is satisfiable exactly when the lowest bound
``b`` is.  On UNSAT, the backend's failed-assumption core
(:meth:`repro.sat.backend.IncrementalSatBackend.failed_assumptions`) names
the guards its refutation actually used; if the lowest surviving guard is
``m > b``, the refutation proves the *harder* bound ``m`` infeasible, and
monotonicity extends that to every bound ``<= m`` — the search skips them
without ever querying.  :class:`LinearSearch` with ``core_lookahead > 0``
fast-forwards past bounds named in the core; :class:`GeometricRefine` with
``core_guided=True`` tightens the refinement bracket's lower edge the same
way (its ladder spans the whole open bracket, so a single good core can
collapse several binary-search levels).  Both remain certificate-sound:
every skipped bound is proven UNSAT by the core, never guessed.

Strategies are immutable, picklable configuration objects; each search
obtains a private :class:`SearchCursor` via :meth:`SearchStrategy.start`,
so one strategy instance can drive many searches (e.g. every budget of a
``minimize_pebbles`` scan) concurrently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import PebblingError


class SearchCursor(ABC):
    """Mutable state of one step-bound search.

    ``bound`` is the step count to query next; :meth:`advance` consumes the
    SAT/UNSAT answer for the current bound and returns the next bound, or
    ``None`` when the search is complete (the engine then reports the best
    solution seen so far).

    Core-aware cursors additionally publish a :meth:`ladder` of bounds to
    co-assume with ``bound`` and accept the core's verdict through
    :meth:`advance_core`; the default implementations make every cursor a
    plain single-bound search.
    """

    bound: int

    @abstractmethod
    def advance(self, sat: bool) -> int | None:
        """Record the oracle's answer for ``bound``; return the next bound."""

    def ladder(self) -> list[int]:
        """Step bounds whose guards the next query should assume together.

        Always starts at ``bound``; only sound to widen when
        step-satisfiability is monotone (idle steps allowed), which the
        solver enforces via :attr:`SearchStrategy.needs_monotone_steps`.
        """
        return [self.bound]

    def advance_core(self, sat: bool, refuted: int | None = None) -> int | None:
        """Like :meth:`advance`, with the core's strongest refuted bound.

        On UNSAT, ``refuted`` is the largest bound the failed-assumption
        core proves infeasible (``>= bound``; by monotonicity every bound
        up to it is infeasible too).  Cursors that ignore cores fall back
        to :meth:`advance`.
        """
        del refuted
        return self.advance(sat)

    def checkpoint(self) -> dict[str, int | None]:
        """Snapshot of search progress, for anytime partial answers.

        ``next_bound`` is the bound the search would query next;
        ``refuted_through`` the largest bound proven UNSAT so far (``None``
        when no bound has been refuted); ``known_sat`` the smallest bound
        known satisfiable (``None`` until one is).  A preempted search
        reports this snapshot so a retry — or a human — can resume from the
        narrowed interval instead of starting over.
        """
        return {"next_bound": self.bound, "refuted_through": None, "known_sat": None}


class SearchStrategy(ABC):
    """Immutable configuration of a step-bound search schedule."""

    #: Short name used by the CLI and result summaries.
    name: str = "abstract"

    @property
    def signature(self) -> str:
        """Canonical ``name:parameters`` string identifying the schedule.

        Two strategy objects with the same signature drive identical
        searches, so the result store uses it as part of its cache key.
        """
        return self.name

    @property
    def certifies_minimality(self) -> bool:
        """``True`` when a *complete* search proves its step count minimal.

        Holds for the linear schedule with unit increment and for
        geometric-refine (whose bracket closes on the minimum); geometric
        overshoot and coarse linear increments may stop above the minimum.
        Core-guided skips preserve certification — every skipped bound is
        refuted by an UNSAT core, not guessed.
        """
        return False

    @property
    def needs_monotone_steps(self) -> bool:
        """``True`` when the schedule is only sound with idle steps allowed.

        Bracket refinement and core ladders both rely on a ``K``-step
        strategy padding to ``K+1`` steps; the solver rejects such
        schedules when :attr:`EncodingOptions.forbid_idle_steps` breaks
        that monotonicity.
        """
        return False

    @abstractmethod
    def start(self, initial: int, floor: int, ceiling: int | None = None) -> SearchCursor:
        """Begin a search at ``initial`` steps.

        ``floor`` is a *sound* structural lower bound on the step count
        (every strategy may assume no solution exists below it); refining
        strategies use it as the lower bracket when the very first query is
        already satisfiable.  ``ceiling`` is the caller's ``max_steps``
        budget: overshooting strategies clamp their growth to it so a
        solution just below the budget is not jumped over.
        """


class _LinearCursor(SearchCursor):
    def __init__(
        self,
        initial: int,
        step_increment: int,
        lookahead: int = 0,
        ceiling: int | None = None,
    ):
        self.bound = initial
        self._increment = step_increment
        self._lookahead = lookahead
        self._ceiling = ceiling
        self._refuted: int | None = None

    def ladder(self) -> list[int]:
        if self._lookahead <= 0:
            return [self.bound]
        top = self.bound + self._lookahead
        if self._ceiling is not None:
            top = min(top, self._ceiling)
        return list(range(self.bound, max(self.bound, top) + 1))

    def advance(self, sat: bool) -> int | None:
        return self.advance_core(sat, None)

    def advance_core(self, sat: bool, refuted: int | None = None) -> int | None:
        if sat:
            return None
        # Fast-forward past every bound the core proved infeasible.
        unsat_through = self.bound if refuted is None else max(self.bound, refuted)
        self._refuted = unsat_through
        self.bound = unsat_through + self._increment
        return self.bound

    def checkpoint(self) -> dict[str, int | None]:
        return {"next_bound": self.bound, "refuted_through": self._refuted, "known_sat": None}


@dataclass(frozen=True)
class LinearSearch(SearchStrategy):
    """Add ``step_increment`` after every UNSAT answer (paper's Problem 1).

    With ``core_lookahead > 0`` each query co-assumes the guards of the
    next ``core_lookahead`` bounds and fast-forwards past every bound the
    UNSAT core refutes (see the module docstring); requires idle steps to
    be allowed.
    """

    step_increment: int = 1
    core_lookahead: int = 0
    name = "linear"

    def __post_init__(self) -> None:
        if self.step_increment < 1:
            raise PebblingError("step_increment must be >= 1")
        if self.core_lookahead < 0:
            raise PebblingError("core_lookahead must be >= 0")

    @property
    def signature(self) -> str:
        signature = f"linear:{self.step_increment}"
        if self.core_lookahead:
            signature += f":core{self.core_lookahead}"
        return signature

    @property
    def certifies_minimality(self) -> bool:
        return self.step_increment == 1

    @property
    def needs_monotone_steps(self) -> bool:
        return self.core_lookahead > 0

    def start(self, initial: int, floor: int, ceiling: int | None = None) -> SearchCursor:
        return _LinearCursor(initial, self.step_increment, self.core_lookahead, ceiling)


def _grow(bound: int, factor: float) -> int:
    return max(bound + 1, int(bound * factor))


class _GeometricCursor(SearchCursor):
    def __init__(self, initial: int, factor: float):
        self.bound = initial
        self._factor = factor
        self._refuted: int | None = None

    def advance(self, sat: bool) -> int | None:
        if sat:
            return None
        self._refuted = self.bound
        self.bound = _grow(self.bound, self._factor)
        return self.bound

    def checkpoint(self) -> dict[str, int | None]:
        return {"next_bound": self.bound, "refuted_through": self._refuted, "known_sat": None}


@dataclass(frozen=True)
class GeometricSearch(SearchStrategy):
    """Multiply the bound by ``factor`` after every UNSAT answer."""

    factor: float = 1.5
    name = "geometric"

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise PebblingError("geometric factor must be > 1")

    @property
    def signature(self) -> str:
        return f"geometric:{self.factor:g}"

    def start(self, initial: int, floor: int, ceiling: int | None = None) -> SearchCursor:
        return _GeometricCursor(initial, self.factor)


class _GeometricRefineCursor(SearchCursor):
    """Geometric overshoot, then binary refinement down to the minimum.

    Invariants: every bound below ``_lo`` is known (or structurally
    guaranteed) UNSAT; ``_hi`` is the smallest known-SAT bound (``None``
    during the overshoot phase).  The search ends when the bracket closes
    (``_lo == _hi``).  Soundness of both the bracket and the ceiling
    cut-off relies on step-satisfiability being monotone in K (a K-step
    strategy pads to K+1 with an idle step), which is why the solver
    rejects this strategy when idle steps are forbidden.

    Overshoot growth is clamped to ``ceiling``: an UNSAT answer *at* the
    ceiling proves (by monotonicity) that no bound within the budget works,
    so the search stops definitively instead of jumping past a feasible
    bound just below the budget.
    """

    def __init__(
        self,
        initial: int,
        floor: int,
        factor: float,
        ceiling: int | None,
        core_guided: bool = False,
        lookahead: int = 0,
    ):
        self.bound = initial
        self._lo = min(floor, initial)
        self._hi: int | None = None
        self._factor = factor
        self._ceiling = ceiling
        self._core_guided = core_guided
        self._lookahead = lookahead

    def ladder(self) -> list[int]:
        if not self._core_guided:
            return [self.bound]
        if self._hi is not None:
            # Refinement phase: span the whole open bracket, so the core
            # can push the lower edge anywhere up to ``hi - 1``.
            return list(range(self.bound, self._hi))
        top = self.bound + self._lookahead
        if self._ceiling is not None:
            top = min(top, self._ceiling)
        return list(range(self.bound, max(self.bound, top) + 1))

    def advance(self, sat: bool) -> int | None:
        return self.advance_core(sat, None)

    def advance_core(self, sat: bool, refuted: int | None = None) -> int | None:
        if sat:
            self._hi = self.bound
        else:
            unsat_through = self.bound if refuted is None else max(self.bound, refuted)
            self._lo = unsat_through + 1
            if self._hi is None:
                if self._ceiling is not None and unsat_through >= self._ceiling:
                    return None  # UNSAT at the ceiling: nothing in budget works
                self.bound = _grow(unsat_through, self._factor)
                if self._ceiling is not None:
                    self.bound = min(self.bound, self._ceiling)
                return self.bound
        if self._lo >= self._hi:
            return None
        self.bound = (self._lo + self._hi) // 2
        return self.bound

    def checkpoint(self) -> dict[str, int | None]:
        # ``_lo`` starts at the structural floor, so ``_lo - 1`` is always a
        # sound "everything below is infeasible" statement.
        return {"next_bound": self.bound, "refuted_through": self._lo - 1, "known_sat": self._hi}


@dataclass(frozen=True)
class GeometricRefine(SearchStrategy):
    """Overshoot geometrically, then binary-search down to the minimal K.

    With ``core_guided=True`` every query co-assumes a ladder of bound
    guards (``core_lookahead`` wide during overshoot, the whole bracket
    during refinement) and the UNSAT core's strongest refuted bound
    tightens the bracket's lower edge — same certified minimum, never more
    SAT calls (the bracket can only shrink faster).
    """

    factor: float = 1.5
    core_guided: bool = False
    core_lookahead: int = 4
    name = "geometric-refine"

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise PebblingError("geometric factor must be > 1")
        if self.core_lookahead < 0:
            raise PebblingError("core_lookahead must be >= 0")

    @property
    def signature(self) -> str:
        signature = f"geometric-refine:{self.factor:g}"
        if self.core_guided:
            signature += f":core{self.core_lookahead}"
        return signature

    @property
    def certifies_minimality(self) -> bool:
        return True

    @property
    def needs_monotone_steps(self) -> bool:
        return True

    def start(self, initial: int, floor: int, ceiling: int | None = None) -> SearchCursor:
        return _GeometricRefineCursor(
            initial,
            floor,
            self.factor,
            ceiling,
            core_guided=self.core_guided,
            lookahead=self.core_lookahead,
        )


#: Names accepted wherever a schedule can be given as a string.
STRATEGY_NAMES = ("linear", "geometric", "geometric-refine", "linear-core", "core-refine")

#: Ladder width used by the named core-guided schedules (``linear-core``,
#: ``core-refine``): each query co-assumes this many extra bound guards.
DEFAULT_CORE_LOOKAHEAD = 4


def strategy_from_name(name: str, *, step_increment: int | None = None) -> SearchStrategy:
    """Build a strategy from its CLI name.

    ``step_increment`` only makes sense for the linear schedule; passing it
    with any other name raises, instead of the historical behaviour of
    silently ignoring it.
    """
    if name == "linear":
        return LinearSearch(step_increment=1 if step_increment is None else step_increment)
    if name == "linear-core":
        return LinearSearch(
            step_increment=1 if step_increment is None else step_increment,
            core_lookahead=DEFAULT_CORE_LOOKAHEAD,
        )
    if step_increment is not None and step_increment != 1:
        raise PebblingError(
            f"step_increment={step_increment} has no effect on the {name!r} "
            "schedule; drop it or use the linear schedule"
        )
    if name == "geometric":
        return GeometricSearch()
    if name == "geometric-refine":
        return GeometricRefine()
    if name == "core-refine":
        return GeometricRefine(core_guided=True, core_lookahead=DEFAULT_CORE_LOOKAHEAD)
    raise PebblingError(
        f"strategy must be one of {', '.join(map(repr, STRATEGY_NAMES))}"
    )


def resolve_search_strategy(
    strategy: SearchStrategy | str | None = None,
) -> SearchStrategy:
    """The strategy object behind the solver's ``strategy=`` argument.

    A :class:`SearchStrategy` passes through, a name goes through
    :func:`strategy_from_name`, and ``None`` means the paper's linear
    schedule.
    """
    if isinstance(strategy, SearchStrategy):
        return strategy
    return strategy_from_name(strategy or "linear")
