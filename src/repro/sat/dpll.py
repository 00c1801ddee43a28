"""A tiny DPLL solver used as a reference implementation.

The CDCL solver in :mod:`repro.sat.solver` is the production engine.  This
module provides a deliberately simple, obviously-correct Davis–Putnam–
Logemann–Loveland solver.  The property-based tests solve the same random
formulas with both engines and require the SAT/UNSAT verdicts to agree,
which is by far the most effective way of catching propagation or conflict-
analysis bugs in the fast solver.

It is exponential-time and recursion-free (explicit stack) and should only
be used on formulas with at most a few dozen variables.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.errors import SolverError
from repro.sat.cnf import Cnf, split_clauses
from repro.sat.solver import SolveResult, SolverStats, Status


class _Deadline(Exception):
    """Internal: the optional time budget of a solve call expired."""


class DpllSolver:
    """A straightforward DPLL solver with unit propagation.

    Only intended for small formulas (test oracle); the interface mirrors a
    subset of :class:`~repro.sat.solver.CdclSolver`.
    """

    def __init__(self, cnf: Cnf | None = None, *, max_variables: int = 64):
        self._clauses: list[list[int]] = []
        self._num_vars = 0
        self._max_variables = max_variables
        if cnf is not None:
            self.add_cnf(cnf)

    @property
    def num_variables(self) -> int:
        """Highest variable index seen so far."""
        return self._num_vars

    def add_cnf(self, cnf: Cnf) -> None:
        """Add every clause of ``cnf``."""
        for literals in split_clauses(cnf.literals):
            self.add_clause(literals)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause given as DIMACS literals."""
        unique = set(literals)
        for literal in unique:
            if literal == 0:
                raise SolverError("literal 0 is invalid")
            self._num_vars = max(self._num_vars, abs(literal))
        if self._num_vars > self._max_variables:
            raise SolverError(
                f"DpllSolver is a test oracle limited to {self._max_variables} variables"
            )
        if any(-literal in unique for literal in unique):
            return
        self._clauses.append(sorted(unique))

    def solve(
        self, assumptions: Sequence[int] = (), *, time_limit: float | None = None
    ) -> SolveResult:
        """Solve by exhaustive DPLL search.

        Conclusive unless ``time_limit`` (seconds) is given and expires,
        in which case the result status is :attr:`Status.UNKNOWN` — the
        budget lets a search's deadline bound this exponential oracle,
        which could otherwise run for as long as the formula takes.
        """
        stats = SolverStats()
        assignment: dict[int, bool] = {}
        clauses = [list(clause) for clause in self._clauses]
        if [] in clauses:  # an empty clause: no assignment satisfies it
            return SolveResult(Status.UNSATISFIABLE, None, stats)
        for literal in assumptions:
            clauses.append([literal])
        deadline = None if time_limit is None else time.monotonic() + time_limit
        try:
            result = self._search(clauses, assignment, stats, deadline)
        except _Deadline:
            return SolveResult(Status.UNKNOWN, None, stats)
        if result is None:
            return SolveResult(Status.UNSATISFIABLE, None, stats)
        model = {
            variable: result.get(variable, False)
            for variable in range(1, self._num_vars + 1)
        }
        return SolveResult(Status.SATISFIABLE, model, stats)

    def _search(
        self,
        clauses: list[list[int]],
        assignment: dict[int, bool],
        stats: SolverStats,
        deadline: float | None = None,
    ) -> dict[int, bool] | None:
        if deadline is not None and time.monotonic() > deadline:
            raise _Deadline
        clauses, assignment, consistent = self._propagate(clauses, dict(assignment), stats)
        if not consistent:
            return None
        if not clauses:
            return assignment
        variable = abs(clauses[0][0])
        for value in (True, False):
            stats.decisions += 1
            extended = dict(assignment)
            extended[variable] = value
            literal = variable if value else -variable
            reduced = self._reduce(clauses, literal)
            if reduced is None:
                continue
            result = self._search(reduced, extended, stats, deadline)
            if result is not None:
                return result
        return None

    @staticmethod
    def _reduce(clauses: list[list[int]], literal: int) -> list[list[int]] | None:
        reduced: list[list[int]] = []
        for clause in clauses:
            if literal in clause:
                continue
            if -literal in clause:
                shrunk = [other for other in clause if other != -literal]
                if not shrunk:
                    return None
                reduced.append(shrunk)
            else:
                reduced.append(clause)
        return reduced

    def _propagate(
        self,
        clauses: list[list[int]],
        assignment: dict[int, bool],
        stats: SolverStats,
    ) -> tuple[list[list[int]], dict[int, bool], bool]:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                if len(clause) == 1:
                    literal = clause[0]
                    assignment[abs(literal)] = literal > 0
                    stats.propagations += 1
                    reduced = self._reduce(clauses, literal)
                    if reduced is None:
                        return clauses, assignment, False
                    clauses = reduced
                    changed = True
                    break
        return clauses, assignment, True
