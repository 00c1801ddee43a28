"""SAT-solving substrate.

The paper uses Z3 as a black-box satisfiability oracle.  This subpackage
provides an equivalent, self-contained substrate:

* :mod:`repro.sat.literals` -- DIMACS-style literal helpers.
* :mod:`repro.sat.cnf` -- CNF containers and DIMACS reading/writing.
* :mod:`repro.sat.cards` -- cardinality-constraint encodings (at-most-k).
* :mod:`repro.sat.solver` -- a CDCL SAT solver with two-watched-literal
  propagation, first-UIP clause learning, VSIDS branching, Luby restarts,
  incremental solving under assumptions and failed-assumption cores.
* :mod:`repro.sat.dpll` -- a tiny reference solver used to cross-check the
  CDCL implementation in the test-suite.
* :mod:`repro.sat.backend` -- the :class:`IncrementalSatBackend` protocol
  plus a string-keyed registry of backends (native CDCL, the DPLL oracle,
  and external minisat-style DIMACS binaries), so every layer above can
  carry a solver choice as a picklable spec string.

All public entry points accept and produce plain DIMACS integers
(``1, -1, 2, ...``), which keeps encodings written on top of this package
easy to read and to dump for external solvers.
"""

from repro.sat.backend import (
    DEFAULT_BACKEND,
    ChaosBackend,
    ChaosSpec,
    DpllBackend,
    ExternalDimacsBackend,
    IncrementalSatBackend,
    backend_fallback_reason,
    backend_names,
    backend_unavailable_reason,
    chaos_scope,
    create_backend,
    describe_backends,
    register_backend,
    require_backend,
    resolve_backend,
    set_chaos_scope,
)
from repro.sat.cards import (
    CardinalityEncoding,
    at_least_k,
    at_most_k,
    at_most_k_weighted,
    at_most_one,
    exactly_k,
    exactly_one,
)
from repro.sat.cnf import Cnf, Clause, VariablePool
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.sat.dpll import DpllSolver
from repro.sat.literals import lit_is_positive, lit_to_var, negate, var_to_lit
from repro.sat.solver import CdclSolver, SolveResult, SolverStats, Status

__all__ = [
    "CardinalityEncoding",
    "CdclSolver",
    "ChaosBackend",
    "ChaosSpec",
    "Clause",
    "Cnf",
    "DEFAULT_BACKEND",
    "DpllBackend",
    "DpllSolver",
    "ExternalDimacsBackend",
    "IncrementalSatBackend",
    "SolveResult",
    "SolverStats",
    "Status",
    "VariablePool",
    "backend_fallback_reason",
    "backend_names",
    "backend_unavailable_reason",
    "chaos_scope",
    "create_backend",
    "describe_backends",
    "register_backend",
    "require_backend",
    "resolve_backend",
    "set_chaos_scope",
    "at_least_k",
    "at_most_k",
    "at_most_k_weighted",
    "at_most_one",
    "exactly_k",
    "exactly_one",
    "lit_is_positive",
    "lit_to_var",
    "negate",
    "parse_dimacs",
    "var_to_lit",
    "write_dimacs",
]
