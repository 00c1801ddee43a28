"""Pluggable incremental-SAT backends behind one narrow protocol.

The pebbling compiler is solver-agnostic: every search loop in
:mod:`repro.pebbling` only needs *incremental solving under assumptions*
plus, for the core-guided schedules, the subset of the assumptions an
UNSAT answer actually used.  :class:`IncrementalSatBackend` freezes that
surface, and a string-keyed registry maps picklable backend *specs* to
implementations so the whole stack (solver → portfolio workers → service →
CLI) can carry a backend across process boundaries as plain data:

``"cdcl[:key=value,...]"``
    The CDCL engine, with real conflict-analysis assumption cores.  Bare
    ``cdcl`` runs the C core (:class:`~repro.sat.native.NativeCdclSolver`)
    whenever it builds and loads on this host, and the pure-Python
    :class:`~repro.sat.solver.CdclSolver` otherwise; :func:`resolve_backend`
    names the one that runs (``cdcl:native=1`` / ``cdcl:native=0``) and
    :func:`backend_fallback_reason` says why the C core did not.
    ``native=0``/``native=1`` pick an engine explicitly, and a key only
    the Python engine honours (``cdcl:var_decay=0.9``, ``glue_max=3``, ...)
    selects it; see :class:`CdclSpec` for the accepted keys.

``"dpll"``
    The reference :class:`~repro.sat.solver.DpllSolver` wrapped as a
    debug/differential backend: deliberately simple, always conclusive,
    with deletion-minimised assumption cores.  Exponential — small
    instances only.

``"external"`` / ``"external:<command>"``
    Any minisat-style DIMACS binary driven through a tempfile: the
    accumulated clauses plus the assumptions (as units) are written as
    DIMACS CNF, the command is invoked as ``<command> <in.cnf> <out>``,
    and both minisat-style output files (``SAT``/``UNSAT`` + model line)
    and picosat-style stdout (``s SATISFIABLE`` / ``v ...`` lines) parse.
    Without an argument the command comes from the ``REPRO_SAT_EXTERNAL``
    environment variable; when no command is configured the backend
    reports itself unavailable instead of failing mid-search.

``"chaos[:seed,key=value,...]"``
    Deterministic fault injection around any *inner* backend, for
    exercising the retry/anytime machinery on demand:
    ``chaos:7,inner=cdcl,flaky=1,unknown=0.05,delay=0.001``.  Faults are
    drawn from a schedule seeded by ``(seed, scope, epoch, attempt,
    call index)``, so a failing run replays bit-identically — see
    :class:`ChaosSpec` and :func:`set_chaos_scope`.

Specs are validated and availability-probed *before* a search starts
(:func:`require_backend`), so a portfolio worker never silently falls
back to the default engine.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shlex
import shutil
import subprocess
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import ChaosInjectedError, SolverError
from repro.sat.cnf import Cnf, split_clauses
from repro.sat.dpll import DpllSolver
from repro.sat.solver import CdclSolver, SolveResult, SolverStats, Status

#: Spec used whenever a caller does not choose a backend explicitly: the
#: fastest CDCL engine that loads here (see :func:`resolve_backend`).
DEFAULT_BACKEND = "cdcl"

#: Environment variable consulted by the argument-less ``external`` spec.
EXTERNAL_SOLVER_ENV = "REPRO_SAT_EXTERNAL"


class IncrementalSatBackend(ABC):
    """The solving surface the pebbling engine requires of any backend.

    The contract mirrors the subset of :class:`~repro.sat.solver.CdclSolver`
    the search loops use: clauses accumulate across :meth:`solve` calls
    (incrementality), assumptions are per-call unit hypotheses, and an
    UNSAT answer exposes :meth:`failed_assumptions` — a subset of the
    passed assumptions whose conjunction with the accumulated formula is
    unsatisfiable.  ``conflict_limit`` and ``time_limit`` are best-effort
    budgets: a backend that cannot honour one documents so and may return
    conclusive answers anyway (never the reverse).
    """

    #: Registry name (specs render as ``name`` or ``name:argument``).
    name: str = "abstract"

    @abstractmethod
    def add_variable(self) -> int:
        """Allocate a fresh variable and return its index."""

    @abstractmethod
    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; ``False`` when the formula became trivially unsat."""

    @abstractmethod
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        """Solve the accumulated formula under per-call assumptions."""

    @abstractmethod
    def failed_assumptions(self) -> list[int]:
        """Assumption core of the last UNSAT :meth:`solve` call.

        A subset of that call's assumptions whose conjunction with the
        formula is unsatisfiable (empty when the formula alone is).  Only
        defined after an UNSAT answer.
        """

    @property
    def num_variables(self) -> int:
        """Highest variable index known to the backend."""
        return 0

    def add_cnf(self, cnf: Cnf) -> None:
        """Add every clause of ``cnf`` (and reserve its variable range)."""
        while self.num_variables < cnf.num_variables:
            self.add_variable()
        for literals in split_clauses(cnf.literals):
            self.add_clause(literals)

    def counters(self) -> dict[str, float]:
        """Counters of the last solve, trimmed to what this backend tracks.

        Backends report only the statistics they actually maintain, so the
        CLI's ``--stats`` line never pads missing CDCL counters with
        zeros-as-lies.
        """
        return {}


# The native solver satisfies the protocol structurally (it predates it);
# registering it as a virtual subclass makes isinstance checks hold without
# an import cycle between repro.sat.solver and this module.
IncrementalSatBackend.register(CdclSolver)


class DpllBackend(IncrementalSatBackend):
    """The reference DPLL solver behind the backend protocol.

    A debug/differential backend: obviously correct and conclusive within
    its budget (``time_limit`` is honoured cooperatively and answers
    UNKNOWN on expiry — essential for racing this exponential oracle;
    ``conflict_limit`` is ignored), usable on small instances.
    :meth:`failed_assumptions` is computed by deletion-based minimisation
    (one re-solve per assumption, the whole pass deadline-bounded), so its
    cores are subset-minimal whenever the probe budget suffices — always
    sound either way.  The test-suite cross-checks the CDCL cores against
    them.
    """

    name = "dpll"

    def __init__(
        self,
        cnf: Cnf | None = None,
        *,
        conflict_limit: int | None = None,  # noqa: ARG002 — protocol surface
        max_variables: int = 20000,
    ) -> None:
        self._solver = DpllSolver(max_variables=max_variables)
        self._declared = 0
        self._last_assumptions: list[int] | None = None
        self._last_stats: SolverStats | None = None
        self._last_status: Status | None = None
        self._last_seconds = 0.0
        self._last_time_limit: float | None = None
        if cnf is not None:
            self.add_cnf(cnf)

    @property
    def num_variables(self) -> int:
        return max(self._declared, self._solver.num_variables)

    def add_variable(self) -> int:
        self._declared = self.num_variables + 1
        return self._declared

    def add_clause(self, literals: Iterable[int]) -> bool:
        self._solver.add_clause(literals)
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,  # noqa: ARG002 — not expressible
        time_limit: float | None = None,
    ) -> SolveResult:
        started = time.monotonic()
        result = self._solver.solve(assumptions, time_limit=time_limit)
        self._last_seconds = time.monotonic() - started
        self._last_time_limit = time_limit
        result.stats.solve_time = self._last_seconds
        self._last_assumptions = list(assumptions)
        self._last_stats = result.stats
        self._last_status = result.status
        return result

    def failed_assumptions(self) -> list[int]:
        if self._last_status is not Status.UNSATISFIABLE:
            raise SolverError(
                "failed_assumptions() is only defined after an UNSAT solve() call"
            )
        assert self._last_assumptions is not None
        # Deletion minimisation: drop each assumption whose removal keeps
        # the formula unsatisfiable.  The probe solves are side-effect
        # free, so the core stays answerable repeatedly.  Each probe is an
        # exponential re-solve, so the whole pass is bounded by a deadline
        # proportional to the original solve and clamped to that solve's
        # own time budget — dropping an assumption is an optimisation,
        # keeping it is always sound, and a caller's time budget must not
        # be blown by core *minimisation*.
        core = list(dict.fromkeys(self._last_assumptions))
        budget = max(0.1, 4.0 * self._last_seconds)
        if self._last_time_limit is not None:
            # Clamp to what the solve call left unspent, so solve + core
            # extraction together stay inside one per-call budget.
            budget = min(budget, max(0.0, self._last_time_limit - self._last_seconds))
        deadline = time.monotonic() + budget
        index = 0
        while index < len(core):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break  # return the sound, partially minimised remainder
            candidate = core[:index] + core[index + 1:]
            if self._solver.solve(candidate, time_limit=remaining).is_unsat:
                core = candidate
            else:
                # SAT, or UNKNOWN on probe timeout: keep the assumption.
                index += 1
        return core

    def counters(self) -> dict[str, float]:
        if self._last_stats is None:
            return {}
        return {
            "decisions": self._last_stats.decisions,
            "propagations": self._last_stats.propagations,
            "solve_time": self._last_stats.solve_time,
        }


def _parse_external_output(text: str, returncode: int) -> tuple[Status, list[int]]:
    """Parse a DIMACS solver's answer (output-file or stdout style).

    Understands minisat output files (``SAT``/``UNSAT``/``INDET`` plus a
    model line) and SAT-competition stdout (``s SATISFIABLE`` /
    ``v 1 -2 ... 0``); falls back to the conventional exit codes 10 (SAT)
    and 20 (UNSAT) when the text names no verdict.
    """
    verdict: Status | None = None
    model: list[int] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("s ") or line.startswith("S "):
            line = line[2:].strip()
        word = line.upper()
        if word in ("SAT", "SATISFIABLE"):
            verdict = Status.SATISFIABLE
            continue
        if word in ("UNSAT", "UNSATISFIABLE"):
            verdict = Status.UNSATISFIABLE
            continue
        if word in ("UNKNOWN", "INDET", "INDETERMINATE"):
            verdict = Status.UNKNOWN
            continue
        if line.startswith(("v ", "V ")):
            line = line[2:]
        try:
            literals = [int(token) for token in line.split()]
        except ValueError:
            continue  # some other diagnostic line
        model.extend(literal for literal in literals if literal != 0)
    if verdict is None:
        if returncode == 10:
            verdict = Status.SATISFIABLE
        elif returncode == 20:
            verdict = Status.UNSATISFIABLE
        else:
            raise SolverError(
                "external SAT solver produced no recognisable verdict "
                f"(exit code {returncode}); output started with: {text[:200]!r}"
            )
    return verdict, model


class ExternalDimacsBackend(IncrementalSatBackend):
    """A minisat-style external binary driven through tempfile DIMACS.

    Every :meth:`solve` writes the accumulated clauses plus the call's
    assumptions (as unit clauses) to a fresh DIMACS file and invokes
    ``<command> <in.cnf> <out>``.  The process-spawn-per-call overhead
    makes this backend interesting for *hard* instances (where a fast
    native binary amortises the spawn), for differential testing, and for
    the racing portfolio.

    ``conflict_limit`` is ignored; ``time_limit`` kills the subprocess and
    reports :attr:`~repro.sat.solver.Status.UNKNOWN`.
    :meth:`failed_assumptions` returns the *trivial* core — the full
    assumption list — which is sound (the formula plus all assumptions is
    indeed unsatisfiable) but never prunes: plain DIMACS solvers have no
    assumption interface to do better through.
    """

    name = "external"

    def __init__(
        self,
        command: str,
        *,
        conflict_limit: int | None = None,  # noqa: ARG002 — protocol surface
    ) -> None:
        if not command or not str(command).strip():
            raise SolverError(
                "the external backend needs a solver command: use "
                f"'external:<command>' or set ${EXTERNAL_SOLVER_ENV}"
            )
        self.command = str(command)
        self._argv = shlex.split(self.command)
        self._clauses: list[list[int]] = []
        self._num_vars = 0
        self._last_assumptions: list[int] | None = None
        self._last_status: Status | None = None
        self._last_seconds = 0.0

    @property
    def num_variables(self) -> int:
        return self._num_vars

    def add_variable(self) -> int:
        self._num_vars += 1
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause: list[int] = []
        for literal in literals:
            if isinstance(literal, bool) or not isinstance(literal, int) or literal == 0:
                raise SolverError(f"invalid literal {literal!r}")
            clause.append(literal)
            if abs(literal) > self._num_vars:
                self._num_vars = abs(literal)
        self._clauses.append(clause)
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,  # noqa: ARG002 — not expressible
        time_limit: float | None = None,
    ) -> SolveResult:
        started = time.monotonic()
        self._last_status = None
        self._last_seconds = 0.0
        self._last_assumptions = list(assumptions)
        for literal in assumptions:
            if abs(literal) > self._num_vars:
                self._num_vars = abs(literal)
        stats = SolverStats()
        with tempfile.TemporaryDirectory(prefix="repro-sat-") as workdir:
            in_path = Path(workdir) / "instance.cnf"
            out_path = Path(workdir) / "result.txt"
            lines = [f"p cnf {self._num_vars} {len(self._clauses) + len(assumptions)}"]
            lines.extend(
                " ".join(map(str, clause)) + " 0" for clause in self._clauses
            )
            lines.extend(f"{literal} 0" for literal in assumptions)
            in_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                process = subprocess.run(
                    self._argv + [str(in_path), str(out_path)],
                    capture_output=True,
                    text=True,
                    timeout=time_limit,
                )
            except subprocess.TimeoutExpired:
                stats.solve_time = self._last_seconds = time.monotonic() - started
                self._last_status = Status.UNKNOWN
                return SolveResult(Status.UNKNOWN, None, stats)
            except OSError as exc:
                raise SolverError(
                    f"cannot run external SAT solver {self._argv[0]!r}: {exc}"
                ) from exc
            text = ""
            if out_path.exists():
                text = out_path.read_text(encoding="utf-8")
            if not text.strip():
                text = process.stdout
            status, literals = _parse_external_output(text, process.returncode)
        stats.solve_time = self._last_seconds = time.monotonic() - started
        self._last_status = status
        if status is not Status.SATISFIABLE:
            return SolveResult(status, None, stats)
        if not literals:
            raise SolverError(
                f"external SAT solver {self._argv[0]!r} reported SAT "
                "without printing a model"
            )
        model = {variable: False for variable in range(1, self._num_vars + 1)}
        for literal in literals:
            if abs(literal) <= self._num_vars:
                model[abs(literal)] = literal > 0
        return SolveResult(status, model, stats)

    def failed_assumptions(self) -> list[int]:
        if self._last_status is not Status.UNSATISFIABLE:
            raise SolverError(
                "failed_assumptions() is only defined after an UNSAT solve() call"
            )
        assert self._last_assumptions is not None
        return list(dict.fromkeys(self._last_assumptions))

    def counters(self) -> dict[str, float]:
        if self._last_status is None and not self._last_seconds:
            return {}
        return {"solve_time": self._last_seconds}


# ---------------------------------------------------------------------------
# chaos backend — deterministic fault injection
# ---------------------------------------------------------------------------

#: Exit status used by the chaos ``exit`` fault — recognisable in
#: ``BrokenProcessPool`` post-mortems as a deliberate kill.
CHAOS_EXIT_CODE = 73

# The chaos *scope* names the unit of work currently running (a portfolio
# task), plus which retry attempt and which pool epoch it belongs to.  The
# retry layer advances it before every attempt so injected faults do not
# replay identically on retry — a flaky first solve heals on attempt 1, a
# worker kill heals after the pool rebuild bumps the epoch — while the full
# (seed, scope, epoch, attempt, call-index) tuple keeps every draw
# reproducible across runs.  Module-level state is safe here: portfolio
# workers are processes, and within one process attempts run sequentially.
_CHAOS_SCOPE: dict[str, object] = {"token": "", "attempt": 0, "epoch": 0}


def set_chaos_scope(token: str, *, attempt: int = 0, epoch: int = 0) -> None:
    """Name the current unit of work for chaos-fault scheduling."""
    _CHAOS_SCOPE["token"] = str(token)
    _CHAOS_SCOPE["attempt"] = int(attempt)
    _CHAOS_SCOPE["epoch"] = int(epoch)


def chaos_scope() -> tuple[str, int, int]:
    """The current ``(token, attempt, epoch)`` chaos scope."""
    return (
        str(_CHAOS_SCOPE["token"]),
        int(_CHAOS_SCOPE["attempt"]),
        int(_CHAOS_SCOPE["epoch"]),
    )


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed fault schedule of a ``chaos[:seed,key=value,...]`` spec.

    The spec argument is a comma-separated list: one optional bare integer
    (the ``seed``) plus ``key=value`` pairs.  The ``inner`` value is a full
    backend spec and may itself contain colons (``inner=external:minisat``)
    but not commas.
    """

    #: Root of every pseudo-random draw; same seed → same fault schedule.
    seed: int = 0
    #: Backend spec that does the actual solving.
    inner: str = DEFAULT_BACKEND
    #: Raise on the first N ``solve`` calls of attempt 0 / epoch 0.
    flaky: int = 0
    #: Per-call probability of raising :class:`ChaosInjectedError`.
    crash: float = 0.0
    #: Per-call probability of a spurious UNKNOWN (a fake timeout).
    unknown: float = 0.0
    #: Artificial seconds of sleep added to every ``solve`` call.
    delay: float = 0.0
    #: Hard-kill the worker process on the first N calls of epoch 0.
    exit: int = 0

    @classmethod
    def parse(cls, argument: str | None) -> "ChaosSpec":
        values: dict[str, object] = {}
        for raw in (argument or "").split(","):
            token = raw.strip()
            if not token:
                continue
            key, equals, value = token.partition("=")
            if not equals:
                if "seed" in values:
                    raise SolverError(
                        f"chaos: seed given twice in spec argument {argument!r}"
                    )
                try:
                    values["seed"] = int(token)
                except ValueError:
                    raise SolverError(
                        "chaos: expected an integer seed or key=value, "
                        f"got {token!r}"
                    ) from None
                continue
            key, value = key.strip(), value.strip()
            if key in values:
                raise SolverError(f"chaos: {key!r} given twice in {argument!r}")
            if key == "inner":
                values[key] = value
            elif key in ("seed", "flaky", "exit"):
                try:
                    parsed = int(value)
                except ValueError:
                    raise SolverError(
                        f"chaos: {key} wants an integer, got {value!r}"
                    ) from None
                if key != "seed" and parsed < 0:
                    raise SolverError(f"chaos: {key} must be >= 0, got {parsed}")
                values[key] = parsed
            elif key in ("crash", "unknown", "delay"):
                try:
                    rate = float(value)
                except ValueError:
                    raise SolverError(
                        f"chaos: {key} wants a number, got {value!r}"
                    ) from None
                if rate < 0 or (key != "delay" and rate > 1):
                    bound = ">= 0" if key == "delay" else "in [0, 1]"
                    raise SolverError(f"chaos: {key} must be {bound}, got {rate}")
                values[key] = rate
            else:
                raise SolverError(
                    f"chaos: unknown key {key!r}; valid keys: "
                    "inner, flaky, crash, unknown, delay, exit "
                    "(plus one bare integer seed)"
                )
        spec = cls(**values)  # type: ignore[arg-type]
        inner_name, _ = split_backend_spec(spec.inner)
        if inner_name == "chaos":
            raise SolverError("chaos: the inner backend cannot itself be chaos")
        return spec

    def render(self) -> str:
        """The canonical ``chaos:...`` spec string for this schedule."""
        parts = [str(self.seed)]
        if self.inner != DEFAULT_BACKEND:
            parts.append(f"inner={self.inner}")
        for key in ("flaky", "crash", "unknown", "delay", "exit"):
            value = getattr(self, key)
            if value:
                parts.append(f"{key}={value}")
        return "chaos:" + ",".join(parts)


class ChaosBackend(IncrementalSatBackend):
    """Fault-injecting wrapper around an inner backend.

    Every injected fault is a deterministic function of ``(spec.seed,
    chaos scope, solve-call index)``: running the same task with the same
    seed and retry policy replays the identical schedule, which is what
    lets the chaos benchmark assert bit-identical minima and the test
    suite provoke one specific failure mode at a time.  Faults are checked
    in a fixed order per call — delay, exit, flaky, crash, unknown — and
    ``exit`` only fires inside worker processes (never the test runner).
    """

    name = "chaos"

    def __init__(
        self,
        spec: ChaosSpec,
        *,
        conflict_limit: int | None = None,
    ) -> None:
        self.spec = spec
        self._inner = create_backend(spec.inner, conflict_limit=conflict_limit)
        self._calls = 0
        self._injected = {"flaky": 0, "crash": 0, "unknown": 0, "exit": 0}

    @property
    def num_variables(self) -> int:
        return self._inner.num_variables

    def add_variable(self) -> int:
        return self._inner.add_variable()

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self._inner.add_clause(literals)

    def add_cnf(self, cnf: Cnf) -> None:
        self._inner.add_cnf(cnf)

    def failed_assumptions(self) -> list[int]:
        return self._inner.failed_assumptions()

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        index = self._calls
        self._calls += 1
        token, attempt, epoch = chaos_scope()
        # String seeding hashes via SHA-512 internally — stable across
        # processes and interpreter runs, unlike hash() under PYTHONHASHSEED.
        rng = random.Random(
            f"chaos|{self.spec.seed}|{token}|e{epoch}|a{attempt}|{index}"
        )
        if self.spec.delay > 0.0:
            time.sleep(self.spec.delay)
        if (
            self.spec.exit > 0
            and epoch == 0
            and index < self.spec.exit
            and multiprocessing.parent_process() is not None
        ):
            # Simulated hard worker death (OOM-kill, segfault): skip all
            # Python teardown so the parent sees BrokenProcessPool.  Guarded
            # to child processes so an inline/test run is never killed.
            os._exit(CHAOS_EXIT_CODE)
        if (
            self.spec.flaky > 0
            and attempt == 0
            and epoch == 0
            and index < self.spec.flaky
        ):
            self._injected["flaky"] += 1
            raise ChaosInjectedError(
                f"chaos(seed={self.spec.seed}): injected flaky failure on "
                f"solve call {index} of {token!r}"
            )
        if self.spec.crash > 0.0 and rng.random() < self.spec.crash:
            self._injected["crash"] += 1
            raise ChaosInjectedError(
                f"chaos(seed={self.spec.seed}): injected crash on solve "
                f"call {index} of {token!r} (attempt {attempt})"
            )
        if self.spec.unknown > 0.0 and rng.random() < self.spec.unknown:
            self._injected["unknown"] += 1
            stats = SolverStats()
            return SolveResult(Status.UNKNOWN, None, stats)
        return self._inner.solve(
            assumptions, conflict_limit=conflict_limit, time_limit=time_limit
        )

    def counters(self) -> dict[str, float]:
        merged = dict(self._inner.counters())
        merged["chaos_calls"] = float(self._calls)
        for fault, count in self._injected.items():
            if count:
                merged[f"chaos_{fault}"] = float(count)
        return merged


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BackendInfo:
    """One registered backend: construction plus availability probing."""

    name: str
    description: str
    factory: Callable[["str | None", "int | None"], IncrementalSatBackend]
    probe: Callable[["str | None"], "str | None"]  # None = available


def _external_command(argument: str | None) -> str | None:
    return argument or os.environ.get(EXTERNAL_SOLVER_ENV) or None


def _probe_external(argument: str | None) -> str | None:
    command = _external_command(argument)
    if command is None:
        return (
            "no solver command configured (use 'external:<command>' or set "
            f"${EXTERNAL_SOLVER_ENV})"
        )
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        return f"unparseable solver command {command!r}: {exc}"
    if not argv:
        return f"empty solver command {command!r}"
    if shutil.which(argv[0]) is None and not Path(argv[0]).exists():
        return f"solver binary {argv[0]!r} not found on PATH"
    return None


def _make_external(argument: str | None, conflict_limit: int | None) -> IncrementalSatBackend:
    # A missing command (None) is rejected by the constructor's own guard,
    # with the same message the availability probe gives.
    command = _external_command(argument)
    return ExternalDimacsBackend(command, conflict_limit=conflict_limit)  # type: ignore[arg-type]


def _reject_argument(name: str, argument: str | None) -> None:
    if argument is not None:
        raise SolverError(
            f"the {name!r} backend takes no spec argument (got {argument!r})"
        )


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str,
    factory: Callable[["str | None", "int | None"], IncrementalSatBackend],
    *,
    description: str = "",
    probe: Callable[["str | None"], "str | None"] | None = None,
) -> None:
    """Register (or replace) a backend under ``name``.

    ``factory(argument, conflict_limit)`` builds a fresh backend instance;
    ``probe(argument)`` returns ``None`` when the backend is usable on
    this host and a human-readable reason otherwise.
    """
    if not name or ":" in name:
        raise SolverError(f"invalid backend name {name!r}")
    _REGISTRY[name] = BackendInfo(
        name=name,
        description=description,
        factory=factory,
        probe=probe or (lambda argument: None),
    )


@dataclass(frozen=True)
class CdclSpec:
    """Parsed tuning options of a ``cdcl[:key=value,...]`` spec.

    The spec argument is a comma-separated list of ``key=value`` pairs
    mapping onto :class:`~repro.sat.solver.CdclSolver` constructor knobs,
    so bench lanes and ``--race-backends`` can tune the engine from the
    command line: ``cdcl:restart_base=200,var_decay=0.95,seed=7``.

    ``native`` picks the engine: ``None`` (the key is absent) means the C
    core when it loads and the Python engine otherwise.  The C core
    honours only ``restart_base`` and ``seed``, so a spec that sets any
    other key runs the Python engine, and setting one together with
    ``native=1`` is an error rather than a silently dropped knob.
    """

    #: Luby restart unit (conflicts before the first restart).
    restart_base: int = 100
    #: VSIDS variable-activity decay, in (0, 1].
    var_decay: float = 0.95
    #: Learned-clause activity decay, in (0, 1].
    clause_decay: float = 0.999
    #: Seed of the solver's deterministic tie-breaking RNG.
    seed: int = 2019
    #: Minimum learned-clause count before a reduction may run.
    reduce_min_learned: int = 50
    #: Initial learned-clause limit (grows geometrically).
    learned_limit_base: int = 1000
    #: LBD at or below which learned clauses are kept forever.
    glue_max: int = 2
    #: Engine: 1 = the ctypes-loaded C core, 0 = the Python engine,
    #: absent = the C core when it loads.
    native: bool | None = None
    #: Record per-phase time splits in ``stats.phase_times``.
    profile: bool = False

    _INT_KEYS = ("restart_base", "seed", "reduce_min_learned",
                 "learned_limit_base", "glue_max")
    _FLOAT_KEYS = ("var_decay", "clause_decay")
    #: ``native`` last, so a rendered spec ends by naming its engine.
    _BOOL_KEYS = ("profile", "native")
    #: Keys the C core honours; every other key tunes the Python engine.
    _NATIVE_KEYS = ("restart_base", "seed", "native")

    def __post_init__(self) -> None:
        tuned = [
            key for key in self._keys()
            if getattr(self, key) != getattr(type(self), key)
        ]
        object.__setattr__(self, "native", self._engine(self.native, tuned))

    @classmethod
    def _keys(cls) -> tuple[str, ...]:
        return cls._INT_KEYS + cls._FLOAT_KEYS + cls._BOOL_KEYS

    @classmethod
    def _engine(cls, native: bool | None, tuned: Iterable[str]) -> bool | None:
        """``native`` settled against the keys a spec sets.

        A key only the Python engine honours selects that engine, and
        is an error together with ``native=1``.  A parsed spec sets the
        keys it names; a constructed one the fields off their default.
        """
        python_only = [key for key in tuned if key not in cls._NATIVE_KEYS]
        if not python_only:
            return native
        if native:
            raise SolverError(
                f"cdcl: the C core (native=1) does not honour "
                f"{', '.join(python_only)}; drop native=1 to run the Python engine"
            )
        return False

    @classmethod
    def parse(cls, argument: str | None) -> "CdclSpec":
        values: dict[str, object] = {}
        for raw in (argument or "").split(","):
            token = raw.strip()
            if not token:
                continue
            key, equals, value = token.partition("=")
            key, value = key.strip(), value.strip()
            if not equals:
                raise SolverError(
                    f"cdcl: expected key=value, got {token!r}; valid keys: "
                    f"{', '.join(cls._keys())}"
                )
            if key in values:
                raise SolverError(f"cdcl: {key!r} given twice in {argument!r}")
            if key in cls._INT_KEYS:
                try:
                    parsed = int(value)
                except ValueError:
                    raise SolverError(
                        f"cdcl: {key} wants an integer, got {value!r}"
                    ) from None
                if key in cls._NATIVE_KEYS:
                    # Shared by both engines, so bounded by what the C
                    # core can hold.
                    from repro.sat.native import core_option_error

                    problem = core_option_error(key, parsed)
                    if problem is not None:
                        raise SolverError(f"cdcl: {problem}")
                elif parsed < 0:
                    raise SolverError(f"cdcl: {key} must be >= 0, got {parsed}")
                values[key] = parsed
            elif key in cls._FLOAT_KEYS:
                try:
                    rate = float(value)
                except ValueError:
                    raise SolverError(
                        f"cdcl: {key} wants a number, got {value!r}"
                    ) from None
                if not 0.0 < rate <= 1.0:
                    raise SolverError(f"cdcl: {key} must be in (0, 1], got {rate}")
                values[key] = rate
            elif key in cls._BOOL_KEYS:
                if value not in ("0", "1"):
                    raise SolverError(f"cdcl: {key} wants 0 or 1, got {value!r}")
                values[key] = value == "1"
            else:
                raise SolverError(
                    f"cdcl: unknown key {key!r}; valid keys: "
                    f"{', '.join(cls._keys())}"
                )
        values["native"] = cls._engine(values.get("native"), values)
        return cls(**values)  # type: ignore[arg-type]

    def render(self) -> str:
        """The canonical spec string (non-default options only)."""
        parts = []
        for key in self._keys():
            value = getattr(self, key)
            if value != getattr(type(self), key):
                parts.append(f"{key}={int(value) if key in self._BOOL_KEYS else value}")
        return "cdcl:" + ",".join(parts) if parts else "cdcl"

    def resolved(self) -> "CdclSpec":
        """These options with ``native`` settled for this host."""
        if self.native is not None:
            return self
        from repro.sat.native import native_unavailable_reason

        return replace(self, native=native_unavailable_reason() is None)

    def build(self, conflict_limit: int | None = None) -> IncrementalSatBackend:
        """Construct the solver these options describe.

        With ``native=1`` this returns the ctypes-loaded C core (the
        registry probe reports unavailability before this is reached,
        but direct callers get the same hard error — never a silent
        fallback to the Python loop).  Without a ``native`` key it
        returns whichever engine :meth:`resolved` settles on.
        """
        if self.resolved().native:
            from repro.sat.native import NativeCdclSolver

            return NativeCdclSolver(
                conflict_limit=conflict_limit,
                restart_base=self.restart_base,
                random_seed=self.seed,
            )
        return CdclSolver(
            conflict_limit=conflict_limit,
            restart_base=self.restart_base,
            variable_decay=self.var_decay,
            clause_decay=self.clause_decay,
            random_seed=self.seed,
            reduce_min_learned=self.reduce_min_learned,
            learned_limit_base=self.learned_limit_base,
            glue_max=self.glue_max,
            profile=self.profile,
        )


def _make_cdcl(argument: str | None, conflict_limit: int | None) -> IncrementalSatBackend:
    return CdclSpec.parse(argument).build(conflict_limit)


def _probe_cdcl(argument: str | None) -> str | None:
    try:
        spec = CdclSpec.parse(argument)
    except SolverError as exc:
        return str(exc)
    if spec.native:
        from repro.sat.native import native_unavailable_reason

        reason = native_unavailable_reason()
        if reason is not None:
            return f"native core unavailable: {reason}"
    return None


def _make_dpll(argument: str | None, conflict_limit: int | None) -> IncrementalSatBackend:
    _reject_argument("dpll", argument)
    return DpllBackend(conflict_limit=conflict_limit)


register_backend(
    "cdcl",
    _make_cdcl,
    description=(
        "CDCL engine with assumption cores: the C core when it loads, else "
        "the Python engine; 'cdcl:native=0' forces Python, Python-only "
        "knobs ('cdcl:var_decay=F,glue_max=N,...') select it"
    ),
    probe=_probe_cdcl,
)
register_backend(
    "dpll",
    _make_dpll,
    description="reference DPLL oracle (debug/differential; small instances only)",
)
def _make_chaos(argument: str | None, conflict_limit: int | None) -> IncrementalSatBackend:
    return ChaosBackend(ChaosSpec.parse(argument), conflict_limit=conflict_limit)


def _probe_chaos(argument: str | None) -> str | None:
    try:
        spec = ChaosSpec.parse(argument)
    except SolverError as exc:
        return str(exc)
    return backend_unavailable_reason(spec.inner)


register_backend(
    "external",
    _make_external,
    description=(
        "minisat-style DIMACS binary via tempfiles "
        f"('external:<command>' or ${EXTERNAL_SOLVER_ENV})"
    ),
    probe=_probe_external,
)
register_backend(
    "chaos",
    _make_chaos,
    description=(
        "deterministic fault injection around an inner backend "
        "('chaos:<seed>,inner=...,flaky=N,crash=P,unknown=P,delay=S,exit=N')"
    ),
    probe=_probe_chaos,
)


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def split_backend_spec(spec: str) -> tuple[str, str | None]:
    """Split ``"name"`` / ``"name:argument"`` and validate the name."""
    if not isinstance(spec, str) or not spec.strip():
        raise SolverError(
            f"a backend spec must be a non-empty string, got {spec!r}; "
            f"registered backends: {', '.join(backend_names())}"
        )
    name, _, argument = spec.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        raise SolverError(
            f"unknown SAT backend {name!r}; registered backends: "
            f"{', '.join(backend_names())} (see 'repro-pebble backends')"
        )
    return name, (argument if argument else None)


def backend_unavailable_reason(spec: str) -> str | None:
    """``None`` when ``spec`` is usable on this host, else the reason."""
    name, argument = split_backend_spec(spec)
    return _REGISTRY[name].probe(argument)


def require_backend(spec: str) -> str:
    """Validate ``spec`` and its host availability; return it unchanged.

    Raises :class:`~repro.errors.SolverError` with the probe's reason when
    the backend cannot run here — callers fail fast instead of falling
    back to a different engine mid-search.
    """
    reason = backend_unavailable_reason(spec)
    if reason is not None:
        raise SolverError(f"SAT backend {spec!r} is not usable on this host: {reason}")
    return spec


def resolve_backend(spec: str) -> str:
    """The spec of the engine ``spec`` runs on this host.

    A ``cdcl`` spec comes back with its ``native`` key settled, in
    canonical form: bare ``cdcl`` is ``cdcl:native=1`` when the C core
    loads and ``cdcl:native=0`` otherwise.  Other specs come back as given.
    """
    name, argument = split_backend_spec(spec)
    if name != "cdcl":
        return spec
    return CdclSpec.parse(argument).resolved().render()


def backend_fallback_reason(spec: str) -> str | None:
    """Why ``spec`` runs the Python engine though it did not ask to.

    ``None`` unless ``spec`` leaves the CDCL engine to the host (bare
    ``cdcl``, say) and the C core cannot load; then the loader's reason.
    """
    name, argument = split_backend_spec(spec)
    if name != "cdcl" or CdclSpec.parse(argument).native is not None:
        return None
    from repro.sat.native import native_unavailable_reason

    reason = native_unavailable_reason()
    return None if reason is None else f"native core unavailable: {reason}"


def create_backend(
    spec: str = DEFAULT_BACKEND, *, conflict_limit: int | None = None
) -> IncrementalSatBackend:
    """Build a fresh backend instance from a registry spec string."""
    name, argument = split_backend_spec(spec)
    return _REGISTRY[name].factory(argument, conflict_limit)


def describe_backends() -> list[dict[str, object]]:
    """Availability table for the CLI's ``backends`` subcommand.

    ``resolves_to`` names the engine the bare spec runs here and
    ``fallback`` why that is not the one it prefers (see
    :func:`backend_fallback_reason`).
    """
    rows: list[dict[str, object]] = []
    for name in backend_names():
        info = _REGISTRY[name]
        reason = info.probe(None)
        rows.append(
            {
                "name": name,
                "available": reason is None,
                "detail": reason,
                "resolves_to": resolve_backend(name),
                "fallback": backend_fallback_reason(name),
                "description": info.description,
            }
        )
    return rows
