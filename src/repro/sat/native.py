"""ctypes loader and backend wrapper for the native CDCL core.

The C source lives in ``_native/cdcl.c`` and is compiled on demand into
``_native/build/libcdcl-<hash>.so`` the first time the core is requested
(``cc -O2 -shared -fPIC``; the hash covers the source and the compiler
flags, so editing the C file triggers a rebuild and stale libraries are
simply ignored).  The build directory is gitignored — nothing binary is
ever committed.

Availability is an explicit, probeable property: :func:`native_unavailable_reason`
returns ``None`` when the core is loadable and a human-readable reason
(no compiler, compile error, load error) otherwise.  Bare ``cdcl`` runs
this core whenever that reason is ``None`` and the Python engine
otherwise; ``cdcl:native=1`` surfaces the reason through the backend
registry probe, and :class:`NativeCdclSolver` raises
:class:`~repro.errors.SolverError` with the same message — an explicit
``native=1`` never falls back, so a benchmark labelled "native" can never
quietly measure the wrong engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import time
from array import array
from collections.abc import Iterable, Sequence
from pathlib import Path
from threading import Lock, get_ident

from repro.errors import SolverError
from repro.sat.solver import SolveResult, SolverStats, Status

_SOURCE = Path(__file__).resolve().parent / "_native" / "cdcl.c"
_BUILD_DIR = _SOURCE.parent / "build"
_COMPILERS = ("cc", "gcc", "clang")
_BASE_FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11")

_SAT = 1
_UNSAT = -1
_UNKNOWN = 0
#: What the add and solve calls return when the core cannot allocate.
_OUT_OF_MEMORY = -2

#: Counter order of ``cdcl_counters``.  All but ``max_decision_level`` are
#: lifetime totals of the handle; that one is the latest solve's maximum.
_COUNTER_NAMES = (
    "decisions", "propagations", "conflicts", "restarts",
    "learned_clauses", "deleted_clauses", "max_decision_level",
)
_CounterArray = ctypes.c_int64 * len(_COUNTER_NAMES)

#: The values the core can hold for its two options: ``cdcl_new`` takes
#: the seed as a uint32 and multiplies ``restart_base`` by Luby terms in
#: int64.  ctypes would silently truncate anything wider.
_OPTION_RANGES = {"restart_base": (1, 2**31 - 1), "seed": (0, 2**32 - 1)}


def core_option_error(name: str, value: int) -> str | None:
    """Why the core cannot hold ``value`` for option ``name``, or ``None``."""
    low, high = _OPTION_RANGES[name]
    if low <= value <= high:
        return None
    return f"{name} must be >= {low} and <= {high}, got {value}"

_lock = Lock()
_lib: ctypes.CDLL | None = None
_load_error: str | None = None
_load_attempted = False


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.cdcl_new.restype = ctypes.c_void_p
    lib.cdcl_new.argtypes = [ctypes.c_uint32, ctypes.c_int64]
    lib.cdcl_free.restype = None
    lib.cdcl_free.argtypes = [ctypes.c_void_p]
    lib.cdcl_add_variable.restype = ctypes.c_int32
    lib.cdcl_add_variable.argtypes = [ctypes.c_void_p]
    lib.cdcl_num_variables.restype = ctypes.c_int32
    lib.cdcl_num_variables.argtypes = [ctypes.c_void_p]
    lib.cdcl_max_variable.restype = ctypes.c_int32
    lib.cdcl_max_variable.argtypes = []
    lib.cdcl_add_clause.restype = ctypes.c_int32
    lib.cdcl_add_clause.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int32,
    ]
    # The flat buffer is the memory of an array('i'), shared through
    # ctypes' from_buffer: the C side reads it in place as int32_t[n] and
    # checks that it holds the given number of zero terminators.
    lib.cdcl_add_clauses.restype = ctypes.c_int32
    lib.cdcl_add_clauses.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int64,
        ctypes.c_int64,
    ]
    lib.cdcl_solve.restype = ctypes.c_int32
    lib.cdcl_solve.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int32,
        ctypes.c_int64, ctypes.c_double,
    ]
    lib.cdcl_copy_model.restype = None
    lib.cdcl_copy_model.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int8), ctypes.c_int32,
    ]
    lib.cdcl_failed_size.restype = ctypes.c_int32
    lib.cdcl_failed_size.argtypes = [ctypes.c_void_p]
    lib.cdcl_copy_failed.restype = None
    lib.cdcl_copy_failed.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32),
    ]
    lib.cdcl_counters.restype = None
    lib.cdcl_counters.argtypes = [ctypes.c_void_p, _CounterArray]
    return lib


def build_library(
    *,
    build_dir: Path = _BUILD_DIR,
    flags: Sequence[str] = (),
) -> tuple[Path | None, str | None]:
    """Compile ``cdcl.c`` into ``build_dir`` unless that build exists.

    Returns ``(path, None)``, or ``(None, reason)`` when there is no
    compiler or the compile or rename fails.  The library is named
    ``libcdcl-<hash>.so``, the hash covering the source and ``flags``,
    so an instrumented build (extra ``flags`` such as
    ``-fsanitize=address``) never shadows the default one.  Each caller
    compiles to its own staging file and renames it into place, so
    processes racing to build into an empty directory all succeed.
    """
    if not _SOURCE.exists():
        return None, f"native source missing: {_SOURCE}"
    extra = tuple(flags)
    fingerprint = _SOURCE.read_bytes() + "\0".join(extra).encode()
    digest = hashlib.sha256(fingerprint).hexdigest()[:12]
    library = Path(build_dir) / f"libcdcl-{digest}.so"
    if library.exists():
        return library, None
    compiler = next(
        (found for name in _COMPILERS if (found := shutil.which(name))),
        None,
    )
    if compiler is None:
        return None, (
            "no C compiler found (tried: " + ", ".join(_COMPILERS) + ")"
        )
    staging: Path | None = None
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        # Build to a private temp name then rename: a crashed compile never
        # leaves a half-written .so behind, and concurrent builders never
        # write to (or rename away) each other's output.
        staging = library.with_name(
            f"{library.name}.{os.getpid()}-{get_ident()}.tmp"
        )
        command = [
            compiler, *_BASE_FLAGS, *extra, "-o", str(staging), str(_SOURCE),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            head = detail[0] if detail else "no compiler output"
            return None, f"compile failed ({compiler}): {head}"
        staging.replace(library)
        staging = None
    except OSError as exc:
        return None, f"build of {library.name} failed: {exc}"
    finally:
        if staging is not None:
            staging.unlink(missing_ok=True)
    return library, None


def load_library(path: Path) -> tuple[ctypes.CDLL | None, str | None]:
    """Load and configure a built core: ``(library, None)`` or ``(None, reason)``."""
    try:
        return _configure(ctypes.CDLL(str(path))), None
    except (OSError, AttributeError) as exc:
        return None, f"failed to load {Path(path).name}: {exc}"


def _build_and_load() -> tuple[ctypes.CDLL | None, str | None]:
    library, reason = build_library()
    if library is None:
        return None, reason
    return load_library(library)


def _ensure_loaded() -> tuple[ctypes.CDLL | None, str | None]:
    global _lib, _load_error, _load_attempted
    with _lock:
        if not _load_attempted:
            _lib, _load_error = _build_and_load()
            _load_attempted = True
        return _lib, _load_error


def native_unavailable_reason() -> str | None:
    """``None`` when the native core loads, else why it cannot."""
    _, reason = _ensure_loaded()
    return reason


class NativeCdclSolver:
    """The C core behind the :class:`IncrementalSatBackend` surface.

    What bare ``cdcl`` runs whenever the core loads (and what
    ``cdcl:native=1`` demands).  Supports incremental clause addition,
    assumptions with conflict-analysis cores, and conflict/time budgets;
    ``restart_base`` and ``random_seed`` outside the ranges the core can
    hold raise :class:`~repro.errors.SolverError` (see
    :func:`core_option_error`).  ``library`` selects an already loaded
    build (see :func:`build_library`); by default the shared one.

    Clauses arrive one per :meth:`add_clause` call, or many in one call
    into the core: :meth:`add_clause_buffer` takes a
    :class:`~repro.sat.cnf.Cnf`'s int32 literal stream, or a frame's slice
    of it, and the core reads that memory in place, with no repacking.
    :meth:`add_cnf` passes a whole stream that way, and
    :meth:`add_clauses` packs a list of clauses into one such buffer.

    Every literal, in a clause or an assumption, is an ``int`` (not a
    ``bool``) whose variable is at most :attr:`max_variable`, the bound of
    the core's int32 arithmetic; anything else raises
    :class:`~repro.errors.SolverError` before the core sees it.  So does
    declaring more variables than that (:meth:`add_variable`,
    :meth:`add_cnf`), and a clause or an assumption the core has no
    memory for; the solver stays usable afterwards.
    """

    def __init__(
        self,
        *,
        conflict_limit: int | None = None,
        restart_base: int = 100,
        random_seed: int = 0,
        library: ctypes.CDLL | None = None,
    ) -> None:
        for name, value in (("restart_base", restart_base), ("seed", random_seed)):
            problem = core_option_error(name, value)
            if problem is not None:
                raise SolverError(f"native core: {problem}")
        lib = library
        if lib is None:
            lib, reason = _ensure_loaded()
            if lib is None:
                raise SolverError(f"native core unavailable: {reason}")
        self._lib = lib
        self.max_variable: int = lib.cdcl_max_variable()
        self._handle = lib.cdcl_new(random_seed, restart_base)
        if not self._handle:
            raise SolverError("native core allocation failed")
        self.default_conflict_limit = conflict_limit
        self._declared = 0
        self._last_status: Status | None = None
        self._last_seconds = 0.0
        # Lifetime totals as of the previous solve, and that solve's share.
        self._totals = [0] * len(_COUNTER_NAMES)
        self._last_counts = dict.fromkeys(_COUNTER_NAMES, 0)

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.cdcl_free(handle)
            self._handle = None

    # -- backend surface ---------------------------------------------------
    @property
    def num_variables(self) -> int:
        return max(self._declared, self._lib.cdcl_num_variables(self._handle))

    def add_variable(self) -> int:
        variable = self.num_variables + 1
        self._check_declared(variable)
        self._declared = variable
        return variable

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause = list(literals)
        for literal in clause:
            if not self._valid(literal):
                raise SolverError(f"invalid literal {literal!r}")
        packed = (ctypes.c_int32 * len(clause))(*clause)
        added = self._lib.cdcl_add_clause(self._handle, packed, len(clause))
        if added == _OUT_OF_MEMORY:
            raise SolverError(f"native core out of memory adding clause {clause}")
        return bool(added)

    def add_clause_buffer(self, literals: array, count: int) -> bool:
        """Add ``count`` clauses from one int32 literal buffer, in one call.

        ``literals`` is an ``array('i')`` of DIMACS literals with a ``0``
        after each clause: :attr:`Cnf.literals <repro.sat.cnf.Cnf.literals>`
        or a slice of it.  The core reads that memory in place.  Same
        effect as :meth:`add_clause` on each clause in order, and the same
        ``False`` once the formula is trivially unsat.  A malformed buffer
        adds nothing and raises :class:`~repro.errors.SolverError`: a zero
        count other than ``count``, a last clause without its ``0``, or a
        literal whose variable is past :attr:`max_variable`.  The core
        checks all three in one pass over the buffer before it adds
        anything.  When the core runs out of memory, the clauses before the
        one it could not store stay added and
        :class:`~repro.errors.SolverError` is raised.
        """
        if not (
            isinstance(literals, array)
            and literals.typecode == "i"
            and literals.itemsize == 4
        ):
            raise SolverError("the clause buffer must be an array('i') of int32 literals")
        size = len(literals)
        # A buffer of n literals holds at most n terminators, which also
        # keeps the count within the core's int64.
        if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count <= size:
            raise SolverError(
                f"invalid clause count {count!r} for a batch of {size} literals"
            )
        # from_buffer shares the array's memory and holds an export on it
        # until ``shared`` goes, so the array cannot be resized (and its
        # memory moved) while the core reads it.
        shared = (ctypes.c_int32 * size).from_buffer(literals)
        try:
            added = self._lib.cdcl_add_clauses(self._handle, shared, size, count)
        finally:
            del shared
        if added == _OUT_OF_MEMORY:
            raise SolverError("native core out of memory adding the clause batch")
        if added < 0:
            raise SolverError(
                f"invalid literal in the clause batch: it does not hold {count} 0 "
                "terminators, its last clause has no 0 terminator, or a literal's "
                f"variable is past {self.max_variable}"
            )
        return bool(added)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add many clauses with one call into the core.

        Packs the clauses into one ``array('i')`` buffer for
        :meth:`add_clause_buffer`; a literal that is no integer or does not
        fit in int32 raises :class:`~repro.errors.SolverError` before
        anything is added.
        """
        flat = array("i")
        count = 0
        try:
            for literals in clauses:
                flat.extend(literals)
                flat.append(0)
                count += 1
        except (OverflowError, TypeError) as exc:
            raise SolverError(f"invalid literal in the clause batch: {exc}") from None
        return self.add_clause_buffer(flat, count)

    def add_cnf(self, cnf) -> None:
        self._check_declared(cnf.num_variables)
        self.add_clause_buffer(cnf.literals, cnf.num_clauses)
        self._declared = max(self._declared, cnf.num_variables)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        assumptions = list(assumptions)
        for literal in assumptions:
            if not self._valid(literal):
                raise SolverError(f"invalid assumption literal {literal!r}")
        # The C core opens one (possibly empty) decision level per
        # assumption; deduplicating here keeps that stack linear in the
        # variable count without changing the semantics or the core.
        unique = list(dict.fromkeys(assumptions))
        assumed = (ctypes.c_int32 * len(unique))(*unique)
        budget = conflict_limit if conflict_limit is not None else self.default_conflict_limit
        started = time.monotonic()
        verdict = self._lib.cdcl_solve(
            self._handle,
            assumed,
            len(unique),
            -1 if budget is None else budget,
            -1.0 if time_limit is None else time_limit,
        )
        self._last_seconds = time.monotonic() - started
        if verdict == _OUT_OF_MEMORY:
            self._last_status = None
            raise SolverError("native core out of memory declaring the assumptions")
        self._take_counts()
        if verdict == _SAT:
            self._last_status = Status.SATISFIABLE
            num_vars = self.num_variables
            buffer = (ctypes.c_int8 * num_vars)()
            self._lib.cdcl_copy_model(self._handle, buffer, num_vars)
            model = dict(zip(range(1, num_vars + 1), map(bool, bytes(buffer))))
            return SolveResult(Status.SATISFIABLE, model, self._stats())
        if verdict == _UNSAT:
            self._last_status = Status.UNSATISFIABLE
            return SolveResult(Status.UNSATISFIABLE, None, self._stats())
        self._last_status = Status.UNKNOWN
        return SolveResult(Status.UNKNOWN, None, self._stats())

    def failed_assumptions(self) -> list[int]:
        if self._last_status is not Status.UNSATISFIABLE:
            raise SolverError(
                "failed_assumptions() is only defined after an UNSAT solve() call"
            )
        size = self._lib.cdcl_failed_size(self._handle)
        buffer = (ctypes.c_int32 * max(size, 1))()
        self._lib.cdcl_copy_failed(self._handle, buffer)
        return [buffer[i] for i in range(size)]

    def counters(self) -> dict[str, float]:
        """Counters of the last solve: the work done since the one before.

        Like the Python engine's per-solve stats, so summing the counters
        of every solve on one handle gives the handle's lifetime totals.
        """
        if self._last_status is None:
            return {}
        values = {name: float(count) for name, count in self._last_counts.items()}
        values["solve_time"] = self._last_seconds
        return values

    def lifetime_counters(self) -> dict[str, int]:
        """The handle's counters summed over its life so far.

        ``max_decision_level`` is the exception: the latest solve's maximum.
        """
        totals = _CounterArray()
        self._lib.cdcl_counters(self._handle, totals)
        return dict(zip(_COUNTER_NAMES, totals))

    # -- helpers ----------------------------------------------------------
    def _valid(self, literal) -> bool:
        """Whether ``literal`` may cross into the core: a nonzero ``int``
        (no ``bool``; ctypes would wrap a wider one into int32) whose
        variable is at most :attr:`max_variable`."""
        return (
            isinstance(literal, int)
            and not isinstance(literal, bool)
            and 0 < abs(literal) <= self.max_variable
        )

    def _check_declared(self, count: int) -> None:
        """Refuse to declare ``count`` variables past :attr:`max_variable`:
        a solve sizes its model from the declared count."""
        if count > self.max_variable:
            raise SolverError(
                f"cannot declare {count} variables: the native core holds at "
                f"most {self.max_variable}"
            )

    def _take_counts(self) -> None:
        totals = _CounterArray()
        self._lib.cdcl_counters(self._handle, totals)
        current = list(totals)
        self._last_counts = {
            name: now if name == "max_decision_level" else now - before
            for name, now, before in zip(_COUNTER_NAMES, current, self._totals)
        }
        self._totals = current

    def _stats(self) -> SolverStats:
        stats = SolverStats(**self._last_counts)
        stats.solve_time = self._last_seconds
        return stats


# Structural registration: isinstance checks against the backend protocol
# must hold for the native core exactly as they do for the Python engine.
from repro.sat.backend import IncrementalSatBackend  # noqa: E402

IncrementalSatBackend.register(NativeCdclSolver)
