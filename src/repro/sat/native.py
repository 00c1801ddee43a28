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
import struct
import subprocess
import time
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

#: Counter order of ``cdcl_counters``.  All but ``max_decision_level`` are
#: lifetime totals of the handle; that one is the latest solve's maximum.
_COUNTER_NAMES = (
    "decisions", "propagations", "conflicts", "restarts",
    "learned_clauses", "deleted_clauses", "max_decision_level",
)
_CounterArray = ctypes.c_int64 * len(_COUNTER_NAMES)

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
    lib.cdcl_add_clause.restype = ctypes.c_int32
    lib.cdcl_add_clause.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int32,
    ]
    # The flat buffer goes over as the bytes of one struct.pack call
    # (passed without a copy); the C side reads it as int32_t[n].
    lib.cdcl_add_clauses.restype = ctypes.c_int32
    lib.cdcl_add_clauses.argtypes = [
        ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int64,
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
    ``cdcl:native=1`` demands).  Supports incremental clause addition —
    one clause per :meth:`add_clause` or a whole batch per
    :meth:`add_clauses` — assumptions with conflict-analysis cores, and
    conflict/time budgets; it does not implement the Python engine's
    inprocessing (``freeze`` is intentionally absent — the pebbling layer
    probes for it with ``getattr``).  ``library`` selects an already
    loaded build (see :func:`build_library`); by default the shared one.
    """

    def __init__(
        self,
        *,
        conflict_limit: int | None = None,
        restart_base: int = 100,
        random_seed: int = 0,
        library: ctypes.CDLL | None = None,
    ) -> None:
        lib = library
        if lib is None:
            lib, reason = _ensure_loaded()
            if lib is None:
                raise SolverError(f"native core unavailable: {reason}")
        self._lib = lib
        self._handle = lib.cdcl_new(random_seed & 0xFFFFFFFF, restart_base)
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
        self._declared = self.num_variables + 1
        return self._declared

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause: list[int] = []
        for literal in literals:
            if (
                isinstance(literal, bool)
                or not isinstance(literal, int)
                or not 0 < abs(literal) < 2**31
            ):
                raise SolverError(f"invalid literal {literal!r}")
            clause.append(literal)
        array = (ctypes.c_int32 * len(clause))(*clause)
        return bool(
            self._lib.cdcl_add_clause(self._handle, array, len(clause))
        )

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add many clauses with one call into the core.

        Same effect as :meth:`add_clause` on each clause in order, and the
        same ``False`` once the formula is trivially unsat.  The batch is
        validated once, before anything is added: every literal must be a
        nonzero integer whose negation fits in int32, else
        :class:`~repro.errors.SolverError`.
        """
        flat: list[int] = []
        extend, terminate = flat.extend, flat.append
        count = 0
        for literals in clauses:
            extend(literals)
            terminate(0)
            count += 1
        if flat.count(0) != count:
            raise SolverError("invalid literal 0 inside a clause of the batch")
        try:
            packed = struct.pack(f"={len(flat)}i", *flat)
        except struct.error as exc:
            raise SolverError(f"invalid literal in the clause batch: {exc}") from None
        added = self._lib.cdcl_add_clauses(self._handle, packed, len(flat))
        if added < 0:
            raise SolverError(
                f"invalid literal {-2**31} in the clause batch (no int32 negation)"
            )
        return bool(added)

    def add_cnf(self, cnf) -> None:
        while self.num_variables < cnf.num_variables:
            self.add_variable()
        self.add_clauses(clause.literals for clause in cnf.clauses)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        # The C core opens one (possibly empty) decision level per
        # assumption; deduplicating here keeps that stack linear in the
        # variable count without changing the semantics or the core.
        unique = list(dict.fromkeys(assumptions))
        for literal in unique:
            if literal == 0 or not isinstance(literal, int):
                raise SolverError(f"invalid assumption literal {literal!r}")
        array = (ctypes.c_int32 * len(unique))(*unique)
        budget = conflict_limit if conflict_limit is not None else self.default_conflict_limit
        started = time.monotonic()
        verdict = self._lib.cdcl_solve(
            self._handle,
            array,
            len(unique),
            -1 if budget is None else budget,
            -1.0 if time_limit is None else time_limit,
        )
        self._last_seconds = time.monotonic() - started
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
