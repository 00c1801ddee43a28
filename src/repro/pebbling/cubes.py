"""Cube-and-conquer parallelism for a *single* pebbling instance.

The portfolio parallelises across tasks, budgets and backends, but one
hard instance still burns exactly one core.  This module splits a single
Problem-1 search (minimum steps within a pebble budget) into independent
*cube* lanes that race across a process pool while sharing what they
learn:

* :func:`generate_cubes` builds a picklable :class:`CubeSet` — either
  **assumption prefixes** over early-frame pebble variables of
  high-fanout / critical-path nodes (all sign combinations over the
  chosen variables, so the union of cubes is a tautology and the cover
  is exhaustive by construction), or **step sub-brackets** that
  partition the bound range;
* :class:`BoundBoard` is a tiny cross-process SQLite table (same WAL
  discipline as the result store, keyed by the store's backend-invariant
  fingerprints) where lanes publish refuted bounds from UNSAT cores and
  certified SAT bounds mid-flight; search cursors poll it between SAT
  calls via :meth:`~repro.pebbling.search.SearchCursor.observe` and skip
  work another lane already killed;
* :class:`CubeLane` is one lane's half of the board protocol, plugged
  into the solver's single Problem-1 loop: it pins the cube's literals,
  folds board facts into the cursor, publishes every verdict (promoting
  refutations that never used the cube to the global row), closes a
  contradictory cube, and cancels the siblings once the minimum is
  pinned;
* :func:`run_cube_search` orchestrates the lanes, watches the board, and
  raises the shared :class:`~repro.pebbling.cancel.CancellationToken`
  the moment some lane's witness plus the pooled refutations *certify*
  the global minimum — losing lanes stop at their next poll instead of
  running to completion.

Soundness rests on two facts.  First, the cube cover is exhaustive: for
any step bound ``K`` the instance is satisfiable iff some cube lane is,
so the minimum over lane minima is the true minimum.  Second, with idle
steps allowed, step-satisfiability is monotone in ``K`` and cube
assumptions constrain only early frames (padding a strategy with idle
steps at the end never touches them), so a witness at ``K`` published by
*any* lane upper-bounds every lane, while a bound refuted by **all**
cubes (or refuted without cube assumptions at all) is refuted for the
instance.  The board distinguishes the two: per-cube rows aggregate by
``min`` across the full cube set, assumption-free rows are globally
valid on their own.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import shutil
import sqlite3
import tempfile
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.dag.graph import Dag
from repro.errors import PebblingError
from repro.obs import metrics as _metrics
from repro.obs import trace as obs_trace
from repro.pebbling.cancel import POLL_SLICE, CancellationToken, resolve_token
from repro.pebbling.encoding import EncodingOptions
from repro.pebbling.search import (
    LinearSearch,
    SearchCursor,
    SearchStrategy,
    StripedClimb,
)

#: Bump when the board's schema or aggregation semantics change; a board
#: file created by another version wipes itself instead of mixing rows.
BOARD_SCHEMA = 1

#: Enumerating every assignment of the split variables is exponential;
#: the exhaustiveness checker refuses beyond this many split points.
_MAX_COVER_CHECK_POINTS = 16


# ---------------------------------------------------------------------------
# cube generation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Cube:
    """One sub-problem of a split search, as picklable plain data.

    ``assignments`` fixes early-frame pebble variables: each entry
    ``(node, step, value)`` is assumed as the literal of ``p[node, step]``
    with the given sign in every SAT call of the lane.  ``step_lo`` /
    ``step_hi`` restrict the lane's bound range instead (``None`` =
    unbounded); the two axes are not mixed within one cube set.
    """

    index: int
    assignments: tuple[tuple[object, int, bool], ...] = ()
    step_lo: int | None = None
    step_hi: int | None = None

    def describe(self) -> str:
        if self.assignments:
            parts = [
                f"{'' if value else '!'}p[{node},{step}]"
                for node, step, value in self.assignments
            ]
            return " & ".join(parts)
        if self.step_lo is not None or self.step_hi is not None:
            hi = "inf" if self.step_hi is None else str(self.step_hi)
            return f"steps in [{self.step_lo}, {hi}]"
        return "true"


@dataclass(frozen=True)
class CubeSet:
    """An exhaustive family of cubes for one (dag, options) instance."""

    mode: str
    cubes: tuple[Cube, ...]
    #: The ``(node, step)`` split points of a variable split (empty for
    #: bracket splits) — kept so the cover checker and the board key do
    #: not have to re-derive them from the cubes.
    split_points: tuple[tuple[object, int], ...] = ()
    #: Lowest bound the bracket split starts from (bracket mode only).
    floor: int | None = None

    def __len__(self) -> int:
        return len(self.cubes)

    @property
    def cube_set_id(self) -> str:
        """Digest identifying this split on the bound board.

        Two lanes share per-cube refuted rows only when they agree on the
        *entire* split — aggregating ``min`` across rows of different
        splits would fabricate refutations.
        """
        payload = {
            "schema": BOARD_SCHEMA,
            "mode": self.mode,
            "points": [[str(node), step] for node, step in self.split_points],
            "cubes": [
                {
                    "assignments": [
                        [str(node), step, value]
                        for node, step, value in cube.assignments
                    ],
                    "lo": cube.step_lo,
                    "hi": cube.step_hi,
                }
                for cube in self.cubes
            ],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _earliest_frames(dag: Dag, options: EncodingOptions) -> dict[object, int]:
    """Earliest step at which each node can possibly carry a pebble.

    With several moves per step a node can be pebbled once its whole
    level is reachable (``level(v)`` steps); with single-move transitions
    every node of its fan-in cone must be pebbled first, one per step
    (``|cone(v)| + 1``).  Splitting on ``p[v, earliest(v)]`` keeps both
    polarities live — an *unreachable* frame would make the positive cube
    vacuously UNSAT and waste its lane.
    """
    if options.max_moves_per_step == 1:
        return {
            node: len(dag.transitive_fanin(node)) + 1 for node in dag.nodes()
        }
    return dict(dag.levels())


def _split_points(
    dag: Dag, options: EncodingOptions, count: int
) -> list[tuple[object, int]]:
    """Choose up to ``count`` (node, earliest-frame) split points.

    High fan-out nodes first (their pebble state constrains the most
    descendants), critical-path depth as the tie-break (late nodes decide
    the schedule's tail), node name last for determinism.
    """
    frames = _earliest_frames(dag, options)
    levels = dag.levels()
    ranked = sorted(
        dag.nodes(),
        key=lambda node: (
            -len(dag.dependents(node)),
            -levels[node],
            str(node),
        ),
    )
    return [(node, frames[node]) for node in ranked[:count]]


def generate_cubes(
    dag: Dag,
    count: int,
    *,
    options: EncodingOptions | None = None,
    mode: str = "variables",
    floor: int | None = None,
    ceiling: int | None = None,
) -> CubeSet:
    """Split one instance into (up to) ``count`` cubes with exhaustive cover.

    ``mode="variables"`` picks ``floor(log2(count))`` split points via
    :func:`_split_points` and emits every sign combination — ``2^k``
    cubes whose union is a tautology, so the cover is exhaustive *by
    construction* (a non-power-of-two ``count`` rounds down).
    ``mode="brackets"`` partitions the step range ``[floor, ceiling]``
    into ``count`` contiguous sub-brackets (the last one open-ended), an
    exhaustive cover of the bound axis instead of the assignment space.
    """
    options = options or EncodingOptions()
    if count < 1:
        raise PebblingError("cube count must be >= 1")
    if mode not in ("variables", "brackets"):
        raise PebblingError("cube mode must be 'variables' or 'brackets'")
    if count == 1:
        return CubeSet(mode=mode, cubes=(Cube(index=0),))
    if mode == "brackets":
        if floor is None:
            raise PebblingError("bracket cubes need the search floor")
        span_top = ceiling if ceiling is not None else floor + 4 * count
        width = max(1, (span_top - floor + 1) // count)
        cubes = []
        for index in range(count):
            lo = floor + index * width
            hi = lo + width - 1 if index < count - 1 else None
            cubes.append(Cube(index=index, step_lo=lo, step_hi=hi))
        return CubeSet(mode="brackets", cubes=tuple(cubes), floor=floor)
    bits = max(1, count.bit_length() - 1)
    points = _split_points(dag, options, bits)
    if not points:
        return CubeSet(mode="variables", cubes=(Cube(index=0),))
    cubes = []
    for index, signs in enumerate(
        itertools.product((True, False), repeat=len(points))
    ):
        assignments = tuple(
            (node, step, value)
            for (node, step), value in zip(points, signs)
        )
        cubes.append(Cube(index=index, assignments=assignments))
    return CubeSet(
        mode="variables", cubes=tuple(cubes), split_points=tuple(points)
    )


def cubes_cover_exhaustively(cube_set: CubeSet) -> bool:
    """Check the cover guarantee by brute force (test/debug helper).

    For a variable split: every full assignment of the split variables
    must satisfy at least one cube.  For a bracket split: the brackets
    must tile ``[floor, inf)`` without gaps.  Exponential in the number
    of split points, hence the :data:`_MAX_COVER_CHECK_POINTS` guard.
    """
    if any(not cube.assignments and cube.step_lo is None and cube.step_hi is None
           for cube in cube_set.cubes):
        return True  # an unconstrained cube covers everything by itself
    if cube_set.mode == "brackets":
        brackets = sorted(
            (cube.step_lo, cube.step_hi) for cube in cube_set.cubes
        )
        if cube_set.floor is None or brackets[0][0] > cube_set.floor:
            return False
        for (_, hi), (next_lo, _) in zip(brackets, brackets[1:]):
            if hi is None or next_lo > hi + 1:
                return False
        return brackets[-1][1] is None
    points = sorted(
        {
            (node, step)
            for cube in cube_set.cubes
            for node, step, _ in cube.assignments
        },
        key=lambda point: (str(point[0]), point[1]),
    )
    if len(points) > _MAX_COVER_CHECK_POINTS:
        raise PebblingError(
            f"refusing to enumerate 2^{len(points)} assignments; "
            f"the cover check caps at {_MAX_COVER_CHECK_POINTS} split points"
        )
    for values in itertools.product((True, False), repeat=len(points)):
        assignment = dict(zip(points, values))
        if not any(
            all(
                assignment[(node, step)] == value
                for node, step, value in cube.assignments
            )
            for cube in cube_set.cubes
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# the cross-process bound board
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoardView:
    """What one poll of the board certifies for the *whole instance*.

    ``refuted`` — largest bound proven infeasible for the instance (the
    max of assumption-free refutations and the ``min`` across all cubes
    of a complete cube set); ``known_sat`` — smallest bound any lane
    witnessed satisfiable.  Either is ``None`` while nothing is known.
    """

    refuted: int | None = None
    known_sat: int | None = None

    @property
    def empty(self) -> bool:
        return self.refuted is None and self.known_sat is None


class BoundBoard:
    """Shared SQLite table of certified step bounds (WAL, fingerprint keys).

    Mirrors the result store's concurrency discipline: one connection per
    process, ``busy_timeout`` against writer collisions, WAL journaling
    for concurrent readers, and a meta table whose schema mismatch wipes
    the board (bounds are cheap to re-derive; mixing aggregation
    semantics across versions is not).

    Rows are keyed ``(instance, cube_set, cube)`` where ``instance``
    digests the backend-invariant fingerprints (canonical DAG, game
    options, budget), ``cube_set`` the exact split, and ``cube`` is the
    lane's cube index — or ``-1`` for the instance-global row holding
    assumption-free refutations and all SAT witnesses (a witness under a
    cube is a witness for the instance; a refutation under a cube is
    not, which is why per-cube refutations live in their own rows and
    only aggregate once every cube of the set has one).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute("PRAGMA busy_timeout = 10000")
        if path != ":memory:":
            self._connection.execute("PRAGMA journal_mode = WAL")
        self._initialise()
        self.published = 0
        self.polled = 0

    def _initialise(self) -> None:
        with self._connection as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is not None and row[0] != str(BOARD_SCHEMA):
                connection.execute("DROP TABLE IF EXISTS bounds")
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES "
                f"('schema', '{BOARD_SCHEMA}')"
            )
            connection.execute(
                """
                CREATE TABLE IF NOT EXISTS bounds (
                    instance TEXT NOT NULL,
                    cube_set TEXT NOT NULL,
                    cube INTEGER NOT NULL,
                    refuted INTEGER,
                    sat INTEGER,
                    PRIMARY KEY (instance, cube_set, cube)
                )
                """
            )

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "BoundBoard":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def publish_refuted(
        self, instance: str, cube_set: str, cube: int, bound: int
    ) -> None:
        """Record ``bound`` (and below) as refuted for ``cube``.

        ``cube = -1`` publishes an assumption-free refutation, valid for
        the instance on its own; per-cube rows keep their running ``max``
        and only speak for the instance through :meth:`poll`'s ``min``
        across the complete cube set.
        """
        with self._connection as connection:
            connection.execute(
                """
                INSERT INTO bounds (instance, cube_set, cube, refuted)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (instance, cube_set, cube) DO UPDATE SET
                    refuted = MAX(
                        COALESCE(bounds.refuted, excluded.refuted),
                        excluded.refuted
                    )
                """,
                (instance, cube_set, cube, bound),
            )
        self.published += 1

    def publish_sat(self, instance: str, cube_set: str, bound: int) -> None:
        """Record a witness at ``bound`` — always instance-global."""
        with self._connection as connection:
            connection.execute(
                """
                INSERT INTO bounds (instance, cube_set, cube, sat)
                VALUES (?, ?, -1, ?)
                ON CONFLICT (instance, cube_set, cube) DO UPDATE SET
                    sat = MIN(COALESCE(bounds.sat, excluded.sat), excluded.sat)
                """,
                (instance, cube_set, bound),
            )
        self.published += 1

    def poll(self, instance: str, cube_set: str, cube_count: int) -> BoardView:
        """The instance-level facts certified so far (see :class:`BoardView`)."""
        self.polled += 1
        row = self._connection.execute(
            "SELECT refuted, sat FROM bounds "
            "WHERE instance = ? AND cube_set = ? AND cube = -1",
            (instance, cube_set),
        ).fetchone()
        refuted, known_sat = (row if row is not None else (None, None))
        if cube_count > 0:
            count, weakest = self._connection.execute(
                "SELECT COUNT(*), MIN(refuted) FROM bounds "
                "WHERE instance = ? AND cube_set = ? AND cube >= 0 "
                "AND refuted IS NOT NULL",
                (instance, cube_set),
            ).fetchone()
            if count == cube_count and weakest is not None:
                refuted = weakest if refuted is None else max(refuted, weakest)
        return BoardView(refuted=refuted, known_sat=known_sat)


#: Per-process cache of open boards, PID-guarded like the portfolio's
#: worker stores: an SQLite connection must never cross ``fork``.
_CHANNEL_BOARDS: dict[str, BoundBoard] = {}
_CHANNEL_BOARDS_PID: int | None = None


def _open_board(path: str) -> BoundBoard:
    global _CHANNEL_BOARDS_PID
    pid = os.getpid()
    if pid != _CHANNEL_BOARDS_PID:
        _CHANNEL_BOARDS.clear()
        _CHANNEL_BOARDS_PID = pid
    board = _CHANNEL_BOARDS.get(path)
    if board is None:
        board = _CHANNEL_BOARDS[path] = BoundBoard(path)
    return board


def _discard_board(path: str) -> None:
    board = _CHANNEL_BOARDS.pop(path, None)
    if board is not None:
        board.close()


@dataclass
class BoardChannel:
    """A lane's picklable handle onto one board row family.

    Plain strings and ints cross the process boundary; the SQLite
    connection is opened lazily in whichever process ends up using the
    channel.  ``cube >= 0`` marks a lane whose queries carry cube
    assumptions (its refutations go to its per-cube row); ``cube = -1``
    marks an assumption-free lane (bracket splits), whose refutations
    are instance-global immediately.
    """

    path: str
    instance: str
    cube_set: str
    cube: int
    cube_count: int

    def poll(self) -> BoardView:
        return _open_board(self.path).poll(
            self.instance, self.cube_set, self.cube_count
        )

    def publish_refuted(self, bound: int, *, assumption_free: bool = False) -> None:
        # A refutation whose UNSAT core used no cube literal holds for
        # the unsplit instance: route it to the global row so sibling
        # lanes skip the bound instead of re-proving it per cube.
        cube = -1 if assumption_free else self.cube
        _open_board(self.path).publish_refuted(
            self.instance, self.cube_set, cube, bound
        )

    def publish_sat(self, bound: int) -> None:
        _open_board(self.path).publish_sat(self.instance, self.cube_set, bound)


def instance_key(dag: Dag, options: EncodingOptions, budget: int) -> str:
    """Backend-invariant board key of one (dag, options, budget) instance."""
    from repro.store.fingerprint import (
        FINGERPRINT_VERSION,
        dag_fingerprint,
        options_key,
    )

    canonical = json.dumps(
        [FINGERPRINT_VERSION, dag_fingerprint(dag), options_key(options), budget],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# one lane inside the Problem-1 loop
# ---------------------------------------------------------------------------
class CubeLane:
    """One cube lane's side of the board protocol, driven by the search loop.

    The solver's Problem-1 loop consults a lane at three points: before
    each query and while a time-sliced query waits (:meth:`observe`), and
    after each verdict (:meth:`witnessed`, :meth:`refuted`).  Before the
    first query :meth:`pin` fixes the cube's early-frame pebble variables
    as assumptions of every query.  ``hits`` counts the bounds a sibling's
    board facts settled for this lane.
    """

    def __init__(
        self,
        cube: Cube,
        channel: BoardChannel,
        token: CancellationToken,
        max_steps: int,
    ) -> None:
        self.cube = cube
        self.channel = channel
        self.token = token
        self.max_steps = max_steps
        self.literals: list[int] = []
        self.hits = 0

    def pin(self, oracle) -> None:
        """Assume the cube's literals ahead of the guard ladder in every query."""
        if not self.cube.assignments:
            return
        oracle.encoder.extend_to(max(step for _, step, _ in self.cube.assignments))
        self.literals = [
            oracle.encoder.variable(node, step) * (1 if value else -1)
            for node, step, value in self.cube.assignments
        ]
        oracle.pinned = self.literals

    def observe(self, cursor: SearchCursor, bound: int) -> int | None:
        """Fold the board's facts into ``cursor``; return the bound to probe."""
        view = self.channel.poll()
        if view.empty:
            return bound
        observed = cursor.observe(refuted=view.refuted, known_sat=view.known_sat)
        if observed != bound:
            # A sibling lane killed (or answered) this bound; observe() is
            # idempotent, so one skip per fact.
            self.hits += 1
            obs_trace.event("board.hit", bound=bound, observed=observed)
        return observed

    def witnessed(self, steps: int) -> None:
        """Publish this lane's best witness; cancel the siblings once pinned."""
        # A witness under cube assumptions is a witness for the whole
        # instance (the cube only *restricts* it).
        self.channel.publish_sat(steps)
        view = self.channel.poll()
        if (
            view.known_sat is not None
            and view.refuted is not None
            and view.refuted >= view.known_sat - 1
        ):
            # Pooled refutations meet the shared witness: the global
            # minimum is pinned, stop every sibling lane still probing.
            self.token.cancel()

    def refuted(
        self,
        oracle,
        refuted: int,
        core: list[int] | None,
        *,
        elapsed: float,
        remaining: float | None,
    ) -> tuple[bool, dict[int, bool] | None]:
        """Publish an UNSAT verdict through ``refuted``; say whether the lane ends.

        Returns ``(closed, model)``.  A lane closes when its cube is
        contradictory at every bound, or when the cube-free recheck of
        ``refuted`` is satisfiable — then ``model`` witnesses ``refuted``
        steps for the whole instance, and with this lane's cube refuted
        through that bound nothing is left for it to probe.
        """
        # Until the core proves otherwise, a cube lane's refutation is
        # only valid under its cube assumptions.
        used_cube = bool(self.literals)
        if core is not None and self.literals:
            pinned = set(self.literals)
            used_cube = any(literal in pinned for literal in core)
            if core and all(literal in pinned for literal in core):
                # The refutation used no final-configuration guard: the cube
                # itself is contradictory at every bound.  Close the lane for
                # its whole range so the board's min-over-cubes aggregation
                # never waits on it.
                self.channel.publish_refuted(self.max_steps)
                return True, None
        if used_cube:
            # The core leaned on the cube, but the refutation is often
            # cube-free anyway: re-ask the same bound without the cube
            # literals.  The incremental engine answers from its learned
            # clauses (measured at milliseconds), and the slice cap bounds
            # the rare unlucky recheck.  UNSAT promotes the bound to the
            # instance-global row; SAT hands this lane a witness for the
            # whole instance that its own cube excludes.
            limit = max(POLL_SLICE, 0.5 * elapsed)
            if remaining is not None:
                limit = min(limit, remaining)
            if limit > 0:
                recheck = oracle.backend.solve(
                    [oracle.guard(refuted)],
                    time_limit=limit,
                    conflict_limit=oracle.conflict_limit,
                )
                if recheck.is_sat:
                    self.channel.publish_refuted(refuted)
                    return True, recheck.model
                if not recheck.is_unknown:
                    used_cube = False
        # Valid under this lane's assumptions; the channel routes it to the
        # per-cube row — or straight to the global row when the refutation
        # used no cube literal (the proof never touched the split, so it
        # holds for the unsplit instance and every sibling can skip the
        # bound instead of re-proving it).
        self.channel.publish_refuted(refuted, assumption_free=not used_cube)
        return False, None


# ---------------------------------------------------------------------------
# lane execution and the merged search
# ---------------------------------------------------------------------------
def _cube_lane_worker(payload: dict) -> tuple:
    """Solve one cube lane; never raises, returns ('ok', result) or an error."""
    from repro.pebbling.solver import ReversiblePebblingSolver

    with obs_trace.activated(payload.get("trace")):
        with obs_trace.span(
            "cube.lane",
            cube=payload["channel"].cube,
            backend=payload["backend"],
        ) as lane_span:
            try:
                solver = ReversiblePebblingSolver(
                    payload["dag"],
                    options=payload["options"],
                    incremental=True,
                    conflict_limit=payload["conflict_limit"],
                    backend=payload["backend"],
                )
                token = CancellationToken(payload["cancel_path"])
                result = solver._search(
                    payload["budget"],
                    payload["search"],
                    initial_steps=payload["initial_steps"],
                    max_steps=payload["max_steps"],
                    time_limit=payload["time_limit"],
                    step_floor=payload["step_floor"],
                    cancel=token,
                    lane=CubeLane(
                        payload["cube"], payload["channel"], token, payload["max_steps"]
                    ),
                )
                lane_span.set(
                    outcome=result.outcome.value,
                    sat_calls=len(result.attempts),
                    shared_bound_hits=result.shared_bound_hits,
                )
                return ("ok", result)
            except Exception as error:  # noqa: BLE001 — a dead lane must not kill the search
                lane_span.set(outcome="error")
                return ("error", str(error), traceback_module.format_exc())


def _lane_payloads(
    solver,
    max_pebbles: int,
    cube_set: CubeSet,
    *,
    searches: "list[SearchStrategy]",
    initial: int,
    max_steps: int,
    time_limit: float | None,
    step_floor: int | None,
    board_path: str,
    instance: str,
    cube_count: int,
    cancel_path: str,
) -> list[dict]:
    payloads = []
    set_id = cube_set.cube_set_id
    for index, cube in enumerate(cube_set.cubes):
        lane_initial, lane_floor, lane_max = initial, step_floor, max_steps
        if cube.step_lo is not None:
            # Disjoint bracket: the lanes below this one own the bounds
            # below ``step_lo``, so the lane may treat it as trusted —
            # the merged certificate still comes from the board alone.
            lane_initial = max(initial, cube.step_lo)
            lane_floor = cube.step_lo
        if cube.step_hi is not None:
            lane_max = min(max_steps, cube.step_hi)
        payloads.append(
            {
                "dag": solver.dag,
                "options": solver.options,
                "conflict_limit": solver.conflict_limit,
                "backend": solver.backend,
                "budget": max_pebbles,
                "search": searches[index],
                "initial_steps": lane_initial,
                "max_steps": lane_max,
                "time_limit": time_limit,
                "step_floor": lane_floor,
                "cube": cube,
                "channel": BoardChannel(
                    path=board_path,
                    instance=instance,
                    cube_set=set_id,
                    cube=index if cube.assignments else -1,
                    cube_count=cube_count,
                ),
                "cancel_path": cancel_path,
                # Lane workers re-activate this so their spans parent
                # under the search that split them (None when tracing is
                # off — ``activated(None)`` is a no-op).
                "trace": obs_trace.current_context(),
            }
        )
    return payloads


def _lane_summaries(cube_set, lane_results, lane_errors) -> list[dict]:
    summaries = []
    for index, cube in enumerate(cube_set.cubes):
        entry: dict[str, object] = {"cube": index, "split": cube.describe()}
        result = lane_results[index]
        if result is not None:
            entry.update(
                outcome=result.outcome.value,
                steps=result.num_steps,
                sat_calls=len(result.attempts),
                runtime=round(result.runtime, 3),
                complete=result.complete,
                shared_bound_hits=result.shared_bound_hits,
            )
        else:
            entry.update(outcome="error", error=lane_errors.get(index))
        summaries.append(entry)
    return summaries


def run_cube_search(
    solver,
    max_pebbles: int,
    *,
    cubes: "CubeSet | int",
    jobs: int = 1,
    search: "SearchStrategy | str | None" = None,
    initial_steps: int | None = None,
    max_steps: int | None = None,
    time_limit: float | None = None,
    step_floor: int | None = None,
    cancel: "CancellationToken | str | None" = None,
    mode: str = "variables",
):
    """Race cube lanes of one Problem-1 search and merge their answers.

    ``solver`` is a configured
    :class:`~repro.pebbling.solver.ReversiblePebblingSolver`; each lane
    rebuilds an identical one in its worker process from its picklable
    backend spec.  The merged
    :class:`~repro.pebbling.solver.PebblingResult` reports the best
    witness across lanes; its ``minimal`` flag is set from the
    *board certificate* — some lane witnessed ``K`` and the pooled
    refutations cover every bound below ``K`` — which is exactly the
    condition under which the first winner cancels the remaining lanes.

    ``jobs > 1`` fans the lanes across a private process pool (sized by
    the request, not the host: on a saturated or single-core machine the
    win comes from splitting the *proof*, sharing bounds and cancelling
    redundant work, not from extra cores).  ``jobs = 1`` runs the lanes
    inline in publication order, still through the shared board and
    token, which keeps cube runs reproducible in tests.
    """
    from repro.pebbling.solver import PebblingOutcome

    if not solver.incremental:
        raise PebblingError(
            "cube-and-conquer needs the incremental engine (cube "
            "assumptions ride the final-guard ladder); incremental=False "
            "is only kept for the ablation benchmark"
        )
    if jobs < 1:
        raise PebblingError("jobs must be >= 1")
    search = solver._schedule(search)
    started = time.monotonic()
    steps = solver._step_range(
        max_pebbles,
        initial_steps=initial_steps,
        max_steps=max_steps,
        step_floor=step_floor,
    )
    cube_set = None
    if steps is not None:
        floor, initial, max_steps = steps
        cube_set = cubes if isinstance(cubes, CubeSet) else generate_cubes(
            solver.dag,
            int(cubes),
            options=solver.options,
            mode=mode,
            floor=floor,
            ceiling=max_steps,
        )
    if cube_set is None or len(cube_set) <= 1:
        # An infeasible budget or a degenerate split (tiny DAG, count 1):
        # nothing to race.
        return solver._search(
            max_pebbles,
            search,
            initial_steps=initial_steps,
            max_steps=max_steps,
            time_limit=time_limit,
            step_floor=step_floor,
            cancel=cancel,
        )

    scratch = tempfile.mkdtemp(prefix="repro-cubes-")
    board_path = os.path.join(scratch, "board.db")
    token = resolve_token(cancel) or CancellationToken(
        os.path.join(scratch, "winner.cancel")
    )
    lane_count = len(cube_set)
    # Per-cube refutation rows only aggregate over a *pure* variable
    # split; bracket lanes publish assumption-free (global) bounds.
    pure_variables = all(cube.assignments for cube in cube_set.cubes)
    cube_count = lane_count if pure_variables else 0
    instance = instance_key(solver.dag, solver.options, max_pebbles)
    set_id = cube_set.cube_set_id
    lane_results: list = [None] * lane_count
    lane_errors: dict[int, str] = {}
    best_index: int | None = None
    try:
        board = _open_board(board_path)
        # Seed the structural floor: bounds below it are refuted for the
        # instance (and hence for every cube), so the certificate can
        # close even for lanes that never answer a single UNSAT.
        if floor > 1:
            board.publish_refuted(instance, set_id, -1, floor - 1)
            if pure_variables:
                for index in range(lane_count):
                    board.publish_refuted(instance, set_id, index, floor - 1)
        # Lane schedule: under the default unit climb every lane re-proves
        # every rung of the ladder at a fraction of the machine.  Striped
        # lanes divide the frontier instead: lane k probes the k-th of
        # the next ``lane_count`` unsettled rungs (rotating with the
        # shared frontier), a deep UNSAT settles the lane's whole row by
        # step-monotonicity, and recheck-promotion carries single rungs
        # to the global row — each rung of the ladder is proven once
        # *somewhere* instead of once per lane, and no lane ever probes
        # past the smallest shared witness (loose-bound SAT probes are
        # ruinously expensive in this encoding; see EXPERIMENTS.md).
        # Explicit non-default schedules (and idle-step-free games, where
        # the striping is unsound) are honoured as given.
        lane_searches = [search] * lane_count
        if (
            cube_set.mode == "variables"
            and isinstance(search, LinearSearch)
            and search.step_increment == 1
            and not search.core_lookahead
            and not solver.options.forbid_idle_steps
        ):
            lane_searches = [
                StripedClimb(lane=index, lanes=lane_count)
                for index in range(lane_count)
            ]
        payloads = _lane_payloads(
            solver,
            max_pebbles,
            cube_set,
            searches=lane_searches,
            initial=initial,
            max_steps=max_steps,
            time_limit=time_limit,
            step_floor=step_floor,
            board_path=board_path,
            instance=instance,
            cube_count=cube_count,
            cancel_path=token.path,
        )

        certified_announced = False

        def absorb(index: int, outcome: tuple) -> None:
            nonlocal best_index, certified_announced
            if outcome[0] != "ok":
                lane_errors[index] = outcome[1]
                return
            lane_results[index] = outcome[1]
            steps = outcome[1].num_steps
            best = (
                lane_results[best_index].num_steps
                if best_index is not None
                else None
            )
            if steps is not None and (best is None or steps < best):
                best_index = index
            # First-winner certification: a witness at K plus pooled
            # refutations through K-1 pin the global minimum — stop
            # every lane still probing.
            if best_index is not None:
                witness = lane_results[best_index].num_steps
                view = board.poll(instance, set_id, cube_count)
                pooled = floor - 1  # structural: bounds below the floor
                if view.refuted is not None:
                    pooled = max(pooled, view.refuted)
                if pooled >= witness - 1:
                    if not token.cancelled():
                        obs_trace.event(
                            "cubes.certified",
                            witness=witness,
                            pooled_refuted=pooled,
                            winner=best_index,
                        )
                        certified_announced = True
                        _metrics.counter("repro_cancellations_total").inc()
                    token.cancel()

        use_pool = jobs > 1 and lane_count > 1
        if use_pool:
            try:
                pickle.dumps(payloads[0])
            except Exception:  # noqa: BLE001 — unpicklable DAG payloads
                use_pool = False
        if use_pool:
            with ProcessPoolExecutor(max_workers=min(jobs, lane_count)) as pool:
                futures = {
                    pool.submit(_cube_lane_worker, payload): index
                    for index, payload in enumerate(payloads)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        absorb(index, future.result())
                    except Exception as error:  # noqa: BLE001 — broken pool
                        lane_errors[index] = str(error)
        else:
            for index, payload in enumerate(payloads):
                if time_limit is not None:
                    remaining = time_limit - (time.monotonic() - started)
                    # Leave cancelled lanes room for their instant exit.
                    payload["time_limit"] = max(0.05, remaining)
                absorb(index, _cube_lane_worker(payload))

        final_view = board.poll(instance, set_id, cube_count)
        board_stats = {"published": board.published, "polled": board.polled}
    finally:
        _discard_board(board_path)
        shutil.rmtree(scratch, ignore_errors=True)

    winner = lane_results[best_index] if best_index is not None else None
    witness_steps = winner.num_steps if winner is not None else None
    # The structural floor refutes every bound below it by construction
    # (the same argument the sequential search leans on when its witness
    # lands on the very first probe), so it backs the board even when no
    # lane answered a single UNSAT.
    pooled_refuted = floor - 1
    if final_view.refuted is not None:
        pooled_refuted = max(pooled_refuted, final_view.refuted)
    certified = (
        witness_steps is not None and pooled_refuted >= witness_steps - 1
    )
    if certified and not certified_announced:
        # Certification can become visible only at the final poll — e.g.
        # the refuting lane's rows land after the winner's absorb — in
        # which case no lane was left to cancel; the trace still records
        # that the board pinned the minimum.
        obs_trace.event(
            "cubes.certified",
            witness=witness_steps,
            pooled_refuted=pooled_refuted,
            winner=best_index,
        )
    ok_lanes = [result for result in lane_results if result is not None]
    all_complete = not lane_errors and all(
        result.complete for result in ok_lanes
    )
    if not ok_lanes and lane_errors:
        first = min(lane_errors)
        raise PebblingError(
            f"every cube lane failed; lane {first}: {lane_errors[first]}"
        )
    if winner is not None:
        outcome = PebblingOutcome.SOLUTION
    elif all_complete:
        outcome = PebblingOutcome.STEP_LIMIT
    elif token.cancelled():
        outcome = PebblingOutcome.CANCELLED
    else:
        outcome = PebblingOutcome.TIMEOUT
    merged = solver._result(
        max_pebbles,
        outcome,
        strategy=winner.strategy if winner is not None else None,
    )
    for result in ok_lanes:
        merged.attempts.extend(result.attempts)
    merged.complete = certified or all_complete
    # The board certificate *is* a minimality proof: every bound below
    # the witness is refuted by UNSAT cores (or the structural floor),
    # across the exhaustive cube cover — no schedule caveats needed.
    merged.minimal = certified
    merged.shared_bound_hits = sum(
        result.shared_bound_hits for result in ok_lanes
    )
    _metrics.counter("repro_shared_bound_hits_total").inc(merged.shared_bound_hits)
    merged.cubes = {
        "count": lane_count,
        "mode": cube_set.mode,
        "jobs": jobs,
        "winner": best_index,
        "certified": certified,
        "cancelled": [
            index
            for index, result in enumerate(lane_results)
            if result is not None
            and result.outcome is PebblingOutcome.CANCELLED
        ],
        "shared_bound_hits": merged.shared_bound_hits,
        "board": board_stats,
        "lanes": _lane_summaries(cube_set, lane_results, lane_errors),
    }
    if not merged.complete:
        merged.partial = {
            "lanes": merged.cubes["lanes"],
            "best_steps": witness_steps,
            "sat_calls": len(merged.attempts),
        }
    merged.runtime = time.monotonic() - started
    return merged
