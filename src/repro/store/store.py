"""SQLite-backed content-addressed store for pebbling and compile results.

The paper's workflow solves many instances that differ only in budget over
the *same* DAG (Table I budget scans, Fig. 5/6 sweeps), and production
serving repeats whole requests verbatim.  :class:`ResultStore` exploits
both access patterns:

* **exact reuse** — a request whose content address
  (:func:`~repro.store.fingerprint.pebble_request_key`) matches a stored
  row is answered from the database without touching a SAT solver, and the
  deserialised result is byte-identical (JSON-compared) to the one that
  was stored;
* **warm starts** — a request for the *same game* on an isomorphic DAG at
  a *different* budget extracts certified step bounds from its cached
  neighbours (:meth:`ResultStore.warm_start`): a solution at a tighter
  (or equal) budget is feasible here too and gives an achievable step
  ceiling, a certified-minimal solution at a looser (or equal) budget
  gives a sound step floor (minimum steps only grow as the budget
  shrinks), and the solver's search then starts next to the answer
  instead of at the structural lower bound.

Rows are keyed by content, so the store is safe to share between processes
(every portfolio worker opens its own connection; SQLite WAL journalling
handles the concurrency) and survives across runs.  Only searches that ran
to their natural end are stored — a timeout is not a fact about the
instance, just about the deadline.

A read writes nothing.  Each row counts its ``hits`` and keeps its
``last_used`` time for LRU eviction, but a hit, or a warm start that uses
a row as an anchor, only notes that use in memory.  The noted uses are
written inside the next write transaction the connection makes anyway (a
put, an eviction, the deletion of a corrupt row), and :meth:`ResultStore.stats`
and :meth:`ResultStore.close` write them first, so a cache hit costs no
commit.  Every put still commits before it returns: answers are durable.
What a crash loses is bookkeeping only: a process that dies without
closing its store drops the hit counts and recency of the reads it made
since its last write.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sqlite3
import time
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.dag.graph import Dag
from repro.errors import ReproError
from repro.logic.network import LogicNetwork
from repro.obs import metrics as _metrics
from repro.pebbling.encoding import EncodingOptions
from repro.pebbling.search import SearchStrategy
from repro.pebbling.solver import PebblingResult
from repro.store.fingerprint import (
    compile_request_key,
    dag_fingerprint,
    exact_dag_digest,
    options_key,
    pebble_request_key,
)

#: Bump on any incompatible change to the table layout or payload format;
#: an existing database with a different version is wiped and rebuilt (a
#: cache may always be dropped).  v2: result payloads record the producing
#: SAT backend (content addresses stay backend-invariant).  v3: pebbling
#: payloads carry the anytime ``partial`` snapshot field.  v4: pebbling
#: payloads carry ``proved_infeasible``.  v5: drops the INFEASIBLE answers
#: of the old budget floor, which counted nodes no output needs.  v6: the
#: ``totalizer`` encoding, which the keys name, emits the binomial clauses
#: on narrow frames, so a stored search's SAT calls, conflicts and
#: uncertified ``geometric`` witness may differ from what the key now
#: computes.  v7: pebbling payloads (result schema 5) carry the search's
#: engine counters once, and their SAT-call records no longer carry a
#: counter copy each.
STORE_SCHEMA = 7

_LOG = logging.getLogger(__name__)

#: How long a connection waits for another one's lock before it fails.
_BUSY_TIMEOUT_MS = 10_000


class StoreError(ReproError):
    """Raised when the result store is used incorrectly."""


@dataclass(frozen=True)
class WarmStart:
    """Certified step bounds extracted from cached neighbouring budgets.

    ``step_floor`` comes from a certified-minimal solution at a budget at
    least as *loose* as requested — minimum steps cannot shrink when the
    budget shrinks, so ``K*(requested) >= K*(looser)``.  ``step_ceiling``
    comes from any complete solution at a budget at least as *tight* as
    requested: its witness fits the requested budget too, so its step
    count is achievable here.  Either side may be ``None`` when no
    qualifying neighbour is cached.
    """

    step_floor: int | None = None
    step_ceiling: int | None = None
    floor_budget: int | None = None
    ceiling_budget: int | None = None


@dataclass
class StoreStats:
    """Snapshot of a store's contents plus this session's traffic."""

    path: str
    entries: int
    pebble_entries: int
    compile_entries: int
    total_hits: int
    size_bytes: int
    session: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "entries": self.entries,
            "pebble_entries": self.pebble_entries,
            "compile_entries": self.compile_entries,
            "total_hits": self.total_hits,
            "size_bytes": self.size_bytes,
            "session": dict(self.session),
        }


_TABLE = """
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    canonical TEXT NOT NULL,
    options TEXT NOT NULL,
    kind TEXT NOT NULL,
    dag_name TEXT NOT NULL,
    budget INTEGER NOT NULL,
    outcome TEXT NOT NULL,
    steps INTEGER,
    complete INTEGER NOT NULL,
    minimal INTEGER NOT NULL,
    payload TEXT NOT NULL,
    created REAL NOT NULL,
    last_used REAL NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0
)
"""


class ResultStore:
    """Content-addressed cache of pebbling/compile results (see module doc).

    ``max_entries`` bounds the table size: every insertion beyond it
    evicts the least-recently-used rows, in the same transaction as the
    row it inserts.  Reads refresh recency, but only in memory until the
    next write, which applies their uses before it evicts anything.  The
    store is a context manager; :meth:`close` writes the pending uses and
    is idempotent.  A process that exits without closing its store keeps
    every answer it put but loses the hit counts and recency of the reads
    made since its last write.
    """

    def __init__(self, path: "str | Path" = ":memory:", *, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise StoreError("max_entries must be >= 1 (or None for unbounded)")
        self.path = str(path)
        self.max_entries = max_entries
        self._exact_digests: "weakref.WeakKeyDictionary[Dag, str]" = (
            weakref.WeakKeyDictionary()
        )
        self._fingerprints: "weakref.WeakKeyDictionary[Dag, str]" = (
            weakref.WeakKeyDictionary()
        )
        self.session = {
            "gets": 0,
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "warm_queries": 0,
            "warm_hits": 0,
            "evictions": 0,
            "corrupt": 0,
        }
        #: Uses that reads noted and no write has carried yet:
        #: key -> (hits to add, latest use time).
        self._uses: dict[str, tuple[int, float]] = {}
        self._connection = sqlite3.connect(self.path, check_same_thread=False)
        self._connection.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        if self.path != ":memory:":
            _enable_wal(self._connection)
        self._initialise()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _initialise(self) -> None:
        with self._connection as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is not None and row[0] != str(STORE_SCHEMA):
                # An old cache is just a cache: drop and rebuild.
                connection.execute("DROP TABLE IF EXISTS results")
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema', ?)",
                (str(STORE_SCHEMA),),
            )
            connection.execute(_TABLE)
            connection.execute(
                "CREATE INDEX IF NOT EXISTS idx_results_canonical "
                "ON results (canonical, options, kind)"
            )

    def close(self) -> None:
        """Write the pending uses and close the connection (idempotent)."""
        if self._connection is not None:
            try:
                self.write_uses()
            finally:
                self._connection.close()
                self._connection = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require(self) -> sqlite3.Connection:
        if self._connection is None:
            raise StoreError("the result store is closed")
        return self._connection

    # ------------------------------------------------------------------
    # fingerprints (memoised per DAG object)
    # ------------------------------------------------------------------
    def _exact_digest(self, dag: Dag) -> str:
        """The label-sensitive digest that every row's ``key`` starts from."""
        return _memoised(self._exact_digests, dag, exact_dag_digest)

    def _fingerprint(self, dag: Dag) -> str:
        """The isomorphism-invariant fingerprint in the ``canonical`` column.

        Only the calls that write that column or query it (``put_*`` and
        :meth:`warm_start`) compute it: an exact lookup needs the key
        alone, and the 1-WL refinement costs more than the digest.
        """
        return _memoised(self._fingerprints, dag, dag_fingerprint)

    # ------------------------------------------------------------------
    # exact pebbling results
    # ------------------------------------------------------------------
    def _pebble_key(self, dag: Dag, **request: object) -> str:
        options = request["options"]
        if not isinstance(options, EncodingOptions):
            raise StoreError("options must be an EncodingOptions instance")
        search = request["search"]
        if not isinstance(search, SearchStrategy):
            raise StoreError("search must be a resolved SearchStrategy object")
        return pebble_request_key(
            exact_digest=self._exact_digest(dag),
            budget=int(request["budget"]),  # type: ignore[arg-type]
            options=options,
            search=search,
            incremental=bool(request["incremental"]),
            initial_steps=request.get("initial_steps"),  # type: ignore[arg-type]
            max_steps=request.get("max_steps"),  # type: ignore[arg-type]
            step_floor=request.get("step_floor"),  # type: ignore[arg-type]
        )

    def get_pebble(self, dag: Dag, **request: object) -> "PebblingResult | None":
        """Return the cached result of an exact pebbling request, if any.

        ``request`` carries the solver's keyword surface (``budget``,
        ``options``, ``search``, ``incremental``, ``initial_steps``,
        ``max_steps``, ``step_floor``); see
        :meth:`repro.pebbling.solver.ReversiblePebblingSolver.solve`.
        """
        return self._lookup(
            self._pebble_key(dag, **request),
            lambda data: PebblingResult.from_json(data, dag),
        )

    def put_pebble(self, dag: Dag, result: PebblingResult, **request: object) -> bool:
        """Store a pebbling result under its request's content address.

        Only results whose search ran to its natural end are stored
        (``result.complete``); returns whether a row was written.
        """
        if not result.complete:
            return False
        key = self._pebble_key(dag, **request)
        self._insert(
            key=key,
            canonical=self._fingerprint(dag),
            options=options_key(request["options"]),  # type: ignore[arg-type]
            kind="pebble",
            dag_name=dag.name,
            budget=int(request["budget"]),  # type: ignore[arg-type]
            outcome=result.outcome.value,
            steps=result.num_steps,
            complete=result.complete,
            minimal=result.minimal,
            payload=json.dumps(result.to_json(), sort_keys=True),
        )
        return True

    # ------------------------------------------------------------------
    # warm starts
    # ------------------------------------------------------------------
    def warm_start(
        self, dag: Dag, *, budget: int, options: EncodingOptions
    ) -> "WarmStart | None":
        """Extract certified step bounds from cached neighbouring budgets.

        Matches on the isomorphism-invariant DAG fingerprint and the game
        semantics (:func:`~repro.store.fingerprint.options_key`), so bounds
        transfer across node relabellings, cardinality encodings, engine
        modes and search schedules.  The fingerprint is a 1-WL refinement
        hash — complete on anything resembling a circuit DAG but not on
        adversarial graph-isomorphism gadgets, so the extracted bounds are
        trusted to exactly the degree the cache's inputs are (see
        :func:`~repro.store.fingerprint.dag_fingerprint`).  Returns
        ``None`` when no cached neighbour constrains this budget.
        """
        self.session["warm_queries"] += 1
        canonical = self._fingerprint(dag)
        connection = self._require()
        rows = connection.execute(
            "SELECT key, budget, steps, minimal FROM results "
            "WHERE canonical = ? AND options = ? AND kind = 'pebble' "
            "AND outcome = 'solution' AND complete = 1 AND steps IS NOT NULL",
            (canonical, options_key(options)),
        ).fetchall()
        floor: tuple[int, int, str] | None = None
        ceiling: tuple[int, int, str] | None = None
        for key, row_budget, steps, minimal in rows:
            if row_budget >= budget and minimal and (floor is None or steps > floor[0]):
                floor = (steps, row_budget, key)
            if row_budget <= budget and (ceiling is None or steps < ceiling[0]):
                ceiling = (steps, row_budget, key)
        if floor is None and ceiling is None:
            return None
        if floor is not None and ceiling is not None and ceiling[0] < floor[0]:
            # Inconsistent neighbours can only come from a corrupted store;
            # trust neither side rather than steering the search wrong.
            return None
        # A warm read is a use: refresh the anchor rows' recency so LRU
        # eviction does not drop the store's most valuable neighbours just
        # because they are never re-fetched exactly.
        for key in {source[2] for source in (floor, ceiling) if source is not None}:
            self._note_use(key, hits=0)
        self.session["warm_hits"] += 1
        return WarmStart(
            step_floor=floor[0] if floor else None,
            step_ceiling=ceiling[0] if ceiling else None,
            floor_budget=floor[1] if floor else None,
            ceiling_budget=ceiling[1] if ceiling else None,
        )

    # ------------------------------------------------------------------
    # compile reports
    # ------------------------------------------------------------------
    def get_compile(
        self, dag: Dag, *, network: "LogicNetwork | None" = None, **request: object
    ):
        """Return a cached :class:`~repro.circuits.pipeline.CompilationReport`.

        ``request`` mirrors the keyword surface of
        :func:`repro.store.fingerprint.compile_request_key` (minus the
        digests, which are derived from ``dag``/``network`` here).
        """
        from repro.circuits.pipeline import CompilationReport

        return self._lookup(
            self._compile_key(dag, network, request),
            lambda data: CompilationReport.from_json(data, dag),
        )

    def put_compile(
        self,
        dag: Dag,
        report,
        *,
        network: "LogicNetwork | None" = None,
        **request: object,
    ) -> bool:
        """Store a compilation report; only complete searches are kept."""
        if not report.search_complete:
            return False
        self._insert(
            key=self._compile_key(dag, network, request),
            canonical=self._fingerprint(dag),
            options="-",  # compile rows never feed warm starts
            kind="compile",
            dag_name=dag.name,
            budget=int(report.budget),
            outcome=report.outcome,
            steps=report.steps,
            complete=report.search_complete,
            minimal=False,
            payload=json.dumps(report.to_json(), sort_keys=True),
        )
        return True

    def _compile_key(
        self, dag: Dag, network: "LogicNetwork | None", request: dict[str, object]
    ) -> str:
        return compile_request_key(
            exact_digest=self._exact_digest(dag), network=network, **request  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # row plumbing
    # ------------------------------------------------------------------
    def _lookup(self, key: str, decoder):
        """The decoded row at ``key``, or ``None`` when there is none.

        Every lookup, from any layer, is counted here: in :attr:`session`
        and in the process's ``repro_store_*`` metrics.  A corrupt row
        counts as a miss.  A hit writes nothing; its use waits for the
        next write (:meth:`_writing`).
        """
        self.session["gets"] += 1
        row = self._require().execute(
            "SELECT payload FROM results WHERE key = ?", (key,)
        ).fetchone()
        value = None if row is None else self._decode(key, row[0], decoder)
        if value is None:
            self.session["misses"] += 1
            _metrics.counter(
                "repro_store_misses_total", "Result-store lookups without a usable row"
            ).inc()
            return None
        self.session["hits"] += 1
        _metrics.counter(
            "repro_store_hits_total", "Result-store lookups answered from a row"
        ).inc()
        self._note_use(key, hits=1)
        return value

    def _decode(self, key: str, payload: str, decoder):
        """Deserialise a fetched payload, quarantining poison on failure.

        A truncated write, a bit-flipped file or a payload from a
        different library version must degrade to a cache *miss*, not an
        exception out of ``get`` — and the poisoned row is deleted so it
        cannot re-trip every future lookup of the same key.
        """
        try:
            return decoder(json.loads(payload))
        except Exception as error:  # noqa: BLE001 — any poison ⇒ miss
            _LOG.warning(
                "result store %s: dropping corrupt payload row %s…: %s",
                self.path,
                key[:16],
                error,
            )
            self._uses.pop(key, None)
            with self._writing() as connection:
                connection.execute("DELETE FROM results WHERE key = ?", (key,))
            self.session["corrupt"] += 1
            return None

    def _note_use(self, key: str, *, hits: int) -> None:
        """Remember a read of ``key`` for the next write to record."""
        pending = self._uses.get(key)
        self._uses[key] = (hits + (pending[0] if pending else 0), time.time())

    @contextlib.contextmanager
    def _writing(self) -> Iterator[sqlite3.Connection]:
        """One write transaction that first records the pending uses.

        Adding a use's hits and taking the later of the two use times
        keeps every count, whichever connection's write lands first.  The
        map empties only once the transaction commits: a write that rolls
        back leaves its uses pending.
        """
        connection = self._require()
        with connection:
            if self._uses:
                connection.executemany(
                    "UPDATE results SET hits = hits + ?, "
                    "last_used = MAX(last_used, ?) WHERE key = ?",
                    [(hits, used, key) for key, (hits, used) in self._uses.items()],
                )
            yield connection
        self._uses.clear()

    def write_uses(self) -> None:
        """Write the hits and recency of reads since the last write.

        Runs no transaction when none are pending.  :meth:`stats` and
        :meth:`close` call it first; so does a pool worker after each
        task, because its store stays open for the worker's life.
        """
        if self._uses:
            with self._writing():
                pass

    def _insert(self, **row: object) -> None:
        """Upsert one row, evicting past ``max_entries``: one commit."""
        now = time.time()
        evicted = 0
        with self._writing() as connection:
            # Upsert, not INSERT OR REPLACE: two workers racing on the same
            # uncached request both put on miss, and a blind replace would
            # zero the row's accumulated ``hits`` (which `cache stats` and
            # the CI smoke assert on) and forge its ``created`` time.
            connection.execute(
                "INSERT INTO results (key, canonical, options, kind, "
                "dag_name, budget, outcome, steps, complete, minimal, payload, "
                "created, last_used, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0) "
                "ON CONFLICT(key) DO UPDATE SET "
                "outcome = excluded.outcome, steps = excluded.steps, "
                "complete = excluded.complete, minimal = excluded.minimal, "
                "payload = excluded.payload, last_used = excluded.last_used",
                (
                    row["key"],
                    row["canonical"],
                    row["options"],
                    row["kind"],
                    row["dag_name"],
                    row["budget"],
                    row["outcome"],
                    row["steps"],
                    int(bool(row["complete"])),
                    int(bool(row["minimal"])),
                    row["payload"],
                    now,
                    now,
                ),
            )
            if self.max_entries is not None:
                evicted = _evict_rows(connection, self.max_entries)
        self.session["puts"] += 1
        self.session["evictions"] += evicted

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def evict(self, keep: int) -> int:
        """Shrink to at most ``keep`` rows, dropping least-recently-used.

        Returns the number of rows evicted.
        """
        if keep < 0:
            raise StoreError("keep must be >= 0")
        with self._writing() as connection:
            evicted = _evict_rows(connection, keep)
        self.session["evictions"] += evicted
        return evicted

    def clear(self) -> int:
        """Drop every row; returns the number of entries removed."""
        connection = self._require()
        with connection:
            cursor = connection.execute("DELETE FROM results")
        self._uses.clear()
        return cursor.rowcount if cursor.rowcount > 0 else 0

    def stats(self) -> StoreStats:
        """Snapshot of contents (row counts, hit totals) + session traffic.

        ``size_bytes`` is the database's page count times its page size:
        in WAL mode new pages sit in the ``-wal`` file until a checkpoint,
        so the main file's size lags behind.
        """
        self.write_uses()
        connection = self._require()
        entries, total_hits = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(hits), 0) FROM results"
        ).fetchone()
        by_kind = dict(
            connection.execute(
                "SELECT kind, COUNT(*) FROM results GROUP BY kind"
            ).fetchall()
        )
        (page_count,) = connection.execute("PRAGMA page_count").fetchone()
        (page_size,) = connection.execute("PRAGMA page_size").fetchone()
        return StoreStats(
            path=self.path,
            entries=entries,
            pebble_entries=by_kind.get("pebble", 0),
            compile_entries=by_kind.get("compile", 0),
            total_hits=total_hits,
            size_bytes=page_count * page_size,
            session=dict(self.session),
        )


def _enable_wal(connection: sqlite3.Connection) -> None:
    """Switch a file database to WAL journalling.

    The switch takes an exclusive lock without calling the busy handler,
    so two processes that open a new file at once (two pool workers, say)
    can fail it with "database is locked".  It is retried for as long as
    any other lock would be waited for.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_MS / 1000
    while True:
        try:
            connection.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def _evict_rows(connection: sqlite3.Connection, keep: int) -> int:
    """Inside an open transaction: delete all but the ``keep`` most recent rows."""
    cursor = connection.execute(
        "DELETE FROM results WHERE key IN ("
        "SELECT key FROM results ORDER BY last_used DESC, key "
        "LIMIT -1 OFFSET ?)",
        (keep,),
    )
    return cursor.rowcount if cursor.rowcount > 0 else 0


def _memoised(
    memo: "weakref.WeakKeyDictionary[Dag, str]", dag: Dag, digest
) -> str:
    """``digest(dag)``, computed once per DAG object.

    The memo is keyed by the DAG object through a weak reference (``Dag``
    hashes by identity), so a freed graph's slot disappears with it — a
    raw ``id()`` key could be recycled by a *different* DAG and serve it
    another graph's digest.  Identity keying is sound because both digests
    are pure functions of the graph, and a mutated DAG object must not be
    reused across solves anyway (the solver validates and caches
    topological order the same way).  ``digest`` is looked up by the
    caller at call time, so a wrapper installed on the module's name
    (a profiler's, say) sees every computation.
    """
    value = memo.get(dag)
    if value is None:
        value = memo[dag] = digest(dag)
    return value
