"""Persistent cross-process solve cache backed by SQLite.

The in-memory :class:`repro.solve.cache.SolveCache` dies with the
process, so a fleet of partition workers re-solves windows any sibling
(or any previous run) already answered.  :class:`DiskSolveCache` makes
verdicts durable: one SQLite file, keyed by the SHA-256 *windowless*
standard-form fingerprint of :mod:`repro.solve.fingerprint`, storing the
same per-window verdicts the memory cache holds and honoring the same
monotone reuse rules:

``exact``
    The identical window was solved before — replay the stored verdict.
``feasible (monotone)``
    A stored design's total latency lies inside the queried window; the
    design itself is the certificate.
``infeasible (monotone)``
    A stored *proven* emptiness covers the queried window.

Designs are stored as plain ``task -> (partition, design_point_label)``
assignments (JSON), decoded back into
:class:`~repro.core.solution.PartitionedDesign` against the querying
graph — which is safe because equal base fingerprints imply equal task
structure and design-point menus.  A row that fails to decode is treated
as a miss and deleted.

Operational properties (the production-shape requirements):

* **schema versioning** — a ``meta`` table records the schema version;
  opening a file written by an incompatible version drops and recreates
  the tables rather than mis-reading rows;
* **corruption tolerance** — a file SQLite cannot read (not a database,
  or a torn write) is moved aside (``<name>.corrupt``) and a fresh store
  is created; a fleet never crashes on a torn write.  A file that is
  merely *locked* by another process is never moved: the open is
  retried a few times, and if the lock persists the disk tier answers
  misses for this process;
* **eviction** — the store is capped (``max_entries``); inserts beyond
  the cap evict the least-recently-used rows in batches;
* **cross-process safety** — WAL journaling plus a busy timeout; a
  locked database degrades to a miss / dropped store instead of raising
  mid-solve.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.metrics import as_metrics
from repro.solve.cache import CachedVerdict, CacheHit
from repro.solve.fingerprint import ModelFingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solution import PartitionedDesign
    from repro.taskgraph.graph import TaskGraph

__all__ = ["DiskSolveCache", "SCHEMA_VERSION"]

#: Bump when the table layout or row semantics change; an on-disk store
#: with a different version is dropped and recreated on open.
SCHEMA_VERSION = 1

#: Window-comparison tolerance — identical to the memory tier's.
_EPS = 1e-9

#: Opens tried while another process holds the store locked (switching a
#: fresh file to WAL can fail with ``database is locked`` at once,
#: without waiting out the busy timeout), and the back-off step between
#: them in seconds.
_OPEN_ATTEMPTS = 5
_OPEN_BACKOFF_S = 0.05

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS verdicts (
    id         INTEGER PRIMARY KEY,
    base       TEXT    NOT NULL,
    d_min      REAL    NOT NULL,
    d_max      REAL    NOT NULL,
    feasible   INTEGER NOT NULL,
    achieved   REAL,
    assignment TEXT,
    backend    TEXT    NOT NULL DEFAULT '',
    created    REAL    NOT NULL,
    last_used  REAL    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_verdicts_base ON verdicts(base);
CREATE INDEX IF NOT EXISTS idx_verdicts_lru  ON verdicts(last_used);
"""


def _is_locked(exc: sqlite3.Error) -> bool:
    """``SQLITE_BUSY``/``SQLITE_LOCKED``: another connection holds a lock
    (the file itself is fine)."""
    return isinstance(exc, sqlite3.OperationalError) and "locked" in str(exc)


class _Unavailable:
    """Stands in for a store that stayed locked at open: every statement
    fails like a locked database, so lookups miss and stores are
    dropped through the cache's ordinary error handling."""

    def execute(self, *args):
        raise sqlite3.OperationalError("database is locked")

    def close(self) -> None:
        pass


class DiskSolveCache:
    """Content-addressed, window-monotone solve cache on disk."""

    def __init__(
        self,
        path: str | Path,
        max_entries: int = 100_000,
        metrics=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.path = Path(path)
        self.max_entries = int(max_entries)
        #: The store on disk was unreadable and has been recreated.
        self.recovered = False
        self._lock = threading.Lock()
        registry = as_metrics(metrics)
        self._m_hits = registry.counter(
            "repro_solve_cache_hits_total",
            "Solve-cache lookups answered, by tier and matching rule.",
            ("tier", "rule"),
        )
        self._m_misses = registry.counter(
            "repro_solve_cache_misses_total",
            "Solve-cache lookups nobody answered, by tier.",
            ("tier",),
        )
        self._m_evictions = registry.counter(
            "repro_disk_cache_evictions_total",
            "LRU rows dropped from the persistent solve cache.",
        )
        self._m_recoveries = registry.counter(
            "repro_disk_cache_recoveries_total",
            "Times an unreadable or incompatible store was recreated.",
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = self._open()
        if self.recovered:
            self._m_recoveries.inc()

    # -- lifecycle -----------------------------------------------------------

    def _open(self) -> "sqlite3.Connection | _Unavailable":
        for attempt in range(_OPEN_ATTEMPTS):
            if attempt:
                time.sleep(_OPEN_BACKOFF_S * attempt)
            try:
                return self._connect()
            except sqlite3.DatabaseError as exc:
                if not _is_locked(exc):
                    return self._recreate()
        # Still locked: serve misses rather than block the solve or
        # quarantine a store another process is using.
        return _Unavailable()

    def _recreate(self) -> sqlite3.Connection:
        # Torn write, truncated file, or not SQLite at all: move the
        # wreck aside (best effort) and start fresh.
        self.recovered = True
        try:
            self.path.replace(self.path.with_suffix(
                self.path.suffix + ".corrupt"
            ))
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass
        return self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=10.0, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_TABLES)
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        if row is None:
            # OR IGNORE: a sibling process may have stamped the fresh
            # store between our SELECT and this INSERT.
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) "
                "VALUES('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
        elif row[0] != str(SCHEMA_VERSION):
            # Incompatible layout: recreate rather than mis-read rows.
            self.recovered = True
            conn.executescript(
                "DROP TABLE IF EXISTS verdicts; DROP TABLE IF EXISTS meta;"
            )
            conn.executescript(_TABLES)
            conn.execute(
                "INSERT INTO meta(key, value) VALUES('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
        return conn

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "DiskSolveCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM verdicts"
                ).fetchone()
            except sqlite3.Error:
                return 0
        return int(row[0])

    # -- lookup --------------------------------------------------------------

    def lookup(
        self, fp: ModelFingerprint, graph: "TaskGraph | None" = None
    ) -> CacheHit | None:
        """Return a stored verdict valid for ``fp``'s window, or ``None``.

        ``graph`` decodes feasible rows back into designs; without it
        only infeasibility proofs can be served.
        """
        lo, hi = fp.d_min, fp.d_max
        with self._lock:
            try:
                rows = self._conn.execute(
                    "SELECT id, d_min, d_max, feasible, achieved, "
                    "assignment, backend FROM verdicts WHERE base=? "
                    "ORDER BY id",
                    (fp.base,),
                ).fetchall()
            except sqlite3.Error:
                rows = []
        exact = feasible = infeasible = None
        for row in rows:
            _id, r_min, r_max, r_feasible, achieved, _assignment, _b = row
            same_window = (
                abs(r_min - lo) <= _EPS and abs(r_max - hi) <= _EPS
            )
            if same_window and exact is None:
                exact = row
            if (
                r_feasible
                and achieved is not None
                and lo - _EPS <= achieved <= hi + _EPS
                and feasible is None
            ):
                feasible = row
            if (
                not r_feasible
                and r_min <= lo + _EPS
                and hi <= r_max + _EPS
                and infeasible is None
            ):
                infeasible = row
        # Same precedence as the memory tier: exact replays, then
        # feasibility certificates, then emptiness proofs.
        for row, rule in (
            (exact, "exact"), (feasible, "feasible"),
            (infeasible, "infeasible"),
        ):
            if row is None:
                continue
            hit = self._decode(row, rule, graph)
            if hit is not None:
                self._m_hits.labels("disk", rule).inc()
                self._touch(row[0])
                return hit
        self._m_misses.labels("disk").inc()
        return None

    def _decode(
        self, row, rule: str, graph: "TaskGraph | None"
    ) -> CacheHit | None:
        from repro.core.solution import PartitionedDesign

        _id, r_min, r_max, r_feasible, achieved, assignment, backend = row
        design = None
        if r_feasible:
            if graph is None:
                return None
            try:
                labels = json.loads(assignment)
                design = PartitionedDesign.from_labels(
                    graph,
                    {
                        name: (int(partition), str(label))
                        for name, (partition, label) in labels.items()
                    },
                )
            except (ValueError, KeyError, TypeError):
                # Undecodable row (hash collision would be the only
                # honest cause; bit rot the likely one): drop it.
                self._delete(_id)
                return None
        verdict = CachedVerdict(
            d_min=float(r_min),
            d_max=float(r_max),
            feasible=bool(r_feasible),
            achieved=None if achieved is None else float(achieved),
            design=design,
            backend=str(backend),
        )
        return CacheHit(verdict, rule, tier="disk")

    def _touch(self, row_id: int) -> None:
        with self._lock:
            try:
                self._conn.execute(
                    "UPDATE verdicts SET last_used=? WHERE id=?",
                    (time.time(), row_id),
                )
                self._conn.commit()
            except sqlite3.Error:
                pass

    def _delete(self, row_id: int) -> None:
        with self._lock:
            try:
                self._conn.execute(
                    "DELETE FROM verdicts WHERE id=?", (row_id,)
                )
                self._conn.commit()
            except sqlite3.Error:
                pass

    # -- store ---------------------------------------------------------------

    def store_feasible(
        self,
        fp: ModelFingerprint,
        design: "PartitionedDesign",
        achieved: float,
        backend: str = "",
    ) -> None:
        """Persist a feasibility certificate for ``fp``'s window."""
        assignment = json.dumps(design.as_assignment(), sort_keys=True)
        self._insert(
            fp, feasible=True, achieved=float(achieved),
            assignment=assignment, backend=backend,
        )

    def store_infeasible(self, fp: ModelFingerprint, backend: str = "") -> None:
        """Persist a *proven* emptiness verdict for ``fp``'s window.

        Same contract as the memory tier: only call for solves that
        ended with status ``INFEASIBLE``, never for budget exhaustion.
        """
        self._insert(
            fp, feasible=False, achieved=None, assignment=None,
            backend=backend,
        )

    def _insert(
        self,
        fp: ModelFingerprint,
        feasible: bool,
        achieved: float | None,
        assignment: str | None,
        backend: str,
    ) -> None:
        now = time.time()
        with self._lock:
            try:
                dup = self._conn.execute(
                    "SELECT id FROM verdicts WHERE base=? AND feasible=? "
                    "AND ABS(d_min - ?) <= ? AND ABS(d_max - ?) <= ?",
                    (fp.base, int(feasible), fp.d_min, _EPS, fp.d_max, _EPS),
                ).fetchone()
                if dup is not None:
                    return
                self._conn.execute(
                    "INSERT INTO verdicts(base, d_min, d_max, feasible, "
                    "achieved, assignment, backend, created, last_used) "
                    "VALUES(?,?,?,?,?,?,?,?,?)",
                    (
                        fp.base, fp.d_min, fp.d_max, int(feasible),
                        achieved, assignment, backend, now, now,
                    ),
                )
                self._conn.commit()
                self._evict_locked()
            except sqlite3.Error:
                # A locked or failing store never breaks a solve; the
                # verdict simply stays process-local this time.
                pass

    # -- eviction ------------------------------------------------------------

    def _evict_locked(self) -> None:
        """Drop the least-recently-used rows once past ``max_entries``.

        Called with ``self._lock`` held, right after an insert.  Evicts
        in ~10% batches so the (COUNT + DELETE) bookkeeping is amortized
        rather than per-insert at the boundary.
        """
        count = self._conn.execute(
            "SELECT COUNT(*) FROM verdicts"
        ).fetchone()[0]
        if count <= self.max_entries:
            return
        batch = max(count - self.max_entries, self.max_entries // 10, 1)
        self._conn.execute(
            "DELETE FROM verdicts WHERE id IN ("
            "SELECT id FROM verdicts ORDER BY last_used ASC, id ASC "
            "LIMIT ?)",
            (batch,),
        )
        self._conn.commit()
        self._m_evictions.inc(batch)

    def clear(self) -> None:
        with self._lock:
            try:
                self._conn.execute("DELETE FROM verdicts")
                self._conn.commit()
            except sqlite3.Error:
                pass

    def stats(self) -> dict:
        """JSON-ready state of the store; lookup and eviction counts are
        in the metrics registry the cache was built with."""
        return {
            "path": str(self.path),
            "entries": len(self),
            "recovered": self.recovered,
            "schema_version": SCHEMA_VERSION,
        }
