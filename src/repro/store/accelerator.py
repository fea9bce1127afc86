"""Accelerator schema for the trace store: commit-time summary maintenance.

The query surface (:mod:`repro.query`) answers windowed analytics — contact
rates, flow matrices, top-k hot cells — without a full pass over
``releases``.  What makes that possible is this module: a small set of
per-round summary tables (the LSST-style accelerator layout) whose rows are
maintained *inside the same SQLite transaction* as the shard's release rows
and ``(shard, round)`` commit marks.  Because the deltas travel in the
shard's own transaction, the summaries can never be torn relative to
``shard_commits``: a crash either keeps the whole shard (rows, marks, and
summary increments) or none of it.

Tables (created by :func:`repro.store.schema.create_schema`):

``round_cell_counts``
    ``(kind, time, cell) -> n``: per-round occupancy.  ``kind`` 0 summarises
    the stored ``cell`` column (the server-side snapped view on the pipeline
    path); ``kind`` 1 the ground-truth cells a commit supplied via
    ``true_cells=`` — the store still never persists *per-row* ground truth,
    only these aggregate head counts, which is exactly what the monitoring
    estimators consume.
``round_flows``
    ``(kind, time, src, dst) -> n``: cell-to-cell transition counts, each
    ``(t-1, t)`` step assigned to its *destination* round ``t`` (the live
    metrics convention, so cumulative prefixes line up).  Area-level flow
    matrices are derived at query time by mapping cells to areas, which is
    an integer regrouping — any tiling is served exactly from one table.
``user_summary``
    ``user -> (n_rows, min_time, max_time)``: per-user bounds, serving
    :meth:`TraceStore.users <repro.store.store.TraceStore.users>` and
    trajectory planning without a ``SELECT DISTINCT`` scan.  Written once
    per user: a commit carries each of its users' whole trace, and the
    primary key refuses a commit that would extend a stored user.

Each commit's increments are built once, as a :class:`ShardDelta`, from the
committed rows alone; the store upserts it and the live metric views fold
the same object.  Counts merge by integer addition (``ON CONFLICT ... DO
UPDATE SET n = n + excluded.n``), so the summary state is independent of
shard count, backend, commit arrival order, and kill-resume —
the same argument that makes the live metric views bit-identical across
those axes.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ACCELERATOR_TABLES",
    "KIND_OBSERVED",
    "KIND_TRUE",
    "ShardDelta",
    "apply_deltas",
    "cell_count_rows",
    "flow_rows",
    "user_summary_rows",
]

#: ``kind`` column values: 0 summarises the stored rows, 1 the ground truth.
KIND_OBSERVED = 0
KIND_TRUE = 1

ACCELERATOR_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS round_cell_counts (
        kind INTEGER NOT NULL,
        time INTEGER NOT NULL,
        cell INTEGER NOT NULL,
        n    INTEGER NOT NULL,
        PRIMARY KEY (kind, time, cell)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS round_flows (
        kind INTEGER NOT NULL,
        time INTEGER NOT NULL,
        src  INTEGER NOT NULL,
        dst  INTEGER NOT NULL,
        n    INTEGER NOT NULL,
        PRIMARY KEY (kind, time, src, dst)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS user_summary (
        user     INTEGER NOT NULL,
        n_rows   INTEGER NOT NULL,
        min_time INTEGER NOT NULL,
        max_time INTEGER NOT NULL,
        PRIMARY KEY (user)
    ) WITHOUT ROWID
    """,
)

_UPSERT_CELL_COUNTS = (
    "INSERT INTO round_cell_counts (kind, time, cell, n) VALUES (?, ?, ?, ?) "
    "ON CONFLICT(kind, time, cell) DO UPDATE SET n = n + excluded.n"
)
_UPSERT_FLOWS = (
    "INSERT INTO round_flows (kind, time, src, dst, n) VALUES (?, ?, ?, ?, ?) "
    "ON CONFLICT(kind, time, src, dst) DO UPDATE SET n = n + excluded.n"
)
_INSERT_USER_SUMMARY = (
    "INSERT INTO user_summary (user, n_rows, min_time, max_time) VALUES (?, ?, ?, ?)"
)


def cell_count_rows(kind: int, times: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``(kind, time, cell, n)`` occupancy increments for one commit's rows.

    Sorted by ``(time, cell)``; an ``(m, 4)`` int64 array.
    """
    if len(times) == 0:
        return np.empty((0, 4), dtype=np.int64)
    # Encoded int64 keys: one flat np.unique instead of the (much slower)
    # axis=0 row-wise variant — this runs inside every commit.
    base = int(cells.max()) + 1
    codes = times.astype(np.int64) * base + cells
    uniques, counts = np.unique(codes, return_counts=True)
    kinds = np.full(len(uniques), int(kind), dtype=np.int64)
    return np.column_stack((kinds, uniques // base, uniques % base, counts))


def flow_rows(
    kind: int, users: np.ndarray, times: np.ndarray, cells: np.ndarray
) -> np.ndarray:
    """``(kind, time, src, dst, n)`` transition increments within one commit.

    Rows are sorted user-major with times ascending, so a user's consecutive
    timesteps are adjacent; each ``(t-1, t)`` step contributes one count at
    destination round ``t``.  Only *within-commit* adjacency is counted,
    which is complete because a commit carries each of its users' whole
    trace (:meth:`TraceStore.commit_shard
    <repro.store.store.TraceStore.commit_shard>` refuses to extend a user
    already stored).  Sorted by ``(time, src, dst)``; an ``(m, 5)`` int64
    array.
    """
    empty = np.empty((0, 5), dtype=np.int64)
    if len(users) < 2:
        return empty
    order = np.lexsort((times, users))
    u, t, c = users[order], times[order], cells[order]
    step = (u[1:] == u[:-1]) & (t[1:] == t[:-1] + 1)
    if not bool(step.any()):
        return empty
    dst_times = t[1:][step]
    src_cells = c[:-1][step]
    dst_cells = c[1:][step]
    base = int(max(src_cells.max(), dst_cells.max())) + 1
    codes = (dst_times.astype(np.int64) * base + src_cells) * base + dst_cells
    uniques, counts = np.unique(codes, return_counts=True)
    kinds = np.full(len(uniques), int(kind), dtype=np.int64)
    return np.column_stack(
        (kinds, uniques // (base * base), uniques // base % base, uniques % base, counts)
    )


def user_summary_rows(users: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``(user, n_rows, min_time, max_time)`` rows for one commit's users."""
    if len(users) == 0:
        return np.empty((0, 4), dtype=np.int64)
    order = np.lexsort((times, users))
    u, t = users[order], times[order]
    uniques, starts, counts = np.unique(u, return_index=True, return_counts=True)
    stops = starts + counts - 1
    return np.column_stack((uniques, counts, t[starts], t[stops]))


@dataclass(frozen=True, eq=False)
class ShardDelta:
    """One shard commit's summary increments, built once per commit.

    Both analytical consumers of a commit read this one object: the store
    upserts it into the accelerator tables (:func:`apply_deltas`) and the
    live metric views (:mod:`repro.server.live_metrics`) fold it in memory.
    Each field is an int64 array with one row per table row:

    ``cell_counts``
        ``(kind, time, cell, n)`` — :func:`cell_count_rows` per kind.
    ``flows``
        ``(kind, time, src, dst, n)`` — :func:`flow_rows` per kind.
    ``summaries``
        ``(user, n_rows, min_time, max_time)`` — :func:`user_summary_rows`.
    """

    cell_counts: np.ndarray
    flows: np.ndarray
    summaries: np.ndarray

    @classmethod
    def build(cls, users, times, cells, true_cells=None) -> "ShardDelta":
        """The delta of one commit's rows (any order).

        ``cells`` are the stored (snapped) cells, summarised as
        :data:`KIND_OBSERVED`; ``true_cells``, when given, the ground
        truth, summarised as :data:`KIND_TRUE`.
        """
        users = np.asarray(users, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        sides = [(KIND_OBSERVED, np.asarray(cells, dtype=np.int64))]
        if true_cells is not None:
            sides.append((KIND_TRUE, np.asarray(true_cells, dtype=np.int64)))
        return cls(
            cell_counts=np.concatenate(
                [cell_count_rows(kind, times, side) for kind, side in sides]
            ),
            flows=np.concatenate(
                [flow_rows(kind, users, times, side) for kind, side in sides]
            ),
            summaries=user_summary_rows(users, times),
        )


def apply_deltas(
    connection: sqlite3.Connection,
    cell_counts: np.ndarray,
    flows: np.ndarray,
    summaries: np.ndarray,
) -> None:
    """Apply one commit's summary increments (caller owns the transaction).

    ``user_summary`` rows are plain inserts: a user already stored makes
    the primary key refuse the commit (``sqlite3.IntegrityError``), which
    rolls back the caller's transaction.
    """
    connection.executemany(_UPSERT_CELL_COUNTS, cell_counts.tolist())
    connection.executemany(_UPSERT_FLOWS, flows.tolist())
    connection.executemany(_INSERT_USER_SUMMARY, summaries.tolist())
