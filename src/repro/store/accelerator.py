"""Accelerator schema for the trace store: one delta segment per shard commit.

The query surface (:mod:`repro.query`) answers windowed analytics — contact
rates, flow matrices, top-k hot cells — without a full pass over
``releases``.  What makes that possible is this module: every shard commit
appends its summary increments as one immutable *delta segment* (the
chunked, bulk-appended LSST layout), written *inside the same SQLite
transaction* as the shard's release rows and ``(shard, round)`` commit
marks.  Because the segment travels in the shard's own transaction, the
summaries can never be torn relative to ``shard_commits``: a crash either
keeps the whole shard (rows, marks, and segment) or none of it.

Tables (created by :func:`repro.store.schema.create_schema`):

``shard_deltas``
    ``id -> (shard, cell_counts, flows)``: one row per commit, ids
    ascending in commit order.  ``cell_counts`` holds the commit's
    ``(kind, time, cell, n)`` per-round occupancy and ``flows`` its
    ``(kind, time, src, dst, n)`` cell-to-cell transition counts, each
    ``(t-1, t)`` step assigned to its *destination* round ``t`` (the live
    metrics convention, so cumulative prefixes line up).  ``kind`` 0
    summarises the stored ``cell`` column (the server-side snapped view on
    the pipeline path); ``kind`` 1 the ground-truth cells a commit supplied
    via ``true_cells=`` — the store still never persists *per-row* ground
    truth, only these aggregate head counts, which is exactly what the
    monitoring estimators consume.  Area-level flow matrices are derived at
    query time by mapping cells to areas, an integer regrouping, so any
    tiling is served exactly from the cell-level counts.
``user_summary``
    ``user -> (n_rows, min_time, max_time)``: per-user bounds, serving
    :meth:`TraceStore.users <repro.store.store.TraceStore.users>` and
    trajectory planning without a ``SELECT DISTINCT`` scan.  Written once
    per user: a commit carries each of its users' whole trace, and the
    primary key refuses a commit that would extend a stored user.

Segment encoding (:func:`encode_rows` / :func:`decode_rows`): each column
of an ``(n, width)`` int64 table is stored at its narrowest lossless
integer dtype, the dtypes recorded in a small header, and the whole blob
is zlib-compressed at level 1.  Rounds, cells and per-commit counts fit in
one or two bytes, so a segment costs a few bytes per release instead of
the ~2 indexed rows per release a row-per-count table paid.

Each commit's increments are built once, as a :class:`ShardDelta`, from the
committed rows alone; the store appends it as a segment and the live metric
views fold the same object.  Readers merge segments by integer addition
(:func:`merge_rows`), so the summary state is independent of shard count,
backend, commit arrival order, and kill-resume — the same argument that
makes the live metric views bit-identical across those axes.
"""

from __future__ import annotations

import sqlite3
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ACCELERATOR_TABLES",
    "KIND_OBSERVED",
    "KIND_TRUE",
    "DeltaSegment",
    "ShardDelta",
    "apply_deltas",
    "cell_count_rows",
    "decode_rows",
    "delta_segments",
    "encode_rows",
    "flow_rows",
    "merge_rows",
    "user_summary_rows",
]

#: ``kind`` column values: 0 summarises the stored rows, 1 the ground truth.
KIND_OBSERVED = 0
KIND_TRUE = 1

ACCELERATOR_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS shard_deltas (
        id          INTEGER PRIMARY KEY,
        shard       INTEGER NOT NULL,
        cell_counts BLOB    NOT NULL,
        flows       BLOB    NOT NULL
    )
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

_INSERT_SEGMENT = "INSERT INTO shard_deltas (shard, cell_counts, flows) VALUES (?, ?, ?)"
_INSERT_USER_SUMMARY = (
    "INSERT INTO user_summary (user, n_rows, min_time, max_time) VALUES (?, ?, ?, ?)"
)

#: Column dtypes a segment may use, narrowest first within each signedness;
#: the header records each column's index into this tuple.
_COLUMN_DTYPES = tuple(
    np.dtype(name) for name in ("<u1", "<u2", "<u4", "<u8", "<i1", "<i2", "<i4", "<i8")
)
#: Segment header: row count and column count, then one dtype byte per column.
_HEADER = struct.Struct("<QB")


def _narrowest(column: np.ndarray) -> int:
    """Index in ``_COLUMN_DTYPES`` of the narrowest dtype holding ``column`` exactly."""
    if len(column) == 0:
        return 0
    low, high = int(column.min()), int(column.max())
    return next(
        code
        for code, dtype in enumerate(_COLUMN_DTYPES)
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max
    )


def encode_rows(rows: np.ndarray) -> bytes:
    """One ``(n, width)`` integer table as a compact, lossless segment blob."""
    rows = np.asarray(rows, dtype=np.int64)
    n, width = rows.shape
    codes = [_narrowest(rows[:, j]) for j in range(width)]
    parts = [_HEADER.pack(n, width), bytes(codes)]
    parts += [rows[:, j].astype(_COLUMN_DTYPES[code]).tobytes() for j, code in enumerate(codes)]
    return zlib.compress(b"".join(parts), 1)


def decode_rows(blob: bytes) -> np.ndarray:
    """The ``(n, width)`` int64 table :func:`encode_rows` stored in ``blob``."""
    raw = zlib.decompress(blob)
    n, width = _HEADER.unpack_from(raw)
    offset = _HEADER.size + width
    rows = np.empty((n, width), dtype=np.int64)
    for j, code in enumerate(raw[_HEADER.size : offset]):
        dtype = _COLUMN_DTYPES[code]
        rows[:, j] = np.frombuffer(raw, dtype=dtype, count=n, offset=offset)
        offset += n * dtype.itemsize
    return rows


def merge_rows(rows: np.ndarray) -> np.ndarray:
    """Sum the count (last) column over rows with equal keys (every other column).

    Returns one row per distinct key, sorted by key — the layout
    :func:`cell_count_rows` and :func:`flow_rows` emit, so the merge of a
    store's segments compares directly against one build over all its rows.
    """
    if len(rows) == 0:
        return rows
    rows = rows[np.lexsort(rows[:, -2::-1].T)]
    keys = rows[:, :-1]
    starts = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))
    merged = rows[starts]
    merged[:, -1] = np.add.reduceat(rows[:, -1], starts)
    return merged


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
    appends it as one delta segment (:func:`apply_deltas`) and the live
    metric views (:mod:`repro.server.live_metrics`) fold it in memory.
    Each field is an ``(n, width)`` int64 table:

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
    shard: int,
) -> None:
    """Append one commit's summary increments (caller owns the transaction).

    ``cell_counts`` and ``flows`` become one ``shard_deltas`` segment;
    ``user_summary`` rows are plain inserts, so a user already stored makes
    the primary key refuse the commit (``sqlite3.IntegrityError``), which
    rolls back the caller's transaction.
    """
    connection.executemany(_INSERT_USER_SUMMARY, summaries.tolist())
    connection.execute(
        _INSERT_SEGMENT, (int(shard), encode_rows(cell_counts), encode_rows(flows))
    )


class DeltaSegment(NamedTuple):
    """One decoded ``shard_deltas`` row."""

    id: int
    shard: int
    cell_counts: np.ndarray
    flows: np.ndarray


def delta_segments(connection: sqlite3.Connection, after: int = 0) -> list[DeltaSegment]:
    """Every segment with ``id > after``, decoded, in commit order."""
    rows = connection.execute(
        "SELECT id, shard, cell_counts, flows FROM shard_deltas WHERE id > ? ORDER BY id",
        (int(after),),
    ).fetchall()
    return [
        DeltaSegment(int(id_), int(shard), decode_rows(counts), decode_rows(flows))
        for id_, shard, counts, flows in rows
    ]
