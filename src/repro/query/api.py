"""The windowed query API over :class:`~repro.store.TraceStore`.

Every query here is answered from the accelerator layout
(:mod:`repro.store.accelerator`) — per-commit delta segments, per-user
bounds and the ``releases`` covering indexes — in time proportional to the
*answer*, never to the stored population.  The aggregates read an
in-memory fold of the delta segments: each segment is decoded once, and
every query first folds only the segments committed since the last one it
saw, so a long-lived engine stays exact while a writer commits beside it.
Each answer is bit-identical to its naive full-scan counterpart in
:mod:`repro.query.reference`:

* integer components (occupancy counts, flow counts, pair events) merge by
  addition, which no aggregation order can perturb;
* the only float arithmetic (contact rate, R0, epsilon accumulation) is the
  *same expression over the same integers* — or, for epsilon spend, the
  same scalar accumulation order (time-ascending per user) the server's
  :class:`~repro.core.accounting.BudgetLedger` uses.

Consistency follows the live-metrics coverage-frontier rule: a window is
only answered once every shard expected at or before its last round has
committed — anything less raises
:class:`~repro.errors.SnapshotUnavailableError` naming the missing shards,
because whole-shard transactions make a *committed* shard trustworthy but
say nothing about its absent peers.  Pass ``expected=``
(:func:`~repro.server.live_metrics.expected_coverage`) for the exact
schedule; without it the engine derives a conservative one from the commit
marks and the run manifest.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Mapping

import numpy as np

from repro.core.accounting import BudgetLedger
from repro.errors import DataError, SnapshotUnavailableError, StoreError, ValidationError
from repro.geo.grid import GridWorld
from repro.server.live_metrics import missing_shards
from repro.store.accelerator import KIND_OBSERVED, KIND_TRUE, delta_segments, merge_rows
from repro.store.store import TraceStore, open_store

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.mobility.trajectory import CheckIn

__all__ = [
    "QueryEngine",
    "Window",
    "WindowContactRate",
    "sliding_windows",
    "tumbling_windows",
]

_KINDS = {"observed": KIND_OBSERVED, "true": KIND_TRUE}


@dataclass(frozen=True, order=True)
class Window:
    """A closed time interval ``[start, end]`` of release rounds.

    Both endpoints are inclusive, matching the cumulative round semantics
    of the live metric views (``metrics_at(round=r)`` covers rows with
    ``time <= r``).  Flow queries count a ``(t-1, t)`` transition when its
    *destination* round ``t`` lies inside the window, so a window starting
    at ``s`` includes arrivals from round ``s - 1``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if int(self.end) < int(self.start):
            raise ValidationError(f"window end {self.end} precedes start {self.start}")
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "end", int(self.end))

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, time: int) -> bool:
        return self.start <= int(time) <= self.end


def tumbling_windows(start: int, end: int, width: int) -> list[Window]:
    """Non-overlapping ``width``-round windows tiling ``[start, end]``.

    The last window is clipped at ``end`` when the span is not an exact
    multiple of ``width``.
    """
    if width < 1:
        raise ValidationError(f"window width must be >= 1, got {width}")
    return [
        Window(low, min(low + width - 1, int(end)))
        for low in range(int(start), int(end) + 1, int(width))
    ]


def sliding_windows(start: int, end: int, width: int, step: int = 1) -> list[Window]:
    """``width``-round windows advancing by ``step``, clipped at ``end``."""
    if width < 1 or step < 1:
        raise ValidationError(f"window width/step must be >= 1, got {width}/{step}")
    return [
        Window(low, min(low + width - 1, int(end)))
        for low in range(int(start), int(end) + 1, int(step))
    ]


@dataclass(frozen=True)
class WindowContactRate:
    """Contact-rate estimate over one window (the E2 arithmetic).

    ``contact_rate = 2 * pair_events / observations`` and
    ``r0 = p_transmit * contact_rate / gamma`` — integers plus the same two
    float expressions the live views and batch estimators use, which is why
    accelerator and full-scan values agree bitwise.
    """

    window: Window
    kind: str
    contact_rate: float
    r0: float
    pair_events: int
    observations: int


class _SegmentFold:
    """A store's delta segments folded per ``(kind, round)``, refreshed incrementally.

    Table ``counts`` holds each round's merged ``(cell, n)`` head counts —
    merged, because pair events ``n (n - 1) / 2`` do not add across
    segments — and table ``flows`` each round's ``(src, dst, n)`` cell
    flows, duplicates across segments kept (the area regroup sums them
    anyway).  Every read first folds only the segments with ids above the
    largest one already folded; segment ids ascend in commit order, so the
    fold always equals the merge of a commit prefix.  Partitioning by round
    bounds a refresh's temporary copies by one round's rows and lets a window
    read only the rounds it spans.
    """

    #: Columns per round of each table.
    WIDTHS = {"counts": 2, "flows": 3}

    def __init__(self) -> None:
        self.last_id = 0
        self.tables: dict[str, dict[int, dict[int, np.ndarray]]] = {
            name: {kind: {} for kind in _KINDS.values()} for name in self.WIDTHS
        }
        self._lock = threading.Lock()

    def rows(self, connection, name: str, kind: int, window: "Window") -> np.ndarray:
        """Table ``name``'s ``kind`` rows over the rounds in ``window``."""
        with self._lock:
            self._refresh(connection)
            parts = [rows for time, rows in self.tables[name][kind].items() if time in window]
        if not parts:
            return np.empty((0, self.WIDTHS[name]), dtype=np.int64)
        return np.concatenate(parts)

    def _refresh(self, connection) -> None:
        segments = delta_segments(connection, after=self.last_id)
        if not segments:
            return
        for name, rows in (
            ("counts", np.concatenate([segment.cell_counts for segment in segments])),
            ("flows", np.concatenate([segment.flows for segment in segments])),
        ):
            # Group the new (kind, time, ...) rows by (kind, time), then
            # fold each group into that round's held rows.
            rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
            starts = np.flatnonzero((rows[1:, :2] != rows[:-1, :2]).any(axis=1)) + 1
            for part in np.split(rows, starts):
                if not len(part):
                    continue
                by_round, time = self.tables[name][int(part[0, 0])], int(part[0, 1])
                held = by_round.get(time)
                part = part[:, 2:] if held is None else np.concatenate((held, part[:, 2:]))
                by_round[time] = merge_rows(part) if name == "counts" else part
        self.last_id = segments[-1].id


class QueryEngine:
    """Windowed analytics over one trace store, accelerator-served.

    Parameters
    ----------
    store:
        A live :class:`~repro.store.TraceStore` or a path (opened, and then
        closed by :meth:`close` / the context manager).
    world:
        The run's :class:`~repro.geo.grid.GridWorld`, needed only by
        area-level flow queries.  Defaults to the geometry in the store's
        run manifest; a bare store with no manifest must pass it.
    expected:
        Optional ``shard -> rounds`` coverage schedule (the live-metrics
        :func:`~repro.server.live_metrics.expected_coverage` shape) gating
        every windowed answer.  Without it the engine derives a
        conservative schedule: every shard named by the run manifest (or
        seen in the commit marks) is expected at every round any shard has
        committed.
    p_transmit / gamma:
        The E2 R0 parameters applied by :meth:`contact_rate`.
    """

    def __init__(
        self,
        store: "TraceStore | str | os.PathLike[str]",
        world: GridWorld | None = None,
        expected: "Mapping[int, AbstractSet[int]] | None" = None,
        p_transmit: float = 0.3,
        gamma: float = 0.1,
    ) -> None:
        self.store, self._owned = open_store(store)
        if self.store is None:
            raise ValidationError("QueryEngine requires a store or a store path")
        self._world = world
        self._expected = (
            None
            if expected is None
            else {
                int(shard): frozenset(int(time) for time in rounds)
                for shard, rounds in expected.items()
                if rounds
            }
        )
        self.p_transmit = float(p_transmit)
        self.gamma = float(gamma)
        self._fold = _SegmentFold()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the store if this engine opened it (idempotent)."""
        if self._owned and self.store is not None:
            self.store.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def world(self) -> GridWorld:
        """The run's world, built lazily from the manifest when not given."""
        if self._world is None:
            manifest = self.store.manifest()
            if manifest is None:
                raise ValidationError(
                    "store has no run manifest; pass world= to QueryEngine "
                    "for area-level queries"
                )
            self._world = GridWorld(
                manifest.world_width, manifest.world_height, manifest.cell_size
            )
        return self._world

    # ------------------------------------------------------------------
    # Coverage (the live-metrics frontier rule)
    # ------------------------------------------------------------------
    def missing_shards(self, upto: int) -> list[int]:
        """Shards still owed a commit at any round ``<= upto`` (sorted).

        :func:`~repro.server.live_metrics.missing_shards` over the store's
        commit marks — the rule live snapshots freeze by.
        """
        committed = self.store.committed()
        expected = self._expected
        if expected is None:
            rounds = frozenset(time for _, time in committed)
            manifest = self.store.manifest()
            if manifest is not None:
                shard_ids = range(manifest.n_shards)
            else:
                shard_ids = sorted({shard for shard, _ in committed})
            expected = {shard: rounds for shard in shard_ids}
        return missing_shards(expected, committed, upto)

    def _check_coverage(self, upto: int) -> None:
        missing = self.missing_shards(upto)
        if missing:
            raise SnapshotUnavailableError(
                f"window through round {upto} is not consistent yet: "
                f"waiting on shard commit(s) {missing}"
            )

    def _kind(self, kind: str) -> int:
        try:
            code = _KINDS[kind]
        except KeyError:
            raise ValidationError(
                f"kind must be one of {sorted(_KINDS)}, got {kind!r}"
            ) from None
        if code == KIND_TRUE and self.store.maintains_true_summaries() is not True:
            raise StoreError(
                f"trace store {self.store.path!r} holds no true-side "
                "accelerator summaries (its commits never passed true_cells)"
            )
        return code

    # ------------------------------------------------------------------
    # Windowed aggregates
    # ------------------------------------------------------------------
    def contact_rate(self, window: Window, kind: str = "observed") -> WindowContactRate:
        """E2 contact rate / R0 over one window, from per-round occupancy.

        A slice of the folded ``(time, cell)`` head counts — O(distinct
        ``(time, cell)`` pairs in the window), independent of the stored
        population.  Raises :class:`~repro.errors.DataError` for a window
        with no observations (both sides of the bit-check agree on that).
        """
        code = self._kind(kind)
        self._check_coverage(window.end)
        _, counts = self._fold.rows(self.store.connection, "counts", code, window).T
        observations = int(counts.sum())
        if observations == 0:
            raise DataError("window contains no observations")
        pairs = int((counts * (counts - 1) // 2).sum())
        rate = 2.0 * pairs / observations
        return WindowContactRate(
            window=window,
            kind=kind,
            contact_rate=rate,
            r0=self.p_transmit * rate / self.gamma,
            pair_events=pairs,
            observations=observations,
        )

    def flow_matrix(
        self,
        window: Window,
        kind: str = "observed",
        block_rows: int = 4,
        block_cols: int = 4,
    ) -> Counter:
        """Inter-area flow counts whose destination round lies in the window.

        Served from the folded cell-level flows: a slice by destination
        round, then an integer regroup of cell pairs into the requested
        area tiling — any ``(block_rows, block_cols)`` is exact, because the
        cell-level counts are the finest grain.
        """
        code = self._kind(kind)
        self._check_coverage(window.end)
        world = self.world
        n_areas = world.n_areas(block_rows, block_cols)  # validates the tiling args
        src, dst, counts = self._fold.rows(self.store.connection, "flows", code, window).T
        if not len(counts):
            return Counter()
        # GridWorld.area_of_batch is the integer map the full scan's
        # LocationMonitor applies; bincount sums integer weights exactly
        # (far below 2**53), so the Counter equals the full scan bitwise.
        codes = (
            world.area_of_batch(src, block_rows, block_cols) * n_areas
            + world.area_of_batch(dst, block_rows, block_cols)
        )
        totals = np.bincount(codes, weights=counts)
        pairs = np.flatnonzero(totals)
        src_areas, dst_areas = np.divmod(pairs, n_areas)
        return Counter(
            dict(
                zip(
                    zip(src_areas.tolist(), dst_areas.tolist()),
                    totals[pairs].astype(np.int64).tolist(),
                )
            )
        )

    def top_cells(self, window: Window, k: int, kind: str = "observed") -> list[tuple[int, int]]:
        """The ``k`` busiest cells over the window as ``(cell, count)`` pairs.

        Occupancy is summed per cell over a slice of the folded head
        counts; ties break deterministically on the lower cell id, so
        accelerator and full-scan rankings agree exactly, not just up to
        tie shuffling.
        """
        if int(k) < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        code = self._kind(kind)
        self._check_coverage(window.end)
        cells, counts = self._fold.rows(self.store.connection, "counts", code, window).T
        totals = np.bincount(cells, weights=counts).astype(np.int64)
        busy = np.flatnonzero(totals)
        ranked = busy[np.lexsort((busy, -totals[busy]))][: int(k)]
        return list(zip(ranked.tolist(), totals[ranked].tolist()))

    def epsilon_spent(self, user: int, window: Window) -> float:
        """One user's epsilon expenditure over the window, ledger-exact.

        A clustered primary-key range read of that user's rows (times
        ascending), folded through a
        :class:`~repro.core.accounting.BudgetLedger` — the same scalar
        accumulation order the live server's ledger charges in, so the
        value is bit-identical to both the full-scan reference and the
        server's own in-window total.
        """
        self._check_coverage(window.end)
        rows = self.store.connection.execute(
            "SELECT time, epsilon FROM releases "
            "WHERE user = ? AND time BETWEEN ? AND ? ORDER BY time",
            (int(user), window.start, window.end),
        ).fetchall()
        ledger = BudgetLedger(record_entries=False)
        ledger.charge_many(
            [int(user)] * len(rows),
            [time for time, _ in rows],
            [epsilon for _, epsilon in rows],
            purpose="query",
        )
        return ledger.spent(int(user))

    def trajectory(self, user: int, window: Window | None = None) -> "list[CheckIn]":
        """One user's released check-ins over the window, times ascending.

        ``releases`` is clustered on ``(user, time)``, so this is one
        contiguous primary-key range scan (the whole history when
        ``window`` is ``None``).
        """
        from repro.mobility.trajectory import CheckIn

        if window is None:
            bounds = self.store.connection.execute(
                "SELECT min_time, max_time FROM user_summary WHERE user = ?",
                (int(user),),
            ).fetchone()
            if bounds is None:
                return []
            window = Window(int(bounds[0]), int(bounds[1]))
        self._check_coverage(window.end)
        rows = self.store.connection.execute(
            "SELECT time, cell FROM releases "
            "WHERE user = ? AND time BETWEEN ? AND ? ORDER BY time",
            (int(user), window.start, window.end),
        ).fetchall()
        return [CheckIn(time=int(time), user=int(user), cell=int(cell)) for time, cell in rows]

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Store-level shape at summary-table cost (no ``releases`` pass)."""
        connection = self.store.connection
        (n_users, n_rows) = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(n_rows), 0) FROM user_summary"
        ).fetchone()
        times = self.store.times()
        return {
            "path": self.store.path,
            "rows": int(n_rows),
            "users": int(n_users),
            "rounds": len(times),
            "first_round": times[0] if times else None,
            "last_round": times[-1] if times else None,
            "committed_shards": len({shard for shard, _ in self.store.committed()}),
            "true_summaries": bool(self.store.maintains_true_summaries()),
        }

    def __repr__(self) -> str:
        return f"QueryEngine(store={self.store.path!r})"
