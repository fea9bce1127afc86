"""The windowed query API over :class:`~repro.store.TraceStore`.

Every query here is answered from the accelerator layout
(:mod:`repro.store.accelerator`) — per-commit delta segments, per-user
bounds and the ``releases`` covering indexes — in time proportional to the
*answer*, never to the stored population.  The aggregates read an
in-memory fold of the delta segments: each segment is decoded once.
Every query starts with one version probe (the largest segment id, which
moves exactly when a commit lands); only when it moved does the engine
re-read the commit marks and fold the new segments, so a long-lived engine
stays exact while a writer commits beside it.
Each answer is bit-identical to its naive full-scan counterpart in
:mod:`repro.query.reference`:

* integer components (occupancy counts, flow counts, pair events) merge by
  addition, which no aggregation order can perturb;
* the only float arithmetic (contact rate, R0, epsilon accumulation) is the
  *same expression over the same integers* — or, for epsilon spend, the
  same scalar accumulation (:func:`~repro.core.accounting.running_total`,
  time-ascending per user) the server's
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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Mapping

import numpy as np

from repro.core.accounting import running_total
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

#: The commit version: every commit appends exactly one segment, in the
#: transaction that writes its marks, and segment ids ascend.
_VERSION = "SELECT COALESCE(MAX(id), 0) FROM shard_deltas"


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; Python and numpy integers only, never a bool.

    ``int()`` alone would truncate ``2.7`` to ``2`` and read ``True`` as
    ``1``, answering a different window or user than the one asked for.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        start = _integer("window start", self.start)
        end = _integer("window end", self.end)
        if end < start:
            raise ValidationError(f"window end {end} precedes start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, time: int) -> bool:
        return self.start <= int(time) <= self.end


def tumbling_windows(start: int, end: int, width: int) -> list[Window]:
    """Non-overlapping ``width``-round windows tiling ``[start, end]``.

    The last window is clipped at ``end`` when the span is not an exact
    multiple of ``width``.
    """
    start, end, width = _integer("start", start), _integer("end", end), _integer("width", width)
    if width < 1:
        raise ValidationError(f"window width must be >= 1, got {width}")
    return [Window(low, min(low + width - 1, end)) for low in range(start, end + 1, width)]


def sliding_windows(start: int, end: int, width: int, step: int = 1) -> list[Window]:
    """``width``-round windows advancing by ``step``, clipped at ``end``."""
    start, end = _integer("start", start), _integer("end", end)
    width, step = _integer("width", width), _integer("step", step)
    if width < 1 or step < 1:
        raise ValidationError(f"window width/step must be >= 1, got {width}/{step}")
    return [Window(low, min(low + width - 1, end)) for low in range(start, end + 1, step)]


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


@dataclass(frozen=True)
class _Coverage:
    """The consistency state of one commit version, published whole.

    ``version`` is the probe that triggered the build; ``committed`` and
    the rest were read after it, so they hold at least that version's
    commits.  ``expected`` is the caller's schedule, or the conservative
    one derived from the marks and the manifest's ``n_shards`` (``None``
    while the store has no manifest).  ``true_summaries`` is
    :meth:`~repro.store.TraceStore.maintains_true_summaries`.
    """

    version: int
    committed: frozenset
    expected: Mapping[int, AbstractSet[int]]
    n_shards: "int | None"
    true_summaries: "bool | None"
    _missing: dict = field(default_factory=dict, compare=False)

    def missing(self, upto: int) -> list[int]:
        """:func:`~repro.server.live_metrics.missing_shards`, memoised per ``upto``."""
        upto = int(upto)
        found = self._missing.get(upto)
        if found is None:
            found = self._missing[upto] = tuple(missing_shards(self.expected, self.committed, upto))
        return list(found)


class _SegmentFold:
    """A store's delta segments folded per ``(kind, round)``, refreshed incrementally.

    Table ``counts`` holds each round's merged ``(cell, n)`` head counts —
    merged, because pair events ``n (n - 1) / 2`` do not add across
    segments — and table ``flows`` each round's ``(src, dst, n)`` cell
    flows, duplicates across segments kept (the area regroup sums them
    anyway).  A refresh folds only the segments with ids above the largest
    one already folded; segment ids ascend in commit order, so the fold
    always equals the merge of a commit prefix.  Partitioning by round
    bounds a refresh's temporary copies by one round's rows and lets a window
    read only the rounds it spans.

    ``lock`` also guards the engine's coverage rebuilds, so one lock orders
    every read of marks and segments the engine shares across threads.
    """

    #: Columns per round of each table.
    WIDTHS = {"counts": 2, "flows": 3}

    def __init__(self) -> None:
        self.last_id = 0
        self.tables: dict[str, dict[int, dict[int, np.ndarray]]] = {
            name: {kind: {} for kind in _KINDS.values()} for name in self.WIDTHS
        }
        self.lock = threading.Lock()
        # The newest coverage version the fold was refreshed after.
        self._synced: "int | None" = None

    def rows(
        self, connection, name: str, kind: int, window: "Window", coverage: _Coverage
    ) -> np.ndarray:
        """Table ``name``'s ``kind`` rows over the rounds in ``window``.

        Refreshes first unless a refresh already ran after ``coverage`` (or
        a newer state) was built: a refresh reads every segment committed
        before it starts, so it covers every mark the state holds.
        """
        with self.lock:
            if self._synced is None or coverage.version > self._synced:
                self._refresh(connection)
                self._synced = coverage.version
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
        self._coverage: _Coverage | None = None
        # (block_rows, block_cols) -> area id of every cell of the world.
        self._area_maps: dict[tuple[int, int], np.ndarray] = {}

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
        commit marks — the rule live snapshots freeze by.  One version
        probe; the marks are re-read only when a commit has landed since
        the last call.
        """
        return self._current().missing(upto)

    def _current(self) -> _Coverage:
        """The coverage state of the store's current commit version.

        The probe runs first and the marks after it, so a state never holds
        fewer commits than its version names; it is rebuilt under the
        fold's lock and published as one object, so threads sharing the
        engine each see a whole state.
        """
        (version,) = self.store.connection.execute(_VERSION).fetchone()
        coverage = self._coverage
        if coverage is not None and coverage.version >= version:
            return coverage
        with self._fold.lock:
            coverage = self._coverage
            if coverage is None or coverage.version < version:
                coverage = self._coverage = self._build_coverage(version, coverage)
        return coverage

    def _build_coverage(self, version: int, previous: "_Coverage | None") -> _Coverage:
        committed = self.store.committed()
        n_shards = None if previous is None else previous.n_shards
        true_summaries = None if previous is None else previous.true_summaries
        # Both are written once and never change: re-read only while absent.
        if true_summaries is None:
            true_summaries = self.store.maintains_true_summaries()
        expected = self._expected
        if expected is None:
            if n_shards is None:
                manifest = self.store.manifest()
                n_shards = None if manifest is None else manifest.n_shards
            rounds = frozenset(time for _, time in committed)
            shard_ids = (
                range(n_shards)
                if n_shards is not None
                else sorted({shard for shard, _ in committed})
            )
            expected = {shard: rounds for shard in shard_ids}
        return _Coverage(version, committed, expected, n_shards, true_summaries)

    def _check_coverage(self, upto: int, kind: int = KIND_OBSERVED) -> _Coverage:
        """Refuse unless ``upto``'s rounds are covered; return the state it used."""
        missing = self.missing_shards(upto)
        coverage = self._coverage
        if kind == KIND_TRUE and coverage.true_summaries is not True:
            raise StoreError(
                f"trace store {self.store.path!r} holds no true-side "
                "accelerator summaries (its commits never passed true_cells)"
            )
        if missing:
            raise SnapshotUnavailableError(
                f"window through round {upto} is not consistent yet: "
                f"waiting on shard commit(s) {missing}"
            )
        return coverage

    @staticmethod
    def _kind(kind: str) -> int:
        try:
            return _KINDS[kind]
        except KeyError:
            raise ValidationError(
                f"kind must be one of {sorted(_KINDS)}, got {kind!r}"
            ) from None

    def _rows(self, name: str, kind: str, window: Window) -> np.ndarray:
        """The folded ``name`` rows of ``kind`` over ``window``, coverage-checked."""
        code = self._kind(kind)
        coverage = self._check_coverage(window.end, code)
        return self._fold.rows(self.store.connection, name, code, window, coverage)

    def _area_map(self, block_rows: int, block_cols: int) -> np.ndarray:
        """Area id of every cell under one tiling, built once per engine.

        Threads racing on a new tiling may each build the map; the copies
        are equal, so whichever is kept is exact.
        """
        key = (block_rows, block_cols)
        areas = self._area_maps.get(key)
        if areas is None:
            world = self.world
            areas = self._area_maps[key] = world.area_of_batch(
                np.arange(world.n_cells), block_rows, block_cols
            )
        return areas

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
        _, counts = self._rows("counts", kind, window).T
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
        src, dst, counts = self._rows("flows", kind, window).T
        world = self.world
        n_areas = world.n_areas(block_rows, block_cols)  # validates the tiling args
        if not len(counts):
            return Counter()
        # The area map is GridWorld.area_of_batch over every cell, the
        # integer map the full scan's LocationMonitor applies; bincount sums
        # integer weights exactly (far below 2**53), so the Counter equals
        # the full scan bitwise.
        areas = self._area_map(block_rows, block_cols)
        try:
            codes = areas[src] * n_areas + areas[dst]
        except IndexError:
            raise ValidationError(
                f"cell id out of range in flow_matrix: the store holds cells "
                f"beyond this {world.n_cells}-cell world; pass the run's world"
            ) from None
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
        k = _integer("k", k)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        cells, counts = self._rows("counts", kind, window).T
        totals = np.bincount(cells, weights=counts).astype(np.int64)
        busy = np.flatnonzero(totals)
        ranked = busy[np.lexsort((busy, -totals[busy]))][:k]
        return list(zip(ranked.tolist(), totals[ranked].tolist()))

    def epsilon_spent(self, user: int, window: Window) -> float:
        """One user's epsilon expenditure over the window, ledger-exact.

        A clustered primary-key range read of that user's rows (times
        ascending), summed by :func:`~repro.core.accounting.running_total` —
        the accumulation the live server's ledger charges by, so the value
        is bit-identical to both the full-scan reference and the server's
        own in-window total.  A stored epsilon that is not a finite number
        >= 0 raises :class:`~repro.errors.ValidationError`.
        """
        user = _integer("user", user)
        self._check_coverage(window.end)
        rows = self.store.connection.execute(
            "SELECT epsilon FROM releases "
            "WHERE user = ? AND time BETWEEN ? AND ? ORDER BY time",
            (user, window.start, window.end),
        ).fetchall()
        return running_total(epsilon for (epsilon,) in rows)

    def trajectory(self, user: int, window: Window | None = None) -> "list[CheckIn]":
        """One user's released check-ins over the window, times ascending.

        ``releases`` is clustered on ``(user, time)``, so this is one
        contiguous primary-key range scan (the whole history when
        ``window`` is ``None``).
        """
        from repro.mobility.trajectory import CheckIn

        user = _integer("user", user)
        if window is None:
            # The whole history, checked through its last round.  Reading
            # the rows before the marks is safe here: a commit carries each
            # user's whole trace, so rows that are visible are all of them.
            rows = self.store.connection.execute(
                "SELECT time, cell FROM releases WHERE user = ? ORDER BY time", (user,)
            ).fetchall()
            if not rows:
                return []
            self._check_coverage(rows[-1][0])
        else:
            self._check_coverage(window.end)
            rows = self.store.connection.execute(
                "SELECT time, cell FROM releases "
                "WHERE user = ? AND time BETWEEN ? AND ? ORDER BY time",
                (user, window.start, window.end),
            ).fetchall()
        return [CheckIn(time=int(time), user=user, cell=int(cell)) for time, cell in rows]

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
