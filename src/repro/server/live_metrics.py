"""Live incremental metric maintenance on the ingest path (HTAP views).

The repo splits a transactional release path (shard commits through
:meth:`~repro.server.pipeline.Server.ingest_shard`) from an analytical eval
path (the E1–E12 runners) — but until now analytics recomputed from scratch
after ingestion finished.  Polynesia's HTAP argument (PAPERS.md) is that
updates should propagate into analytical state in memory, with consistency
snapshots, instead of re-scanning the population per query.  This module is
that propagation layer: every committed shard is folded — through the exact
associative merge algebra of
:class:`~repro.engine.distributed.MetricShardResult` — into running E1
(monitoring utility), E2 (contact rate / R0) and E11 (flow matrix)
aggregates, while commits continue.

Snapshot semantics
------------------
``metrics_at(round=r)`` is **cumulative**: it covers every committed release
row with ``time <= r``, exactly what a batch evaluator scoring the prefix
trace would see.  The registry keeps, per view, one *delta*
:class:`MetricShardResult` per ``(shard, round)`` — computed once, at commit
time, from that shard's rows — and freezes a round's snapshot as soon as
every shard expected at (or before) the round has committed.  Frozen
snapshots form a per-round version chain; a query is one dictionary lookup,
O(1) in the population, safe to call concurrently with in-flight commits.
Querying a round whose coverage is still incomplete raises
:class:`~repro.errors.SnapshotUnavailableError` — a half-folded value would
break the bit-identity contract below — naming the shards still missing.

Bit-identity contract
---------------------
Every frozen live value equals :func:`batch_recompute` — one from-scratch
pass over the full raw rows — **bitwise**, at every round, for every shard
count, execution backend, commit arrival order, and across a
kill-and-resume.  Three properties make this hold:

* deltas are pure functions of a shard's rows: the per-row terms are taken
  after a ``(time, user)`` lexsort, and the occupancy and transition counts
  come from the commit's :class:`~repro.store.accelerator.ShardDelta` (the
  same increments the store appends as a segment), so arrival layout (user-major from a
  live worker, time-major from a store replay) cannot leak into the value;
* all folding happens in one canonical order — rounds ascending, shards
  ascending within a round, users ascending within a shard — regardless of
  the order commits *arrive* in, so the per-key arrays reassemble the
  identical global array every time (``np.sum`` is pairwise; order is part
  of the bit pattern);
* the count-valued components (flow counters, epoch-keyed occupancy) and
  set-valued components merge by integer addition / disjoint union, which
  no ordering can perturb at all.

``tests/test_live_metrics.py`` pins the matrix; ``docs/live_metrics.md``
documents the contract.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Iterator, Mapping, Sequence

import numpy as np

from repro.engine.distributed import MetricShardResult
from repro.engine.sharding import shard_tasks
from repro.epidemic.analysis import pair_events
from repro.epidemic.monitor import LocationMonitor, MonitoringReport, _flow_l1_error
from repro.errors import DataError, SnapshotUnavailableError, ValidationError
from repro.geo.grid import GridWorld
from repro.store.accelerator import KIND_OBSERVED, KIND_TRUE, ShardDelta
from repro.utils.validation import check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.engine.sharding import ShardPlan
    from repro.mobility.trajectory import TraceDB

__all__ = [
    "ContactRateView",
    "ContactSnapshot",
    "FlowMatrixView",
    "FlowSnapshot",
    "LiveMetricRegistry",
    "LiveMetricView",
    "MonitoringUtilityView",
    "ShardRows",
    "batch_recompute",
    "default_views",
    "expected_coverage",
    "missing_shards",
]


@dataclass(frozen=True, eq=False)
class ShardRows:
    """One shard's committed rows in canonical ``(time, user)`` order.

    The single input shape every view folds from: build it with
    :meth:`build` from whatever layout the commit path has (user-major from
    a live worker, time-major from a store replay) and the fold sees the
    identical canonical layout either way — the first leg of the
    bit-identity contract.

    ``true_cells`` are the ground-truth cells (the shard streaming
    contract's ``batch.cells``); ``snapped_cells`` the server-side snapped
    view; ``points`` the released coordinates.
    """

    users: np.ndarray
    times: np.ndarray
    points: np.ndarray
    true_cells: np.ndarray
    snapped_cells: np.ndarray

    @classmethod
    def build(cls, users, times, points, true_cells, snapped_cells) -> "ShardRows":
        users = np.asarray(users, dtype=int)
        times = np.asarray(times, dtype=int)
        points = np.asarray(points, dtype=float)
        true_cells = np.asarray(true_cells, dtype=int)
        snapped_cells = np.asarray(snapped_cells, dtype=int)
        n = len(users)
        if n == 0:
            raise DataError("shard has no rows to fold")
        if (
            len(times) != n
            or points.shape != (n, 2)
            or len(true_cells) != n
            or len(snapped_cells) != n
        ):
            raise DataError(
                f"shard rows are misaligned: {n} users, {len(times)} times, "
                f"points {points.shape}, {len(true_cells)} true cells, "
                f"{len(snapped_cells)} snapped cells"
            )
        order = np.lexsort((users, times))
        users = users[order]
        times = times[order]
        if n > 1 and bool(np.any((times[1:] == times[:-1]) & (users[1:] == users[:-1]))):
            raise DataError("shard rows contain duplicate (user, time) keys")
        return cls(
            users=users,
            times=times,
            points=points[order],
            true_cells=true_cells[order],
            snapped_cells=snapped_cells[order],
        )

    def __len__(self) -> int:
        return len(self.users)

    def round_slices(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(round, start, stop)`` per distinct time, ascending.

        Rows are time-major, so every round is one contiguous slice whose
        users are ascending — the canonical within-shard key order.
        """
        round_times, starts = np.unique(self.times, return_index=True)
        bounds = list(starts) + [len(self.times)]
        for index, time in enumerate(round_times):
            yield int(time), int(bounds[index]), int(bounds[index + 1])


def _of_kind(table: np.ndarray, kind: int) -> np.ndarray:
    """The rows of one :class:`ShardDelta` table whose ``kind`` column is ``kind``."""
    return table[table[:, 0] == kind]


def _occupancy_by_round(delta: ShardDelta, kind: int) -> dict[int, Counter]:
    """``round -> {(round, cell): head count}`` from the delta's cell counts."""
    out: dict[int, Counter] = defaultdict(Counter)
    for _, time, cell, count in _of_kind(delta.cell_counts, kind).tolist():
        out[time][(time, cell)] = count
    return out


def _area_flows_by_round(
    monitor: LocationMonitor, delta: ShardDelta, kind: int
) -> dict[int, Counter]:
    """``round -> {(src area, dst area): n}`` regrouped from the delta's cell flows.

    Each cell-level ``(t-1, t)`` transition count is keyed by destination
    round ``t``; mapping both cells to areas and summing is integer
    arithmetic, so the result equals pairing the rows per user directly.
    The E1 and E11 views share it.
    """
    flows = _of_kind(delta.flows, kind)
    if not len(flows):
        return {}
    n_areas = monitor.n_areas
    codes = (
        flows[:, 1] * n_areas + monitor.area_of_batch(flows[:, 2])
    ) * n_areas + monitor.area_of_batch(flows[:, 3])
    uniques, inverse = np.unique(codes, return_inverse=True)
    totals = np.zeros(len(uniques), dtype=np.int64)
    np.add.at(totals, inverse, flows[:, 4])
    out: dict[int, Counter] = defaultdict(Counter)
    for code, count in zip(uniques.tolist(), totals.tolist()):
        time, pair = divmod(code, n_areas * n_areas)
        out[time][divmod(pair, n_areas)] = count
    return out


def _area_flows(monitor: LocationMonitor, delta: ShardDelta) -> dict[str, dict[int, Counter]]:
    """The ``true`` / ``observed`` flow components of both flow views."""
    return {
        "true": _area_flows_by_round(monitor, delta, KIND_TRUE),
        "observed": _area_flows_by_round(monitor, delta, KIND_OBSERVED),
    }


def _per_round(
    rows: ShardRows,
    flows: Mapping[str, Mapping[int, Counter]],
    sums: Mapping[str, np.ndarray] = MappingProxyType({}),
) -> dict[int, MetricShardResult]:
    """One partial per round of ``rows``.

    Per-row ``sums`` are sliced to the round's rows; each ``flows``
    component is its ``round -> Counter`` entry (empty when the round has
    none).
    """
    return {
        time: MetricShardResult(
            sums={name: values[start:stop] for name, values in sums.items()},
            counts=np.ones(stop - start, dtype=int),
            flows={name: by_round.get(time, Counter()) for name, by_round in flows.items()},
        )
        for time, start, stop in rows.round_slices()
    }


class LiveMetricView:
    """One incrementally maintained metric: delta fold plus finalizer.

    Subclasses implement :meth:`shard_deltas` (pure function of one shard's
    canonical rows and its commit :class:`~repro.store.accelerator.ShardDelta`,
    one exact-mergeable delta per round) and :meth:`finalize` (cumulative
    partial -> the metric's value object).
    The registry owns ordering, freezing, and snapshot bookkeeping, so a
    view never sees commit concurrency.
    """

    name: str

    def empty(self) -> MetricShardResult:
        """The merge identity carrying this view's component names."""
        raise NotImplementedError

    def shard_deltas(self, rows: ShardRows, delta: ShardDelta) -> dict[int, MetricShardResult]:
        """Per-round delta partials for one shard's rows (keyed by round).

        ``delta`` is the shard's commit delta, built from the same rows; a
        view reads occupancy and transitions from it instead of counting
        them again.
        """
        raise NotImplementedError

    def finalize(self, partial: MetricShardResult):
        """The metric value of a cumulative partial (pure, deterministic)."""
        raise NotImplementedError


class MonitoringUtilityView(LiveMetricView):
    """E1 live: mean Euclidean error, area accuracy, flow L1 error.

    Per-row error and area-hit contributions ride the per-key partial-sum
    kind (each key is one release, so no intra-key float addition exists at
    all — the only reduction is the final ``np.sum`` over the canonical
    array); inter-area flows ride the Counter kind, regrouped from the
    commit delta's cell flows, each ``(t-1, t)`` transition assigned to the
    destination round's delta so the cumulative fold at round ``r`` counts
    exactly the transitions a prefix trace holds.
    """

    def __init__(
        self,
        world: GridWorld,
        block_rows: int = 4,
        block_cols: int = 4,
        name: str = "monitoring",
    ) -> None:
        self.world = world
        self.monitor = LocationMonitor(world, block_rows, block_cols)
        self.name = str(name)

    def empty(self) -> MetricShardResult:
        return MetricShardResult.empty(("error", "area_hits"), ("true", "observed"))

    def shard_deltas(self, rows: ShardRows, delta: ShardDelta) -> dict[int, MetricShardResult]:
        monitor = self.monitor
        centres = self.world.coords_array(rows.true_cells)
        errors = np.hypot(
            rows.points[:, 0] - centres[:, 0], rows.points[:, 1] - centres[:, 1]
        )
        hits = (
            monitor.area_of_batch(rows.snapped_cells)
            == monitor.area_of_batch(rows.true_cells)
        ).astype(float)
        return _per_round(
            rows, _area_flows(monitor, delta), sums={"error": errors, "area_hits": hits}
        )

    def finalize(self, partial: MetricShardResult) -> MonitoringReport:
        return MonitoringReport(
            mean_euclidean_error=partial.weighted_mean("error"),
            area_accuracy=partial.weighted_mean("area_hits"),
            flow_l1_error=_flow_l1_error(partial.flows["true"], partial.flows["observed"]),
            n_releases=partial.n_releases,
        )


@dataclass(frozen=True)
class ContactSnapshot:
    """E2 live value: contact rates and R0 on the true vs released trace."""

    true_contact_rate: float
    observed_contact_rate: float
    r0_true: float
    r0_observed: float
    n_observations: int


class ContactRateView(LiveMetricView):
    """E2 live: epoch-keyed occupancy counters -> contact rate and R0.

    The per-round delta is a pair of ``(time, cell) -> head count``
    occupancy counters (true cells and snapped cells), read from the commit
    delta's cell counts; merging is integer
    Counter addition, so no ordering can perturb it.  The finalizer runs the
    same estimator as :func:`repro.epidemic.analysis.contact_rate`:
    ``2 * pair_events / observations``, then ``R0 = p * c / gamma`` — the
    arithmetic is integers plus one identical float expression, which is
    why the live value equals the batch estimator on the prefix trace
    bitwise, not just approximately.
    """

    def __init__(
        self,
        p_transmit: float = 0.3,
        gamma: float = 0.1,
        name: str = "contacts",
    ) -> None:
        self.p_transmit = check_probability("p_transmit", p_transmit)
        self.gamma = check_positive("gamma", gamma)
        self.name = str(name)

    def empty(self) -> MetricShardResult:
        return MetricShardResult.empty((), ("true_occupancy", "perturbed_occupancy"))

    def shard_deltas(self, rows: ShardRows, delta: ShardDelta) -> dict[int, MetricShardResult]:
        return _per_round(
            rows,
            {
                "true_occupancy": _occupancy_by_round(delta, KIND_TRUE),
                "perturbed_occupancy": _occupancy_by_round(delta, KIND_OBSERVED),
            },
        )

    def finalize(self, partial: MetricShardResult) -> ContactSnapshot:
        observations = partial.n_releases
        if observations == 0:
            raise DataError("window contains no observations")
        true_rate = 2.0 * pair_events(partial.flows["true_occupancy"]) / observations
        observed_rate = (
            2.0 * pair_events(partial.flows["perturbed_occupancy"]) / observations
        )
        return ContactSnapshot(
            true_contact_rate=true_rate,
            observed_contact_rate=observed_rate,
            r0_true=self.p_transmit * true_rate / self.gamma,
            r0_observed=self.p_transmit * observed_rate / self.gamma,
            n_observations=observations,
        )


@dataclass(frozen=True)
class FlowSnapshot:
    """E11 live value: true vs observed inter-area flow matrices.

    Exactly the ``(true_flows, observed_flows)`` pair
    :func:`repro.epidemic.monitor.perturbed_flows` produces for the
    metapopulation forecast — feed either counter to
    :func:`repro.epidemic.metapop.forecast_from_flows` unchanged.
    """

    true_flows: Counter
    observed_flows: Counter


class FlowMatrixView(LiveMetricView):
    """E11 live: the metapop pipeline's flow matrices at their own tiling."""

    def __init__(
        self,
        world: GridWorld,
        block_rows: int = 4,
        block_cols: int = 4,
        name: str = "flows",
    ) -> None:
        self.monitor = LocationMonitor(world, block_rows, block_cols)
        self.name = str(name)

    def empty(self) -> MetricShardResult:
        return MetricShardResult.empty((), ("true", "observed"))

    def shard_deltas(self, rows: ShardRows, delta: ShardDelta) -> dict[int, MetricShardResult]:
        return _per_round(rows, _area_flows(self.monitor, delta))

    def finalize(self, partial: MetricShardResult) -> FlowSnapshot:
        return FlowSnapshot(
            true_flows=Counter(partial.flows["true"]),
            observed_flows=Counter(partial.flows["observed"]),
        )


def default_views(
    world: GridWorld,
    block_rows: int = 4,
    block_cols: int = 4,
    p_transmit: float = 0.3,
    gamma: float = 0.1,
) -> list[LiveMetricView]:
    """The standard E1 + E2 + E11 view set over one coarse-area tiling."""
    return [
        MonitoringUtilityView(world, block_rows, block_cols),
        ContactRateView(p_transmit=p_transmit, gamma=gamma),
        FlowMatrixView(world, block_rows, block_cols),
    ]


def expected_coverage(plan: "ShardPlan", true_db: "TraceDB") -> dict[int, frozenset[int]]:
    """``shard -> rounds`` a run over ``(plan, true_db)`` will commit.

    The registry's freeze schedule: a round's snapshot freezes once every
    shard listed for it (or for any earlier round) has committed.  Shards
    with no check-ins are omitted — they never stream a commit.
    """
    # One task per non-empty shard, in iter_shards order.
    tasks = shard_tasks(None, true_db, plan)
    return {
        shard: frozenset(np.unique(task.times).tolist())
        for (shard, _, _), task in zip(plan.iter_shards(), tasks)
        if len(task.times)
    }


def missing_shards(
    expected: Mapping[int, AbstractSet[int]],
    committed: AbstractSet[tuple[int, int]],
    upto: int,
) -> list[int]:
    """Shards still owed a commit at any round ``<= upto`` (sorted).

    The one coverage rule: a round is complete once every ``(shard, round)``
    pair ``expected`` (:func:`expected_coverage`) lists at or before it is in
    ``committed``.  Live snapshots freeze by it, the query engine refuses
    windows by it, and a resumed run replays exactly the shards it leaves
    out.
    """
    upto = int(upto)
    return sorted(
        {
            shard
            for shard, rounds in expected.items()
            for time in rounds
            if time <= upto and (shard, time) not in committed
        }
    )


class LiveMetricRegistry:
    """Per-round version chain of frozen metric partials, fed at commit time.

    Parameters
    ----------
    views:
        The :class:`LiveMetricView` instances to maintain (unique names).
    expected:
        ``shard -> rounds`` coverage (see :func:`expected_coverage`).  This
        is the freeze schedule *and* a validation oracle: every
        :meth:`ingest` must present exactly its shard's expected rounds, and
        a round freezes when :func:`missing_shards` finds no shard owed at
        or before it.

    Concurrency
    -----------
    :meth:`ingest` runs under the registry lock (commit paths are already
    serialized by the server's ingest lock).  :meth:`at` on a frozen round
    is a lock-free dictionary lookup against immutable published values —
    O(1) in the population and safe during in-flight commits, which is the
    Polynesia-style snapshot read the module docstring describes.
    """

    def __init__(
        self,
        views: Sequence[LiveMetricView],
        expected: Mapping[int, AbstractSet[int]],
    ) -> None:
        views = list(views)
        if not views:
            raise ValidationError("need at least one live metric view")
        names = [view.name for view in views]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate live metric view names: {sorted(names)}")
        self._views = tuple(views)
        self._expected = {
            int(shard): frozenset(int(time) for time in rounds)
            for shard, rounds in expected.items()
            if rounds
        }
        if not self._expected:
            raise ValidationError("expected coverage is empty; nothing to maintain")
        self._rounds: tuple[int, ...] = tuple(
            sorted({time for rounds in self._expected.values() for time in rounds})
        )
        #: round -> shard -> view name -> delta partial (dropped once frozen)
        self._pending: dict[int, dict[int, dict[str, MetricShardResult]]] = {
            time: {} for time in self._rounds
        }
        #: (shard, round) pairs folded so far (a shard folds all its rounds)
        self._committed: set[tuple[int, int]] = set()
        self._frontier = 0  # index into self._rounds of the next round to freeze
        self._partials: dict[int, Mapping[str, MetricShardResult]] = {}
        self._values: dict[int, Mapping[str, object]] = {}
        self._chain: dict[str, MetricShardResult] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def views(self) -> tuple[LiveMetricView, ...]:
        return self._views

    @property
    def rounds(self) -> tuple[int, ...]:
        """Every round the run will produce, ascending."""
        return self._rounds

    @property
    def frozen_rounds(self) -> tuple[int, ...]:
        """Rounds whose snapshots are already published, ascending."""
        return self._rounds[: self._frontier]

    @property
    def expected(self) -> Mapping[int, frozenset[int]]:
        return MappingProxyType(self._expected)

    # ------------------------------------------------------------------
    def ingest(
        self, shard: int, users, times, points, true_cells, snapped_cells, delta: ShardDelta
    ) -> None:
        """Fold one committed shard's rows into the live state.

        Pure O(shard rows) work: per-view deltas are computed once here and
        any rounds the commit completes are frozen immediately, so query
        cost never depends on the population.  ``delta`` is the commit's
        :class:`~repro.store.accelerator.ShardDelta` (what
        :meth:`TraceStore.commit_shard
        <repro.store.store.TraceStore.commit_shard>` returns, or
        :meth:`ShardDelta.build <repro.store.accelerator.ShardDelta.build>`
        over the same rows for a server without a store).  The shard must
        be expected, not yet folded, and must present exactly its expected
        rounds — anything else is a :class:`~repro.errors.DataError` (a
        silent mismatch would surface later as an inexplicable non-frozen
        round).
        """
        shard = int(shard)
        owned = self._expected.get(shard)
        if owned is None:
            raise DataError(f"shard {shard} is not in the expected coverage")
        rows = ShardRows.build(users, times, points, true_cells, snapped_cells)
        observed = frozenset(int(time) for time in np.unique(rows.times))
        if observed != owned:
            raise DataError(
                f"shard {shard} committed rounds {sorted(observed)} but the "
                f"coverage expects {sorted(owned)}"
            )
        with self._lock:
            if (shard, min(owned)) in self._committed:
                raise DataError(f"shard {shard} was already folded into the live state")
            deltas = {view.name: view.shard_deltas(rows, delta) for view in self._views}
            self._committed.update((shard, time) for time in owned)
            for name, per_round in deltas.items():
                for time, delta in per_round.items():
                    self._pending[time].setdefault(shard, {})[name] = delta
            self._advance()

    def _advance(self) -> None:
        """Freeze every newly complete round at the frontier (in order).

        Rounds freeze strictly ascending because snapshot ``r`` chains off
        snapshot ``r-1`` — that chaining is what makes the canonical fold
        order (rounds, then shards, then users) independent of commit
        arrival order.
        """
        while self._frontier < len(self._rounds):
            time = self._rounds[self._frontier]
            if missing_shards(self._expected, self._committed, time):
                return
            per_shard = self._pending.pop(time)
            partials: dict[str, MetricShardResult] = {}
            for view in self._views:
                round_delta = MetricShardResult.fold(
                    [per_shard[shard][view.name] for shard in sorted(per_shard)]
                )
                chained = (
                    self._chain[view.name].merge(round_delta)
                    if view.name in self._chain
                    else round_delta
                )
                self._chain[view.name] = chained
                partials[view.name] = chained.freeze()
            self._partials[time] = MappingProxyType(partials)
            self._values[time] = MappingProxyType(
                {view.name: view.finalize(partials[view.name]) for view in self._views}
            )
            self._frontier += 1

    # ------------------------------------------------------------------
    def _unavailable(self, time: int) -> SnapshotUnavailableError:
        if time not in self._rounds:
            return ValidationError(  # type: ignore[return-value]
                f"round {time} is not part of this run's coverage "
                f"(rounds {list(self._rounds)})"
            )
        with self._lock:
            missing = missing_shards(self._expected, self._committed, time)
        return SnapshotUnavailableError(
            f"round {time} snapshot is not frozen yet: waiting on shard "
            f"commit(s) {missing} (frozen through "
            f"{self._rounds[self._frontier - 1] if self._frontier else 'nothing'})"
        )

    def at(self, round: int) -> Mapping[str, object]:
        """Snapshot-consistent metric values covering all rows ≤ ``round``.

        Lock-free O(1) lookup of the frozen value map (``view name ->
        value``).  Raises :class:`~repro.errors.SnapshotUnavailableError`
        while any shard owning rows at or before ``round`` is uncommitted,
        and :class:`~repro.errors.ValidationError` for a round the run will
        never produce.
        """
        time = int(round)
        values = self._values.get(time)
        if values is not None:
            return values
        raise self._unavailable(time)

    def partials_at(self, round: int) -> Mapping[str, MetricShardResult]:
        """The frozen cumulative partials behind :meth:`at` (same rules)."""
        time = int(round)
        partials = self._partials.get(time)
        if partials is not None:
            return partials
        raise self._unavailable(time)

    def __repr__(self) -> str:
        return (
            f"LiveMetricRegistry(views={[view.name for view in self._views]}, "
            f"rounds={len(self._rounds)}, frozen={self._frontier}, "
            f"shards={len({shard for shard, _ in self._committed})}/{len(self._expected)})"
        )


def batch_recompute(
    views: Sequence[LiveMetricView],
    plan: "ShardPlan",
    users,
    times,
    points,
    true_cells,
    snapped_cells,
    upto: int | None = None,
) -> dict[int, dict[str, object]]:
    """The O(population) reference the live values are bit-identical to.

    One from-scratch pass over the full raw rows: group rows by the plan's
    shards, build every per-round delta, fold them in the canonical order
    (rounds ascending, shards ascending, users ascending), and finalize
    each cumulative prefix.  Returns ``round -> {view name -> value}`` for
    every round ≤ ``upto`` (all rounds when ``None``).

    No incremental state is consulted — this is what E21 times against the
    registry's O(1) lookups, and what the determinism matrix compares
    snapshots to.
    """
    views = list(views)
    if not views:
        raise ValidationError("need at least one live metric view")
    users = np.asarray(users, dtype=int)
    times = np.asarray(times, dtype=int)
    points = np.asarray(points, dtype=float)
    true_cells = np.asarray(true_cells, dtype=int)
    snapped_cells = np.asarray(snapped_cells, dtype=int)

    #: view name -> round -> shard -> delta
    deltas: dict[str, dict[int, dict[int, MetricShardResult]]] = {
        view.name: {} for view in views
    }
    for shard, shard_users, _ in plan.iter_shards():
        mask = (users >= shard_users[0]) & (users <= shard_users[-1])
        if not bool(mask.any()):
            continue
        rows = ShardRows.build(
            users[mask], times[mask], points[mask], true_cells[mask], snapped_cells[mask]
        )
        delta = ShardDelta.build(rows.users, rows.times, rows.snapped_cells, rows.true_cells)
        for view in views:
            for time, partial in view.shard_deltas(rows, delta).items():
                deltas[view.name].setdefault(time, {})[shard] = partial

    rounds = sorted({time for per_view in deltas.values() for time in per_view})
    chain: dict[str, MetricShardResult] = {}
    out: dict[int, dict[str, object]] = {}
    for time in rounds:
        if upto is not None and time > int(upto):
            break
        values: dict[str, object] = {}
        for view in views:
            per_shard = deltas[view.name][time]
            round_delta = MetricShardResult.fold(
                [per_shard[shard] for shard in sorted(per_shard)]
            )
            chain[view.name] = (
                chain[view.name].merge(round_delta)
                if view.name in chain
                else round_delta
            )
            values[view.name] = view.finalize(chain[view.name])
        out[time] = values
    return out
