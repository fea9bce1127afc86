"""Client / untrusted-server release pipeline (Fig. 1).

``Client`` owns a true-location stream, a local rolling database, a consented
policy and a mechanism; ``Server`` accumulates snapped releases and pushes
policy updates.  :func:`run_release_rounds` drives a whole population through
a time window — the loop every experiment's "server view" comes from.

For throughput work there is a second, population-level path:
:func:`run_release_rounds_batched` releases every user's location for a
timestep in *one* :meth:`~repro.engine.PrivacyEngine.release_batch` call and
ingests the whole round via :meth:`Server.ingest_batch`.  It models the
server-side aggregate view (no per-user ``Client`` objects), which is what
the monitoring / analysis apps consume at scale.

The batched path also scales *across users*: pass ``shards=`` / ``backend=``
(or build the engine from a spec carrying an
:class:`~repro.engine.specs.ExecutionSpec`) and the population is split by a
deterministic :class:`~repro.engine.sharding.ShardPlan` whose per-user RNG
streams make the output invariant under shard count and execution backend —
a k-shard multiprocess run reproduces the 1-shard run, which itself
reproduces the per-client reference :func:`run_release_rounds`.  Sharded
runs ingest *streamingly*: each shard's releases are committed via
:meth:`Server.ingest_shard` as the shard completes, on the thread that
drains :func:`~repro.engine.sharding.stream_shard_releases`, rather than
waiting on a full population merge.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms.base import Mechanism, Release, ReleaseBatch
from repro.core.workspace import RoundWorkspace
from repro.core.policy_graph import PolicyGraph
from repro.errors import DataError, PolicyError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.server.localdb import LocalLocationDB
from repro.store.accelerator import ShardDelta
from repro.utils.rng import ensure_rng, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports core)
    from repro.engine import PrivacyEngine

__all__ = [
    "Client",
    "Server",
    "run_release_rounds",
    "run_release_rounds_batched",
]

MechanismFactory = Callable[[GridWorld, PolicyGraph, float], Mechanism]


class Client:
    """A user's device: local DB, consented policy, PGLP mechanism.

    Parameters
    ----------
    user:
        User id.
    world:
        Shared location universe.
    mechanism_factory:
        Builds the PGLP mechanism for whatever policy is currently consented.
    epsilon:
        Per-release budget.
    policy:
        Initially consented policy graph.
    window:
        Local retention window (the paper's two weeks).
    """

    def __init__(
        self,
        user: int,
        world: GridWorld,
        mechanism_factory: MechanismFactory,
        epsilon: float,
        policy: PolicyGraph,
        window: int = 14 * 24,
        rng=None,
    ) -> None:
        self.user = int(user)
        self.world = world
        self.mechanism_factory = mechanism_factory
        self.epsilon = float(epsilon)
        self.local_db = LocalLocationDB(window=window)
        self.rng = ensure_rng(rng)
        self._policy: PolicyGraph | None = None
        self._mechanism: Mechanism | None = None
        self.accept_policy(policy)

    # ------------------------------------------------------------------
    @property
    def policy(self) -> PolicyGraph:
        if self._policy is None:
            raise PolicyError(f"client {self.user} has no consented policy")
        return self._policy

    @property
    def mechanism(self) -> Mechanism:
        if self._mechanism is None:
            raise PolicyError(f"client {self.user} has no consented policy")
        return self._mechanism

    def accept_policy(self, policy: PolicyGraph) -> None:
        """Consent to ``policy`` and rebuild the mechanism."""
        self._policy = policy
        self._mechanism = self.mechanism_factory(self.world, policy, self.epsilon)

    def reject_policy(self) -> None:
        """Withdraw consent: no further locations are released."""
        self._policy = None
        self._mechanism = None

    # ------------------------------------------------------------------
    def observe(self, time: int, cell: int) -> None:
        """Record the true location locally (never leaves the device raw)."""
        self.local_db.record(time, self.world.check_cell(cell))

    def release(self, time: int) -> Release:
        """Perturb and share the location observed at ``time``."""
        cell = self.local_db.location_at(time)
        if cell is None:
            raise DataError(f"client {self.user} has no observation at time {time}")
        return self.mechanism.release(cell, rng=self.rng)

    def resend_history(self, policy: PolicyGraph, start: int, end: int) -> list[tuple[int, Release]]:
        """Re-release the stored window under an updated (tracing) policy."""
        self.accept_policy(policy)
        return [
            (time, self.mechanism.release(cell, rng=self.rng))
            for time, cell in self.local_db.history(start=start, end=end)
        ]


class Server:
    """The semi-honest collector: snapped releases plus a budget ledger.

    Parameters
    ----------
    world:
        The snapping grid shared with the clients.
    ledger:
        Budget ledger (a fresh uncapped one by default).
    store:
        Optional :class:`~repro.store.TraceStore`.  When set, every
        :meth:`ingest_shard` call durably commits the shard — release rows
        plus its ``(shard, round)`` recovery marks — in one SQLite
        transaction *before* touching in-memory state, so a crash at any
        point leaves only whole shards behind (the resume contract of
        ``docs/persistence.md``).
    out_of_core:
        Requires ``store``.  The released trace then lives *only* on disk:
        ``released_db`` becomes a read-only
        :class:`~repro.store.StoredTraceDB` view and shard ingestion skips
        the in-memory mirror, bounding server RSS by the largest single
        shard instead of the population.
    """

    def __init__(
        self,
        world: GridWorld,
        ledger: BudgetLedger | None = None,
        store=None,
        out_of_core: bool = False,
    ) -> None:
        self.world = world
        self.store = store
        self.out_of_core = bool(out_of_core)
        if self.out_of_core:
            if store is None:
                raise ValidationError("out_of_core=True requires a TraceStore")
            from repro.store.outofcore import StoredTraceDB

            self.released_db = StoredTraceDB(store)
        else:
            self.released_db = TraceDB()
        self.ledger = ledger if ledger is not None else BudgetLedger()
        # Serializes the commit/mutate section of ingest_shard, which any
        # number of caller threads may enter at once: the store's single
        # SQLite connection must not interleave transactions, and
        # TraceDB/BudgetLedger bookkeeping is not atomic under free
        # threading.  Snapping and lexsort stay outside the lock.
        self._ingest_lock = threading.Lock()
        self._metrics = None

    # ------------------------------------------------------------------
    # Live metric views (HTAP incremental analytics)
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """The attached :class:`~repro.server.live_metrics.LiveMetricRegistry`, if any."""
        return self._metrics

    def attach_metrics(self, views, expected):
        """Maintain ``views`` live from this server's shard commit path.

        Every subsequent :meth:`ingest_shard` folds its shard into a
        :class:`~repro.server.live_metrics.LiveMetricRegistry` built over
        ``expected`` (``shard -> rounds``, see
        :func:`~repro.server.live_metrics.expected_coverage`).  Read the
        live values with :meth:`metrics_at`.

        Live views ride the *sharded* ingest path: attaching makes the
        ``shard=`` argument to :meth:`ingest_shard` mandatory (it keys the
        registry's deltas, exactly like the store's commit marks) and makes
        :meth:`ingest_batch` refuse — the round-major path carries no shard
        identity to fold under.

        Returns the registry.  Attaching twice is a
        :class:`~repro.errors.ValidationError`: the first registry's folded
        state would be silently lost.
        """
        from repro.server.live_metrics import LiveMetricRegistry

        if self._metrics is not None:
            raise ValidationError("live metric views are already attached to this server")
        self._metrics = LiveMetricRegistry(views, expected)
        return self._metrics

    def metrics_at(self, round: int):
        """Snapshot-consistent live metric values covering rows ≤ ``round``.

        Delegates to :meth:`LiveMetricRegistry.at
        <repro.server.live_metrics.LiveMetricRegistry.at>`: a lock-free
        O(1) lookup of the frozen per-round value map, safe to call while
        commits are in flight.  Raises
        :class:`~repro.errors.SnapshotUnavailableError` for a round whose
        coverage has not fully committed yet.
        """
        if self._metrics is None:
            raise ValidationError(
                "no live metric views attached; call attach_metrics() first"
            )
        return self._metrics.at(round)

    def ingest(self, user: int, time: int, release: Release, purpose: str = "stream") -> int:
        """Store one release; returns the snapped cell recorded server-side."""
        cell = self.world.snap(release.point)
        # Charge first: a capped ledger's refusal must leave no trace row.
        self.ledger.charge(user, time, release.epsilon, purpose=purpose)
        self.released_db.record(user, time, cell)
        return cell

    def ingest_batch(
        self,
        users: Sequence[int],
        time: int,
        batch: ReleaseBatch,
        purpose: str = "stream",
        snapped=None,
    ):
        """Store a whole release round in bulk.

        Parameters
        ----------
        users:
            One user id per batch row: ``batch[i]`` is user ``users[i]``'s
            release at ``time``.
        time:
            The round's timestep.
        batch:
            The round's releases (``len(batch) == len(users)``, else
            :class:`~repro.errors.DataError`).
        purpose:
            Ledger purpose tag (defaults to the streaming feed).
        snapped:
            Optional precomputed snapped cells for the batch (one per row) —
            the fused pipeline already snapped during
            :meth:`~repro.engine.PrivacyEngine.release_round_fused`, so
            passing ``FusedRound.snapped`` here skips a second
            :meth:`~repro.geo.grid.GridWorld.snap_batch` pass.  Snapping is
            deterministic, so supplying it never changes recorded state.

        Returns
        -------
        numpy.ndarray
            The snapped cell per row.  Snapping is vectorized; recorded
            trace rows and budget charges are identical to what per-row
            scalar :meth:`ingest` calls would have produced.  A round with
            an invalid epsilon, or one that would exceed a capped ledger,
            raises before any row is written.
        """
        if self._metrics is not None:
            raise DataError(
                "live metric views ride the sharded ingest path "
                "(ingest_shard with shard=); ingest_batch carries no shard "
                "identity to fold under"
            )
        if len(users) != len(batch):
            raise DataError(
                f"batch of {len(batch)} releases does not match {len(users)} users"
            )
        if snapped is None:
            cells = self.world.snap_batch(batch.points)
        else:
            cells = np.asarray(snapped)
            if cells.shape != (len(batch),):
                raise DataError(
                    f"snapped cells of shape {cells.shape} do not match "
                    f"batch of {len(batch)} releases"
                )
        # Refuse an invalid or over-budget round before anything is written.
        self.ledger.check_many(users, batch.epsilons)
        for user, cell, epsilon in zip(users, cells, batch.epsilons):
            self.released_db.record(int(user), time, int(cell))
            self.ledger.charge(int(user), time, float(epsilon), purpose=purpose)
        return cells

    def ingest_shard(
        self,
        users,
        times,
        batch: ReleaseBatch,
        purpose: str = "stream",
        shard: int | None = None,
    ):
        """Stream one population shard's releases into the server.

        The streaming counterpart of :meth:`ingest_batch`: where that method
        takes one *round* (one timestep, many users), this takes one
        *shard* (many users, their whole traces) the moment the shard's
        worker finishes — which is how the sharded pipeline ingests results
        as they complete instead of holding every shard for a full
        merge-and-lexsort barrier.

        Parameters
        ----------
        users / times:
            One user id and timestep per batch row (row ``i`` of ``batch``
            is user ``users[i]``'s release at ``times[i]``), in whatever
            order the shard produced them.
        batch:
            The shard's releases (``len(batch)`` must match, else
            :class:`~repro.errors.DataError`).
        purpose:
            Ledger purpose tag (defaults to the streaming feed).
        shard:
            The shard's index in the run's plan.  Required when the server
            is store-backed (it keys the durable ``(shard, round)`` commit
            marks); ignored otherwise, so existing callers and subclasses
            need not pass it.

        Returns
        -------
        numpy.ndarray
            The snapped cell per input row (input order, not commit order).

        Durability
        ----------
        On a store-backed server the whole shard — snapped release rows
        plus one commit mark per round it contains — is written in a single
        SQLite transaction *before* any in-memory mutation.  A crash
        therefore never leaves the store ahead of or torn relative to what
        a resume can rebuild: either the shard is fully durable (and will
        be replayed / skipped) or absent (and will be re-derived).  The
        shard is first checked against the ledger without charging
        (:meth:`~repro.core.accounting.BudgetLedger.check_many`), so a shard
        with a NaN, infinite or negative epsilon raises
        :class:`~repro.errors.ValidationError`, and one over a capped
        ledger's budget raises :class:`~repro.errors.BudgetError`, before the
        store, the trace, the ledger or the live views change.

        Commit order and determinism
        ----------------------------
        Rows are committed in ``(time, user)`` order *within the shard*.
        Across shards the arrival order follows backend scheduling, but
        every user lives in exactly one shard, so all per-user state — the
        released trace rows, and each user's ledger total (charges arrive
        in that user's time order) — is identical to regrouping every
        shard's rows into rounds by ``(time, user)`` and calling
        :meth:`ingest_batch` per round.  Only the interleaving of
        *different* users' ledger entries can vary with scheduling.
        """
        users = np.asarray(users, dtype=int)
        times = np.asarray(times, dtype=int)
        if len(users) != len(batch) or len(times) != len(batch):
            raise DataError(
                f"shard of {len(batch)} releases does not match "
                f"{len(users)} users / {len(times)} times"
            )
        cells = self.world.snap_batch(batch.points)
        if self.store is not None and shard is None:
            raise DataError(
                "store-backed ingest_shard requires the shard index "
                "(pass shard=) to key its durable commit marks"
            )
        if self._metrics is not None:
            if shard is None:
                raise DataError(
                    "live metric views require the shard index (pass shard=) "
                    "to key their delta partials"
                )
            if batch.cells is None:
                raise DataError(
                    "live metric views require batch.cells to carry the "
                    "ground-truth cells (the shard streaming contract)"
                )
        # batch.cells carry the ground-truth cells (the shard streaming
        # contract): the store keeps only their aggregate accelerator
        # summaries, never the per-row values; `cells` is the server-side
        # snapped view.
        true_cells = None if batch.cells is None else np.asarray(batch.cells, dtype=np.int64)
        order = np.lexsort((users, times))  # commit by (time, user)
        with self._ingest_lock:
            # Refuse an invalid or over-budget shard before anything is written.
            self.ledger.check_many(users[order], batch.epsilons[order])
            delta = None
            if self.store is not None:
                delta = self.store.commit_shard(
                    int(shard),
                    users,
                    times,
                    ReleaseBatch(
                        points=batch.points,
                        exact=batch.exact,
                        epsilons=batch.epsilons,
                        cells=np.asarray(cells, dtype=np.int64),
                        mechanism=batch.mechanism,
                    ),
                    true_cells=true_cells,
                )
            elif self._metrics is not None:
                delta = ShardDelta.build(users, times, cells, true_cells)
            if not self.out_of_core:
                self.released_db.record_many(users[order], times[order], cells[order])
            self.ledger.charge_many(
                users[order], times[order], batch.epsilons[order], purpose=purpose
            )
            if self._metrics is not None:
                # Fold inside the commit section: the registry sees exactly
                # the committed rows, once, no matter which thread delivered
                # them, and folds the commit's own delta.
                self._metrics.ingest(
                    int(shard), users, times, batch.points, true_cells, cells, delta
                )
        return cells

    def replay_shard(
        self,
        low_user: int,
        high_user: int,
        purpose: str = "stream",
        shard: int | None = None,
        true_cells: "Callable | None" = None,
    ):
        """Rebuild in-memory state for one durably committed shard.

        The resume counterpart of :meth:`ingest_shard`: reads the shard's
        rows back from the store (shards own contiguous user ranges, so
        ``[low_user, high_user]`` identifies one) in the same ``(time,
        user)`` order the original commit used, and re-applies the
        in-memory effects — trace rows (unless ``out_of_core``, where the
        view already serves them) and ledger charges.  Per-user server
        state after a replay is element-wise identical to a fresh commit.

        When live metric views are attached, the replay also rebuilds the
        registry's folded state: the store additionally yields the released
        points (SQLite REALs round-trip float64 exactly), and ``shard`` /
        ``true_cells`` become mandatory — ``true_cells(users, times)`` must
        resolve the ground-truth cells, which the store deliberately never
        persists.  The replay rebuilds the commit's
        :class:`~repro.store.accelerator.ShardDelta` from the same rows, and
        delta folds canonicalise row order, so a replayed fold is
        bit-identical to the original commit's, which is how a
        killed-and-resumed run converges to the uninterrupted run's live
        values.

        The ledger check runs before anything changes, as in
        :meth:`ingest_shard`.  Returns the number of rows replayed.
        """
        if self.store is None:
            raise DataError("replay_shard requires a store-backed server")
        if self._metrics is not None:
            if shard is None or true_cells is None:
                raise DataError(
                    "replaying into live metric views requires shard= and "
                    "true_cells= (a resolver mapping row (users, times) to "
                    "ground-truth cells)"
                )
            users, times, cells, points, _exact, epsilons = self.store.shard_release_rows(
                low_user, high_user
            )
        else:
            users, times, cells, epsilons = self.store.shard_rows(low_user, high_user)
        self.ledger.check_many(users, epsilons)
        if self._metrics is not None:
            truth = np.asarray(true_cells(users, times), dtype=np.int64)
            delta = ShardDelta.build(users, times, cells, truth)
        if not self.out_of_core:
            self.released_db.record_many(users, times, cells)
        self.ledger.charge_many(users, times, epsilons, purpose=purpose)
        if self._metrics is not None:
            self._metrics.ingest(int(shard), users, times, points, truth, cells, delta)
        return len(users)

    def push_policy(self, client: Client, policy: PolicyGraph) -> None:
        """Offer a policy update; the demo's clients always consent."""
        client.accept_policy(policy)


def run_release_rounds(
    world: GridWorld,
    true_db: TraceDB,
    policy: PolicyGraph,
    mechanism_factory: MechanismFactory,
    epsilon: float,
    rng=None,
    window: int = 14 * 24,
) -> tuple[Server, dict[int, Client]]:
    """Simulate the full population releasing its trace to a fresh server.

    Every user in ``true_db`` becomes a :class:`Client` under ``policy``;
    each of their check-ins is observed locally, released, and ingested.

    Parameters
    ----------
    world / true_db / policy:
        The universe, the ground-truth traces, and the consented policy.
    mechanism_factory:
        ``factory(world, policy, epsilon) -> Mechanism`` used per client.
    epsilon:
        Per-release budget.
    rng:
        Seed source; each client gets an independent child stream via
        :func:`~repro.utils.rng.spawn_rngs` over the *sorted* user list, so
        results do not depend on iteration order — and the sharded batched
        path (:func:`run_release_rounds_batched` with ``shards=``) spawns
        the very same streams, making this loop its element-wise reference.
    window:
        Clients' local retention window (the paper's two weeks).

    Returns
    -------
    (Server, dict[int, Client])
        The server (with its released TraceDB and ledger) and the clients,
        keyed by user id.
    """
    users = sorted(true_db.users())
    if not users:
        raise DataError("true trace database has no users")
    rngs = spawn_rngs(rng, len(users))
    clients = {
        user: Client(
            user,
            world,
            mechanism_factory,
            epsilon,
            policy,
            window=window,
            rng=user_rng,
        )
        for user, user_rng in zip(users, rngs)
    }
    server = Server(world)
    for checkin in true_db.checkins():
        client = clients[checkin.user]
        client.observe(checkin.time, checkin.cell)
        release = client.release(checkin.time)
        server.ingest(checkin.user, checkin.time, release)
    return server, clients


def run_release_rounds_batched(
    world: GridWorld,
    true_db: TraceDB,
    engine: "PrivacyEngine",
    rng=None,
    shards: int | None = None,
    backend=None,
    store=None,
    resume: bool = False,
    out_of_core: bool = False,
    live_metrics=False,
) -> Server:
    """Release the whole population through the engine, one round per timestep.

    The population-scale counterpart of :func:`run_release_rounds`: instead
    of simulating a ``Client`` per user, whole rounds go through
    :meth:`~repro.engine.PrivacyEngine.release_batch` and the server ingests
    them in bulk via :meth:`Server.ingest_batch`.  This is the hot path a
    collector serving millions of users runs; the per-client loop remains the
    reference for protocol-level behaviour (local DBs, consent, re-sends).

    Parameters
    ----------
    world:
        Shared location universe (also the server's snapping grid).
    true_db:
        Ground-truth traces to release (must have at least one user).
    engine:
        The :class:`~repro.engine.PrivacyEngine` every release goes through.
    rng:
        Seed source (``None`` / int / generator, per
        :func:`~repro.utils.rng.ensure_rng`).
    shards:
        Number of population shards (>= 1).  Selecting sharding switches the
        randomness layout from one shared stream to *per-user* streams
        (spawned :func:`~repro.utils.rng.spawn_rngs`-style from ``rng`` over
        the sorted user list), so the result is identical for every shard
        count and backend — and element-wise equal to the seeded
        :func:`run_release_rounds` client reference.
    backend:
        Execution backend for the shards — a registry name (``"serial"``,
        ``"thread"``, ``"process"``, ``"pool"``, ``"rpc"``) or a live
        :class:`~repro.engine.backends.ExecutionBackend` instance.  When
        only one of ``shards`` / ``backend`` is given, the other falls back
        to the engine spec's execution block (if any) before the serial /
        1-shard defaults.
    store:
        Optional durable store — a live :class:`~repro.store.TraceStore`,
        a path, or ``None``.  When set, every shard commits transactionally
        with its ``(shard, round)`` recovery marks, and the run can be
        resumed after a crash (see ``resume``).  Falls back to the engine
        spec's execution block (``ExecutionSpec.store``).  Durability rides
        the sharded streaming path only: the single-stream layout advances
        one shared RNG sequentially and therefore cannot skip committed
        work, so a store without ``shards`` / ``backend`` raises
        :class:`~repro.errors.ValidationError`.
    resume:
        Continue an interrupted run recorded in ``store``.  The store's
        manifest (engine spec hash, shard-plan fingerprint, world shape)
        must match this run — :class:`~repro.errors.ResumeMismatchError`
        otherwise — after which fully committed shards are *replayed* from
        disk (not re-derived) and only the missing shards execute.  Because
        every shard is a pure function of its users' seed streams, the
        resumed result is bit-identical to the uninterrupted run.
    out_of_core:
        With ``store``: keep the released trace on disk only.  The returned
        server's ``released_db`` is a read-only
        :class:`~repro.store.StoredTraceDB` view and ingestion skips the
        in-memory mirror, bounding memory by the largest single shard.
    live_metrics:
        Maintain analytical aggregates *while commits continue* (the HTAP
        incremental path, see :mod:`repro.server.live_metrics`).  ``True``
        attaches the default E1 + E2 + E11 view set
        (:func:`~repro.server.live_metrics.default_views`); a sequence of
        :class:`~repro.server.live_metrics.LiveMetricView` instances
        attaches those.  Read with ``server.metrics_at(round=r)`` — every
        frozen value is bit-identical to the batch recomputation.  On a
        resumed run the replayed shards are folded back in, so the rebuilt
        live state equals a never-killed run's.  Rides the sharded
        streaming path only (deltas are keyed by shard), like ``store``;
        falls back to the engine spec's execution block
        (``ExecutionSpec.live_metrics``).

    Returns
    -------
    Server
        Fresh server holding the released (snapped) TraceDB and the budget
        ledger for the whole run.

    Determinism notes
    -----------------
    When neither ``shards`` nor ``backend`` is given (and the engine's spec
    carries no :class:`~repro.engine.specs.ExecutionSpec`), the original
    single-stream path runs: one generator drawn time-major across rounds,
    element-wise equal to scalar ``engine.release`` calls in (time, user)
    order.  Any sharding request switches to the per-user-stream contract
    above; the two layouts consume ``rng`` differently, so their outputs
    differ from each other (each is individually reproducible).
    """
    if not true_db.users():
        raise DataError("true trace database has no users")
    execution = engine.spec.execution if engine.spec is not None else None
    if execution is not None:
        # The spec's execution block supplies store defaults the same way it
        # supplies shards/backend: explicit arguments win, spec fills gaps.
        if store is None and getattr(execution, "store", None):
            store = execution.store
        resume = bool(resume or getattr(execution, "resume", False))
        if live_metrics is False and getattr(execution, "live_metrics", False):
            live_metrics = True
    if shards is None and backend is None and execution is None:
        if store is not None or resume or out_of_core:
            raise ValidationError(
                "a durable store rides the sharded streaming path (shard "
                "commits are its recovery unit); pass shards= and/or "
                "backend= to enable it"
            )
        if live_metrics:
            raise ValidationError(
                "live metric views ride the sharded streaming path (deltas "
                "are keyed by shard commits); pass shards= and/or backend= "
                "to enable them"
            )
        generator = ensure_rng(rng)
        server = Server(world)
        # One fused release->snap pass per round over a single reused
        # workspace: zero allocations per round from the second round on,
        # element-wise identical to the staged release_batch + snap_batch
        # path (same RNG stream, same floating-op order).  Bare mechanisms
        # (accepted by some callers in place of an engine) take the staged
        # path unchanged.
        fused_round = getattr(engine, "release_round_fused", None)
        workspace = (
            RoundWorkspace.for_population(len(true_db.users()))
            if fused_round is not None
            else None
        )
        for time in true_db.times():
            snapshot = true_db.at_time(time)
            users = sorted(snapshot)
            cells = [snapshot[user] for user in users]
            if fused_round is not None:
                fused = fused_round(cells, rng=generator, workspace=workspace)
                server.ingest_batch(users, time, fused.batch, snapped=fused.snapped)
            else:
                batch = engine.release_batch(cells, rng=generator)
                server.ingest_batch(users, time, batch)
        return server

    from repro.engine.sharding import ShardPlan, stream_shard_releases
    from repro.server.live_metrics import default_views, expected_coverage, missing_shards

    # Each half of the spec's execution block is an independent default, so
    # overriding just the backend keeps the spec's shard count (and vice
    # versa) instead of silently discarding it.
    if shards is None:
        shards = int(execution.shards) if execution is not None else 1
    plan = ShardPlan.build(sorted(true_db.users()), int(shards), rng=rng)
    live_store = None
    owned_store = False
    if store is not None:
        from repro.store.store import open_store

        live_store, owned_store = open_store(store)
    elif out_of_core:
        raise ValidationError("out_of_core=True requires a store")
    elif resume:
        raise ValidationError("resume=True requires a store")
    try:
        only_shards = None
        committed: "frozenset[tuple[int, int]]" = frozenset()
        if live_store is not None:
            from repro.store.resume import RunManifest

            committed = live_store.begin_run(
                RunManifest.for_run(engine, plan, world), resume=resume
            )
            server = Server(world, store=live_store, out_of_core=out_of_core)
        else:
            server = Server(world)
        true_cells_of = None
        coverage = (
            expected_coverage(plan, true_db) if live_metrics or committed else None
        )
        if live_metrics:
            # Attached before any replay so a resumed run folds its
            # replayed shards back into the registry — the rebuilt live
            # state then equals the uninterrupted run's at every round.
            views = default_views(world) if live_metrics is True else list(live_metrics)
            server.attach_metrics(views, coverage)

            def true_cells_of(row_users, row_times):
                # The store never persists ground-truth cells; resolve them
                # from the true trace at replay time.
                lookup = {
                    (int(user), checkin.time): checkin.cell
                    for user in np.unique(np.asarray(row_users, dtype=int)).tolist()
                    for checkin in true_db.user_history(int(user))
                }
                try:
                    return np.array(
                        [
                            lookup[(int(user), int(time))]
                            for user, time in zip(row_users, row_times)
                        ],
                        dtype=int,
                    )
                except KeyError as exc:
                    raise DataError(
                        f"stored release row {exc.args[0]} has no ground-truth "
                        "check-in; the store does not belong to this trace "
                        "database"
                    ) from exc

        if committed:
            # A shard is recoverable iff every (shard, round) pair it
            # would produce is durably marked — the same rule that freezes
            # live snapshots.  Partially committed shards cannot exist
            # (marks travel in the shard's own transaction); a recoverable
            # shard is replayed from disk instead of re-derived.
            last_round = max(max(rounds) for rounds in coverage.values())
            owed = frozenset(missing_shards(coverage, committed, last_round))
            for shard_id, shard_users, _ in plan.iter_shards():
                if shard_id in coverage and shard_id not in owed:
                    server.replay_shard(
                        shard_users[0],
                        shard_users[-1],
                        shard=shard_id,
                        true_cells=true_cells_of,
                    )
            only_shards = owed
        # Streaming ingestion: each shard is committed the moment its worker
        # finishes (ordered by (time, user) within the shard) instead of
        # holding all shards for a merge barrier.  Per-user server state is
        # scheduling-independent — see Server.ingest_shard.  An empty
        # only_shards set means every shard was already durable (pure
        # replay), so there is nothing left to stream.
        if only_shards is None or only_shards:
            # A backend built here from the spec is owned here: close it
            # when the run ends (or raises), exactly like a named backend.
            owned_backend = (
                execution.build()
                if backend is None and execution is not None
                else nullcontext(backend)
            )
            with owned_backend as backend:
                for shard_users, shard_times, batch in stream_shard_releases(
                    engine, true_db, plan, backend=backend, only_shards=only_shards
                ):
                    # Shards own contiguous blocks of the sorted user list,
                    # so any member identifies the shard (it keys the
                    # durable commit and the live metric deltas).
                    server.ingest_shard(
                        shard_users,
                        shard_times,
                        batch,
                        shard=plan.shard_of(int(shard_users[0])),
                    )
    except BaseException:
        if owned_store:
            live_store.close()
        raise
    if owned_store and not out_of_core:
        # A path-opened store is owned by this call: the run is fully
        # durable, so hand back the in-memory server detached and close the
        # file.  (Out-of-core servers keep the store open — their
        # released_db *is* the store — and the caller closes server.store.)
        server.store = None
        live_store.close()
    return server
