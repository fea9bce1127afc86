"""Population sharding: plans, columnar shard tasks, the per-shard bulk draw.

A release *round* is one vectorized ``release_batch`` per timestep; this
module scales *across users*.  A :class:`ShardPlan` splits
the population into deterministic shards with one seed per user.
:func:`shard_tasks` packages each shard's rows, straight from
:meth:`~repro.mobility.trajectory.TraceDB.to_arrays`, into a columnar
:class:`ShardTask`, and :func:`release_keys` draws a shard's keys, each on
its own stream.  The release path (:func:`stream_shard_releases`) and
every sharded evaluator (E1/E11, E2, E3, E4) share these three pieces; an
:class:`~repro.engine.backends.ExecutionBackend` decides how the shards run
(serial / thread pool / process pool / rpc).

Determinism contract
--------------------
Randomness is attached to *users*, not shards: the plan draws one seed per
user from the parent ``rng`` (:func:`~repro.utils.rng.spawn_seeds`), indexed
by the user's position in the globally sorted user list.  A user's releases
therefore depend only on ``(parent seed, user list, their trace)`` — never on
the shard count or the backend — so a k-shard run reproduces the 1-shard run
element-wise, and both reproduce the per-client protocol reference
(:func:`repro.server.pipeline.run_release_rounds`), which spawns the same
per-user streams.  Seeds (an int64 column of the task) rather than live
generators are what a :class:`~repro.engine.backends.ProcessBackend` pickles
across the process boundary.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.mechanisms.base import ReleaseBatch
from repro.core.workspace import FUSED_TILE_ROWS, RoundWorkspace
from repro.engine.backends import ExecutionBackend, owned_backend
from repro.engine.engine import EngineRef, resolve_release_source
from repro.errors import DataError, ValidationError
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.engine.engine import PrivacyEngine
    from repro.mobility.trajectory import TraceDB

__all__ = [
    "ShardPlan",
    "ShardTask",
    "release_keys",
    "shard_tasks",
    "stream_shard_releases",
]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a user population with per-user streams.

    Attributes
    ----------
    users:
        The population in globally sorted order.  Shard ``i`` owns the
        ``i``-th contiguous block of this list (balanced like
        ``np.array_split``), so every shard's user subset is itself sorted
        and concatenating shards in index order re-yields ``users``.
    seeds:
        One RNG-stream seed per user, aligned with ``users``.  Drawn by
        :func:`~repro.utils.rng.spawn_seeds` from the parent ``rng``, so the
        mapping ``user -> seed`` depends only on the parent seed and the user
        list — not on ``n_shards`` — which is what makes release output
        invariant under re-sharding.
    n_shards:
        Number of shards (>= 1).  May exceed ``len(users)``; the surplus
        shards are simply empty.
    """

    users: tuple[int, ...]
    seeds: tuple[int, ...]
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {self.n_shards}")
        if len(self.users) != len(self.seeds):
            raise ValidationError(
                f"{len(self.users)} users but {len(self.seeds)} seeds"
            )
        if list(self.users) != sorted(set(self.users)):
            raise ValidationError("users must be sorted and unique")

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        users: Sequence[int],
        n_shards: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> "ShardPlan":
        """Plan ``n_shards`` shards over ``users`` with streams from ``rng``.

        Parameters
        ----------
        users:
            The population (any order; sorted and deduplicated here so the
            plan is a function of the *set* of users).
        n_shards:
            Desired shard count, >= 1.
        rng:
            Parent seed source for the per-user streams.  The same
            ``(rng seed, users)`` pair always yields the same plan.
        """
        ordered = sorted({int(user) for user in users})
        seeds = spawn_seeds(rng, len(ordered))
        return cls(users=tuple(ordered), seeds=tuple(seeds), n_shards=int(n_shards))

    # ------------------------------------------------------------------
    @cached_property
    def _boundaries(self) -> list[int]:
        """Cumulative end index of each shard's user block (computed once)."""
        n, k = len(self.users), self.n_shards
        size, extra = divmod(n, k)
        ends, stop = [], 0
        for shard in range(k):
            stop += size + (1 if shard < extra else 0)
            ends.append(stop)
        return ends

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 identity of the plan's seed material.

        Covers the sorted user list, every per-user stream seed, and the
        shard count — everything a resumed run must share with the original
        for re-derivation to be bit-identical.  Two plans built from the
        same ``(rng seed, users)`` always agree; a different parent seed,
        population, or shard count yields a different fingerprint.  Recorded
        by :class:`~repro.store.resume.RunManifest` and validated on resume.
        """
        digest = hashlib.sha256()
        digest.update(np.asarray(self.users, dtype=np.int64).tobytes())
        digest.update(np.asarray(self.seeds, dtype=np.uint64).tobytes())
        digest.update(int(self.n_shards).to_bytes(8, "little"))
        return digest.hexdigest()

    def _index_of(self, user: int) -> int:
        """Position of ``user`` in the sorted user list (its stream index)."""
        index = bisect_right(self.users, int(user)) - 1
        if index < 0 or self.users[index] != int(user):
            raise DataError(f"user {user} is not in this shard plan")
        return index

    def shard_of(self, user: int) -> int:
        """Shard index owning ``user`` (raises if the user is unknown)."""
        return bisect_right(self._boundaries, self._index_of(user))

    def shard_members(self, shard: int) -> tuple[int, ...]:
        """Users owned by ``shard``, in sorted order."""
        if not 0 <= shard < self.n_shards:
            raise ValidationError(f"shard must be in [0, {self.n_shards}), got {shard}")
        ends = self._boundaries
        start = ends[shard - 1] if shard else 0
        return self.users[start : ends[shard]]

    def seed_of(self, user: int) -> int:
        """The RNG-stream seed assigned to ``user``."""
        return self.seeds[self._index_of(user)]

    def rng_for(self, user: int) -> np.random.Generator:
        """A fresh generator positioned at the start of ``user``'s stream."""
        return np.random.default_rng(self.seed_of(user))

    def assignment(self) -> dict[int, int]:
        """``{user: shard}`` for the whole population."""
        ends = self._boundaries
        out: dict[int, int] = {}
        shard = 0
        for index, user in enumerate(self.users):
            while index >= ends[shard]:
                shard += 1
            out[user] = shard
        return out

    def iter_shards(self) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """Yield ``(shard, users, seeds)`` for every non-empty shard."""
        ends = self._boundaries
        start = 0
        for shard, stop in enumerate(ends):
            if stop > start:
                yield shard, self.users[start:stop], self.seeds[start:stop]
            start = stop

    def __len__(self) -> int:
        return len(self.users)

    def __repr__(self) -> str:
        return f"ShardPlan(users={len(self.users)}, n_shards={self.n_shards})"


@dataclass(frozen=True, eq=False)
class ShardTask:
    """One shard's work order as columns: its keys, their seeds, their rows.

    Key ``i`` (user ``users[i]``, drawing from stream ``seeds[i]``) owns rows
    ``bounds[i]:bounds[i + 1]`` of ``times`` / ``cells``, in time order, so
    the rows are user-major and ``len(bounds) == len(users) + 1``.  A key
    with no rows keeps an empty block, so every per-key output has one entry
    per key.  All five arrays are int64.

    ``source`` is the release source the shard draws from: an
    :class:`~repro.engine.engine.EngineRef` whenever the engine was built
    from a spec (the ref pickles as a spec hash and the worker rebuilds and
    caches the engine), the live mechanism or engine otherwise, or ``None``
    for work that draws nothing.  Plain data, so any backend can pickle it.
    """

    source: "PrivacyEngine | EngineRef | None"
    users: np.ndarray
    seeds: np.ndarray
    bounds: np.ndarray
    times: np.ndarray
    cells: np.ndarray

    @property
    def row_users(self) -> np.ndarray:
        """``users`` expanded to one entry per row."""
        return np.repeat(self.users, np.diff(self.bounds))


def shard_tasks(
    source,
    db: "TraceDB",
    plan: ShardPlan,
    start: int | None = None,
    end: int | None = None,
    only_shards: "frozenset[int] | set[int] | None" = None,
) -> list[ShardTask]:
    """One :class:`ShardTask` per selected non-empty shard of ``plan``.

    The rows come from one :meth:`~repro.mobility.trajectory.TraceDB.to_arrays`
    call (user-major, time-ascending).  Rows outside ``[start, end]`` (each
    bound optional) and rows of users the plan does not cover are dropped;
    a plan user left without rows keeps an empty block.  ``only_shards``
    selects a subset of shard indices (the resume hook).  ``source`` is
    wrapped with :meth:`~repro.engine.engine.EngineRef.wrap`.
    """
    if not plan.users:
        return []
    users, times, cells = db.to_arrays()
    keep = np.ones(len(users), dtype=bool)
    if start is not None:
        keep &= times >= start
    if end is not None:
        keep &= times <= end
    plan_users = np.asarray(plan.users, dtype=np.int64)
    keys = np.searchsorted(plan_users, users)
    keep &= plan_users.take(keys, mode="clip") == users
    keys, times, cells = keys[keep], times[keep], cells[keep]
    key_bounds = np.zeros(len(plan_users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=len(plan_users)), out=key_bounds[1:])
    seeds = np.asarray(plan.seeds, dtype=np.int64)
    source = EngineRef.wrap(source)
    tasks = []
    low = 0
    for shard, high in enumerate(plan._boundaries):
        if high > low and (only_shards is None or shard in only_shards):
            first, last = key_bounds[low], key_bounds[high]
            tasks.append(
                ShardTask(
                    source=source,
                    users=plan_users[low:high],
                    seeds=seeds[low:high],
                    bounds=key_bounds[low : high + 1] - first,
                    times=times[first:last],
                    cells=cells[first:last],
                )
            )
        low = high
    return tasks


#: Per-worker-thread state: each thread that executes shards keeps its own
#: :class:`RoundWorkspace`, so the thread backend's concurrently running
#: shards never alias a buffer (one workspace serves one release stream).
#: Process workers get one per process the same way (a process has its own
#: module state and, for the serial/pool cases, a single executing thread).
_WORKER_STATE = threading.local()


def _shard_workspace(capacity: int) -> RoundWorkspace:
    """This worker thread's private workspace, grown to ``capacity``."""
    workspace = getattr(_WORKER_STATE, "workspace", None)
    if workspace is None:
        workspace = RoundWorkspace(capacity)
        _WORKER_STATE.workspace = workspace
    return workspace


def release_keys(source, seeds, bounds, cells: np.ndarray) -> ReleaseBatch:
    """Release every key's block of ``cells`` from the key's own stream.

    Key ``i`` draws ``cells[bounds[i]:bounds[i + 1]]`` from
    ``np.random.default_rng(seeds[i])`` — element-wise identical to the
    scalar per-release loop a :class:`~repro.server.pipeline.Client` runs on
    that stream.  Keys with an empty block draw nothing.  ``source`` is a
    live release source (resolve refs first).  This is the one place a
    shard's keys are drawn: one
    :meth:`~repro.core.mechanisms.Mechanism.release_streams` bulk kernel,
    whose tile scratch lives in the worker thread's reused
    :class:`RoundWorkspace`, so a long-lived worker allocates only the
    outputs.
    """
    return source.release_streams(
        cells, seeds, bounds, workspace=_shard_workspace(min(len(cells), FUSED_TILE_ROWS))
    )


def _execute_shard(task: ShardTask) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Release one shard's users: ``(points, exact, epsilons, mechanism)``.

    Rows follow the task's own user-major layout (see :func:`release_keys`).
    Module-level so process pools can pickle it.
    """
    batch = release_keys(
        resolve_release_source(task.source), task.seeds, task.bounds, task.cells
    )
    return batch.points, batch.exact, batch.epsilons, batch.mechanism


def stream_shard_releases(
    engine: "PrivacyEngine",
    true_db: "TraceDB",
    plan: ShardPlan,
    backend: "str | ExecutionBackend | None" = "serial",
    only_shards: "frozenset[int] | set[int] | None" = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, ReleaseBatch]]:
    """Yield each shard's releases **as the shard completes** (any order).

    Each completed shard is handed to the consumer immediately as
    ``(users, times, batch)`` row arrays in the shard task's user-major
    order, with no merge barrier across shards.
    :meth:`~repro.server.pipeline.Server.ingest_shard` consumes exactly
    this shape and commits each shard's rows ordered by ``(time, user)``.

    Yield *order* follows shard completion and is therefore
    backend-dependent, but the yielded *values* are not: every user lives in
    exactly one shard and draws from their own seed stream, so the union of
    yielded rows — and any per-user downstream state — is a pure function of
    ``(engine, true_db, plan)``.

    Parameters
    ----------
    engine:
        The engine every shard releases through.
    true_db:
        Ground-truth traces; the plan must cover exactly its users.
    plan:
        Shard partition and per-user streams (see :class:`ShardPlan`).
    backend:
        A registry name, live backend, or ``None`` (serial).  Backends named
        here are owned by this generator and closed when the iteration
        finishes or the consumer abandons it; live instances are left open
        for reuse.
    only_shards:
        Optional subset of shard indices to execute (others are skipped
        entirely — no task is even built).  This is the resume hook: a
        store-backed restart passes the shards whose ``(shard, round)``
        commits are incomplete.  Because each shard draws only from its own
        users' seed streams, running a subset yields exactly the rows the
        full run would have produced for those shards.
    """
    if plan.users != tuple(sorted(true_db.users())):
        raise DataError("shard plan does not cover the trace database's users")
    tasks = shard_tasks(engine, true_db, plan, only_shards=only_shards)
    with owned_backend(backend) as live:
        for index, (points, exact, epsilons, mechanism) in live.run_unordered(
            _execute_shard, tasks
        ):
            task = tasks[index]
            yield task.row_users, task.times, ReleaseBatch(
                points=points,
                exact=exact,
                epsilons=epsilons,
                cells=task.cells,
                mechanism=mechanism,
            )
