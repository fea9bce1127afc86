"""The windowed query surface: accelerator answers equal full scans, bitwise.

The headline contract of ``repro.query`` mirrors the live-metrics one: every
windowed answer served from the accelerator summaries equals its naive
``full_scan_*`` reference **bitwise**, under every execution shape.  This
file pins that matrix (shards {1, 2, 5, 7} x serial/thread/process/pool/rpc
x kill-resume), the coverage-frontier
refusal rule (half-covered windows name the shards they wait on), awkward
stores (empty windows, coverage gaps, ``:memory:``, resumed mid-run), and a
Hypothesis property: under *any* interleaving of shard commits and window
queries, each query either refuses or returns the exact full-scan answer
for the committed prefix.  A statement budget pins the per-query cost of a
warm engine: one version probe, plus the row read of a per-user query.
"""

import sqlite3
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PrivacyEngine, ensure_backend
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.errors import (
    DataError,
    SnapshotUnavailableError,
    StoreError,
    ValidationError,
)
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.query import QueryEngine, Window, sliding_windows, tumbling_windows
from repro.query import reference as ref
from repro.server.live_metrics import expected_coverage, missing_shards
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import RunManifest, TraceStore

N_USERS = 16
HORIZON = 8
RNG = 11

SHARD_COUNTS = [1, 2, 5, 7]
#: One committer (synchronous ``ingest_shard``); kept as a matrix axis so
#: the test ids stay stable.
COMMITTERS = ["sync"]

#: The windows every fingerprint probes: a tumbling tiling plus overlapping
#: sliders, so boundaries, overlaps, and the clipped tail all get exercised.
WINDOWS = tumbling_windows(0, HORIZON - 1, 3) + sliding_windows(0, HORIZON - 1, 4, step=2)
FULL = Window(0, HORIZON - 1)


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=N_USERS, horizon=HORIZON, rng=3)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


# One live backend per name, shared across the matrix (worker spawn paid
# once per module — the same amortisation the live-metrics matrix uses).
@pytest.fixture(scope="module", params=["serial", "thread", "process", "pool", "rpc"])
def backend(request):
    with ensure_backend(request.param) as instance:
        yield instance


@pytest.fixture(scope="module")
def resolver(db):
    """``(users, times) -> true cells`` from the ground-truth TraceDB."""
    lookup = {
        (checkin.user, checkin.time): checkin.cell
        for user in db.users()
        for checkin in db.user_history(user)
    }

    def resolve(users, times):
        return np.array(
            [lookup[(int(u), int(t))] for u, t in zip(users, times)], dtype=np.int64
        )

    return resolve


def _fingerprint(store, world):
    """Every query answer over the probe windows, as one comparable value."""
    engine = QueryEngine(store, world=world)
    fingerprint = {}
    for window in WINDOWS:
        for kind in ("observed", "true"):
            key = (window.start, window.end, kind)
            fingerprint[("contact",) + key] = engine.contact_rate(window, kind=kind)
            fingerprint[("flows",) + key] = engine.flow_matrix(window, kind=kind)
        fingerprint[("top", window.start, window.end)] = tuple(
            engine.top_cells(window, 5)
        )
    for user in sorted(store.users()):
        fingerprint[("epsilon", user)] = engine.epsilon_spent(user, FULL)
        fingerprint[("trajectory", user)] = tuple(engine.trajectory(user))
    return fingerprint


def _assert_matches_full_scan(store, world, resolver):
    """Bit-check every accelerator answer against its full-scan twin."""
    engine = QueryEngine(store, world=world)
    for window in WINDOWS:
        assert engine.contact_rate(window) == ref.full_scan_contact_rate(store, window)
        assert engine.contact_rate(window, kind="true") == ref.full_scan_contact_rate(
            store, window, kind="true", true_resolver=resolver
        )
        assert engine.flow_matrix(window) == ref.full_scan_flow_matrix(
            store, window, world
        )
        assert engine.flow_matrix(window, kind="true") == ref.full_scan_flow_matrix(
            store, window, world, kind="true", true_resolver=resolver
        )
        # A non-default tiling is served from the same cell-level counts.
        assert engine.flow_matrix(window, block_rows=2, block_cols=3) == (
            ref.full_scan_flow_matrix(store, window, world, block_rows=2, block_cols=3)
        )
        assert engine.top_cells(window, 5) == ref.full_scan_top_cells(store, window, 5)
    for user in sorted(store.users()):
        assert engine.epsilon_spent(user, FULL) == ref.full_scan_epsilon_spent(
            store, user, FULL
        )
        assert engine.trajectory(user) == ref.full_scan_trajectory(store, user)
    assert store.users() == ref.full_scan_users(store)
    assert store.times() == ref.full_scan_times(store)


@pytest.fixture(scope="module")
def canonical(world, db, engine):
    """The 1-shard serial sync fingerprint every other shape must equal."""
    with TraceStore(":memory:") as store:
        run_release_rounds_batched(
            world, db, engine, rng=RNG, shards=1, backend="serial", store=store
        )
        return _fingerprint(store, world)


def _store_run(world, db, engine, shards, backend, store=None, **kwargs):
    store = store if store is not None else TraceStore(":memory:")
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=shards, backend=backend,
        store=store, **kwargs,
    )
    return server, store


# ----------------------------------------------------------------------
# the determinism matrix
# ----------------------------------------------------------------------


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_every_backend_and_shard_count_answers_identically(
        self, shards, backend, world, db, engine, resolver, canonical
    ):
        _, store = _store_run(world, db, engine, shards, backend)
        with store:
            assert _fingerprint(store, world) == canonical
            _assert_matches_full_scan(store, world, resolver)
            store.verify()

    @pytest.mark.parametrize("committer", COMMITTERS)
    def test_every_committer_answers_identically(
        self, committer, world, db, engine, resolver, canonical
    ):
        server, store = _store_run(world, db, engine, 5, "thread", live_metrics=True)
        with store:
            assert _fingerprint(store, world) == canonical
            _assert_matches_full_scan(store, world, resolver)
            # Both consumers of the per-commit delta agree: the accelerator
            # segments the store appended and the live views it folded.
            rounds = server.metrics.rounds
            live = server.metrics_at(rounds[-1])
            engine_q = QueryEngine(store, world=world)
            full = Window(rounds[0], rounds[-1])
            for kind, rate, flows in (
                ("observed", live["contacts"].observed_contact_rate, live["flows"].observed_flows),
                ("true", live["contacts"].true_contact_rate, live["flows"].true_flows),
            ):
                answer = engine_q.contact_rate(full, kind=kind)
                assert (answer.contact_rate, answer.observations) == (
                    rate, live["contacts"].n_observations
                )
                assert engine_q.flow_matrix(full, kind, 4, 4) == flows
            store.verify()

    def test_epsilon_spend_equals_the_live_ledger(self, world, db, engine):
        # The query folds stored rows through the same BudgetLedger
        # accumulation the server charged during the run, so the floats are
        # identical, not merely close.
        server, store = _store_run(world, db, engine, 5, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            for user in sorted(db.users()):
                assert engine_q.epsilon_spent(user, FULL) == server.ledger.spent(user)


# ----------------------------------------------------------------------
# kill-resume: a rebuilt store answers like an uninterrupted one
# ----------------------------------------------------------------------


class TestKillResume:
    @pytest.mark.parametrize("shards_done", [0, 3, 7])
    def test_resumed_store_answers_identically(
        self, shards_done, world, db, engine, resolver, canonical, tmp_path
    ):
        # Leave the store looking like a run killed after `shards_done`
        # whole-shard commits, resume it, then query the reopened file.
        path = tmp_path / "killed.sqlite"
        plan = ShardPlan.build(sorted(db.users()), 7, rng=RNG)
        with TraceStore(path) as store:
            store.begin_run(RunManifest.for_run(engine, plan, world))
            committer = Server(world, store=store)
            for users, times, batch in stream_shard_releases(
                engine, db, plan, only_shards=frozenset(range(shards_done))
            ):
                committer.ingest_shard(
                    users, times, batch, shard=plan.shard_of(int(users[0]))
                )
        run_release_rounds_batched(
            world, db, engine, rng=RNG, shards=7, backend="serial",
            store=str(path), resume=True,
        )
        with TraceStore(path) as store:
            assert _fingerprint(store, world) == canonical
            _assert_matches_full_scan(store, world, resolver)


# ----------------------------------------------------------------------
# awkward stores
# ----------------------------------------------------------------------


class TestAwkwardStores:
    def test_empty_window_raises_data_error_on_both_sides(self, world, db, engine):
        _, store = _store_run(world, db, engine, 2, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            beyond = Window(HORIZON + 3, HORIZON + 5)
            with pytest.raises(DataError, match="no observations"):
                engine_q.contact_rate(beyond)
            with pytest.raises(DataError, match="no observations"):
                ref.full_scan_contact_rate(store, beyond)
            # The non-raising queries agree on emptiness instead.
            assert engine_q.flow_matrix(beyond) == ref.full_scan_flow_matrix(
                store, beyond, world
            )
            assert engine_q.top_cells(beyond, 3) == ref.full_scan_top_cells(
                store, beyond, 3
            )

    def test_memory_store_answers_like_a_file_store(
        self, world, db, engine, canonical, tmp_path
    ):
        _, disk = _store_run(
            world, db, engine, 5, "serial", store=TraceStore(tmp_path / "disk.sqlite")
        )
        with disk:
            assert _fingerprint(disk, world) == canonical

    def test_engine_opens_and_closes_a_path(self, world, db, engine, tmp_path):
        path = tmp_path / "owned.sqlite"
        _, store = _store_run(world, db, engine, 2, "serial", store=TraceStore(path))
        store.close()
        with TraceStore(path) as readback:
            want = ref.full_scan_flow_matrix(readback, FULL, world)
        with QueryEngine(path) as engine_q:
            # World comes from the run manifest — no world= needed.
            assert engine_q.flow_matrix(FULL) == want
        with pytest.raises(StoreError):
            engine_q.store.users()  # closed on context exit

    def test_true_kind_refused_without_true_summaries(self, world, engine):
        # A store whose commits never passed true_cells has no kind-1 rows;
        # asking for them must fail loudly, not answer zeros.
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(
                np.array([0, 1, 2]), rng=np.random.default_rng(0)
            )
            store.commit_shard(0, np.array([1, 2, 3]), np.array([0, 0, 0]), batch)
            assert store.maintains_true_summaries() is False
            engine_q = QueryEngine(store, world=world)
            engine_q.contact_rate(Window(0, 0))  # observed side fine
            with pytest.raises(StoreError, match="no true-side"):
                engine_q.contact_rate(Window(0, 0), kind="true")

    def test_unknown_kind_is_validation_error(self, world, db, engine):
        _, store = _store_run(world, db, engine, 1, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            with pytest.raises(ValidationError, match="kind"):
                engine_q.contact_rate(FULL, kind="snapped")

    def test_epsilon_spent_refuses_corrupt_stored_epsilon(self, world, db, engine):
        # A stored epsilon that is not a finite number >= 0 is refused, as
        # the ledger refuses it, never summed into a silently wrong total.
        _, store = _store_run(world, db, engine, 1, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            user = sorted(store.users())[0]
            time = engine_q.trajectory(user)[0].time
            update = "UPDATE releases SET epsilon = ? WHERE user = ? AND time = ?"
            # SQLite has no NaN REAL: a bound NaN becomes NULL, which the
            # column's NOT NULL refuses, so the NaN an UPDATE can leave is
            # its text spelling (kept as TEXT by the REAL affinity).
            with pytest.raises(sqlite3.IntegrityError), store.connection:
                store.connection.execute(update, (float("nan"), user, time))
            for bad in ("NaN", float("inf"), -1.0):
                with store.connection:
                    store.connection.execute(update, (bad, user, time))
                with pytest.raises(ValidationError, match="finite number >= 0"):
                    engine_q.epsilon_spent(user, FULL)

    def test_non_integer_user_and_k_are_refused(self, world, db, engine):
        # int() would truncate 2.5 to 2 and read True as user 1: an answer
        # for a different question than the one asked.
        _, store = _store_run(world, db, engine, 1, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            user = sorted(store.users())[0]
            for bad in (user + 0.5, True):
                with pytest.raises(ValidationError, match="user must be an integer"):
                    engine_q.epsilon_spent(bad, FULL)
                with pytest.raises(ValidationError, match="user must be an integer"):
                    engine_q.trajectory(bad)
            for bad in (2.5, True):
                with pytest.raises(ValidationError, match="k must be an integer"):
                    engine_q.top_cells(FULL, bad)
            # numpy integers, which stores hand back, are accepted as ints.
            assert engine_q.epsilon_spent(np.int64(user), FULL) == engine_q.epsilon_spent(
                user, FULL
            )
            assert engine_q.trajectory(np.int64(user)) == engine_q.trajectory(user)
            assert engine_q.top_cells(FULL, np.int32(3)) == engine_q.top_cells(FULL, 3)

    def test_bare_store_without_manifest_needs_world(self, engine):
        with TraceStore(":memory:") as store:
            # One 2-step trace, so the window holds a real transition and
            # the area regrouping actually needs the grid geometry.
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            store.commit_shard(0, np.array([1, 1]), np.array([0, 1]), batch)
            engine_q = QueryEngine(store)
            with pytest.raises(ValidationError, match="pass world="):
                engine_q.flow_matrix(Window(0, 1))


# ----------------------------------------------------------------------
# coverage gaps: the frontier refusal rule
# ----------------------------------------------------------------------


def _staggered_world_db():
    """A population whose shards cover *different* round ranges.

    Users are assigned to shards in contiguous sorted blocks, so with 12
    users over 4 shards, users 0-5 (shards 0-1) span rounds 0-3 and users
    6-11 (shards 2-3) span rounds 2-7: early windows are answerable from
    half the shards while later windows need all of them.
    """
    world = GridWorld(6, 6)
    db = TraceDB()
    for user in range(12):
        start, end = (0, 3) if user < 6 else (2, HORIZON - 1)
        for time in range(start, end + 1):
            db.record(user, time, (user * 7 + time * 3) % world.n_cells)
    return world, db


@pytest.fixture(scope="module")
def staggered():
    world, sdb = _staggered_world_db()
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    plan = ShardPlan.build(sorted(sdb.users()), 4, rng=RNG)
    parts = {
        plan.shard_of(int(users[0])): (users, times, batch)
        for users, times, batch in stream_shard_releases(engine, sdb, plan)
    }
    return world, sdb, engine, plan, parts


def _commit(world, store, plan, parts, shards):
    committer = Server(world, store=store)
    for shard in shards:
        users, times, batch = parts[shard]
        committer.ingest_shard(users, times, batch, shard=shard)


class TestCoverageGaps:
    def test_half_covered_window_names_missing_shards(self, staggered):
        world, sdb, _, plan, parts = staggered
        with TraceStore(":memory:") as store:
            _commit(world, store, plan, parts, [0, 1])
            engine_q = QueryEngine(
                store, world=world, expected=expected_coverage(plan, sdb)
            )
            # Shards 0-1 cover every round <= 1, so early windows answer
            # and match the reference over the committed prefix ...
            early = Window(0, 1)
            assert engine_q.missing_shards(1) == []
            assert engine_q.contact_rate(early) == ref.full_scan_contact_rate(
                store, early
            )
            # ... while any window reaching round 2 straddles the gap.
            with pytest.raises(
                SnapshotUnavailableError, match=r"waiting on shard commit\(s\) \[2, 3\]"
            ):
                engine_q.contact_rate(Window(0, 4))
            with pytest.raises(SnapshotUnavailableError):
                engine_q.top_cells(Window(2, 3), 3)
            with pytest.raises(SnapshotUnavailableError):
                engine_q.epsilon_spent(0, Window(0, 5))
            _commit(world, store, plan, parts, [2, 3])
            full = Window(0, HORIZON - 1)
            assert engine_q.contact_rate(full) == ref.full_scan_contact_rate(store, full)

    def test_derived_coverage_from_manifest_refuses_partial_runs(
        self, world, db, engine
    ):
        # Without an explicit schedule the engine derives one from the run
        # manifest: every planned shard is expected wherever any commit
        # landed, so a half-committed run refuses until the rest arrives.
        plan = ShardPlan.build(sorted(db.users()), 4, rng=RNG)
        parts = {
            plan.shard_of(int(users[0])): (users, times, batch)
            for users, times, batch in stream_shard_releases(engine, db, plan)
        }
        with TraceStore(":memory:") as store:
            store.begin_run(RunManifest.for_run(engine, plan, world))
            _commit(world, store, plan, parts, [0, 3])
            engine_q = QueryEngine(store, world=world)
            assert engine_q.missing_shards(HORIZON - 1) == [1, 2]
            with pytest.raises(SnapshotUnavailableError, match=r"\[1, 2\]"):
                engine_q.contact_rate(Window(0, 3))
            _commit(world, store, plan, parts, [1, 2])
            assert engine_q.missing_shards(HORIZON - 1) == []
            engine_q.contact_rate(Window(0, 3))  # answers once complete


# ----------------------------------------------------------------------
# the interleaving property
# ----------------------------------------------------------------------


class TestInterleavingProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_interleaving_refuses_or_answers_exactly(self, staggered, data):
        # For any commit order, any prefix, and any probe window: a query
        # either raises SnapshotUnavailableError (exactly when shards are
        # missing at or before the window's end) or returns the bit-exact
        # full-scan answer over what the store currently holds.
        world, sdb, _, plan, parts = staggered
        order = data.draw(st.permutations(sorted(parts)))
        prefix = data.draw(st.integers(min_value=0, max_value=len(order)))
        windows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, HORIZON - 1), st.integers(0, HORIZON - 1)
                ).map(lambda ends: Window(min(ends), max(ends))),
                min_size=1,
                max_size=4,
            )
        )
        expected = expected_coverage(plan, sdb)
        with TraceStore(":memory:") as store:
            _commit(world, store, plan, parts, order[:prefix])
            engine_q = QueryEngine(store, world=world, expected=expected)
            for window in windows:
                if engine_q.missing_shards(window.end):
                    with pytest.raises(SnapshotUnavailableError):
                        engine_q.contact_rate(window)
                    continue
                assert engine_q.top_cells(window, 4) == ref.full_scan_top_cells(
                    store, window, 4
                )
                assert engine_q.flow_matrix(window) == ref.full_scan_flow_matrix(
                    store, window, world
                )
                try:
                    got = engine_q.contact_rate(window)
                except DataError:
                    with pytest.raises(DataError):
                        ref.full_scan_contact_rate(store, window)
                else:
                    assert got == ref.full_scan_contact_rate(store, window)


class TestLongLivedEngine:
    """One engine, created before the first commit, stays exact across commits.

    The aggregates read a fold of the delta segments that each query
    refreshes incrementally; a fold that missed a commit would still pass
    every test that builds its engine after the writes.
    """

    PROBES = [Window(0, 1), Window(0, 3), Window(2, 5), Window(4, HORIZON - 1), FULL]

    @staticmethod
    def _full_scan_missing(store, expected, upto):
        """The coverage rule over a fresh read of the marks (and manifest)."""
        committed = store.committed()
        if expected is None:
            rounds = {time for _, time in committed}
            manifest = store.manifest()
            shards = (
                range(manifest.n_shards)
                if manifest is not None
                else {shard for shard, _ in committed}
            )
            expected = {shard: rounds for shard in shards}
        return missing_shards(expected, committed, upto)

    @staticmethod
    def _probe(engine_q, store, world, expected, users):
        """Every probe answers exactly as the full scan of the current prefix, or refuses."""
        scan_missing = TestLongLivedEngine._full_scan_missing
        for window in TestLongLivedEngine.PROBES:
            missing = scan_missing(store, expected, window.end)
            assert engine_q.missing_shards(window.end) == missing
            for user in users:
                if missing:
                    with pytest.raises(SnapshotUnavailableError):
                        engine_q.epsilon_spent(user, window)
                    with pytest.raises(SnapshotUnavailableError):
                        engine_q.trajectory(user, window)
                    continue
                assert engine_q.epsilon_spent(user, window) == ref.full_scan_epsilon_spent(
                    store, user, window
                )
                assert engine_q.trajectory(user, window) == ref.full_scan_trajectory(
                    store, user, window
                )
            if missing:
                with pytest.raises(SnapshotUnavailableError):
                    engine_q.top_cells(window, 4)
                continue
            assert engine_q.top_cells(window, 4) == ref.full_scan_top_cells(store, window, 4)
            assert engine_q.flow_matrix(window) == ref.full_scan_flow_matrix(
                store, window, world
            )
            assert engine_q.flow_matrix(window, block_rows=2, block_cols=3) == (
                ref.full_scan_flow_matrix(store, window, world, block_rows=2, block_cols=3)
            )
            try:
                got = engine_q.contact_rate(window)
            except DataError:
                with pytest.raises(DataError):
                    ref.full_scan_contact_rate(store, window)
            else:
                assert got == ref.full_scan_contact_rate(store, window)
        # The whole history is checked through the user's last stored round.
        for user in users:
            want = ref.full_scan_trajectory(store, user)
            if want and scan_missing(store, expected, want[-1].time):
                with pytest.raises(SnapshotUnavailableError):
                    engine_q.trajectory(user)
            else:
                assert engine_q.trajectory(user) == want

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_writer_connection_engine_survives_commits(self, staggered, data):
        world, sdb, _, plan, parts = staggered
        order = data.draw(st.permutations(sorted(parts)))
        expected = expected_coverage(plan, sdb)
        users = sorted(sdb.users())
        with TraceStore(":memory:") as store:
            engine_q = QueryEngine(store, world=world, expected=expected)
            self._probe(engine_q, store, world, expected, users)
            for shard in order:
                _commit(world, store, plan, parts, [shard])
                self._probe(engine_q, store, world, expected, users)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_manifest_schedule_engine_survives_commits(self, staggered, data):
        # Without expected= the engine derives the conservative schedule
        # from the marks and the run manifest.  The engine is built before
        # begin_run records that manifest, so its state must pick the
        # manifest up once commits land, and follow every commit after.
        world, sdb, engine, plan, parts = staggered
        order = data.draw(st.permutations(sorted(parts)))
        users = sorted(sdb.users())
        with TraceStore(":memory:") as store:
            engine_q = QueryEngine(store, world=world)
            self._probe(engine_q, store, world, None, users)
            store.begin_run(RunManifest.for_run(engine, plan, world))
            self._probe(engine_q, store, world, None, users)
            for shard in order:
                _commit(world, store, plan, parts, [shard])
                self._probe(engine_q, store, world, None, users)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_second_connection_engine_survives_commits(self, staggered, data):
        # A reader on its own connection to a WAL file sees each commit as
        # a new segment id, exactly as a monitor beside a live run does.
        world, sdb, _, plan, parts = staggered
        order = data.draw(st.permutations(sorted(parts)))
        expected = expected_coverage(plan, sdb)
        users = sorted(sdb.users())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "live.sqlite"
            with TraceStore(path) as store, QueryEngine(
                path, world=world, expected=expected
            ) as engine_q:
                assert engine_q.store is not store
                self._probe(engine_q, engine_q.store, world, expected, users)
                for shard in order:
                    _commit(world, store, plan, parts, [shard])
                    self._probe(engine_q, engine_q.store, world, expected, users)
                store.verify()


    def test_threads_sharing_one_engine_fold_each_segment_once(self, staggered):
        # Readers on several threads race to fold each new segment; a
        # segment folded twice (or lost) would break the final full-scan
        # equality.  A tiny switch interval forces interleavings.
        world, sdb, _, plan, parts = staggered
        expected = expected_coverage(plan, sdb)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "shared.sqlite"
                with TraceStore(path) as store, QueryEngine(
                    path, world=world, expected=expected
                ) as engine_q:
                    done = threading.Event()
                    errors = []

                    def reader():
                        while not done.is_set():
                            try:
                                engine_q.contact_rate(Window(0, 1))
                            except SnapshotUnavailableError:
                                pass
                            except Exception as exc:  # reported below
                                errors.append(exc)
                                return

                    threads = [threading.Thread(target=reader) for _ in range(4)]
                    for thread in threads:
                        thread.start()
                    try:
                        for shard in sorted(parts):
                            _commit(world, store, plan, parts, [shard])
                    finally:
                        done.set()
                        for thread in threads:
                            thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    assert errors == []
                    self._probe(engine_q, engine_q.store, world, expected, sorted(sdb.users()))
        finally:
            sys.setswitchinterval(interval)

    def test_threads_sharing_one_engine_answer_exactly(self, staggered):
        # Readers race on the shared coverage state, fold and area maps
        # while commits land.  Rounds 0-1 are final once shards 0 and 1
        # have committed, so every answer a reader is given for them must
        # equal the final full scan: a stale coverage state or a fold that
        # missed a segment would answer from less.
        world, sdb, _, plan, parts = staggered
        early = Window(0, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "shared.sqlite"
                with TraceStore(path) as store, QueryEngine(
                    path, world=world, expected=expected_coverage(plan, sdb)
                ) as engine_q:
                    queries = {
                        "contact": lambda: engine_q.contact_rate(early),
                        "flows 4x4": lambda: engine_q.flow_matrix(early),
                        "flows 2x3": lambda: engine_q.flow_matrix(early, "observed", 2, 3),
                        "top": lambda: engine_q.top_cells(early, 4),
                        "epsilon": lambda: engine_q.epsilon_spent(0, early),
                    }
                    done = threading.Event()
                    answers, errors = [], []

                    def reader():
                        while not done.is_set():
                            for name, query in queries.items():
                                try:
                                    answers.append((name, query()))
                                except SnapshotUnavailableError:
                                    pass
                                except Exception as exc:  # reported below
                                    errors.append(exc)
                                    return

                    threads = [threading.Thread(target=reader) for _ in range(4)]
                    for thread in threads:
                        thread.start()
                    try:
                        for shard in sorted(parts):
                            _commit(world, store, plan, parts, [shard])
                        # Let every query answer at least once before stopping.
                        deadline = time.monotonic() + 30
                        while {name for name, _ in answers} != set(queries) and not errors:
                            assert time.monotonic() < deadline
                            time.sleep(0.01)
                    finally:
                        done.set()
                        for thread in threads:
                            thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    assert errors == []
                    reader_store = engine_q.store
                    want = {
                        "contact": ref.full_scan_contact_rate(reader_store, early),
                        "flows 4x4": ref.full_scan_flow_matrix(reader_store, early, world),
                        "flows 2x3": ref.full_scan_flow_matrix(
                            reader_store, early, world, block_rows=2, block_cols=3
                        ),
                        "top": ref.full_scan_top_cells(reader_store, early, 4),
                        "epsilon": ref.full_scan_epsilon_spent(reader_store, 0, early),
                    }
                    for name, answer in answers:
                        assert answer == want[name], name
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# area tilings: the per-tiling cell -> area map
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiled():
    """A long-lived engine over a non-square grid (7 wide, 5 high)."""
    world = GridWorld(7, 5)
    tdb = geolife_like(world, n_users=10, horizon=6, rng=5)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    with TraceStore(":memory:") as store:
        run_release_rounds_batched(world, tdb, engine, rng=RNG, shards=3, store=store)
        yield world, store, QueryEngine(store, world=world)


class TestTilings:
    @settings(max_examples=15, deadline=None)
    @given(ends=st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_every_tiling_equals_the_full_scan(self, tiled, ends):
        # Every block shape from 1 up to one past each side: dividing,
        # non-dividing and larger-than-grid tilings all regroup exactly.
        world, store, engine_q = tiled
        window = Window(min(ends), max(ends))
        for block_rows in range(1, world.height + 2):
            for block_cols in range(1, world.width + 2):
                want = ref.full_scan_flow_matrix(
                    store, window, world, block_rows=block_rows, block_cols=block_cols
                )
                assert engine_q.flow_matrix(window, "observed", block_rows, block_cols) == want, (
                    block_rows,
                    block_cols,
                )


# ----------------------------------------------------------------------
# statement budget: what a warm engine reads per query
# ----------------------------------------------------------------------


class TestStatementBudget:
    """A warm engine runs one version probe per query, plus a per-user row read.

    Counted with ``set_trace_callback`` on the engine's own connection, so
    the gate is independent of machine speed.  The commit marks are
    re-read once per landed commit, not once per query.
    """

    def test_warm_engine_statement_budget(self, staggered):
        world, sdb, _, plan, parts = staggered
        early, user = Window(0, 1), 0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "budget.sqlite"
            with TraceStore(path) as store, QueryEngine(
                path, world=world, expected=expected_coverage(plan, sdb)
            ) as engine_q:
                queries = {
                    "missing_shards": (1, lambda: engine_q.missing_shards(early.end)),
                    "contact_rate": (1, lambda: engine_q.contact_rate(early)),
                    "flow_matrix": (1, lambda: engine_q.flow_matrix(early)),
                    "flow_matrix 2x3": (1, lambda: engine_q.flow_matrix(early, "observed", 2, 3)),
                    "top_cells": (1, lambda: engine_q.top_cells(early, 3)),
                    "epsilon_spent": (2, lambda: engine_q.epsilon_spent(user, early)),
                    "trajectory": (2, lambda: engine_q.trajectory(user, early)),
                }
                statements: list[str] = []

                def check_budgets():
                    for name, (budget, query) in queries.items():
                        statements.clear()
                        query()
                        assert len(statements) <= budget, (name, statements)

                engine_q.store.connection.set_trace_callback(statements.append)
                try:
                    _commit(world, store, plan, parts, [0, 1, 2])
                    for _, query in queries.values():  # warm-up
                        query()
                    check_budgets()
                    # The last commit completes every round; the whole
                    # history of a user is answerable from then on.
                    _commit(world, store, plan, parts, [3])
                    queries["trajectory (whole history)"] = (2, lambda: engine_q.trajectory(user))
                    statements.clear()
                    for _ in range(3):
                        for _, query in queries.values():
                            query()
                    marks = [sql for sql in statements if "FROM shard_commits" in sql]
                    assert len(marks) == 1, marks
                    check_budgets()
                finally:
                    engine_q.store.connection.set_trace_callback(None)


# ----------------------------------------------------------------------
# window helpers
# ----------------------------------------------------------------------


class TestWindows:
    def test_validation(self):
        with pytest.raises(ValidationError, match="precedes"):
            Window(3, 2)
        with pytest.raises(ValidationError, match="width"):
            tumbling_windows(0, 9, 0)
        with pytest.raises(ValidationError, match="width/step"):
            sliding_windows(0, 9, 3, step=0)

    def test_endpoints_must_be_integers(self):
        # int() would have made Window(0.5, 2.7) into Window(0, 2) and
        # accepted Window(True, 3) as Window(1, 3).
        for start, end in [(0.5, 2.7), (0, 2.7), (True, 3), (0, False), ("1", 3)]:
            with pytest.raises(ValidationError, match="must be an integer"):
                Window(start, end)
        # The window helpers take the same integers.
        with pytest.raises(ValidationError, match="start must be an integer"):
            tumbling_windows(0.5, 5, 2)
        with pytest.raises(ValidationError, match="end must be an integer"):
            sliding_windows(0, 4.9, 2)
        with pytest.raises(ValidationError, match="width must be an integer"):
            tumbling_windows(0, 5, True)
        # numpy integers, which stores hand back, are accepted as ints.
        window = Window(np.int64(1), np.int32(4))
        assert window == Window(1, 4)
        assert type(window.start) is int and type(window.end) is int
        assert tumbling_windows(np.int64(0), np.int64(5), np.int64(3)) == [
            Window(0, 2),
            Window(3, 5),
        ]

    def test_tumbling_tiles_without_overlap(self):
        windows = tumbling_windows(0, 7, 3)
        assert windows == [Window(0, 2), Window(3, 5), Window(6, 7)]
        assert sum(len(w) for w in windows) == 8

    def test_sliding_advances_by_step(self):
        windows = sliding_windows(0, 5, 4, step=2)
        assert windows == [Window(0, 3), Window(2, 5), Window(4, 5)]

    def test_membership_and_length(self):
        window = Window(2, 5)
        assert len(window) == 4
        assert 2 in window and 5 in window and 6 not in window
