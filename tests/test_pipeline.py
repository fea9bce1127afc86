"""Unit tests for the client/server release pipeline."""

import pytest

from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.core.policies import area_policy, contact_tracing_policy, full_disclosure_policy, grid_policy
from repro.core.accounting import BudgetLedger
from repro.errors import BudgetError, DataError, PolicyError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import Client, Server, run_release_rounds


@pytest.fixture
def world():
    return GridWorld(6, 6)


@pytest.fixture
def client(world):
    return Client(
        user=1,
        world=world,
        mechanism_factory=PolicyLaplaceMechanism,
        epsilon=1.0,
        policy=grid_policy(world),
        window=48,
        rng=0,
    )


class TestClient:
    def test_observe_and_release(self, client):
        client.observe(0, 14)
        release = client.release(0)
        assert not release.exact
        assert release.epsilon == 1.0

    def test_release_without_observation(self, client):
        with pytest.raises(DataError):
            client.release(5)

    def test_policy_swap_rebuilds_mechanism(self, world, client):
        old_mechanism = client.mechanism
        client.accept_policy(area_policy(world, 2, 2))
        assert client.mechanism is not old_mechanism
        assert client.policy.name.startswith("area")

    def test_reject_policy_stops_releases(self, client):
        client.observe(0, 14)
        client.reject_policy()
        with pytest.raises(PolicyError):
            client.release(0)
        with pytest.raises(PolicyError):
            _ = client.policy

    def test_resend_history_under_gc(self, world, client):
        for time, cell in enumerate([10, 11, 12]):
            client.observe(time, cell)
        gc = contact_tracing_policy(grid_policy(world), [11])
        resent = client.resend_history(gc, start=0, end=2)
        assert len(resent) == 3
        by_time = dict(resent)
        assert by_time[1].exact  # infected cell disclosed
        assert not by_time[0].exact

    def test_local_db_prunes(self, world):
        client = Client(1, world, PolicyLaplaceMechanism, 1.0, grid_policy(world), window=2, rng=0)
        client.observe(0, 1)
        client.observe(1, 2)
        client.observe(2, 3)
        assert client.local_db.times() == [1, 2]


class TestServer:
    def test_ingest_snaps_and_charges(self, world, client):
        server = Server(world)
        client.observe(0, 14)
        release = client.release(0)
        cell = server.ingest(1, 0, release)
        assert cell in world
        assert server.released_db.location(1, 0) == cell
        assert server.ledger.spent(1) == pytest.approx(1.0)

    def test_exact_release_free(self, world):
        client = Client(
            2, world, PolicyLaplaceMechanism, 1.0, full_disclosure_policy(world), rng=0
        )
        server = Server(world)
        client.observe(0, 7)
        cell = server.ingest(2, 0, client.release(0))
        assert cell == 7
        assert server.ledger.spent(2) == 0.0

    def test_push_policy(self, world, client):
        server = Server(world)
        server.push_policy(client, area_policy(world, 3, 3))
        assert client.policy.name.startswith("area")



class TestCappedLedgerRefusal:
    """A release the capped ledger refuses must leave no trace row behind."""

    def test_ingest_batch_refusal_writes_nothing(self, world):
        mechanism = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=1.0)
        server = Server(world, ledger=BudgetLedger(cap=1.0))
        server.ingest_batch([7], 0, mechanism.release_batch([14], rng=0))
        # User 8 fits the cap, user 7 does not: the whole round is refused.
        with pytest.raises(BudgetError):
            server.ingest_batch([8, 7], 1, mechanism.release_batch([15, 16], rng=1))
        assert len(server.released_db.user_history(7)) == 1
        assert server.released_db.user_history(8) == []
        assert server.released_db.at_time(1) == {}
        assert server.ledger.spent(7) == 1.0
        assert server.ledger.spent(8) == 0.0
        assert len(server.ledger) == 1

    def test_ingest_refusal_writes_nothing(self, world):
        mechanism = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=1.0)
        server = Server(world, ledger=BudgetLedger(cap=1.0))
        server.ingest(7, 0, mechanism.release(14, rng=0))
        with pytest.raises(BudgetError):
            server.ingest(7, 1, mechanism.release(15, rng=1))
        assert len(server.released_db.user_history(7)) == 1
        assert server.released_db.location(7, 1) is None
        assert server.ledger.spent(7) == 1.0

class TestRunReleaseRounds:
    def test_full_population(self, world):
        db = geolife_like(world, n_users=6, horizon=12, rng=1)
        server, clients = run_release_rounds(
            world, db, grid_policy(world), PolicyLaplaceMechanism, epsilon=1.0, rng=2, window=12
        )
        assert set(clients) == set(db.users())
        assert server.released_db.users() == db.users()
        assert len(server.released_db) == len(db)
        # Every user paid epsilon per release.
        for user in db.users():
            assert server.ledger.spent(user) == pytest.approx(12 * 1.0)

    def test_empty_db_rejected(self, world):
        from repro.mobility.trajectory import TraceDB

        with pytest.raises(DataError):
            run_release_rounds(world, TraceDB(), grid_policy(world), PolicyLaplaceMechanism, 1.0)

    def test_deterministic_with_seed(self, world):
        db = geolife_like(world, n_users=3, horizon=6, rng=3)
        a, _ = run_release_rounds(world, db, grid_policy(world), PolicyLaplaceMechanism, 1.0, rng=7, window=6)
        b, _ = run_release_rounds(world, db, grid_policy(world), PolicyLaplaceMechanism, 1.0, rng=7, window=6)
        assert list(a.released_db.checkins()) == list(b.released_db.checkins())
