"""The bulk release kernel is bit-equal to one ``release_batch`` per key.

``Mechanism.release_streams`` packs whole keys into tiles, fills each key's
slice of the tile's uniforms from that key's own generator (skipping
disclosed rows) and transforms each tile in one call.  This file pins that
kernel against two oracles, for all five mechanisms plus LocationSet-PIM:

* per key, ``release_batch`` on ``np.random.default_rng(seed)`` —
  compared byte for byte on every column, across shards {1, 2, 5, 7} x
  serial/thread/process/pool/rpc;
* the per-client ``run_release_rounds`` loop — the sharded pipeline's
  released trace and per-user ledger totals equal it over the same matrix.

The policy is Gc (an isolated, disclosable 2x2 corner inside Gb areas), and
the traces are built so exact rows interleave noisy rows inside one key.
A sparse trace leaves keys with zero rows, and the tile tests cover a key
with more noisy rows than ``FUSED_TILE_ROWS`` and, with the tile shrunk,
every way keys can straddle tile edges.
"""

import numpy as np
import pytest

from repro.core.mechanisms import LocationSetPIMechanism
from repro.core.mechanisms import base as mechanism_base
from repro.core.workspace import FUSED_TILE_ROWS, RoundWorkspace
from repro.engine import PrivacyEngine, ensure_backend, resolve_release_source
from repro.engine.sharding import ShardPlan, _execute_shard, shard_tasks
from repro.errors import MechanismError
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.server.pipeline import run_release_rounds, run_release_rounds_batched

EPSILON = 1.0
SEED = 23
SHARD_COUNTS = [1, 2, 5, 7]
#: Gc's default infected set: the top-left 2x2 block, isolated in the policy.
CORNER = (0, 1, 6, 7)
#: LocationSet-PIM's set; every other cell is an isolated (disclosed) node.
LOCATION_SET = (8, 9, 10, 14, 15, 16, 20, 21, 22)
MECHANISMS = [
    "planar_laplace",
    "planar_isotropic",
    "graph_exponential",
    "geo_indistinguishability",
    "optimal_lp",
    "location_set_pim",
]


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    """Nine users x 12 steps; every third step of users 0-5 is a corner cell."""
    rng = np.random.default_rng(5)
    db = TraceDB()
    for user in range(9):
        for time in range(12):
            if user < 6 and time % 3 == user % 3:
                cell = CORNER[(user + time) % len(CORNER)]
            else:
                cell = int(rng.integers(world.n_cells))
            db.record(user, time, cell)
    return db


def _engine(world, name):
    if name == "location_set_pim":
        mechanism = LocationSetPIMechanism(world, LOCATION_SET, EPSILON, embed_in_world=True)
        return PrivacyEngine(world, mechanism.graph, mechanism)
    return PrivacyEngine.from_spec(world, mechanism=name, policy="Gc", epsilon=EPSILON)


@pytest.fixture(scope="module")
def engines(world):
    return {name: _engine(world, name) for name in MECHANISMS}


# One live backend per name, shared by every cell of the matrix, so the
# process/pool/rpc backends pay worker spawn once per module.
@pytest.fixture(scope="module", params=["serial", "thread", "process", "pool", "rpc"])
def backend(request):
    with ensure_backend(request.param) as instance:
        yield instance


def _per_key_oracle(source, seeds, bounds, cells):
    """One ``release_batch`` per key on its own generator, concatenated."""
    n = len(cells)
    points = np.zeros((n, 2))
    exact = np.zeros(n, dtype=bool)
    epsilons = np.zeros(n)
    edges = np.asarray(bounds).tolist()
    for seed, first, last in zip(np.asarray(seeds).tolist(), edges[:-1], edges[1:]):
        if last > first:
            batch = source.release_batch(cells[first:last], rng=np.random.default_rng(seed))
            points[first:last] = batch.points
            exact[first:last] = batch.exact
            epsilons[first:last] = batch.epsilons
    return points, exact, epsilons


def _assert_bytes_equal(got, expected):
    for column, want in zip(got, expected):
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes()


def test_fixture_interleaves_exact_and_noisy_rows(world, db, engines):
    users, _, cells = db.to_arrays()
    for name, engine in engines.items():
        if name == "geo_indistinguishability":
            continue  # Geo-I never discloses
        exact = np.array([engine.is_exact(cell) for cell in cells.tolist()])
        mixed = [user for user in np.unique(users) if len(set(exact[users == user])) == 2]
        assert mixed, name


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", MECHANISMS)
def test_shards_match_per_key_release_batch(world, db, engines, backend, name, shards):
    engine = engines[name]
    plan = ShardPlan.build(sorted(db.users()), shards, rng=SEED)
    # The full trace, a time window, and a sparse trace in which users 3
    # and 7 have no rows at all: their keys keep empty blocks.
    sparse = TraceDB(
        checkin
        for checkin in db.checkins()
        if checkin.user not in (3, 7) and (checkin.user != 5 or checkin.time < 4)
    )
    tasks = (
        shard_tasks(engine, db, plan)
        + shard_tasks(engine, db, plan, start=2, end=9)
        + shard_tasks(engine, sparse, plan)
    )
    assert any((np.diff(task.bounds) == 0).any() for task in tasks)
    results = dict(backend.run_unordered(_execute_shard, tasks))
    for index, task in enumerate(tasks):
        points, exact, epsilons, mechanism = results[index]
        expected = _per_key_oracle(
            resolve_release_source(task.source), task.seeds, task.bounds, task.cells
        )
        _assert_bytes_equal((points, exact, epsilons), expected)
        assert mechanism == engine.mechanism.name


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", MECHANISMS)
def test_sharded_run_matches_client_oracle(world, db, engines, backend, name, shards):
    engine = engines[name]
    mechanism = engine.mechanism

    def factory(world, policy, epsilon):
        return mechanism

    reference, _ = run_release_rounds(world, db, engine.policy, factory, EPSILON, rng=SEED)
    server = run_release_rounds_batched(
        world, db, engine, rng=SEED, shards=shards, backend=backend
    )
    assert list(server.released_db.checkins()) == list(reference.released_db.checkins())
    for user in db.users():
        assert server.ledger.spent(user).hex() == reference.ledger.spent(user).hex()


@pytest.mark.parametrize("name", MECHANISMS)
def test_key_longer_than_a_tile(world, engines, name):
    # The long key's cells are all noisy, so it needs a tile of its own.
    source = engines[name]
    noisy_cells = [cell for cell in range(world.n_cells) if not source.is_exact(cell)]
    rng = np.random.default_rng(9)
    sizes = [3, 0, FUSED_TILE_ROWS + 5, 7, 0]
    cells = rng.integers(world.n_cells, size=sum(sizes))
    cells[3 : 3 + sizes[2]] = rng.choice(noisy_cells, size=sizes[2])
    seeds = rng.integers(2**62, size=len(sizes))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    batch = source.release_streams(cells, seeds, bounds, workspace=RoundWorkspace())
    _assert_bytes_equal(
        (batch.points, batch.exact, batch.epsilons),
        _per_key_oracle(source, seeds, bounds, cells),
    )


@pytest.mark.parametrize("tile", [1, 2, 5, 16])
@pytest.mark.parametrize("name", MECHANISMS)
def test_tile_packing_edges(world, engines, monkeypatch, name, tile):
    # A tiny tile makes keys straddle, fill, and overflow tiles in every
    # combination, with and without a workspace.
    monkeypatch.setattr(mechanism_base, "FUSED_TILE_ROWS", tile)
    rng = np.random.default_rng(tile)
    sizes = rng.integers(0, 3 * tile + 2, size=40)
    cells = rng.integers(world.n_cells, size=int(sizes.sum()))
    seeds = rng.integers(2**62, size=len(sizes))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    source = engines[name]
    expected = _per_key_oracle(source, seeds, bounds, cells)
    for workspace in (None, RoundWorkspace(), RoundWorkspace(3)):
        batch = source.release_streams(cells, seeds, bounds, workspace=workspace)
        _assert_bytes_equal((batch.points, batch.exact, batch.epsilons), expected)


def test_release_streams_rejects_bad_bounds(world, engines):
    source = engines["planar_laplace"]
    cells = np.arange(6)
    for seeds, bounds in (([1, 2], [0, 6]), ([1], [1, 6]), ([1], [0, 5])):
        with pytest.raises(MechanismError):
            source.release_streams(cells, seeds, bounds)


def test_release_streams_with_no_rows(world, engines):
    batch = engines["planar_isotropic"].release_streams(
        np.empty(0, dtype=int), [4, 5], [0, 0, 0]
    )
    assert len(batch) == 0 and batch.points.shape == (0, 2)
