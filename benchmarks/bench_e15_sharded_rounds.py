"""E15 — sharded release rounds: throughput vs shard count per backend.

The sharded pipeline's promise is two-sided: shard the population freely
(throughput) without moving a single release (determinism).  These
benchmarks measure the first half on the pytest-benchmark harness — full
``run_release_rounds_batched`` runs across shard counts and backends — and
``test_sharded_matches_unsharded`` re-pins the second half so a perf
regression fix can never silently trade determinism away.

``test_sharded_throughput_gate`` is the throughput half's floor: the
sharded path at one shard on the serial backend — per-user streams, drawn by
one bulk kernel per shard — must release at least 1.5x as fast as the
unsharded single-stream path, which draws each round's rows from one
shared generator in one call.

``benchmarks/run_bench.py`` times the same sweep without pytest overhead and
records it (with backend / shard-count metadata) into ``BENCH_eval.json``.
"""

import time

import pytest

from repro.engine import PrivacyEngine
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import run_release_rounds_batched

SHARD_COUNTS = [1, 2, 4, 8]
BACKENDS = ["serial", "thread", "process"]
N_USERS = 200
HORIZON = 24
#: Gate population and floor: sharded (1 shard, serial) over single-stream.
GATE_USERS = 1000
GATE_REPEATS = 5
SHARDED_SPEEDUP_FLOOR = 1.5


def _workload(size: int = 16, n_users: int = N_USERS):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=HORIZON, rng=1)
    engine = PrivacyEngine.from_spec(world, mechanism="planar_laplace", policy="G1", epsilon=1.0)
    return world, db, engine


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sharded_rounds(benchmark, backend, shards):
    world, db, engine = _workload()
    benchmark(
        run_release_rounds_batched, world, db, engine,
        rng=0, shards=shards, backend=backend,
    )


def test_bench_unsharded_reference(benchmark):
    """The PR 1 time-major single-stream path, for before/after comparison."""
    world, db, engine = _workload()
    benchmark(run_release_rounds_batched, world, db, engine, rng=0)


def test_sharded_matches_unsharded():
    """Acceptance: every (backend, shards) pair releases identical values."""
    world, db, engine = _workload(size=8)
    reference = run_release_rounds_batched(world, db, engine, rng=7, shards=1)
    expected = list(reference.released_db.checkins())
    timings = {}
    for backend in BACKENDS:
        for shards in SHARD_COUNTS:
            start = time.perf_counter()
            server = run_release_rounds_batched(
                world, db, engine, rng=7, shards=shards, backend=backend
            )
            timings[(backend, shards)] = time.perf_counter() - start
            assert list(server.released_db.checkins()) == expected, (backend, shards)
    releases = len(db)
    print()
    for (backend, shards), seconds in timings.items():
        print(f"E15: {backend:<8} shards={shards}  {releases / seconds:>12,.0f} releases/s")


def test_sharded_throughput_gate():
    """Acceptance: shards=1 serial releases >= 1.5x the single-stream rate.

    Best of ``GATE_REPEATS`` alternating runs per path, after one warm-up
    of each, so a scheduling hiccup on a shared runner cannot decide it.
    """
    world, db, engine = _workload(size=20, n_users=GATE_USERS)
    paths = {
        "single-stream": lambda: run_release_rounds_batched(world, db, engine, rng=0),
        "sharded": lambda: run_release_rounds_batched(
            world, db, engine, rng=0, shards=1, backend="serial"
        ),
    }
    best = {}
    for repeat in range(GATE_REPEATS + 1):
        for name, run in paths.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            if repeat:  # the first round warms caches
                best[name] = min(best.get(name, elapsed), elapsed)
    releases = len(db)
    speedup = best["single-stream"] / best["sharded"]
    print()
    for name, seconds in best.items():
        print(f"E15 gate: {name:<13} {releases / seconds:>12,.0f} releases/s")
    print(f"E15 gate: sharded / single-stream = {speedup:.2f}x (floor {SHARDED_SPEEDUP_FLOOR}x)")
    assert speedup >= SHARDED_SPEEDUP_FLOOR
