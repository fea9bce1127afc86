"""Shared fixtures for the test suite.

A small 6x6 world keeps every mechanism construction fast (including the
complete-graph G2) while remaining large enough for coarse areas, multi-hop
graph distances, and multi-component policies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    GridWorld,
    PolicyLaplaceMechanism,
    PolicyPlanarIsotropicMechanism,
    area_policy,
    complete_policy,
    grid_policy,
)


@pytest.fixture
def world() -> GridWorld:
    return GridWorld(6, 6)


@pytest.fixture
def big_world() -> GridWorld:
    return GridWorld(12, 12)


@pytest.fixture
def g1(world):
    """Grid-adjacency policy (paper's G1)."""
    return grid_policy(world)


@pytest.fixture
def ga(world):
    """Coarse-area clique policy (paper's Ga): 3x3 blocks on the 6x6 world."""
    return area_policy(world, 3, 3, name="Ga")


@pytest.fixture
def gb(world):
    """Fine-area clique policy (paper's Gb): 2x2 blocks."""
    return area_policy(world, 2, 2, name="Gb")


@pytest.fixture
def g2_small(world):
    """Complete policy over a small location set (paper's G2)."""
    return complete_policy([0, 1, 7, 14, 21], name="G2")


@pytest.fixture
def laplace(world, g1):
    return PolicyLaplaceMechanism(world, g1, epsilon=1.0)


@pytest.fixture
def pim(world, g1):
    return PolicyPlanarIsotropicMechanism(world, g1, epsilon=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _stream_rounds(engine, db, plan, backend="serial"):
    """``stream_shard_releases`` rows regrouped into ``(time, users, batch)``
    rounds, ordered by ``(time, user)`` — the round-major shape
    ``Server.ingest_batch`` consumes."""
    from repro.core.mechanisms.base import ReleaseBatch
    from repro.engine import stream_shard_releases

    parts = list(stream_shard_releases(engine, db, plan, backend=backend))
    users = np.concatenate([users for users, _, _ in parts])
    times = np.concatenate([times for _, times, _ in parts])
    columns = {
        name: np.concatenate([getattr(batch, name) for _, _, batch in parts])
        for name in ("points", "exact", "epsilons", "cells")
    }
    order = np.lexsort((users, times))
    rounds = []
    for time in np.unique(times).tolist():
        rows = order[times[order] == time]
        rounds.append(
            (
                time,
                users[rows],
                ReleaseBatch(
                    **{name: column[rows] for name, column in columns.items()},
                    mechanism=parts[0][2].mechanism,
                ),
            )
        )
    return rounds


@pytest.fixture
def stream_rounds():
    """The round regrouping of the streamed shard releases (see above)."""
    return _stream_rounds
