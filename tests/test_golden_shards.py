"""Golden values for the sharded release path and every sharded evaluator.

The determinism suites compare sharded runs against each other, so a change
that moves the last bit of every shard count alike passes them all.  These
pins do not move with the code: each value was recorded once, on a small
fixed configuration (6x6 world, ``geolife_like(n_users=7, horizon=9,
rng=1)``, P-LM over G1 at epsilon 1, 3 shards, serial backend), and any
change to how a shard's keys are packaged or drawn must reproduce them
exactly.  Floats are compared through ``float.hex``.
"""

import hashlib

import numpy as np
import pytest

from repro.adversary.metrics import adversary_error, utility_error
from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.engine import PrivacyEngine, ShardPlan, stream_shard_releases
from repro.epidemic.analysis import r0_estimation_error
from repro.epidemic.monitor import monitoring_utility, perturbed_flows
from repro.epidemic.tracing import ContactTracingProtocol
from repro.experiments.configs import build_policy
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like

SHARDED = {"shards": 3, "backend": "serial"}


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=7, horizon=9, rng=1)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


def test_stream_shard_releases(db, engine):
    plan = ShardPlan.build(sorted(db.users()), 3, rng=17)
    parts = list(stream_shard_releases(engine, db, plan, backend="serial"))
    users = np.concatenate([users for users, _, _ in parts])
    times = np.concatenate([times for _, times, _ in parts])
    order = np.lexsort((times, users))
    digest = hashlib.sha256()
    for column in (
        users.astype(np.int64),
        times.astype(np.int64),
        np.concatenate([batch.points for _, _, batch in parts]),
        np.concatenate([batch.exact for _, _, batch in parts]),
        np.concatenate([batch.epsilons for _, _, batch in parts]),
    ):
        digest.update(np.ascontiguousarray(column[order]).tobytes())
    assert len(users) == 63
    assert digest.hexdigest() == (
        "7e8a384f01011fbdf6c8c88881667509a6bdf72bb1ccf2f80bef795443c1f3ed"
    )


def test_e1_monitoring_report(world, db, engine):
    report = monitoring_utility(world, engine, db, rng=11, **SHARDED)
    assert report.mean_euclidean_error.hex() == "0x1.a841f933dbc0dp+1"
    assert report.area_accuracy.hex() == "0x1.1451451451451p-1"
    assert report.flow_l1_error.hex() == "0x1.5249249249249p+0"
    assert report.n_releases == 63


def test_e2_r0_estimation_error(world, db, engine):
    r0_true, r0_perturbed, error = r0_estimation_error(
        world, engine, db, p_transmit=0.3, gamma=0.1, rng=12, **SHARDED
    )
    assert r0_true.hex() == "0x1.b6db6db6db6dap-1"
    assert r0_perturbed.hex() == "0x1.8618618618617p-1"
    assert error.hex() == "0x1.8618618618618p-4"


def test_e3_contact_tracing(world, db):
    protocol = ContactTracingProtocol(
        world, build_policy("G1", world), PolicyLaplaceMechanism, 1.0,
        min_count=2, window=6,
    )
    # Diagnosis at the last timestep with a 6-step window: the window mask
    # drops the first three rounds, and the patient (user 0) is not a key.
    outcome = protocol.run(db, 0, 8, rng=13, **SHARDED)
    assert outcome.epsilon_spent.hex() == "0x1.e000000000000p+4"
    assert outcome.flagged == frozenset({2})
    assert outcome.candidates == frozenset({1, 2, 3, 4, 5, 6})
    assert outcome.true_contacts == frozenset({2})


def test_e4_trial_metrics(world, engine):
    cells = list(range(0, 36, 5))
    utility = utility_error(world, engine, cells, rng=14, trials_per_cell=3, **SHARDED)
    adversary = adversary_error(world, engine, cells, rng=15, trials_per_cell=3, **SHARDED)
    assert utility.hex() == "0x1.6c53b37df0895p+1"
    assert adversary.hex() == "0x1.85f7133c85b18p+0"


def test_e11_perturbed_flows(world, db, engine):
    true_flows, observed_flows = perturbed_flows(world, engine, db, rng=16, **SHARDED)
    assert dict(true_flows) == {(0, 0): 16, (1, 1): 16, (3, 3): 24}
    assert dict(observed_flows) == {
        (0, 0): 4, (0, 1): 2, (0, 2): 4, (0, 3): 2,
        (1, 0): 3, (1, 1): 11, (1, 2): 1, (1, 3): 3,
        (2, 0): 3, (2, 1): 2, (2, 2): 2, (2, 3): 3,
        (3, 0): 5, (3, 1): 2, (3, 2): 4, (3, 3): 5,
    }
