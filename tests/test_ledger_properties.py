"""Hypothesis properties: bulk ``charge_many`` equals a scalar ``charge`` loop.

``BudgetLedger.charge_many`` folds a batch with ``np.unique`` plus
``np.add.at`` and keeps its entries as column chunks.  The scalar
``charge`` loop is the oracle: for any interleaving of scalar and bulk
calls, per-user totals must agree to the last bit (compared by
``float.hex``), entries must come back in the same order, and every query
over them (``len``, ``spent_in_window``, ``by_purpose``, ``total_spent``,
``users``) must agree.  Epsilons are drawn from values whose sums round
(0.1 and 0.05 interleave), so a change of accumulation order shows.  Capped
ledgers and invalid epsilons must refuse at the same row, leaving the same
prefix charged.  ``running_total``, the accumulation the ledger documents,
must give each user's total from that user's charges in charge order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import BudgetLedger, running_total
from repro.errors import BudgetError, ValidationError

#: Values whose running sums round differently depending on the order of
#: the adds (0.1 + 0.05 + 0.1 != 0.1 + 0.1 + 0.05 in float64).
ROUNDING_EPSILONS = [0.1, 0.05, 0.1, 0.3, 0.0, 1e-17, 0.7, 1 / 3]

users = st.integers(0, 5)
times = st.integers(0, 20)
epsilons = st.sampled_from(ROUNDING_EPSILONS) | st.floats(0.0, 2.0, allow_nan=False)
purposes = st.sampled_from(["", "stream", "tracing-resend"])
rows = st.lists(st.tuples(users, times, epsilons), max_size=25)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("scalar"), st.tuples(users, times, epsilons), purposes),
        st.tuples(st.just("bulk"), rows, purposes),
    ),
    max_size=12,
)


def _scalar_loop(ledger, batch, purpose):
    for user, time, epsilon in batch:
        ledger.charge(user, time, epsilon, purpose=purpose)


def _bulk(ledger, batch, purpose, as_arrays):
    columns = [list(column) for column in zip(*batch)] or [[], [], []]
    if as_arrays:
        columns = [
            np.asarray(columns[0], dtype=np.int64),
            np.asarray(columns[1], dtype=np.int64),
            np.asarray(columns[2], dtype=float),
        ]
    ledger.charge_many(*columns, purpose=purpose)


def _apply(ledger, operation, bulk, as_arrays=False):
    """Run one operation; return the exception type it raised, if any."""
    kind, payload, purpose = operation
    batch = [payload] if kind == "scalar" else payload
    try:
        if kind == "bulk" and bulk:
            _bulk(ledger, batch, purpose, as_arrays)
        else:
            _scalar_loop(ledger, batch, purpose)
    except (BudgetError, ValidationError) as exc:
        return type(exc)
    return None


def _assert_same(bulk, scalar):
    assert bulk.users() == scalar.users()
    for user in scalar.users():
        assert bulk.spent(user).hex() == scalar.spent(user).hex()
    assert float(bulk.total_spent()).hex() == float(scalar.total_spent()).hex()
    assert len(bulk) == len(scalar)
    assert bulk.entries == scalar.entries
    assert bulk.by_purpose() == scalar.by_purpose()
    for user in range(6):
        for start, end in ((0, 20), (3, 9), (10, 10)):
            assert bulk.spent_in_window(user, start, end) == scalar.spent_in_window(
                user, start, end
            )


@settings(deadline=None, max_examples=150)
@given(operations, st.booleans(), st.booleans())
def test_interleaved_bulk_and_scalar_match_scalar_loop(ops, record_entries, as_arrays):
    bulk = BudgetLedger(record_entries=record_entries)
    scalar = BudgetLedger(record_entries=record_entries)
    for operation in ops:
        assert _apply(bulk, operation, True, as_arrays) is None
        assert _apply(scalar, operation, False) is None
        # Reading entries between calls materialises the chunks; later
        # chunks must still land after them.
        if record_entries and operation[0] == "scalar":
            assert bulk.entries == scalar.entries
    _assert_same(bulk, scalar)
    if not record_entries:
        assert bulk.entries == () and len(bulk) == 0


@settings(deadline=None, max_examples=150)
@given(operations, st.sampled_from([0.3, 0.45, 1.0, 2.5]), st.booleans())
def test_capped_ledger_refuses_at_the_same_row(ops, cap, record_entries):
    bulk = BudgetLedger(cap=cap, record_entries=record_entries)
    scalar = BudgetLedger(cap=cap, record_entries=record_entries)
    for operation in ops:
        if operation[0] == "bulk":
            before = ({u: bulk.spent(u).hex() for u in bulk.users()}, len(bulk))
            try:
                bulk.check_many([u for u, _, _ in operation[1]], [e for _, _, e in operation[1]])
                check_error = None
            except (BudgetError, ValidationError) as exc:
                check_error = type(exc)
            # The check charges nothing.
            assert ({u: bulk.spent(u).hex() for u in bulk.users()}, len(bulk)) == before
        error = _apply(bulk, operation, True)
        assert error == _apply(scalar, operation, False)
        if operation[0] == "bulk":
            assert check_error == error
        _assert_same(bulk, scalar)


bad_epsilons = st.sampled_from([math.nan, math.inf, -math.inf, -0.1])


@settings(deadline=None, max_examples=100)
@given(rows, st.integers(0, 25), bad_epsilons, st.sampled_from([None, 0.4, 3.0]))
def test_invalid_epsilon_refused_at_its_row(batch, position, bad, cap):
    position = min(position, len(batch))
    batch = batch[:position] + [(1, 0, bad)] + batch[position:]
    bulk = BudgetLedger(cap=cap)
    scalar = BudgetLedger(cap=cap)
    error = _apply(bulk, ("bulk", batch, "stream"), True, as_arrays=True)
    assert error is not None
    assert error == _apply(scalar, ("bulk", batch, "stream"), False)
    _assert_same(bulk, scalar)
    checked = BudgetLedger(cap=cap)
    try:
        checked.check_many([u for u, _, _ in batch], np.array([e for _, _, e in batch]))
    except (BudgetError, ValidationError) as exc:
        assert type(exc) is error
    else:
        raise AssertionError("check_many accepted an invalid epsilon")
    assert checked.users() == frozenset()


@settings(deadline=None, max_examples=150)
@given(operations)
def test_running_total_is_each_users_ledger_total(ops):
    bulk, scalar = BudgetLedger(), BudgetLedger()
    charged: dict[int, list[float]] = {}
    for operation in ops:
        assert _apply(bulk, operation, True) is None
        assert _apply(scalar, operation, False) is None
        kind, payload, _ = operation
        for user, _, epsilon in [payload] if kind == "scalar" else payload:
            charged.setdefault(user, []).append(epsilon)
    for user, epsilons in charged.items():
        total = running_total(epsilons).hex()
        assert total == bulk.spent(user).hex() == scalar.spent(user).hex()


@settings(deadline=None, max_examples=50)
@given(rows, bad_epsilons)
def test_running_total_refuses_what_the_ledger_refuses(batch, bad):
    with pytest.raises(ValidationError, match="finite number >= 0"):
        running_total([epsilon for _, _, epsilon in batch] + [bad])
