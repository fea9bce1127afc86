"""Unit tests for the privacy-budget ledger."""

import pytest

from repro.core.accounting import BudgetLedger
from repro.errors import BudgetError, ValidationError


class TestCharging:
    def test_accumulates(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        ledger.charge(1, 1, 0.25)
        assert ledger.spent(1) == pytest.approx(0.75)

    def test_users_separate(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        ledger.charge(2, 0, 1.5)
        assert ledger.spent(1) == 0.5
        assert ledger.spent(2) == 1.5

    def test_zero_cost_disclosure(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.0, purpose="exact-disclosure")
        assert ledger.spent(1) == 0.0
        assert len(ledger) == 1

    def test_negative_rejected(self):
        ledger = BudgetLedger()
        with pytest.raises(ValidationError):
            ledger.charge(1, 0, -0.1)

    def test_unknown_user_spends_zero(self):
        assert BudgetLedger().spent(99) == 0.0


class TestCap:
    def test_cap_enforced(self):
        ledger = BudgetLedger(cap=1.0)
        ledger.charge(1, 0, 0.6)
        with pytest.raises(BudgetError):
            ledger.charge(1, 1, 0.5)
        # Failed charge must not have been recorded.
        assert ledger.spent(1) == pytest.approx(0.6)

    def test_exact_cap_allowed(self):
        ledger = BudgetLedger(cap=1.0)
        ledger.charge(1, 0, 0.5)
        ledger.charge(1, 1, 0.5)
        assert ledger.spent(1) == pytest.approx(1.0)

    def test_remaining(self):
        ledger = BudgetLedger(cap=2.0)
        ledger.charge(1, 0, 0.5)
        assert ledger.remaining(1) == pytest.approx(1.5)
        assert ledger.remaining(2) == pytest.approx(2.0)

    def test_remaining_without_cap_infinite(self):
        assert BudgetLedger().remaining(1) == float("inf")

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            BudgetLedger(cap=-1.0)

    def test_check_many_refuses_exactly_where_charge_many_does(self):
        # Interleaved users with float-sensitive epsilons: 0.1 * 3 sums past
        # 0.3 by round-off only, so agreement needs the same row-order
        # accumulation, not just the same totals.
        for n_rows in range(1, 9):
            users = [1, 2] * n_rows
            epsilons = [0.1, 0.05] * n_rows
            checked = BudgetLedger(cap=0.3)
            checked.charge(2, 0, 0.05)
            charged = BudgetLedger(cap=0.3)
            charged.charge(2, 0, 0.05)
            try:
                charged.charge_many(users, range(len(users)), epsilons)
                refused = False
            except BudgetError:
                refused = True
            if refused:
                with pytest.raises(BudgetError):
                    checked.check_many(users, epsilons)
            else:
                checked.check_many(users, epsilons)
            # The check itself never charges.
            assert checked.users() == {2}
            assert checked.spent(2) == 0.05
            assert len(checked) == 1


class TestInvalidEpsilons:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.5])
    def test_charge_many_refuses_at_the_bad_row(self, bad):
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(ValidationError):
            ledger.charge_many([2, 1, 2], [0, 0, 1], [0.25, bad, 0.5])
        # Rows before the bad one stay charged, as in the scalar loop.
        assert ledger.spent(2) == 0.25
        assert 1 not in ledger.users()
        assert len(ledger) == 1

    def test_nan_cannot_disable_the_cap(self):
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(ValidationError):
            ledger.charge_many([1], [0], [float("nan")])
        ledger.charge_many([1], [1], [1.0])
        for time in range(2, 6):
            with pytest.raises(BudgetError):
                ledger.charge_many([1], [time], [1.0])
        assert ledger.spent(1) == 1.0

    @pytest.mark.parametrize("cap", [None, 1.0])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_check_many_refuses_invalid_epsilons(self, cap, bad):
        ledger = BudgetLedger(cap=cap)
        with pytest.raises(ValidationError):
            ledger.check_many([1, 2], [0.5, bad])
        assert ledger.users() == frozenset()

    def test_check_many_reports_the_earlier_of_cap_and_bad_row(self):
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(BudgetError):
            ledger.check_many([1, 1, 1], [0.75, 0.5, float("nan")])
        with pytest.raises(ValidationError):
            ledger.check_many([1, 1, 1], [0.75, float("nan"), 0.5])


class TestQueries:
    def test_window(self):
        ledger = BudgetLedger()
        for time in range(5):
            ledger.charge(1, time, 0.1)
        assert ledger.spent_in_window(1, 1, 3) == pytest.approx(0.3)

    def test_by_purpose(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5, purpose="stream")
        ledger.charge(1, 1, 0.5, purpose="stream")
        ledger.charge(1, 2, 1.0, purpose="tracing-resend")
        totals = ledger.by_purpose()
        assert totals["stream"] == pytest.approx(1.0)
        assert totals["tracing-resend"] == pytest.approx(1.0)

    def test_total_and_users(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        ledger.charge(2, 0, 0.25)
        assert ledger.total_spent() == pytest.approx(0.75)
        assert ledger.users() == frozenset({1, 2})

    def test_entries_immutable_copy(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        entries = ledger.entries
        assert len(entries) == 1
        assert entries[0].epsilon == 0.5
