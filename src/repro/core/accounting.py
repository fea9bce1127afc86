"""Privacy-budget accounting for repeated location releases.

PANDA's clients release a perturbed location every timestep and may *re-send*
their recent history under an updated policy during contact tracing.  Each
noisy release costs its mechanism's epsilon; exact (policy-permitted)
disclosures cost nothing.  :class:`BudgetLedger` records every expenditure
per user and enforces sequential composition against an optional cap, which
is how the experiments report the total privacy cost of the tracing protocol.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import BudgetError
from repro.utils.validation import check_non_negative

__all__ = ["BudgetEntry", "BudgetLedger"]


def _as_scalar_list(values) -> list:
    """Plain Python scalars from an array-like (fast bulk-charge path)."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return list(values)


@dataclass(frozen=True)
class BudgetEntry:
    """One recorded expenditure: ``user`` spent ``epsilon`` at time ``t``."""

    user: int
    time: int
    epsilon: float
    purpose: str = ""


class BudgetLedger:
    """Sequential-composition ledger of per-user epsilon expenditure.

    Parameters
    ----------
    cap:
        Optional per-user lifetime budget.  :meth:`charge` raises
        :class:`~repro.errors.BudgetError` when an expenditure would exceed
        it, *before* recording the entry.
    record_entries:
        When ``False`` the ledger keeps only the per-user running totals
        and skips the per-charge :class:`BudgetEntry` log — the
        population-scale setting (a 10M-row ingest would otherwise retain
        ~10M entry objects).  Cap enforcement and every total
        (:meth:`spent`, :meth:`total_spent`) are unaffected;
        :attr:`entries` / :meth:`spent_in_window` / :meth:`by_purpose`
        cover only recorded entries.  Store-backed runs lose nothing: the
        ``releases`` table *is* the durable per-charge log.
    """

    def __init__(self, cap: float | None = None, record_entries: bool = True) -> None:
        if cap is not None:
            check_non_negative("cap", cap)
        self.cap = cap
        self.record_entries = bool(record_entries)
        self._entries: list[BudgetEntry] = []
        self._spent: dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def charge(self, user: int, time: int, epsilon: float, purpose: str = "") -> BudgetEntry:
        """Record an expenditure; zero-cost entries (exact disclosures) allowed."""
        check_non_negative("epsilon", epsilon)
        if self.cap is not None and self._spent[user] + epsilon > self.cap + 1e-12:
            raise BudgetError(
                f"user {user} would spend {self._spent[user] + epsilon:.4g} "
                f"exceeding cap {self.cap:.4g}"
            )
        entry = BudgetEntry(user=int(user), time=int(time), epsilon=float(epsilon), purpose=purpose)
        if self.record_entries:
            self._entries.append(entry)
        self._spent[entry.user] += entry.epsilon
        return entry

    def charge_many(self, users, times, epsilons, purpose: str = "") -> int:
        """Bulk :meth:`charge` over parallel arrays; returns the row count.

        Semantically ``for u, t, e in zip(...): self.charge(u, t, e,
        purpose)`` — same sequential cap enforcement, same scalar float
        accumulation order (so per-user totals are bit-identical to the
        scalar loop), same entries when ``record_entries`` is on — minus
        the per-row method-call and dataclass overhead on the batched
        ingest hot path.  Raises mid-way exactly where the scalar loop
        would; rows before the offending one remain charged.
        """
        cap = self.cap
        spent = self._spent
        entries = self._entries
        record = self.record_entries
        count = 0
        for user, time, epsilon in zip(
            _as_scalar_list(users), _as_scalar_list(times), _as_scalar_list(epsilons)
        ):
            if epsilon < 0:
                check_non_negative("epsilon", epsilon)
            user = int(user)
            epsilon = float(epsilon)
            if cap is not None and spent[user] + epsilon > cap + 1e-12:
                raise BudgetError(
                    f"user {user} would spend {spent[user] + epsilon:.4g} "
                    f"exceeding cap {cap:.4g}"
                )
            if record:
                entries.append(
                    BudgetEntry(user=user, time=int(time), epsilon=epsilon, purpose=purpose)
                )
            spent[user] += epsilon
            count += 1
        return count

    def check_many(self, users, epsilons) -> None:
        """Raise where :meth:`charge_many` would, without charging anything.

        Replays :meth:`charge_many`'s row-order float accumulation over the
        rows' users on scratch totals, so a caller can refuse a whole batch
        before writing any of it.  A no-op on an uncapped ledger.
        """
        cap = self.cap
        if cap is None:
            return
        spent = self._spent
        pending: dict[int, float] = {}
        for user, epsilon in zip(_as_scalar_list(users), _as_scalar_list(epsilons)):
            if epsilon < 0:
                check_non_negative("epsilon", epsilon)
            user = int(user)
            total = pending[user] if user in pending else spent.get(user, 0.0)
            total += float(epsilon)
            if total > cap + 1e-12:
                raise BudgetError(
                    f"user {user} would spend {total:.4g} exceeding cap {cap:.4g}"
                )
            pending[user] = total

    def spent(self, user: int) -> float:
        """Total epsilon spent by ``user`` (sequential composition)."""
        return self._spent.get(int(user), 0.0)

    def remaining(self, user: int) -> float:
        """Budget left for ``user``; infinite when no cap is set."""
        if self.cap is None:
            return float("inf")
        return max(self.cap - self.spent(user), 0.0)

    def spent_in_window(self, user: int, start: int, end: int) -> float:
        """Epsilon spent by ``user`` with ``start <= time <= end``."""
        return sum(
            entry.epsilon
            for entry in self._entries
            if entry.user == int(user) and start <= entry.time <= end
        )

    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[BudgetEntry, ...]:
        return tuple(self._entries)

    def users(self) -> frozenset[int]:
        return frozenset(self._spent)

    def total_spent(self) -> float:
        """Epsilon summed over all users (system-wide cost metric)."""
        return sum(self._spent.values())

    def by_purpose(self) -> dict[str, float]:
        """Total epsilon grouped by the ``purpose`` tag of each entry."""
        totals: dict[str, float] = defaultdict(float)
        for entry in self._entries:
            totals[entry.purpose] += entry.epsilon
        return dict(totals)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"BudgetLedger(entries={len(self._entries)}, users={len(self._spent)}, "
            f"cap={self.cap})"
        )
