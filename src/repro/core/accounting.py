"""Privacy-budget accounting for repeated location releases.

PANDA's clients release a perturbed location every timestep and may *re-send*
their recent history under an updated policy during contact tracing.  Each
noisy release costs its mechanism's epsilon; exact (policy-permitted)
disclosures cost nothing.  :class:`BudgetLedger` records every expenditure
per user and enforces sequential composition against an optional cap, which
is how the experiments report the total privacy cost of the tracing protocol.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import BudgetError, ValidationError
from repro.utils.validation import check_non_negative

__all__ = ["BudgetEntry", "BudgetLedger", "running_total"]


def _epsilon_column(epsilons) -> np.ndarray:
    """``epsilons`` as a flat float64 column (values are checked separately)."""
    try:
        return np.asarray(epsilons, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"epsilons must be numbers: {exc}") from exc


def running_total(epsilons) -> float:
    """``epsilons`` added in order as one scalar running sum from ``0.0``.

    This is the ledger's accumulation: :meth:`BudgetLedger.charge` adds
    each charge to its user's running total, and
    :meth:`BudgetLedger.charge_many`'s ``np.add.at`` adds the rows one at a
    time in row order, so one user's charges folded here in charge order
    give that user's ledger total bit for bit.  Raises
    :class:`~repro.errors.ValidationError` at the first value that is not a
    finite number >= 0, as the ledger refuses it.
    """
    total = 0.0
    for epsilon in epsilons:
        try:
            value = float(epsilon)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"epsilons must be numbers: {exc}") from exc
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"epsilon must be a finite number >= 0, got {value}")
        total += value
    return total


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
        and skips the per-charge log — the population-scale setting (a
        10M-row ingest would otherwise retain 10M rows of columns, and
        10M :class:`BudgetEntry` objects once :attr:`entries` is read).  Cap enforcement and every total
        (:meth:`spent`, :meth:`total_spent`) are unaffected;
        :attr:`entries` / :meth:`spent_in_window` / :meth:`by_purpose`
        cover only recorded entries.  Store-backed runs lose nothing: the
        ``releases`` table *is* the durable per-charge log.

    Each user's total is the :func:`running_total` of that user's charges
    in charge order, whichever of :meth:`charge` and :meth:`charge_many`
    recorded them.
    """

    def __init__(self, cap: float | None = None, record_entries: bool = True) -> None:
        if cap is not None:
            check_non_negative("cap", cap)
        self.cap = cap
        self.record_entries = bool(record_entries)
        # Scalar charges append BudgetEntry objects; charge_many appends one
        # (users, times, epsilons, purpose) column chunk.  Chunks become
        # entries only when read (see _entry_list).
        self._entries: list = []
        self._n_entries = 0
        self._has_chunks = False
        self._spent: dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def charge(self, user: int, time: int, epsilon: float, purpose: str = "") -> BudgetEntry:
        """Record an expenditure; zero-cost entries (exact disclosures) allowed."""
        check_non_negative("epsilon", epsilon)
        if self.cap is not None:
            total = self._spent.get(int(user), 0.0) + epsilon
            if total > self.cap + 1e-12:
                raise self._cap_error(user, total)
        entry = BudgetEntry(user=int(user), time=int(time), epsilon=float(epsilon), purpose=purpose)
        if self.record_entries:
            self._entries.append(entry)
            self._n_entries += 1
        self._spent[entry.user] += entry.epsilon
        return entry

    def charge_many(self, users, times, epsilons, purpose: str = "") -> int:
        """Bulk :meth:`charge` over parallel arrays; returns the row count.

        Semantically ``for u, t, e in zip(...): self.charge(u, t, e,
        purpose)``, in one vectorised fold.  ``np.add.at`` adds the rows
        into the per-user totals one at a time in row order (the
        :func:`running_total` order), so every total is bit-identical to
        the scalar loop's.  With ``record_entries`` the
        rows are kept as one column chunk and become :class:`BudgetEntry`
        objects only when :attr:`entries` (or a query over them) is read.

        Raises where the scalar loop would, at the first row that is not a
        finite epsilon >= 0 (:class:`~repro.errors.ValidationError`) or that
        would exceed the cap (:class:`~repro.errors.BudgetError`); the rows
        before it remain charged.
        """
        users = np.asarray(users).reshape(-1).astype(np.int64)
        times = np.asarray(times).reshape(-1).astype(np.int64)
        epsilons = _epsilon_column(epsilons)
        n = min(len(users), len(times), len(epsilons))
        users, times, epsilons = users[:n], times[:n], epsilons[:n]
        stop, error = self._admissible(users, epsilons)
        self._fold(users[:stop], times[:stop], epsilons[:stop], purpose)
        if error is not None:
            raise error
        return n

    def check_many(self, users, epsilons) -> None:
        """Raise where :meth:`charge_many` would, without charging anything.

        Replays :meth:`charge_many`'s validation and row-order cap scan on
        scratch totals, so a caller can refuse a whole batch before writing
        any of it.  An uncapped ledger only validates the epsilons.
        """
        users = np.asarray(users).reshape(-1).astype(np.int64)
        _, error = self._admissible(users, _epsilon_column(epsilons))
        if error is not None:
            raise error

    def _admissible(self, users: np.ndarray, epsilons: np.ndarray):
        """``(stop, error)``: rows ``[:stop]`` may be charged, then ``error`` raised.

        ``error`` is ``None`` when every row may be charged.  Otherwise it is
        the exception the scalar loop raises at row ``stop``: a
        :class:`~repro.errors.ValidationError` for an epsilon that is not a
        finite number >= 0, or a :class:`~repro.errors.BudgetError` where a
        capped ledger's sequential scan — each user's running total starting
        from what they have spent and adding the rows in order, as
        :meth:`charge` would — first passes the cap.  Nothing is charged.
        """
        bad = ~(np.isfinite(epsilons) & (epsilons >= 0))
        stop = int(bad.argmax()) if bad.any() else len(epsilons)
        if self.cap is not None:
            limit = self.cap + 1e-12
            spent = self._spent
            pending: dict[int, float] = {}
            for row, (user, epsilon) in enumerate(
                zip(users[:stop].tolist(), epsilons[:stop].tolist())
            ):
                total = (pending[user] if user in pending else spent.get(user, 0.0)) + epsilon
                if total > limit:
                    return row, self._cap_error(user, total)
                pending[user] = total
        if stop < len(epsilons):
            return stop, ValidationError(
                f"epsilon must be a finite number >= 0, got {epsilons[stop]}"
            )
        return stop, None

    def _cap_error(self, user, total: float) -> BudgetError:
        return BudgetError(
            f"user {int(user)} would spend {total:.4g} exceeding cap {self.cap:.4g}"
        )

    def _fold(self, users, times, epsilons, purpose: str) -> None:
        """Add validated, cap-checked rows to the totals (and the entry log)."""
        if not len(users):
            return
        keys, first, inverse = np.unique(users, return_index=True, return_inverse=True)
        spent = self._spent
        totals = np.array([spent.get(key, 0.0) for key in keys.tolist()])
        np.add.at(totals, inverse, epsilons)
        # Users new to the ledger join the totals dict in first-charge
        # order, as the scalar loop inserts them (total_spent sums in it).
        order = np.argsort(first, kind="stable")
        spent.update(zip(keys[order].tolist(), totals[order].tolist()))
        if self.record_entries:
            self._entries.append((users.copy(), times.copy(), epsilons.copy(), purpose))
            self._n_entries += len(users)
            self._has_chunks = True

    def _entry_list(self) -> list[BudgetEntry]:
        """Every recorded entry in charge order, materialising pending chunks."""
        if self._has_chunks:
            flat: list[BudgetEntry] = []
            for item in self._entries:
                if type(item) is tuple:
                    users, times, epsilons, purpose = item
                    flat.extend(
                        BudgetEntry(user, time, epsilon, purpose)
                        for user, time, epsilon in zip(
                            users.tolist(), times.tolist(), epsilons.tolist()
                        )
                    )
                else:
                    flat.append(item)
            self._entries = flat
            self._has_chunks = False
        return self._entries

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
            for entry in self._entry_list()
            if entry.user == int(user) and start <= entry.time <= end
        )

    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[BudgetEntry, ...]:
        return tuple(self._entry_list())

    def users(self) -> frozenset[int]:
        return frozenset(self._spent)

    def total_spent(self) -> float:
        """Epsilon summed over all users (system-wide cost metric)."""
        return sum(self._spent.values())

    def by_purpose(self) -> dict[str, float]:
        """Total epsilon grouped by the ``purpose`` tag of each entry."""
        totals: dict[str, float] = defaultdict(float)
        for entry in self._entry_list():
            totals[entry.purpose] += entry.epsilon
        return dict(totals)

    def __len__(self) -> int:
        return self._n_entries

    def __repr__(self) -> str:
        return (
            f"BudgetLedger(entries={self._n_entries}, users={len(self._spent)}, "
            f"cap={self.cap})"
        )
