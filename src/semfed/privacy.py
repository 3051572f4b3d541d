"""Per-client differential-privacy ledgers under basic composition.

Each round a client participates in costs an (epsilon, delta) pair;
the session total is the plain sum of each coordinate.  Nothing
fancier (no advanced composition, no moments accountant) is attempted:
the sums are exact, conservative, and auditable.  Delta totals are not
clamped; a total at or above 1 makes the guarantee vacuous and is
flagged with a warning instead of being silently truncated.

Ledgers are values: record_round returns a new ledger and never
mutates its argument.  The constructor holds the one rule that rounds
strictly increase; the CSV loader builds each client's ledger once.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path

__all__ = [
    "NonMonotoneRoundError",
    "PrivacyWarning",
    "RoundBudget",
    "PrivacyLedger",
    "record_round",
    "total_budget",
    "load_ledgers_csv",
]


class NonMonotoneRoundError(ValueError):
    """Raised when a round index does not increase; ``position`` indexes that round."""

    def __init__(self, message: str, position: int = 0) -> None:
        super().__init__(message)
        self.position = position


class PrivacyWarning(UserWarning):
    """Signals a composed budget that no longer guarantees anything."""


@dataclass(frozen=True)
class RoundBudget:
    """Privacy cost charged for one round of participation."""

    round_index: int
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {self.round_index}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class PrivacyLedger:
    """A client's per-round budgets in strictly increasing round order."""

    client: int
    rounds: tuple[RoundBudget, ...] = ()

    def __post_init__(self) -> None:
        if self.client < 0:
            raise ValueError(f"client must be >= 0, got {self.client}")
        for position, (a, b) in enumerate(zip(self.rounds, self.rounds[1:]), start=1):
            if b.round_index <= a.round_index:
                what = f"round {b.round_index} does not follow round {a.round_index}"
                raise NonMonotoneRoundError(f"{what} on client {self.client}'s ledger", position)


def record_round(ledger: PrivacyLedger, budget: RoundBudget) -> PrivacyLedger:
    """Append one round's budget, returning a new ledger.

    Appending n rounds one call at a time is O(n**2), since each call copies
    and re-checks every round; build a whole ledger with its constructor.
    """
    return replace(ledger, rounds=ledger.rounds + (budget,))


def total_budget(ledger: PrivacyLedger) -> tuple[float, float]:
    """Composed (epsilon, delta): coordinate-wise sums over all rounds.

    Warns (PrivacyWarning) when the delta total reaches 1, since the
    guarantee is then vacuous; the unclamped sum is still returned so
    reports stay honest.
    """
    eps_total = sum(b.epsilon for b in ledger.rounds)
    delta_total = sum(b.delta for b in ledger.rounds)
    if delta_total >= 1.0:
        warnings.warn(
            f"client {ledger.client}: composed delta {delta_total} >= 1; "
            "the privacy guarantee is vacuous",
            PrivacyWarning,
            stacklevel=2,
        )
    return eps_total, delta_total


def load_ledgers_csv(path: str | Path) -> list[PrivacyLedger]:
    """Build per-client ledgers from a CSV with columns client, round, epsilon, delta.

    Rows are sorted by (client, round), so file order does not matter,
    and each client's ledger is built in one constructor call; a repeated
    round fails with NonMonotoneRoundError.  Every error about a row
    starts with ``path:lineno:``.
    """
    rows: list[tuple[int, str, RoundBudget]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"client", "round", "epsilon", "delta"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(
                f"{path}: expected header with columns {sorted(required)}, got {reader.fieldnames}"
            )
        try:
            for row in reader:
                where = f"{path}:{reader.line_num}"
                try:
                    client, round_index = int(row["client"]), int(row["round"])
                    budget = RoundBudget(round_index, float(row["epsilon"]), float(row["delta"]))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{where}: malformed row {row}: {exc}") from exc
                rows.append((client, where, budget))
        except csv.Error as exc:  # the record that failed starts on the next line
            raise ValueError(f"{path}:{reader.line_num + 1}: {exc}") from exc
    rows.sort(key=lambda r: (r[0], r[2].round_index))  # stable: duplicates keep file order
    ledgers = []
    for client, group in groupby(rows, key=lambda r: r[0]):
        _, wheres, budgets = zip(*group)
        try:
            ledgers.append(PrivacyLedger(client, budgets))
        except ValueError as exc:  # name the round out of order, else the client's first row
            raise type(exc)(f"{wheres[getattr(exc, 'position', 0)]}: {exc}") from exc
    return ledgers
