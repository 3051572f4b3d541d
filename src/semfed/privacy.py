"""Per-client differential-privacy ledgers under basic composition.

Each round a client participates in costs an (epsilon, delta) pair;
the session total is the plain sum of each coordinate.  Nothing
fancier (no advanced composition, no moments accountant) is attempted:
the sums are exact, conservative, and auditable.  Delta totals are not
clamped; a total at or above 1 makes the guarantee vacuous and is
flagged with a warning instead of being silently truncated.

Ledgers are values: record_round returns a new ledger and never
mutates its argument.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
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
    """Raised when a recorded round index does not increase."""


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
        indices = [b.round_index for b in self.rounds]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError(f"round indices must strictly increase, got {indices}")


def record_round(ledger: PrivacyLedger, budget: RoundBudget) -> PrivacyLedger:
    """Append one round's budget, returning a new ledger."""
    if ledger.rounds and budget.round_index <= ledger.rounds[-1].round_index:
        raise NonMonotoneRoundError(
            f"round {budget.round_index} does not follow round "
            f"{ledger.rounds[-1].round_index} on client {ledger.client}'s ledger"
        )
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

    Rows are sorted by (client, round) before recording, so file order
    does not matter; duplicate rounds for a client still fail with
    NonMonotoneRoundError.  Every error about a row starts with
    ``path:lineno:``.
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
                    client = int(row["client"])
                    budget = RoundBudget(
                        int(row["round"]), float(row["epsilon"]), float(row["delta"])
                    )
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{where}: malformed row {row}: {exc}") from exc
                rows.append((client, where, budget))
        except csv.Error as exc:  # the record that failed starts on the next line
            raise ValueError(f"{path}:{reader.line_num + 1}: {exc}") from exc
    rows.sort(key=lambda r: (r[0], r[2].round_index))  # stable: duplicates keep file order
    ledgers: dict[int, PrivacyLedger] = {}
    for client, where, budget in rows:
        try:
            ledger = ledgers[client] if client in ledgers else PrivacyLedger(client=client)
            ledgers[client] = record_round(ledger, budget)
        except ValueError as exc:
            raise type(exc)(f"{where}: {exc}") from exc
    return [ledgers[c] for c in sorted(ledgers)]
