"""Black-box client behaviors for the simulated training loop.

A client exposes exactly two operations: generate a response for a
public prompt and train on its private data plus the broadcast
pseudo-labeled set.  The orchestration layer never looks past this
interface, so scripted fixtures and toy Markov generators (and, in
principle, real model wrappers) can be mixed freely in one session.

The Markov client treats tokens as whitespace-separated words.  That is
unrelated to the bytes-per-token constant in the cost calculators; the
two are deliberately independent knobs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encoder import _text_u64
from .jsonl import read_rows

__all__ = [
    "TrainingWeights",
    "PrivateDataset",
    "Client",
    "ScriptedClient",
    "MarkovToyClient",
    "load_scripted_clients",
    "load_private_datasets",
]


@dataclass(frozen=True)
class TrainingWeights:
    """Relative weight of private vs pseudo-labeled examples.

    Both weights are non-negative and sum to one; the default is the
    even split used throughout.
    """

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError(f"weights must be non-negative, got {self.alpha}, {self.beta}")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.alpha} + {self.beta}")


@dataclass(frozen=True)
class PrivateDataset:
    """A client's local (prompt, response) examples.

    Never serialized by the orchestration layer; it exists only inside
    the owning client's training calls.
    """

    examples: tuple[tuple[str, str], ...]
    owner: int

    def __post_init__(self) -> None:
        if self.owner < 0:
            raise ValueError(f"owner must be a non-negative client id, got {self.owner}")

    @staticmethod
    def empty(owner: int) -> "PrivateDataset":
        return PrivateDataset(examples=(), owner=owner)


class Client(ABC):
    """Minimal client interface the orchestrator relies on.

    generate receives the round index and prompt id alongside the prompt
    text because scripted fixtures are keyed by them; model-backed
    clients are free to ignore both.
    """

    @abstractmethod
    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        """Produce a response string for one public prompt."""

    @abstractmethod
    def train(
        self,
        private: PrivateDataset,
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        """Update internal state on private plus pseudo-labeled examples."""


class ScriptedClient(Client):
    """Replays canned responses keyed by (round_index, prompt_id).

    The table must cover every query the session will make; a missing
    key is a fixture bug and raises KeyError rather than inventing text.
    Training is a no-op.
    """

    def __init__(self, responses: Mapping[tuple[int, str], str]):
        self.responses = dict(responses)

    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        key = (round_index, prompt_id)
        if key not in self.responses:
            raise KeyError(f"scripted client has no response for round={round_index} prompt={prompt_id!r}")
        return self.responses[key]

    def train(
        self,
        private: PrivateDataset,
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        return None


class MarkovToyClient(Client):
    """Word-level Markov chain with weighted transition counts.

    Training walks each example's token stream (prompt words followed by
    response words) and adds ``weight`` to the context-to-next-word
    transition for every context suffix of length 1 up to ``order``, so
    lower-order counts are always available.  Generation seeds the
    context with the tail of the prompt, then repeatedly samples the
    next word proportionally to the accumulated weights, preferring the
    longest recorded context suffix and stopping when no suffix matches.

    Output is a pure function of (model state, prompt text, seed): each
    generate call derives a fresh RNG from the seed and the prompt text,
    and candidate words are scanned in sorted order.  An untrained
    client generates the empty string.
    """

    def __init__(self, order: int = 1, seed: int = 0):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        self.seed = seed
        self.transitions: dict[tuple[str, ...], dict[str, float]] = {}

    def _absorb(self, prompt: str, response: str, weight: float) -> None:
        stream = prompt.split() + response.split()
        for i in range(len(stream) - 1):
            nxt = stream[i + 1]
            for length in range(1, min(self.order, i + 1) + 1):
                context = tuple(stream[i - length + 1 : i + 1])
                bucket = self.transitions.setdefault(context, {})
                bucket[nxt] = bucket.get(nxt, 0.0) + weight

    def train(
        self,
        private: PrivateDataset,
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        for prompt, response in private.examples:
            self._absorb(prompt, response, weights.alpha)
        for prompt, response in pseudo:
            self._absorb(prompt, response, weights.beta)

    def _next_word(self, context: list[str], rng: np.random.Generator) -> str | None:
        # Longest recorded suffix of the context wins; no match means stop.
        for lo in range(max(0, len(context) - self.order), len(context)):
            candidates = self.transitions.get(tuple(context[lo:]))
            if candidates:
                break
        else:
            return None
        words = sorted(candidates)
        weights = np.array([candidates[w] for w in words], dtype=np.float64)
        total = float(weights.sum())
        if total <= 0.0:
            return None
        draw = float(rng.random()) * total
        cumulative = 0.0
        for word, w in zip(words, weights):
            cumulative += float(w)
            if draw < cumulative:
                return word
        return words[-1]

    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        if max_tokens < 1:
            return ""
        rng = np.random.default_rng([self.seed, _text_u64(prompt_text)])
        context = prompt_text.split()
        produced: list[str] = []
        while len(produced) < max_tokens:
            word = self._next_word(context, rng)
            if word is None:
                break
            produced.append(word)
            context.append(word)
        return " ".join(produced)


def load_scripted_clients(path: str | Path) -> list[ScriptedClient]:
    """Build scripted clients from JSONL rows.

    Each line is {"client": int, "round": int, "prompt_id": str,
    "response": str}.  Client ids must form the contiguous range 0..K-1;
    duplicate (client, round, prompt_id) rows are rejected.
    """
    tables: dict[int, dict[tuple[int, str], str]] = {}
    rows = read_rows(path, client=int, round=int, prompt_id=str, response=str)
    for lineno, (client, round_index, prompt_id, response) in rows:
        key = (round_index, prompt_id)
        table = tables.setdefault(client, {})
        if key in table:
            raise ValueError(f"{path}:{lineno}: duplicate row for client={client} {key}")
        table[key] = response
    if not tables:
        raise ValueError(f"{path}: no scripted responses found")
    ids = sorted(tables)
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: client ids must be 0..K-1, got {ids}")
    return [ScriptedClient(tables[i]) for i in ids]


def load_private_datasets(path: str | Path, num_clients: int) -> list[PrivateDataset]:
    """Load per-client private examples from JSONL rows.

    Each line is {"client": int, "prompt": str, "response": str}, read
    by ``jsonl.read_rows``.  Clients without rows get an empty dataset.
    """
    examples: dict[int, list[tuple[str, str]]] = {i: [] for i in range(num_clients)}
    for lineno, (client, prompt, response) in read_rows(path, client=int, prompt=str, response=str):
        if client not in examples:
            raise ValueError(
                f"{path}:{lineno}: client {client} outside configured range 0..{num_clients - 1}"
            )
        examples[client].append((prompt, response))
    return [
        PrivateDataset(examples=tuple(examples[i]), owner=i) for i in range(num_clients)
    ]
