"""Black-box client behaviors for the simulated training loop.

A client exposes two operations: generate a response for a public
prompt and train on its private data plus the broadcast pseudo-labeled
set.  A third, ``generate_many``, answers many prompts for many clients
of one class in a call; by default it calls ``generate`` once per
(client, prompt) pair, and a class may override it with a faster path
that gives the same texts.  The orchestration layer never looks past
this interface, so scripted fixtures and toy Markov generators (and, in
principle, real model wrappers) can be mixed freely in one session.

The Markov client treats tokens as whitespace-separated words.  That is
unrelated to the bytes-per-token constant in the cost calculators; the
two are deliberately independent knobs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
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

    Both weights are finite, non-negative and sum to one; the default is
    the even split used throughout.
    """

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"weights must be finite, got {self.alpha}, {self.beta}")
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
    clients are free to ignore both.  generate_many answers every
    (prompt id, prompt text) pair for every client in a list; its
    default calls generate client by client, prompt by prompt.
    """

    @abstractmethod
    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        """Produce a response string for one public prompt."""

    @classmethod
    def generate_many(
        cls,
        clients: Sequence[Client],
        prompts: Sequence[tuple[str, str]],
        round_index: int,
        max_tokens: int,
    ) -> list[list[str]]:
        """Each client's responses to the (prompt id, text) pairs, in order.

        Called on the class of the clients; the result equals calling
        ``client.generate`` for each client in turn and each prompt in
        turn, which is what this default does.
        """
        return [
            [client.generate(pid, text, round_index, max_tokens) for pid, text in prompts]
            for client in clients
        ]

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
    key is a fixture bug and raises ValueError rather than inventing text.
    Training is a no-op.
    """

    def __init__(self, responses: Mapping[tuple[int, str], str]):
        self.responses = dict(responses)

    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        key = (round_index, prompt_id)
        if key not in self.responses:
            raise ValueError(f"scripted client has no response for round={round_index} prompt={prompt_id!r}")
        return self.responses[key]

    def train(
        self,
        private: PrivateDataset,
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        return None


# Bound on the (context, next) pairs held by _PAIRS, over every entry.
PAIR_MEMO_SIZE = 1 << 18

# (order, prompt, response) -> (contexts, nexts), shared by every client;
# _pair_count is the number of pairs it holds.
_PAIRS: dict[tuple[int, str, str], tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]] = {}
_pair_count = 0


def _pairs(
    prompt: str, response: str, order: int
) -> tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]:
    """The (context, next word) pairs one example adds to, as parallel tuples.

    The stream is the prompt's words followed by the response's.  Contexts
    of length 1 come first, then length 2, ... up to ``order``; within one
    length the pairs follow the stream.  The result is memoised in
    ``_PAIRS``: when a new entry would take the memo past PAIR_MEMO_SIZE
    pairs it is emptied first, and an example with no pairs or with more
    than PAIR_MEMO_SIZE is never stored.
    """
    global _pair_count
    key = (order, prompt, response)
    found = _PAIRS.get(key)
    if found is not None:
        return found
    stream = prompt.split() + response.split()
    n = len(stream)
    contexts: list[tuple[str, ...]] = []
    nexts: list[str] = []
    for length in range(1, min(order, n - 1) + 1):
        contexts += zip(*(stream[k : n - length + k] for k in range(length)))
        nexts += stream[length:]
    pairs = (tuple(contexts), tuple(nexts))
    if 0 < len(nexts) <= PAIR_MEMO_SIZE:
        if _pair_count + len(nexts) > PAIR_MEMO_SIZE:
            _PAIRS.clear()
            _pair_count = 0
        _PAIRS[key] = pairs
        _pair_count += len(nexts)
    return pairs


# numpy's SeedSequence constants (pool of four 32-bit words) and PCG64's
# 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _u32_words(value: int) -> tuple[int, ...]:
    """A non-negative int as SeedSequence splits it: 32-bit words, low first."""
    return tuple((value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32))


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of a SeedSequence hash constant."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _seed_state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row.

    ``entropy`` is lanes x words (uint32), each row one seed's words; the
    mixing is numpy's, run over all rows at once in uint32 arithmetic.
    The hash constants depend only on the call position, so they are
    computed once for the whole batch.
    """
    lanes, n = entropy.shape
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n - _POOL_SIZE)
    consts = _hash_consts(_INIT_A, _MULT_A, calls)
    steps = zip(consts, consts[1:])

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(lanes, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    consts_b = _hash_consts(_INIT_B, _MULT_B, 8)
    state = np.empty((lanes, 8), dtype="<u4")
    for i in range(8):
        value = (pool[i % _POOL_SIZE] ^ consts_b[i]) * consts_b[i + 1]
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8")


def _pcg64_states(seeds: Sequence[int], hashes: Sequence[int]) -> list[list[tuple[int, int]]]:
    """PCG64 (state, inc) of ``default_rng([seed, hash])`` for each seed, hash.

    Lanes are grouped by their number of entropy words and each group is
    mixed in one ``_seed_state_words`` pass; PCG64's seeding (two LCG
    steps from state 0) then runs on Python ints.
    """
    seed_words = [_u32_words(seed) for seed in seeds]
    hash_words = [_u32_words(h) for h in hashes]
    lanes = [sw + hw for sw in seed_words for hw in hash_words]
    groups: dict[int, list[int]] = {}
    for index, lane in enumerate(lanes):
        groups.setdefault(len(lane), []).append(index)
    states: list[tuple[int, int]] = [(0, 0)] * len(lanes)
    for indices in groups.values():
        entropy = np.array([lanes[i] for i in indices], dtype=np.uint32)
        for i, (seed_hi, seed_lo, inc_hi, inc_lo) in zip(indices, _seed_state_words(entropy).tolist()):
            inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
            states[i] = (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc
    width = len(hashes)
    return [states[row : row + width] for row in range(0, len(states), width)]


# How MarkovToyClient's walk steps from one context (see its _sampler):
# (word, next key) for a lone candidate, else (words, cuts, total, kept).
_Sampler = (
    tuple[str, tuple[str, ...]]
    | tuple[list[str], list[float], float, tuple[str, ...]]
)


class MarkovToyClient(Client):
    """Word-level Markov chain with weighted transition counts.

    Training walks each example's token stream (prompt words followed by
    response words) and adds ``weight`` to the context-to-next-word
    transition for every context suffix of length 1 up to ``order``, so
    lower-order counts are always available.  Generation seeds the
    context with the tail of the prompt, then repeatedly samples the
    next word proportionally to the accumulated weights, preferring the
    longest recorded context suffix and stopping when no suffix matches
    or the matched weights sum to at most zero.

    Output is a pure function of (model state, prompt text, seed): each
    response draws from a fresh PCG64 stream, the one of
    ``np.random.default_rng([seed, _text_u64(prompt_text)])``; step k
    owns the k-th uniform double of that stream and reads it only when
    its context has several next words, and candidate words are scanned
    in sorted order.  An untrained client generates the empty string.
    ``generate`` builds that generator per call; ``generate_many`` seeds
    every (client, prompt) stream of the batch in one vectorized
    SeedSequence pass (``_pcg64_states``) and sets each state on one
    reused generator, so both give the same bytes.  A subclass that
    overrides ``generate`` is answered through it instead.

    Both run one walk (``_walk``) that works out each context's step
    once per call: a sampler memo keyed by the context's last ``order``
    words holds a stop, a lone next word with its successor key, or the
    sorted candidates with their running totals (``_sampler``).
    ``generate`` passes a fresh dict and ``generate_many`` one dict per
    client, dropped after that client's prompts.  Training happens only
    between calls, so a memo never outlives the transitions it was
    built from, and the client keeps no state for it.

    Each example's (context, next word) pairs are built once per process
    and order and read from a bounded memo shared by every client
    (``_pairs``); each transition still receives its additions in stream
    order, so every float sum is the one the per-example walk gives.
    """

    def __init__(self, order: int = 1, seed: int = 0):
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.order = order
        self.seed = seed
        self.transitions: dict[tuple[str, ...], dict[str, float]] = {}

    def _absorb(self, prompt: str, response: str, weight: float) -> None:
        transitions = self.transitions
        for context, nxt in zip(*_pairs(prompt, response, self.order)):
            bucket = transitions.get(context)
            if bucket is None:
                # 0.0 + weight, as in the sum below: -0.0 is stored as 0.0.
                transitions[context] = {nxt: 0.0 + weight}
            else:
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

    def _sampler(self, key: tuple[str, ...]) -> _Sampler | None:
        """How to take a step from a context whose last words are ``key``.

        The longest recorded suffix of ``key`` gives the candidates; none,
        or weights summing to at most zero, means stop (``None``).  A lone
        candidate is ``(word, next key)``: the draw cannot change it, and
        a NaN weight is kept, as the general rule keeps it.  Several
        candidates are ``(words, cuts, total, kept)``: the words sorted,
        ``cuts`` their running totals but the last and ``total`` their
        numpy sum, so ``bisect_right(cuts, uniform * total)`` is the
        first word whose running total exceeds the draw, else the last
        word.  Training adds only finite non-negative weights, so the
        running totals are sorted.  ``kept`` is the part of ``key`` that
        stays in the next key (at most ``order - 1`` words), so the key
        after ``word`` is ``kept + (word,)`` in both shapes.
        """
        transitions = self.transitions
        candidates = transitions.get(key)
        if not candidates:
            for lo in range(1, len(key)):
                candidates = transitions.get(key[lo:])
                if candidates:
                    break
            else:
                return None
        kept = key[1:] if len(key) == self.order else key
        if len(candidates) == 1:
            ((word, weight),) = candidates.items()
            if weight <= 0.0:
                return None
            return word, kept + (word,)
        words = sorted(candidates)
        weights = [candidates[w] for w in words]
        total = float(np.array(weights, dtype=np.float64).sum())
        if total <= 0.0:
            return None
        return words, list(accumulate(weights))[:-1], total, kept

    def _walk(
        self,
        rng: np.random.Generator,
        prompt_text: str,
        max_tokens: int,
        samplers: dict[tuple[str, ...], _Sampler | None],
    ) -> str:
        """The response drawn from ``rng``, freshly seeded for this prompt.

        ``samplers`` maps a key (the last ``order`` words of the context)
        to its ``_sampler``; it is filled on first use and must not
        outlive a change to ``transitions``.  A step with several
        candidates appends the drawn word to the sampler's ``kept``
        there and then: building every candidate's key up front costs
        more than the few steps that use them.
        """
        order = self.order
        key = tuple(prompt_text.split()[-order:])
        words: list[str] = []
        uniforms: list[float] = []
        for step in range(max_tokens):
            sampler = samplers.get(key)
            if sampler is None:
                if key in samplers:
                    break
                sampler = samplers[key] = self._sampler(key)
                if sampler is None:
                    break
            if len(sampler) == 2:
                word, key = sampler
            else:
                choices, cuts, total, kept = sampler
                while step >= len(uniforms):
                    # Step k reads draw k, so a one-candidate step's draw
                    # is skipped, not saved; rng.random(n) yields the
                    # doubles of n scalar calls, and the batch doubles with
                    # the output, so memory stays O(output) however large
                    # max_tokens is.
                    drawn = len(uniforms)
                    uniforms += rng.random(min(max(drawn, 32), max_tokens - drawn)).tolist()
                word = choices[bisect_right(cuts, uniforms[step] * total)]
                key = kept + (word,)
            words.append(word)
        return " ".join(words)

    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        if max_tokens < 1:
            return ""
        rng = np.random.default_rng([self.seed, _text_u64(prompt_text)])
        return self._walk(rng, prompt_text, max_tokens, {})

    @classmethod
    def generate_many(
        cls,
        clients: Sequence[Client],
        prompts: Sequence[tuple[str, str]],
        round_index: int,
        max_tokens: int,
    ) -> list[list[str]]:
        if any(type(client).generate is not MarkovToyClient.generate for client in clients):
            return super().generate_many(clients, prompts, round_index, max_tokens)
        if max_tokens < 1 or not prompts:
            return [[""] * len(prompts) for _ in clients]
        states = _pcg64_states([c.seed for c in clients], [_text_u64(text) for _, text in prompts])
        rng = np.random.Generator(np.random.PCG64(0))
        bit_generator = rng.bit_generator
        responses = []
        for client, lanes in zip(clients, states):
            samplers: dict[tuple[str, ...], _Sampler | None] = {}
            texts = []
            for (_, text), (state, inc) in zip(prompts, lanes):
                bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                texts.append(client._walk(rng, text, max_tokens, samplers))
            responses.append(texts)
        return responses


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
