"""Black-box client behaviors for the simulated training loop.

A client exposes two operations: generate a response for a public
prompt and train on its private data plus the broadcast pseudo-labeled
set.  Two class-level batch forms, ``generate_many`` and ``train_many``,
serve many clients of one class in a call; by default they call
``generate`` or ``train`` once per client (and prompt), and a class may
override them with a faster path that gives the same texts and state.
The orchestration layer never looks past this interface, so scripted
fixtures and toy Markov generators (and, in principle, real model
wrappers) can be mixed freely in one session.

The Markov client treats tokens as whitespace-separated words.  That is
unrelated to the bytes-per-token constant in the cost calculators; the
two are deliberately independent knobs.  Each client holds weights over
its own pairs only, by their ids in a ``PairIndex`` in ascending id
order, which packs each context into one int64 key and interns each
(context, next word) pair once, in two of the encoder's open-addressing
tables; the clients of one session and one order share an index, and a
client built alone gets its own, so no state outlives the clients that
hold it.  Generation, per call or batched, walks all (client, prompt)
lanes of a call in lockstep: it puts the clients' pairs in walk order
once per call, looks up the prompts' packed keys once, and after that
moves each lane from the pair it took to that pair's successor
contexts, a table the index builds once per growth; each lane's PCG64
stream is seeded, and stepped once per walk step, by 128-bit LCG
arithmetic on uint64 arrays, bit for bit the stream numpy's
``default_rng`` gives.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encoder import _PackedTable, _text_u64
from .jsonl import read_rows

__all__ = [
    "TrainingWeights",
    "PrivateDataset",
    "Client",
    "ScriptedClient",
    "MarkovToyClient",
    "PairIndex",
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
    train_many trains every client in a list; its default calls train
    client by client.
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

        Called on the class of the clients; returns one list per client
        with one text per prompt (``run_round`` rejects any other shape),
        equal to calling ``client.generate`` for each client in turn and
        each prompt in turn, which is what this default does.
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

    @classmethod
    def train_many(
        cls,
        clients: Sequence[Client],
        privates: Sequence[PrivateDataset],
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        """Train each client on its private dataset and the shared pseudo set.

        Called on the class of the clients; ``privates[i]`` belongs to
        ``clients[i]``.  The result equals calling ``client.train`` for
        each client in turn, which is what this default does.
        """
        for client, private in zip(clients, privates, strict=True):
            client.train(private, pseudo, weights)


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

    @classmethod
    def generate_many(
        cls,
        clients: Sequence[Client],
        prompts: Sequence[tuple[str, str]],
        round_index: int,
        max_tokens: int,
    ) -> list[list[str]]:
        """Read every client's answers straight from its table.

        A run holding a client whose class overrides ``generate``, or
        lacking a row, takes the per-call default, so the override answers
        and ``generate`` raises its ``ValueError`` for the first missing row.
        """
        if all(type(client).generate is ScriptedClient.generate for client in clients):
            keys = [(round_index, pid) for pid, _ in prompts]
            try:
                return [list(map(client.responses.__getitem__, keys)) for client in clients]
            except KeyError:
                pass
        return super().generate_many(clients, prompts, round_index, max_tokens)

    def train(
        self,
        private: PrivateDataset,
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        return None


# numpy's SeedSequence constants (pool of four 32-bit words) and PCG64's
# 128-bit LCG multiplier M, as ``_step`` reads it: the high word, the low
# word and the low word's low and high 32-bit limbs.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M_HI, _M_LO = _PCG64_MULT >> 64, _PCG64_MULT & _MASK64
_M0, _M1 = _M_LO & _MASK32, _M_LO >> 32


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


def _step(s_hi, s_lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, ``M * s + inc mod 2**128``, on uint64 (hi, lo) halves.

    The high word of ``M_lo * s_lo`` is summed from 32-bit limbs, no
    partial sum reaching 2**64.  ``s`` is an array, so products wrap
    without numpy's scalar overflow warning.
    """
    b0, b1 = s_lo & _MASK32, s_lo >> 32
    mid = _M1 * b0 + (_M0 * b0 >> 32)
    cross = _M0 * b1 + (mid & _MASK32)
    hi = _M1 * b1 + (mid >> 32) + (cross >> 32) + _M_HI * s_lo + _M_LO * s_hi
    return _add128(hi, _M_LO * s_lo, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` on uint64 (hi, lo) halves, broadcast."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _length_groups(words: list[tuple[int, ...]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The positions of the word tuples of each length, with those tuples as rows."""
    groups: dict[int, list[int]] = {}
    for position, row in enumerate(words):
        groups.setdefault(len(row), []).append(position)
    return [(np.array(at), np.array([words[i] for i in at], dtype=np.uint32)) for at in groups.values()]


def _pcg64_states(seeds: Sequence[int], hashes: Sequence[int]) -> np.ndarray:
    """PCG64 state of ``default_rng([seed, hash])`` for each seed, hash.

    Returns uint64 rows (state hi, state lo, inc hi, inc lo), each
    seeds x hashes.  The lanes of each (seed word count, hash word count)
    block are mixed in one ``_seed_state_words`` pass over entropy rows
    built by broadcasting; PCG64's seeding (two LCG steps from state 0)
    then runs on uint64 halves, its second step by ``_step``.
    """
    words = np.empty((4, len(seeds), len(hashes)), dtype=np.uint64)
    for rows, seed_block in _length_groups([_u32_words(seed) for seed in seeds]):
        for cols, hash_block in _length_groups([_u32_words(h) for h in hashes]):
            entropy = np.hstack((seed_block.repeat(len(cols), axis=0), np.tile(hash_block, (len(rows), 1))))
            words[:, rows[:, None], cols] = _seed_state_words(entropy).T.reshape(4, len(rows), len(cols))
    seed_hi, seed_lo, word_hi, word_lo = words
    inc = word_hi << 1 | word_lo >> 63, word_lo << 1 | 1
    state = _step(*_add128(seed_hi, seed_lo, *inc), *inc)
    return np.stack((*state, *inc))


def _pcg64_next(states: np.ndarray) -> np.ndarray:
    """Each lane's next double of its PCG64 stream, as numpy draws it.

    ``states`` is ``_pcg64_states``' rows with one column per lane; every
    column steps once, in place.  numpy outputs XSL-RR of the new state,
    ``x = rotr64(hi ^ lo, hi >> 58)``, and its double is ``(x >> 11) *
    2**-53``.
    """
    hi, lo = _step(*states)
    states[0], states[1] = hi, lo
    spin = hi >> 58
    mixed = hi ^ lo
    return ((mixed >> spin | mixed << (-spin & 63)) >> 11) * 2.0**-53


# Bits per word of a packed context up to order 3; higher orders get
# 63 // order, so every context fits a non-negative int64.
_WORD_BITS = 21


def _intern(table: _PackedTable, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's id in ``table``, adding the keys it lacks.

    The new keys get the next free ids in sorted order.  Returns each
    key's id and the new keys.
    """
    unique, inverse = np.unique(keys, return_inverse=True)
    ids = table.lookup(unique)
    fresh = ids < 0
    new = unique[fresh]
    ids[fresh] = np.arange(len(table), len(table) + len(new))
    table.insert(new, ids[fresh])
    return ids[inverse], new


class PairIndex:
    """The (context, next word) pairs of one Markov order, interned as ids.

    Every word the index reads, prompt-only words included, gets an id
    from 1 up (``words[i]`` is the word of id ``i``; ``words[0]`` is no
    word).  A context of up to ``order`` words is one int64 key: ``bits``
    per word, the latest word lowest, id 0 in the slots a shorter context
    leaves.  The key after word ``w`` is ``((key << bits) | w) & mask``
    (``advance``) and its suffix of length ``k`` is
    ``key & ((1 << bits * k) - 1)``, looked up by ``find``.
    ``unknown`` (``2**bits - 1``) stands for a word the index never read;
    no context holds it or 0 as a word, so a key holding one never
    matches.  ``bits`` is 21 up to order 3 and ``63 // order`` above; a
    vocabulary past ``unknown - 1`` words raises ``ValueError``.

    Contexts and pairs keep the ids they are given: ``context_keys[c]`` is
    context ``c``'s key, and ``context_of`` and ``word_of`` map a pair id
    to its context id and word id.  ``intern`` reads a batch of examples
    at once: the batch's new contexts and pairs get the next free ids in
    key order and are added to two ``encoder._PackedTable``s, key -> id,
    which ``find`` and interning look up.  The tables are the index's own;
    the encoder's ``NGRAM_MEMO_SIZE`` does not bound them.  Each example's
    pair-id array is kept, so an example is split once per index.  The
    index only grows; ``ranks`` (walk order) and ``successors``, both read
    only by the walk, are built when first asked for after it grew.
    Clients that share one index read the same
    ids, and each holds arrays over its own pairs only, so the index is
    the one structure that grows with the federation; ``_build_clients``
    makes one per session for all clients of one order, and a client built
    without one gets its own, so nothing is shared between sessions.
    """

    def __init__(self, order: int):
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        self.order = order
        self.bits = min(_WORD_BITS, 63 // order)
        self.unknown = (1 << self.bits) - 1
        self.words = [""]
        self._word_ids: dict[str, int] = {}
        self.context_keys = self.context_of = self.word_of = np.zeros(0, dtype=np.int64)
        # key -> id for contexts and for pairs; a pair's key is its context
        # id, then its word id in the low bits
        self._contexts, self._pairs = _PackedTable(), _PackedTable()
        self._examples: dict[tuple[str, str], np.ndarray] = {}
        self._ranks: np.ndarray | None = None
        self._successors: np.ndarray | None = None
        self._names = np.zeros(0, dtype=object)

    def __len__(self) -> int:
        return len(self.word_of)

    @property
    def contexts(self) -> list[tuple[str, ...]]:
        """Each context id's words, oldest first."""
        return self.spell_contexts(range(len(self.context_keys)))

    def spell_contexts(self, ids: Sequence[int]) -> list[tuple[str, ...]]:
        """The words of the given context ids, oldest first."""
        found = []
        for key in self.context_keys[np.asarray(ids, dtype=np.int64)].tolist():
            word_ids = []
            while key:
                word_ids.append(key & self.unknown)
                key >>= self.bits
            found.append(tuple(self.words[i] for i in reversed(word_ids)))
        return found

    def key(self, words: Sequence[str]) -> int:
        """The packed key of the last ``order`` words."""
        key = 0
        for word in words[-self.order :]:
            key = key << self.bits | self._word_ids.get(word, self.unknown)
        return key

    def find(self, keys: np.ndarray, length: int) -> np.ndarray:
        """The context id of the last ``length`` words of each packed key.

        -1 where the index has no such context.
        """
        return self._contexts.lookup(keys & (1 << self.bits * length) - 1)

    def advance(self, keys: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Each packed key followed by its word, kept to the last ``order`` words."""
        return (keys << self.bits | words) & (1 << self.bits * self.order) - 1

    def spell(self, ids: np.ndarray) -> list[str]:
        """The words of the given word ids."""
        if len(self._names) != len(self.words):
            self._names = np.array(self.words, dtype=object)
        return self._names[ids].tolist()

    def pair_ids(self, prompt: str, response: str) -> np.ndarray:
        """The ids of the (context, next word) pairs one example adds to.

        The stream is the prompt's words followed by the response's.
        Contexts of length 1 come first, then length 2, ... up to
        ``order``; within one length the pairs follow the stream.
        """
        return self.intern([(prompt, response)])[0]

    def intern(self, examples: Sequence[tuple[str, str]]) -> list[np.ndarray]:
        """Each example's ``pair_ids``; the examples not yet read, in one batch."""
        known = self._examples
        new = [example for example in dict.fromkeys(examples) if example not in known]
        if new:
            self._read(new)
        return [known[example] for example in examples]

    def _read(self, examples: list[tuple[str, str]]) -> None:
        streams = [prompt.split() + response.split() for prompt, response in examples]
        word_ids = self._word_ids
        # the batch's distinct words in first-seen order, found in C, then
        # the new ones among them
        fresh = [word for word in dict.fromkeys(chain.from_iterable(streams)) if word not in word_ids]
        if fresh and len(self.words) + len(fresh) > self.unknown:
            raise ValueError(
                f"a Markov chain of order {self.order} packs {self.bits} bits per word and holds "
                f"at most {max(self.unknown - 1, 0)} distinct words; training reads "
                f"{len(self.words) - 1 + len(fresh)}"
            )
        for word in fresh:
            word_ids[word] = len(self.words)
            self.words.append(word)
        lengths = np.array([len(stream) for stream in streams], dtype=np.int64)
        stream = np.fromiter(
            map(word_ids.__getitem__, chain.from_iterable(streams)), dtype=np.int64, count=int(lengths.sum())
        )
        # a batch's word lists and per-length arrays go as soon as they are
        # read: they are the largest transients of a session's first batch
        del streams
        owner = np.repeat(np.arange(len(examples)), lengths)
        position = np.arange(len(stream)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        last = np.repeat(lengths - 1, lengths)
        key = stream.copy()
        at_length = []
        for length in range(1, self.order + 1):
            if length > 1:
                key[length - 1 :] |= stream[: len(stream) - length + 1] << self.bits * (length - 1)
            at = np.flatnonzero((position >= length - 1) & (position < last))
            if not len(at):
                break
            at_length.append((key[at], stream[at + 1], owner[at]))
        if at_length:
            context, word, owner = (np.concatenate(parts) for parts in zip(*at_length))
        else:
            context = word = owner = np.zeros(0, dtype=np.int64)
        del at_length, stream, position, last, key
        context_id, new_contexts = _intern(self._contexts, context)
        pair_id, new_pairs = _intern(self._pairs, context_id << self.bits | word)
        self.context_keys = np.concatenate((self.context_keys, new_contexts))
        self.context_of = np.concatenate((self.context_of, new_pairs >> self.bits))
        self.word_of = np.concatenate((self.word_of, new_pairs & self.unknown))
        self._ranks = self._successors = None
        # each example's pairs: lengths in turn, the stream within a length
        grouped = pair_id[np.argsort(owner, kind="stable")]
        counts = np.bincount(owner, minlength=len(examples))
        self._examples.update(zip(examples, np.split(grouped, np.cumsum(counts)[:-1])))

    def ranks(self) -> np.ndarray:
        """Each pair id's position in walk order, int32.

        Walk order sorts the pairs by context id, then by word as
        ``sorted`` sorts strings; only the walk reads it (``_views``).
        Built when first asked for after the index grew, and kept until it
        grows again.
        """
        if self._ranks is None:
            words = self.words
            rank = np.empty(len(words), dtype=np.int64)
            rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
            order = np.argsort(self.context_of * len(words) + rank[self.word_of], kind="stable")
            self._ranks = np.empty(len(order), dtype=np.int32)
            self._ranks[order] = np.arange(len(order), dtype=np.int32)
        return self._ranks

    def successors(self) -> np.ndarray:
        """The contexts each pair leads to, ``order x len(self)`` int32.

        Row ``k - 1`` holds, for pair (context ``c``, word ``w``), the
        context id of the last ``k`` words of ``c + w``: -1 where the index
        lacks that context or ``c + w`` has fewer than ``k`` words.  Built
        when first asked for after the index grew, and kept until it grows
        again.
        """
        if self._successors is None:
            after = self.advance(self.context_keys[self.context_of], self.word_of)
            rows = np.empty((self.order, len(self)), dtype=np.int32)
            for length in range(1, self.order + 1):
                # a key of fewer words would read as its own context here
                longer = after >> self.bits * (length - 1) > 0
                rows[length - 1] = np.where(longer, self.find(after, length), -1)
            self._successors = rows
        return self._successors


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

    The model state covers only the client's own pairs, so it does not
    grow with the ``PairIndex`` it shares: the int32 ids of the (context,
    next word) pairs it holds, in ascending order, and a parallel float64
    weight per pair.  Ids never move as the index grows, so training
    reads no walk order.  A pair is held from its first addition on, so
    one trained with weight 0.0 stays a candidate.  ``train`` merges the
    call's new pair ids into the held ones (one sort of the ids and a
    diff), then adds every weight of the call with one
    ``np.add.at`` over the positions of the concatenated pair ids of its
    examples, private ones first, which applies repeated ids in order, so
    every float sum is the one the per-example walk gives.
    ``train_many`` interns a run's new examples in one batch per index,
    then trains each client.  ``transitions`` rebuilds the context ->
    {word: weight} table from the arrays, spelling only the client's own
    contexts.

    One walk (``_lockstep``) serves both entry points, ``generate`` as
    one lane: it seeds every (client, prompt) lane of a call in one
    vectorized SeedSequence pass (``_pcg64_states``) and steps them all at
    once, from the prompts' packed keys and then from the successor
    contexts of the pair each lane took (``PairIndex.successors``),
    reading views of the clients' held pairs that it builds from their
    arrays each time it runs (``_views``, which sorts them into walk
    order), so nothing derived from one client's state outlives a call or
    needs invalidating after ``train``.
    ``generate_many`` walks the clients of each index together.  Each
    lane's PCG64 state is held as uint64 halves and steps once per walk
    step with the other live lanes' (``_pcg64_next``).  A subclass that
    overrides ``generate`` or ``train`` is answered or trained through it
    instead.
    """

    def __init__(self, order: int = 1, seed: int = 0, index: PairIndex | None = None):
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if index is None:
            index = PairIndex(order)
        elif index.order != order:
            raise ValueError(f"pair index of order {index.order} given to a client of order {order}")
        self.order = order
        self.seed = seed
        self.index = index
        self._pairs = np.zeros(0, dtype=np.int32)
        self._weights = np.zeros(0, dtype=np.float64)

    @property
    def transitions(self) -> dict[tuple[str, ...], dict[str, float]]:
        """Each trained context's next words and their weights."""
        index = self.index
        context_ids = index.context_of[self._pairs].tolist()
        distinct = list(dict.fromkeys(context_ids))
        contexts = dict(zip(distinct, index.spell_contexts(distinct)))
        words = index.words
        table: dict[tuple[str, ...], dict[str, float]] = {}
        for context, word, weight in zip(context_ids, index.word_of[self._pairs].tolist(), self._weights.tolist()):
            table.setdefault(contexts[context], {})[words[word]] = weight
        return table

    def train(
        self,
        private: PrivateDataset,
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        index = self.index
        groups = index.intern([*private.examples, *pseudo])
        if not groups:
            return
        split = sum(map(len, groups[: len(private.examples)]))
        ids = np.concatenate(groups)
        added = np.full(len(ids), weights.beta)
        added[:split] = weights.alpha
        # each pair's position in the client's arrays, -1 where it holds none;
        # np.searchsorted in the sorted ids, with no scratch, ran sessions 1.48x slower
        where = np.full(len(index), -1, dtype=np.int32)
        where[self._pairs] = np.arange(len(self._pairs), dtype=np.int32)
        at = where[ids]
        new = at < 0
        # A pair is held from its first addition on, even one of weight
        # 0.0.  Every window of an example is held, so a client's contexts
        # are prefix-closed: holding context c + v means holding (c, v),
        # hence c.  The walk relies on it to skip contexts longer than the
        # pair it took plus one word (see _walk).
        if new.any():
            # the held and the new pair ids in ascending order, once each:
            # one sort and a diff (np.unique costs over 20x a sort here)
            merged = np.sort(np.concatenate((self._pairs, ids[new]), dtype=np.int32))
            keep = np.ones(len(merged), dtype=bool)
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            held, self._pairs = self._pairs, merged[keep]
            where[self._pairs] = np.arange(len(self._pairs), dtype=np.int32)
            held_weights, self._weights = self._weights, np.zeros(len(self._pairs))
            self._weights[where[held]] = held_weights
            at = where[ids]
        # 0.0 + weight on a pair's first addition, as the sum did: -0.0
        # is stored as 0.0.
        np.add.at(self._weights, at, added)

    @classmethod
    def train_many(
        cls,
        clients: Sequence[Client],
        privates: Sequence[PrivateDataset],
        pseudo: Sequence[tuple[str, str]],
        weights: TrainingWeights,
    ) -> None:
        if all(type(client).train is MarkovToyClient.train for client in clients):
            # One batch per index interns faster than one per train call.
            batches: dict[int, tuple[PairIndex, list[tuple[str, str]]]] = {}
            for client, private in zip(clients, privates, strict=True):
                batches.setdefault(id(client.index), (client.index, list(pseudo)))[1].extend(private.examples)
            for index, examples in batches.values():
                index.intern(examples)
        super().train_many(clients, privates, pseudo, weights)

    @staticmethod
    def _views(clients: Sequence[MarkovToyClient]) -> tuple[np.ndarray, ...]:
        """The views of clients that share one index, as one batch of arrays.

        A view is the client's held pairs as generation reads them.  The
        pairs of every client are put in walk order by one stable sort of
        ``slot * len(index) + index.ranks()[pair]``: client after client,
        each client's by context id, then word.  Each run of one (client
        slot, context id + 1) cell is one segment in ``(segment_of, starts,
        pairs, cuts, totals, others)``: ``segment_of[slot * width + 1 + c]``
        is the segment of context id ``c`` of ``clients[slot]``, with
        ``width`` the index's contexts plus one, and -1 where the client
        lacks the context (column 0, no context, holds -1 too).  Segment
        ``s`` has ``others[s] + 1`` pairs from position ``starts[s]`` of
        ``pairs`` (int32 pair ids) and ``cuts`` (the segment's running
        totals).  ``totals[s]`` is the segment's numpy sum: the segments of
        one length are summed as the rows of one block, and a row sums as
        the segment alone would.  ``totals`` ends with an extra 0.0, read
        by a lane that found no segment (index -1).  Every array but
        ``segment_of`` is as long as the clients' pairs or segments, and
        the ones the walk does not read, the sort's int64 keys and order
        among them, go before it starts.
        """
        index = clients[0].index
        lengths = [len(client._pairs) for client in clients]
        pairs = np.concatenate([client._pairs for client in clients])
        # walk order: client after client, each client's pairs by rank
        key = np.repeat(np.arange(len(clients), dtype=np.int64) * len(index), lengths)
        key += index.ranks()[pairs]
        order = np.argsort(key, kind="stable")
        del key
        pairs = pairs[order]
        cuts = np.concatenate([client._weights for client in clients])[order]
        del order
        # each pair's (client slot, context id + 1) cell; a run of one cell
        # is one segment
        width = len(index.context_keys) + 1
        cell = np.repeat(np.arange(len(clients), dtype=np.int64) * width + 1, lengths)
        cell += index.context_of[pairs]
        opens = np.ones(len(pairs), dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=opens[1:])
        starts = np.flatnonzero(opens)
        segment_of = np.full(len(clients) * width, -1, dtype=np.int32)
        segment_of[cell[starts]] = np.arange(len(starts), dtype=np.int32)
        del cell, opens
        sizes = np.diff(starts, append=len(pairs))
        # cuts holds the weights until each segment's running totals replace them
        totals = np.zeros(len(starts) + 1)
        np.take(cuts, starts, out=totals[:-1])
        for size in np.flatnonzero(np.bincount(sizes[sizes > 1])).tolist():
            rows = np.flatnonzero(sizes == size)
            block_at = starts[rows, None] + np.arange(size)
            block = cuts[block_at]
            totals[rows] = block.sum(axis=1)
            cuts[block_at] = np.cumsum(block, axis=1)
        sizes -= 1
        return segment_of, starts, pairs, cuts, totals, sizes.astype(np.int32)

    @staticmethod
    def _lockstep(clients: Sequence[MarkovToyClient], texts: Sequence[str], max_tokens: int) -> list[str]:
        """Every (client, prompt) lane of a call, walked at once.

        The clients share one index; lane ``c * len(texts) + p`` answers
        prompt ``p`` for client ``c`` and draws from the PCG64 stream of
        ``default_rng([clients[c].seed, _text_u64(texts[p])])``.  Returns
        each lane's text, in lane order: ``""`` for every lane when there
        are no tokens to give or no client holds a context.  The words are
        spelled after ``_walk`` has returned and its steps are placed, so
        neither the views it built nor the steps are held by then.
        """
        lanes = len(clients) * len(texts)
        if max_tokens < 1 or not lanes:
            return [""] * lanes
        steps = MarkovToyClient._walk(clients, texts, max_tokens)
        # a lane that stops never resumes, so its steps are its first ones
        produced = np.zeros(lanes, dtype=np.int64)
        for step, (lane, _) in enumerate(steps):
            produced[lane] = step + 1
        ends = np.cumsum(produced)
        begins = ends - produced
        taken = np.empty(int(ends[-1]), dtype=np.int32)
        for step, (lane, pair) in enumerate(steps):
            taken[begins[lane] + step] = pair
        del steps
        index = clients[0].index
        names = index.spell(index.word_of[taken])
        return [" ".join(names[begin:end]) for begin, end in zip(begins.tolist(), ends.tolist())]

    @staticmethod
    def _walk(
        clients: Sequence[MarkovToyClient], texts: Sequence[str], max_tokens: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The steps of ``_lockstep``'s lanes: per step, the live lanes and their pairs.

        Every lane is seeded in one ``_pcg64_states`` pass, and the walk
        builds every client's view, in one batch (``_views``), each time
        it runs.  Each step finds every live lane's segment at once from a
        table of candidate context ids, row ``k - 1`` for the lane's last
        ``k`` words: at the first step the prompts' rows, from ``find``
        over their packed keys, and after that the ``successors`` column
        of the pair the lane took.  The views' (client slot, context id)
        table gives the segment, tried longest context first.  No longer
        context can match: a client lacking the lane's context of ``k``
        words also lacks that context followed by any word, since its
        contexts are prefix-closed (see ``train``).  A lane stops when no
        row matches or the segment's total is at most zero.  Otherwise it
        takes the segment's first pair plus the number of its running
        totals but the last that are ``<= u * total``, which is
        ``bisect_right``'s answer; ``u`` is the lane's draw for this step.
        The multi-candidate lanes' running totals are compared in one flat
        array (``np.repeat``) and counted per lane (``np.add.reduceat``).
        Every live lane's state steps once per step (``_pcg64_next``),
        whether or not the lane has a choice to make, so step k reads the
        k-th double of its stream; a lane that stops drops its state
        column with its other arrays, and the draws take O(live lanes)
        memory however large ``max_tokens`` is.
        """
        index = clients[0].index
        segment_of, starts, pairs, cuts, totals, others = MarkovToyClient._views(clients)
        if not len(starts):
            return []
        width = len(index.context_keys) + 1
        # Batched seeding costs ~0.2 us per lane against ~21 us for a SeedSequence each.
        states = _pcg64_states([c.seed for c in clients], [_text_u64(text) for text in texts]).reshape(4, -1)
        lane = np.arange(len(clients) * len(texts), dtype=np.int32)
        base = np.repeat(np.arange(len(clients), dtype=np.int64) * width + 1, len(texts))
        keys = np.array([index.key(text.split()) for text in texts], dtype=np.int64)
        # each lane reads its column of rows: its prompt's, then its pair's
        rows = np.stack([index.find(keys, length) for length in range(1, index.order + 1)])
        column = lane % len(texts)
        successors = index.successors()
        steps = []
        for _ in range(max_tokens):
            segment = segment_of[base + rows[-1][column]]
            todo = (segment < 0).nonzero()[0]
            for length in range(index.order - 1, 0, -1):
                if not len(todo):
                    break
                found = segment_of[base[todo] + rows[length - 1][column[todo]]]
                segment[todo] = found
                todo = todo[found < 0]
            total = totals[segment]
            live = total > 0.0
            if not live.all():
                keep = live.nonzero()[0]
                if not len(keep):
                    break
                lane, base, segment, total = (array[keep] for array in (lane, base, segment, total))
                states = states[:, keep]
            uniform = _pcg64_next(states)
            pick = starts[segment]
            count = others[segment]
            multi = count.nonzero()[0]
            # one searchsorted over totals keyed as complex numbers ran ~1.7x slower at 5,000 lanes
            if len(multi):
                counts = count[multi]
                offsets = counts.cumsum() - counts
                owner = np.arange(len(multi)).repeat(counts)
                at = (pick[multi] - offsets).repeat(counts) + np.arange(offsets[-1] + counts[-1])
                threshold = uniform[multi] * total[multi]
                pick[multi] += np.add.reduceat(cuts[at] <= threshold[owner], offsets, dtype=np.int64)
            rows, column = successors, pairs[pick]
            steps.append((lane, column))
        return steps

    def generate(self, prompt_id: str, prompt_text: str, round_index: int, max_tokens: int) -> str:
        return self._lockstep([self], [prompt_text], max_tokens)[0]

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
        texts = [text for _, text in prompts]
        by_index: dict[int, list[int]] = {}
        for position, client in enumerate(clients):
            by_index.setdefault(id(client.index), []).append(position)
        responses: list[list[str]] = [[] for _ in clients]
        for positions in by_index.values():
            group = [clients[i] for i in positions]
            spelled = cls._lockstep(group, texts, max_tokens)
            for slot, position in enumerate(positions):
                responses[position] = spelled[slot * len(texts) : (slot + 1) * len(texts)]
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
