"""Deterministic text embeddings, normalized to the unit vectors consensus compares.

The reference encoder hashes character n-grams into a fixed number of
signed buckets (feature hashing with a +/-1 sign bit derived from the
same keyed hash).  It is a stand-in for a real sentence encoder that is
cheap, dependency free, and bit-reproducible across runs and platforms.
Real encoder output can be substituted by loading precomputed vectors
from JSONL (``load_embeddings_jsonl``); everything downstream assumes
only unit-norm float64 vectors.

``encode_batch`` embeds a list of texts as one matrix.  It reads every
code point at once and packs each n-gram of up to three code points
into one integer (21 bits per code point).  All of a batch's packed
keys are looked up at once in an open-addressing table held in two
numpy arrays (keys and codes), probed linearly from a Fibonacci hash;
only the keys it misses are deduplicated with ``np.unique`` and go
through the keyed hash, every one of them before any is added.
``clients.PairIndex`` interns its contexts and pairs in tables of this
class that are its own.
Longer n-grams are keyed by their string in a dict.  The tables are
keyed by (seed, dimension, n-gram size) and hold at most
``NGRAM_MEMO_SIZE`` entries together.  One ``np.bincount`` then sums
the signs of every text.  The vectors are bit-identical to hashing
every n-gram afresh and adding the signs one at a time: every entry is
a sum of +/-1.0, an integer far below 2**53, so it is exact in any
order.  The server encodes each prompt's distinct response texts in
one batch (``protocol.encode_responses``) and normalizes that matrix
with one ``normalize_rows`` call.

Distances between the unit vectors are not computed here: one
pairwise matrix per prompt, built by ``consensus.cosine_distances``,
serves DBSCAN, the cluster choice and the medoid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .jsonl import read_rows

__all__ = [
    "ZERO_NORM_EPS",
    "UNIT_NORM_TOL",
    "ZeroVectorError",
    "EncoderConfig",
    "encode",
    "encode_batch",
    "normalize_rows",
    "normalize",
    "encode_normalized",
    "is_unit",
    "load_embeddings_jsonl",
]

# Norms below this are treated as exactly zero: normalize_rows() flags the row.
ZERO_NORM_EPS = 1e-12
# Tolerance when checking that a vector claiming to be normalized is unit.
UNIT_NORM_TOL = 1e-9
# Widest embedding the encoder builds; a batch holds texts x dimension float64s.
MAX_DIMENSION = 1 << 16


class ZeroVectorError(ValueError):
    """Raised when a vector with (near-)zero norm cannot be normalized."""


@dataclass(frozen=True)
class EncoderConfig:
    """Settings for the hashed character n-gram encoder.

    dimension: number of hash buckets, i.e. the embedding width, from 8
        to MAX_DIMENSION (65,536).
    ngram_size: character n-gram length fed to the hash.
    seed: key for the hash; different seeds give unrelated embeddings.
    lowercase: optional preprocessing, off by default so the encoder
        sees generated text byte for byte.
    """

    dimension: int = 384
    ngram_size: int = 3
    seed: int = 0
    lowercase: bool = False

    def __post_init__(self) -> None:
        for name in ("dimension", "ngram_size", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if type(self.lowercase) is not bool:
            raise ValueError(f"lowercase must be a bool, got {self.lowercase!r}")
        if not 8 <= self.dimension <= MAX_DIMENSION:
            raise ValueError(f"encoder dimension must be in [8, {MAX_DIMENSION}], got {self.dimension}")
        if self.ngram_size < 1:
            raise ValueError(f"ngram_size must be >= 1, got {self.ngram_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _text_u64(text: str) -> int:
    """Unkeyed 64-bit blake2b of the UTF-8 text; stable across runs and processes."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


# Entries kept by the n-gram tables, summed over every config.  A table
# of packed keys keeps at least two slots per entry, each two int64s:
# full, it holds 65,536 entries in 131,072 slots, 2 MiB.
NGRAM_MEMO_SIZE = 1 << 16

# N-grams of up to _PACKED_MAX code points are packed into one int64 key.
_POINT_BITS = 21
_PACKED_MAX = 3

# Fibonacci hashing's multiplier: 2**64 over the golden ratio, made odd.
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)

# (seed, dimension, ngram_size) -> the config's n-gram codes: a
# _PackedTable for n <= _PACKED_MAX, else {n-gram: bucket * 2 + sign bit}.
# The n-gram size is part of the config key because a 2-gram and a
# 3-gram that starts with "\x00" pack to the same integer.
_TABLES: dict[tuple[int, int, int], _PackedTable | dict[str, int]] = {}


def _hash_ngram(ngram: str, key: bytes, dimension: int) -> int:
    """The n-gram's bucket * 2 + sign bit, from a 64-bit blake2b keyed by the seed."""
    value = int.from_bytes(
        hashlib.blake2b(ngram.encode("utf-8"), digest_size=8, key=key).digest(), "little"
    )
    return (value >> 1) % dimension << 1 | value & 1


def _hash_ngrams(ngrams: list[str], config: EncoderConfig) -> list[int]:
    """``_hash_ngram`` of each n-gram under the config's seed and dimension."""
    key = config.seed.to_bytes(8, "little")
    return [_hash_ngram(ngram, key, config.dimension) for ngram in ngrams]


def _make_room(count: int) -> bool:
    """Empty every table if ``count`` more entries would pass NGRAM_MEMO_SIZE; True if it did."""
    if sum(map(len, _TABLES.values())) + count <= NGRAM_MEMO_SIZE:
        return False
    _TABLES.clear()
    return True


class _PackedTable:
    """Open-addressing table from non-negative int64 keys to int64 codes.

    Used for packed n-grams and by ``clients.PairIndex``.  ``keys`` holds
    -1 in an empty slot and ``codes`` the code of the key in the same
    slot.  A key's probe starts at its Fibonacci hash and steps one slot
    at a time, wrapping at the end.  The capacity is a power of two at
    least twice the entries, so every probe meets an empty slot.
    """

    __slots__ = ("keys", "codes", "size")

    def __init__(self, capacity: int = 2) -> None:
        self.keys = np.full(capacity, -1, dtype=np.int64)
        self.codes = np.zeros(capacity, dtype=np.int64)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def _homes(self, keys: np.ndarray) -> np.ndarray:
        """Each key's first slot: the top log2(capacity) bits of key * _FIBONACCI mod 2**64."""
        # An array product wraps mod 2**64 without a warning.
        homes = keys.view(np.uint64) * _FIBONACCI
        homes >>= np.uint64(65 - len(self.keys).bit_length())
        return homes.view(np.int64)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Each key's code, or -1 where the table lacks the key.

        All keys are probed at once; each step moves only the lanes whose
        slot holds another key.
        """
        mask = len(self.keys) - 1
        slots = self._homes(keys)
        held = self.keys[slots]
        pending = np.flatnonzero((held != keys) & (held != -1))
        while pending.size:
            probe = (slots[pending] + 1) & mask
            slots[pending] = probe
            held = self.keys[probe]
            pending = pending[(held != keys[pending]) & (held != -1)]
        return np.where(self.keys[slots] == keys, self.codes[slots], -1)

    def insert(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Add distinct keys that are not in the table, with their codes.

        When the entries would fill more than half the slots, the table
        is rebuilt with the smallest power-of-two capacity that holds them
        all at half load: sorted by home, the key of rank r takes slot
        r + the running maximum of home - rank.  Keys that would pass the
        last slot, and batches that fit without a rebuild, are probed in
        one at a time.
        """
        if 2 * (self.size + len(keys)) > len(self.keys):
            held = self.keys != -1
            keys = np.concatenate([self.keys[held], keys])
            codes = np.concatenate([self.codes[held], codes])
            self.__init__(1 << (2 * len(keys) - 1).bit_length())
            homes = self._homes(keys)
            order = np.argsort(homes)
            rank = np.arange(len(keys))
            slots = rank + np.maximum.accumulate(homes[order] - rank)
            fit = int(np.count_nonzero(slots < len(self.keys)))
            self.keys[slots[:fit]] = keys[order[:fit]]
            self.codes[slots[:fit]] = codes[order[:fit]]
            self.size = fit
            keys, codes = keys[order[fit:]], codes[order[fit:]]
        mask = len(self.keys) - 1
        table_keys, table_codes = self.keys, self.codes
        for key, code, slot in zip(keys.tolist(), codes.tolist(), self._homes(keys).tolist()):
            while table_keys[slot] != -1:
                slot = (slot + 1) & mask
            table_keys[slot] = key
            table_codes[slot] = code
        self.size += len(keys)


def _packed_codes(
    packed: np.ndarray, joined: str, starts: np.ndarray, config: EncoderConfig
) -> np.ndarray:
    """Table codes of the packed n-gram keys ``packed``, one per key.

    The key at position i packs the n-gram ``joined[starts[i]:][:n]``.
    Keys missing from the config's table are hashed, all of them before
    any is added, and then added; when the tables would outgrow
    NGRAM_MEMO_SIZE they are emptied first.
    """
    n = config.ngram_size
    config_key = (config.seed, config.dimension, n)
    table = _TABLES.get(config_key)
    if table is None:
        table = _TABLES[config_key] = _PackedTable()
    codes = table.lookup(packed)
    missing = codes < 0
    if missing.any():
        keys, first, inverse = np.unique(packed[missing], return_index=True, return_inverse=True)
        ngrams = [joined[i : i + n] for i in starts[missing][first].tolist()]
        new_codes = np.array(_hash_ngrams(ngrams, config), dtype=np.int64)
        if _make_room(len(keys)):
            table = _TABLES[config_key] = _PackedTable()
        table.insert(keys[:NGRAM_MEMO_SIZE], new_codes[:NGRAM_MEMO_SIZE])
        codes[missing] = new_codes[inverse]
    return codes


def _string_codes(ngrams: list[str], config: EncoderConfig) -> np.ndarray:
    """Table codes of the distinct n-grams ``ngrams``, each keyed by its string.

    N-grams missing from the table are hashed and added.  When the
    tables would outgrow NGRAM_MEMO_SIZE they are emptied first.
    """
    config_key = (config.seed, config.dimension, config.ngram_size)
    table = _TABLES.get(config_key, {})
    codes = list(map(table.get, ngrams))
    misses = [i for i, code in enumerate(codes) if code is None]
    if misses:
        for i, code in zip(misses, _hash_ngrams([ngrams[i] for i in misses], config)):
            codes[i] = code
        if _make_room(len(misses)):
            table = {}
        table.update((ngrams[i], codes[i]) for i in misses[:NGRAM_MEMO_SIZE])
        _TABLES[config_key] = table
    return np.array(codes, dtype=np.int64)


def encode_batch(texts: Sequence[str], config: EncoderConfig) -> np.ndarray:
    """Embed each text as signed hashed n-gram counts, one row per text.

    Returns a (len(texts), dimension) float64 matrix, not normalized;
    row i is ``encode(texts[i], config)``.  N-grams never cross from one
    text into the next.  A text shorter than the n-gram size gets the
    all-zero row.  An n-gram holding a lone surrogate cannot be hashed
    and raises UnicodeEncodeError.
    """
    if config.lowercase:
        texts = [text.lower() for text in texts]
    n, dimension = config.ngram_size, config.dimension
    joined = "".join(texts)
    # The row of every code point; an n-gram stays inside one text when
    # its first and last code points share a row.
    row_of = np.repeat(np.arange(len(texts)), [len(text) for text in texts])
    count = max(len(joined) - n + 1, 0)
    starts = np.flatnonzero(row_of[:count] == row_of[n - 1 : n - 1 + count])

    if n <= _PACKED_MAX:
        points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        # Pack at every position with slices, then keep the starts: one gather.
        packed = points[:count].astype(np.int64)
        for offset in range(1, n):
            packed <<= _POINT_BITS
            packed |= points[offset : offset + count]
        codes = _packed_codes(packed[starts], joined, starts, config)
    else:
        # Wider n-grams packed into Python ints ran 1.7x slower at n=4 (object-array np.unique).
        index: dict[str, int] = {}
        ngrams = (joined[i : i + n] for i in starts.tolist())
        inverse = np.fromiter(
            (index.setdefault(ngram, len(index)) for ngram in ngrams), np.int64, len(starts)
        )
        codes = _string_codes(list(index), config)[inverse]

    flat = np.bincount(
        row_of[starts] * dimension + (codes >> 1),
        weights=(codes & 1) * 2.0 - 1.0,
        minlength=len(texts) * dimension,
    )
    # Sums of +/-1.0 are exact integers, so the summation order cannot matter;
    # bincount gives int64 when there is no n-gram at all.
    return flat.astype(np.float64, copy=False).reshape(len(texts), dimension)


def encode(text: str, config: EncoderConfig) -> np.ndarray:
    """Embed ``text`` as signed hashed n-gram counts (not normalized).

    ``encode_batch([text], config)[0]``: a pure function of (text,
    config).  Texts shorter than the n-gram size, including the empty
    string, produce the all-zero vector; ``normalize_rows`` flags those,
    which is how empty generations surface as errors instead of
    silently entering consensus.
    """
    return encode_batch([text], config)[0]


def normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of ``raw`` (a matrix, or one vector) to unit norm.

    A row's norm is sqrt(row . row), one dot product as ``np.linalg.norm``
    takes it for a vector.  Returns the scaled rows and a mask of the rows
    whose norm is below ZERO_NORM_EPS, which are left unscaled.  Raises
    ValueError on non-finite input.
    """
    rows = np.ascontiguousarray(raw, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ValueError("embedding has non-finite entries")
    norms = np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])
    zero = norms < ZERO_NORM_EPS
    return rows / np.where(zero, 1.0, norms)[..., None], zero


def normalize(raw: np.ndarray) -> np.ndarray:
    """Scale the vector ``raw`` to unit Euclidean norm with ``normalize_rows``.

    Raises ZeroVectorError when the norm is below ZERO_NORM_EPS and
    ValueError on non-finite input.
    """
    vec = np.asarray(raw, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {vec.shape}")
    unit, zero = normalize_rows(vec)
    if zero:
        raise ZeroVectorError(f"cannot normalize vector with norm {float(np.sqrt(vec @ vec))!r}")
    return unit


def encode_normalized(text: str, config: EncoderConfig) -> np.ndarray:
    """encode() followed by normalize()."""
    return normalize(encode(text, config))


def is_unit(vectors: np.ndarray) -> np.bool_ | np.ndarray:
    """Whether each vector along the last axis has unit norm within UNIT_NORM_TOL.

    One bool for a vector, one per row for a matrix.  A NaN norm is not unit.
    """
    return np.abs(np.linalg.norm(vectors, axis=-1) - 1.0) <= UNIT_NORM_TOL


def load_embeddings_jsonl(path: str | Path) -> dict[str, np.ndarray]:
    """Load externally computed embeddings from JSONL.

    Each line is an object {"response_id": str, "embedding": [numbers]},
    read by ``jsonl.read_rows``.  Vectors are returned raw (not
    normalized) so callers decide when to normalize.  All vectors must
    share one dimension, and each squared norm must fit a float.
    """
    out: dict[str, np.ndarray] = {}
    dimension = None
    for lineno, (rid, embedding) in read_rows(path, response_id=str, embedding=list):
        where = f"{path}:{lineno}"
        if rid in out:
            raise ValueError(f"{where}: duplicate response_id {rid!r}")
        if not embedding or any(type(x) not in (int, float) for x in embedding):
            raise ValueError(f"{where}: embedding must be a non-empty flat list of numbers")
        try:
            vec = np.array(embedding, dtype=np.float64)
            finite = bool(np.isfinite(vec).all())
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{where}: embedding has non-finite entries")
        with np.errstate(over="ignore"):
            squared_norm = vec @ vec
        if not np.isfinite(squared_norm):
            raise ValueError(f"{where}: embedding norm overflows a float")
        if dimension is None:
            dimension = int(vec.size)
        elif vec.size != dimension:
            raise ValueError(f"{where}: embedding has dimension {vec.size}, expected {dimension}")
        out[rid] = vec
    return out
