"""Deterministic text embeddings, normalized to the unit vectors consensus compares.

The reference encoder hashes character n-grams into a fixed number of
signed buckets (feature hashing with a +/-1 sign bit derived from the
same keyed hash).  It is a stand-in for a real sentence encoder that is
cheap, dependency free, and bit-reproducible across runs and platforms.
Real encoder output can be substituted by loading precomputed vectors
from JSONL (``load_embeddings_jsonl``); everything downstream assumes
only unit-norm float64 vectors.

``encode_batch`` embeds a list of texts as one matrix.  It reads every
code point at once, packs each n-gram of up to three code points into
one integer (21 bits per code point) and finds the distinct keys with
one ``np.unique``; longer n-grams are keyed by their string.  Each
distinct key's (bucket, sign) comes from a table bounded by
``NGRAM_MEMO_SIZE`` entries and keyed by (seed, dimension, n-gram
size); only keys missing from it go through the keyed hash.  One
``np.bincount`` then sums the signs of every text.  The vectors are
bit-identical to hashing every n-gram afresh and adding the signs one
at a time: every entry is a sum of +/-1.0, an integer far below 2**53,
so it is exact in any order.  The server encodes each prompt's
distinct response texts in one batch (``protocol.encode_responses``)
and normalizes that matrix with one ``normalize_rows`` call.

Distances between the unit vectors are not computed here: one
pairwise matrix per prompt, built by ``consensus.cosine_distances``,
serves DBSCAN, the cluster choice and the medoid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

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
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not 8 <= self.dimension <= MAX_DIMENSION:
            raise ValueError(f"encoder dimension must be in [8, {MAX_DIMENSION}], got {self.dimension}")
        if self.ngram_size < 1:
            raise ValueError(f"ngram_size must be >= 1, got {self.ngram_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _text_u64(text: str) -> int:
    """Unkeyed 64-bit blake2b of the UTF-8 text; stable across runs and processes."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


# Entries kept by the n-gram table, summed over every config; full of
# packed trigram keys it holds about 6 MB.
NGRAM_MEMO_SIZE = 1 << 16

# N-grams of up to _PACKED_MAX code points are packed into one int64 key.
_POINT_BITS = 21
_POINT_MASK = (1 << _POINT_BITS) - 1
_PACKED_MAX = 3

# (seed, dimension, ngram_size) -> {n-gram key: bucket * 2 + sign bit}.
# The n-gram size is part of the config key because a 2-gram and a
# 3-gram that starts with "\x00" pack to the same integer.
_TABLES: dict[tuple[int, int, int], dict] = {}


def _hash_ngram(ngram: str, key: bytes, dimension: int) -> int:
    """The n-gram's bucket * 2 + sign bit, from a 64-bit blake2b keyed by the seed."""
    value = int.from_bytes(
        hashlib.blake2b(ngram.encode("utf-8"), digest_size=8, key=key).digest(), "little"
    )
    return (value >> 1) % dimension << 1 | value & 1


def _codes(keys: list, ngram_of: Callable, config: EncoderConfig) -> np.ndarray:
    """Table codes of the distinct n-gram ``keys``; ``ngram_of(key)`` is the n-gram.

    Keys missing from the table are hashed and added.  When the table
    would outgrow NGRAM_MEMO_SIZE it is emptied first.
    """
    config_key = (config.seed, config.dimension, config.ngram_size)
    table = _TABLES.get(config_key, {})
    codes = list(map(table.get, keys))
    misses = [i for i, code in enumerate(codes) if code is None]
    if misses:
        seed_key = config.seed.to_bytes(8, "little")
        for i in misses:
            codes[i] = _hash_ngram(ngram_of(keys[i]), seed_key, config.dimension)
        if sum(map(len, _TABLES.values())) + len(misses) > NGRAM_MEMO_SIZE:
            _TABLES.clear()
            table = {}
        table.update((keys[i], codes[i]) for i in misses[:NGRAM_MEMO_SIZE])
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
        packed = points[starts].astype(np.int64)
        for offset in range(1, n):
            packed = packed << _POINT_BITS | points[starts + offset]
        distinct, inverse = np.unique(packed, return_inverse=True)
        keys = distinct.tolist()
        shifts = range(_POINT_BITS * (n - 1), -1, -_POINT_BITS)

        def ngram_of(key: int) -> str:
            return "".join(chr(key >> shift & _POINT_MASK) for shift in shifts)

    else:
        index: dict[str, int] = {}
        ngrams = (joined[i : i + n] for i in starts.tolist())
        inverse = np.fromiter(
            (index.setdefault(ngram, len(index)) for ngram in ngrams), np.int64, len(starts)
        )
        keys = list(index)
        ngram_of = str

    codes = _codes(keys, ngram_of, config)[inverse]
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
