"""Deterministic text embeddings, normalized to the unit vectors consensus compares.

The reference encoder hashes character n-grams into a fixed number of
signed buckets (feature hashing with a +/-1 sign bit derived from the
same keyed hash).  It is a stand-in for a real sentence encoder that is
cheap, dependency free, and bit-reproducible across runs and platforms.
Real encoder output can be substituted by loading precomputed vectors
from JSONL (``load_embeddings_jsonl``); everything downstream assumes
only unit-norm float64 vectors.

Each n-gram's (bucket, sign) is memoised in an LRU memo bounded by
``NGRAM_MEMO_SIZE`` and keyed by the n-gram, the seed and the dimension,
and ``encode`` sums the signs with one ``np.bincount``.  The vectors are
bit-identical to hashing every n-gram afresh and adding the signs one
at a time: every entry is a sum of +/-1.0, an integer far below 2**53,
so it is exact in any order.  The server also encodes each distinct
response text once per prompt (``protocol.encode_responses``).

Distances between the unit vectors are not computed here: one
pairwise matrix per prompt, built by ``consensus.cosine_distances``,
serves DBSCAN, the cluster choice and the medoid.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonl import read_rows

__all__ = [
    "ZERO_NORM_EPS",
    "UNIT_NORM_TOL",
    "ZeroVectorError",
    "EncoderConfig",
    "encode",
    "normalize",
    "encode_normalized",
    "is_unit",
    "load_embeddings_jsonl",
]

# Norms below this are treated as exactly zero and refused by normalize().
ZERO_NORM_EPS = 1e-12
# Tolerance when checking that a vector claiming to be normalized is unit.
UNIT_NORM_TOL = 1e-9


class ZeroVectorError(ValueError):
    """Raised when a vector with (near-)zero norm cannot be normalized."""


@dataclass(frozen=True)
class EncoderConfig:
    """Settings for the hashed character n-gram encoder.

    dimension: number of hash buckets, i.e. the embedding width.
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
        if self.dimension < 8:
            raise ValueError(f"encoder dimension must be >= 8, got {self.dimension}")
        if self.ngram_size < 1:
            raise ValueError(f"ngram_size must be >= 1, got {self.ngram_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _text_u64(text: str) -> int:
    """Unkeyed 64-bit blake2b of the UTF-8 text; stable across runs and processes."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


# Entries kept by the n-gram memo; full of ASCII trigrams it holds about 18 MB.
NGRAM_MEMO_SIZE = 1 << 16


@functools.lru_cache(maxsize=NGRAM_MEMO_SIZE)
def _hash_ngram(ngram: str, seed: int, dimension: int) -> tuple[int, float]:
    """Map an n-gram to (bucket, sign) with a keyed 64-bit hash.

    Memoised: the key is every input the hash reads.  ``ngram_size``
    and ``lowercase`` only shape the n-gram string itself.
    """
    digest = hashlib.blake2b(
        ngram.encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little"),
    ).digest()
    value = int.from_bytes(digest, "little")
    sign = 1.0 if value & 1 else -1.0
    return (value >> 1) % dimension, sign


def encode(text: str, config: EncoderConfig) -> np.ndarray:
    """Embed ``text`` as signed hashed n-gram counts (not normalized).

    Pure function of (text, config).  Texts shorter than the n-gram
    size, including the empty string, produce the all-zero vector;
    ``normalize`` refuses those, which is how empty generations surface
    as errors instead of silently entering consensus.
    """
    if config.lowercase:
        text = text.lower()
    n, seed, dimension = config.ngram_size, config.seed, config.dimension
    pairs = [_hash_ngram(text[i : i + n], seed, dimension) for i in range(len(text) - n + 1)]
    if not pairs:
        return np.zeros(dimension, dtype=np.float64)
    # Sums of +/-1.0 are exact integers, so the summation order cannot matter.
    buckets, signs = zip(*pairs)
    return np.bincount(buckets, weights=signs, minlength=dimension)


def normalize(raw: np.ndarray) -> np.ndarray:
    """Scale ``raw`` to unit Euclidean norm.

    Raises ZeroVectorError when the norm is below ZERO_NORM_EPS and
    ValueError on non-finite input.
    """
    vec = np.asarray(raw, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("embedding has non-finite entries")
    norm = float(np.linalg.norm(vec))
    if norm < ZERO_NORM_EPS:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm!r}")
    return vec / norm


def encode_normalized(text: str, config: EncoderConfig) -> np.ndarray:
    """encode() followed by normalize()."""
    return normalize(encode(text, config))


def is_unit(vec: np.ndarray) -> bool:
    """True when ``vec`` has unit norm within UNIT_NORM_TOL."""
    return abs(float(np.linalg.norm(vec)) - 1.0) <= UNIT_NORM_TOL


def load_embeddings_jsonl(path: str | Path, dimension: int | None = None) -> dict[str, np.ndarray]:
    """Load externally computed embeddings from JSONL.

    Each line is an object {"response_id": str, "embedding": [numbers]},
    read by ``jsonl.read_rows``.  Vectors are returned raw (not
    normalized) so callers decide when to normalize.  All vectors must
    share one dimension; pass ``dimension`` to also pin what it must be.
    """
    out: dict[str, np.ndarray] = {}
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
        if dimension is None:
            dimension = int(vec.size)
        elif vec.size != dimension:
            raise ValueError(f"{where}: embedding has dimension {vec.size}, expected {dimension}")
        out[rid] = vec
    return out
