import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import semfed.encoder as encoder
from oracles import reference_encode, reference_encode_batch, reference_normalize

from semfed.clients import PairIndex
from semfed.consensus import cosine_distances
from semfed.encoder import (
    NGRAM_MEMO_SIZE,
    ZERO_NORM_EPS,
    EncoderConfig,
    ZeroVectorError,
    encode,
    encode_batch,
    encode_normalized,
    is_unit,
    load_embeddings_jsonl,
    normalize,
    normalize_rows,
)

CFG = EncoderConfig()

# Frozen output of the reference encoder for "hello world" with the
# default config (384 buckets, trigrams, seed 0): nine trigrams, each
# in its own bucket.
HELLO_WORLD_NONZEROS = {
    15: -1.0,
    47: -1.0,
    60: -1.0,
    66: 1.0,
    174: 1.0,
    224: 1.0,
    318: 1.0,
    355: 1.0,
    376: -1.0,
}


def test_empty_text_is_zero_vector():
    vec = encode("", CFG)
    assert vec.shape == (384,)
    assert not vec.any()


def test_text_shorter_than_ngram_is_zero_vector():
    assert not encode("ab", CFG).any()


def test_encode_is_pure():
    a = encode("some response text", CFG)
    b = encode("some response text", CFG)
    assert np.array_equal(a, b)


def test_hello_world_golden_vector():
    vec = encode("hello world", CFG)
    nonzeros = {int(i): float(vec[i]) for i in np.flatnonzero(vec)}
    assert nonzeros == HELLO_WORLD_NONZEROS
    # nine distinct trigram buckets, so the normalized vector has
    # entries of magnitude exactly 1/3
    unit = normalize(vec)
    assert float(np.linalg.norm(vec)) == 3.0
    assert float(unit[15]) == -1.0 / 3.0
    assert float(unit[66]) == 1.0 / 3.0


def test_different_seeds_give_different_embeddings():
    a = encode("hello world", CFG)
    b = encode("hello world", EncoderConfig(seed=1))
    assert not np.array_equal(a, b)


def test_lowercase_preprocessing_flag():
    plain = encode("Hello World", CFG)
    folded = encode("Hello World", EncoderConfig(lowercase=True))
    assert np.array_equal(folded, encode("hello world", CFG))
    assert not np.array_equal(plain, folded)


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(dimension=4)
    with pytest.raises(ValueError):
        EncoderConfig(ngram_size=0)
    with pytest.raises(ValueError):
        EncoderConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be an int"):
        EncoderConfig(seed=1.0)
    with pytest.raises(ValueError, match="dimension must be an int"):
        EncoderConfig(dimension=384.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"ngram_size": True}, "ngram_size must be an int, got True"),
        ({"seed": False}, "seed must be an int, got False"),
        ({"lowercase": "no"}, "lowercase must be a bool, got 'no'"),
        ({"lowercase": 1}, "lowercase must be a bool, got 1"),
    ],
)
def test_config_rejects_bools_as_ints_and_non_bool_lowercase(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EncoderConfig(**kwargs)


# Texts mix a small alphabet, so n-grams repeat, with any encodable
# character: non-ASCII, astral (4 UTF-8 bytes), "\x00" (whose packed
# code point is all zero bits), and letters whose lowercase form is
# longer ("İ").  Many are shorter than the n-gram.
TEXTS = st.text(
    st.sampled_from("ab aé漢İ😀𝔘\x00") | st.characters(codec="utf-8"), max_size=30
)
CONFIGS = st.builds(
    EncoderConfig,
    dimension=st.integers(8, 512),
    ngram_size=st.integers(1, 5),
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    lowercase=st.booleans(),
)


@given(text=TEXTS, configs=st.lists(CONFIGS, min_size=1, max_size=3))
def test_encode_matches_reference_loop(text, configs):
    """Byte-identical to the reference loop.  Configs are interleaved in
    one process, each followed by the same config under another seed and
    another dimension, so a table keyed without either would answer with
    a stale (bucket, sign)."""
    for config in configs:
        variants = (
            config,
            replace(config, seed=2**64 - 1 - config.seed),
            replace(config, dimension=config.dimension % 512 + 8),
            config,
        )
        for variant in variants:
            expected = reference_encode(
                text, variant.dimension, variant.ngram_size, variant.seed, variant.lowercase
            )
            got = encode(text, variant)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


def config_variants(config):
    """The config, then its neighbours under another seed, another
    dimension and another n-gram size, then the config again."""
    return (
        config,
        replace(config, seed=2**64 - 1 - config.seed),
        replace(config, dimension=config.dimension % 512 + 8),
        replace(config, ngram_size=config.ngram_size % 5 + 1),
        config,
    )


def table_entries():
    return sum(len(table) for table in encoder._TABLES.values())


@given(
    batches=st.lists(st.lists(TEXTS, max_size=8), min_size=1, max_size=3),
    configs=st.lists(CONFIGS, min_size=1, max_size=3),
)
def test_encode_batch_matches_reference_stack(batches, configs):
    """Each batch, the empty one included, is byte-identical to the
    reference loop stacked row by row.  N-grams never cross from one
    text into the next, so a batch is not the encoding of its join."""
    for config in configs:
        for variant in config_variants(config):
            for texts in batches:
                expected = reference_encode_batch(
                    texts, variant.dimension, variant.ngram_size, variant.seed, variant.lowercase
                )
                got = encode_batch(texts, variant)
                assert got.dtype == np.float64 and got.shape == (len(texts), variant.dimension)
                assert got.tobytes() == expected.tobytes()
    assert table_entries() <= NGRAM_MEMO_SIZE


@pytest.mark.parametrize("ngram_size", [1, 2, 3, 4, 5])
def test_lone_surrogate_raises_only_inside_an_ngram(ngram_size):
    config = EncoderConfig(dimension=64, ngram_size=ngram_size)
    for text in ["\ud800", "a\udfff", "ab\ud800cd", "\udc00" * 6, "😀\ud800"]:
        if len(text) >= ngram_size:
            with pytest.raises(UnicodeEncodeError):
                reference_encode(text, 64, ngram_size, 0, False)
            with pytest.raises(UnicodeEncodeError):
                encode(text, config)
            with pytest.raises(UnicodeEncodeError):
                encode_batch(["hello there", text], config)
        else:
            # too short for an n-gram: the zero vector, as in the reference
            assert not encode(text, config).any()
            got = encode_batch(["hello there", text, ""], config)
            expected = reference_encode_batch(["hello there", text, ""], 64, ngram_size, 0, False)
            assert got.tobytes() == expected.tobytes()
    # a failed batch leaves nothing wrong behind in the table
    expected = reference_encode("hello there", 64, ngram_size, 0, False)
    assert encode("hello there", config).tobytes() == expected.tobytes()


def test_ngram_table_stays_bounded():
    config = EncoderConfig(dimension=64, ngram_size=1)
    # more distinct 1-grams than the table holds: first in one batch,
    # then spread over a full table
    points = [chr(0x10000 + i) for i in range(NGRAM_MEMO_SIZE + 1000)]
    texts = ["".join(points), "".join(points[:500]), "".join(reversed(points[-3000:]))]
    for batch in ([texts[0]], texts[1:], texts):
        got = encode_batch(batch, config)
        assert table_entries() <= NGRAM_MEMO_SIZE
        expected = reference_encode_batch(batch, 64, 1, 0, False)
        assert got.tobytes() == expected.tobytes()


def test_packed_table_probes_grows_and_keeps_its_entries_when_a_batch_fails(monkeypatch):
    """A batch encoded cold (a third of it first, so the table doubles),
    then under another seed and another dimension, then warm; then a
    batch whose last new n-gram holds a lone surrogate.  Every encode
    equals the reference, and each n-gram is hashed only on its first
    successful encode under a config."""
    config = EncoderConfig(dimension=64, ngram_size=2)
    points = np.random.default_rng(7).integers(0x4E00, 0x4E00 + 80, 6000)
    batch = ["".join(map(chr, points[i : i + 600])) for i in range(0, 6000, 600)]
    distinct = {text[i : i + 2] for text in batch for i in range(len(text) - 1)}
    hashed = []
    hash_ngram = encoder._hash_ngram
    monkeypatch.setattr(
        encoder, "_hash_ngram", lambda ngram, *rest: hashed.append(ngram) or hash_ngram(ngram, *rest)
    )

    def check(texts, variant):
        """Encode and compare; return the n-grams hashed on the way."""
        hashed.clear()
        expected = reference_encode_batch(texts, variant.dimension, 2, variant.seed, False)
        assert encode_batch(texts, variant).tobytes() == expected.tobytes()
        assert len(hashed) == len(set(hashed))
        return set(hashed)

    encoder._TABLES.clear()
    first = check(batch[:3], config)
    table = encoder._TABLES[(0, 64, 2)]
    assert len(table) == len(first) and len(table.keys) == 4096
    rest = check(batch, config)  # cold for most n-grams: the table doubles
    assert not first & rest and first | rest == distinct
    assert len(table) == len(distinct) > 3000 and len(table.keys) == 8192
    slots = np.flatnonzero(table.keys != -1)
    homes = table._homes(table.keys[slots])
    # keys stored past their first slot, each found by its probe
    assert (slots != homes).sum() > 100
    assert np.array_equal(table.lookup(table.keys[slots]), table.codes[slots])
    assert check(batch, replace(config, seed=1)) == distinct
    assert check(batch, replace(config, dimension=128)) == distinct
    assert check(batch, config) == set()
    assert len(table) == len(distinct) and table_entries() == 3 * len(distinct)

    # "\ud800x" sorts after every other new 2-gram, so it is hashed last
    with pytest.raises(UnicodeEncodeError):
        encode_batch(["fresh text", "\ud800x"], config)
    assert hashed[-1] == "\ud800x"
    assert len(table) == len(distinct) and table_entries() == 3 * len(distinct)
    assert len(check(["fresh text"] + batch, config)) == 9
    assert len(table) == len(distinct) + 9

    # runs past the last slot wrap to the front, placed by a rebuild and by a batch that fits
    wrapped = encoder._PackedTable()
    wrapped.insert(np.array(LAST[:3]), np.array([5, 6, 7]))  # rebuilt to 8 slots, all three homed at 7
    wrapped.insert(np.array(LAST[3:4]), np.array([8]))  # fits: probes 7, 0, 1, 2
    assert len(wrapped.keys) == 8 and wrapped._homes(np.array(LAST[:4])).tolist() == [7] * 4
    assert set(wrapped.keys[[7, 0, 1]].tolist()) == set(LAST[:3]) and wrapped.keys[2] == LAST[3]
    assert wrapped.lookup(np.array(LAST[:5])).tolist() == [5, 6, 7, 8, -1]


_FIBONACCI_INVERSE = pow(int(encoder._FIBONACCI), -1, 2**64)


def homed_key(prefix, low):
    """The first non-negative int64 key from ``low`` up whose Fibonacci hash
    starts with the 24 bits of ``prefix``: in every table of at most 2**24
    slots it is homed where ``prefix``'s top bits point."""
    while True:
        key = (prefix << 40 | low) * _FIBONACCI_INVERSE % 2**64
        if key < 2**63:
            return key
        low += 1


# Keys homed at the last slot of every table, so their runs pass the end.
LAST = [homed_key(0xFFFFFF, low) for low in range(0, 400, 50)]
# Keys homed at the middle slot of every table.
MIDDLE = [homed_key(0x800000, low) for low in range(0, 400, 50)]
TABLE_KEYS = st.one_of(
    st.integers(0, 2**63 - 1),
    st.integers(0, 2**40 - 2**20).map(lambda low: homed_key(0xFFFFFF, low)),
    st.integers(0, 2**40 - 2**20).map(lambda low: homed_key(0x800000, low)),
)


@given(
    batches=st.lists(st.lists(TABLE_KEYS, max_size=40), min_size=1, max_size=6),
    absent=st.lists(TABLE_KEYS, max_size=10),
)
# rebuilt to 8 slots with two keys past the end; a batch that fits and
# wraps; rebuilt to 16 slots around a middle run, three keys past the
# end; then free keys, rebuilt and fitting
@example(batches=[LAST[:3], LAST[3:4], MIDDLE[:4], [1, 2, 3], [4]], absent=LAST[4:] + MIDDLE[4:] + [0])
def test_packed_table_lookup_matches_a_dict(batches, absent):
    table = encoder._PackedTable()
    expected = {}
    for batch in batches:
        keys = [key for key in dict.fromkeys(batch) if key not in expected]
        codes = [7 * (len(expected) + i) + 3 for i in range(len(keys))]
        table.insert(np.array(keys, dtype=np.int64), np.array(codes, dtype=np.int64))
        expected.update(zip(keys, codes))
        capacity = len(table.keys)
        assert len(table) == len(expected) and capacity & (capacity - 1) == 0 and capacity >= 2 * len(table)
        probe = list(expected) + absent
        assert table.lookup(np.array(probe, dtype=np.int64)).tolist() == [expected.get(key, -1) for key in probe]


def test_pair_index_tables_stay_out_of_the_encoder_bound(monkeypatch):
    """An index holding more keys than NGRAM_MEMO_SIZE leaves the encoder's
    tables alone under the bound; an encode past it empties them without
    touching the index, whose every context id still comes back from find."""
    monkeypatch.setattr(encoder, "NGRAM_MEMO_SIZE", 64)
    encoder._TABLES.clear()
    index = PairIndex(2)
    index.intern([("", " ".join(f"w{i}" for i in range(100)))])
    ids = np.arange(len(index.context_keys))
    assert len(ids) > 64 and len(index) > 64
    config = EncoderConfig(dimension=64)
    encode_batch(["short text"], config)
    table = encoder._TABLES[(0, 64, 3)]
    encode_batch(["other words"], config)
    assert encoder._TABLES[(0, 64, 3)] is table and table_entries() == 17
    encode_batch(["".join(map(chr, range(0x4E00, 0x4E00 + 80)))], config)  # 78 new trigrams
    assert encoder._TABLES[(0, 64, 3)] is not table and table_entries() == 64
    assert not {id(index._contexts), id(index._pairs)} & set(map(id, encoder._TABLES.values()))
    assert np.array_equal(index.find(index.context_keys, 2), ids)


def test_normalize_examples():
    out = normalize(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8])
    assert is_unit(out)
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(5))
    with pytest.raises(ValueError):
        normalize(np.array([1.0, np.inf]))


# Factors that put a row's norm just below, at or just above ZERO_NORM_EPS.
EPS_FACTORS = [0.5, 1 - 2**-40, 1.0, 1 + 2**-40, 2.0]


@st.composite
def raw_matrices(draw):
    """Finite float matrices of 1-6, 8 or 384 columns mixing free rows,
    random rows of any scale, all-zero rows (either sign of zero), rows
    whose norm is near ZERO_NORM_EPS and rows whose norm overflows to inf."""
    d = draw(st.integers(1, 6) | st.sampled_from([8, 384]))

    def entries(elements):
        """One row: up to four drawn values, repeated to width d."""
        return np.resize(np.array(draw(st.lists(elements, min_size=1, max_size=4)), dtype=np.float64), d)

    rows = []
    for kind in draw(st.lists(st.sampled_from(["free", "random", "zero", "eps", "huge"]), min_size=1, max_size=6)):
        if kind == "free":
            rows.append(entries(st.floats(allow_nan=False, allow_infinity=False)))
        elif kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            rows.append(rng.normal(size=d) * 10.0 ** draw(st.integers(-200, 200)))
        elif kind == "zero":
            rows.append(entries(st.sampled_from([0.0, -0.0])))
        elif kind == "eps":
            direction = entries(st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3))
            factor = draw(st.sampled_from(EPS_FACTORS))
            rows.append(direction / np.linalg.norm(direction) * (ZERO_NORM_EPS * factor))
        else:
            rows.append(entries(st.floats(1e155, 1e308) | st.floats(-1e308, -1e155)))
    return np.array(rows)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(raw=raw_matrices())
@example(raw=np.array([[0.0], [-0.0], [ZERO_NORM_EPS], [np.nextafter(ZERO_NORM_EPS, 0)], [1e300], [-3.0]]))
@example(raw=np.array([[1e200, -1e200], [0.0, -0.0], [3.0, 4.0], [0.1, 0.7]]))
def test_normalize_rows_matches_the_per_vector_reference(raw):
    units, zero = normalize_rows(raw)
    expected = [reference_normalize(row) for row in raw]
    assert zero.tolist() == [e is None for e in expected]
    assert np.array_equal(units[zero], raw[zero])
    for row, unit, e in zip(raw, units, expected):
        if e is None:
            with pytest.raises(ZeroVectorError, match=re.escape(f"norm {float(np.linalg.norm(row))!r}")):
                normalize(row)
        else:
            assert np.array_equal(unit, e)
            assert np.array_equal(normalize(row), e)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_normalize_scaling_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=16)
    base = normalize(vec)
    scaled = normalize(vec * scale)
    assert np.allclose(base, scaled, atol=1e-9)


def test_normalize_power_of_two_scaling_is_exact():
    vec = encode("scaling check text", CFG)
    assert np.array_equal(normalize(vec), normalize(vec * 4.0))


def test_cosine_distance_examples():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    dist = cosine_distances([e1, e2, -e1])
    assert dist[0, 0] == 0.0
    assert dist[0, 1] == 1.0
    assert dist[0, 2] == 2.0
    assert np.array_equal(dist, dist.T)


@given(seed=st.integers(0, 2**32 - 1))
def test_cosine_distance_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = normalize(rng.normal(size=12))
    b = normalize(rng.normal(size=12))
    dist = cosine_distances([a, b])
    assert dist[0, 1] == dist[1, 0]
    assert 0.0 <= dist[0, 1] <= 2.0


def test_encode_normalized_rejects_empty():
    with pytest.raises(ZeroVectorError):
        encode_normalized("", CFG)


def test_load_embeddings_jsonl_roundtrip(tmp_path):
    path = tmp_path / "emb.jsonl"
    rows = [
        {"response_id": "p0/0", "embedding": [1.0, 0.0, 0.0]},
        {"response_id": "p0/1", "embedding": [0.0, 1.0, 0.0]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    loaded = load_embeddings_jsonl(path)
    assert set(loaded) == {"p0/0", "p0/1"}
    assert np.array_equal(loaded["p0/0"], [1.0, 0.0, 0.0])


def test_load_embeddings_jsonl_rejects_bad_rows(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"response_id": "a", "embedding": [1.0, 0.0]}\n{"response_id": "b", "embedding": [1.0]}\n')
    with pytest.raises(ValueError, match="dimension"):
        load_embeddings_jsonl(path)
    path.write_text('{"response_id": "a", "embedding": [1.0, 0.0]}\n{"response_id": "a", "embedding": [0.0, 1.0]}\n')
    with pytest.raises(ValueError, match="duplicate"):
        load_embeddings_jsonl(path)
    path.write_text('{"response_id": "a"}\n')
    with pytest.raises(ValueError, match="expected keys"):
        load_embeddings_jsonl(path)
