import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import ReferenceMarkovClient

import semfed.clients as clients_module
from semfed.clients import (
    Client,
    MarkovToyClient,
    PairIndex,
    PrivateDataset,
    ScriptedClient,
    TrainingWeights,
    load_private_datasets,
    load_scripted_clients,
)

EVEN = TrainingWeights()


def private(owner, *examples):
    return PrivateDataset(examples=tuple(examples), owner=owner)


# ------------------------------------------------------------ weights


def test_weights_default_even_split():
    assert EVEN.alpha == 0.5
    assert EVEN.beta == 0.5


def test_weights_validation():
    with pytest.raises(ValueError):
        TrainingWeights(alpha=-0.1, beta=1.1)
    with pytest.raises(ValueError):
        TrainingWeights(alpha=0.7, beta=0.7)
    for alpha, beta in ((math.nan, math.nan), (math.nan, 0.5), (math.inf, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            TrainingWeights(alpha=alpha, beta=beta)
    TrainingWeights(alpha=1.0, beta=0.0)  # boundary is fine


# ----------------------------------------------------------- scripted


def test_scripted_client_replays_table():
    client = ScriptedClient({(1, "p7"): "blue", (2, "p7"): "green"})
    assert client.generate("p7", "what color?", 1, 64) == "blue"
    assert client.generate("p7", "what color?", 2, 64) == "green"


def test_scripted_client_missing_key_raises():
    client = ScriptedClient({(1, "p7"): "blue"})
    with pytest.raises(ValueError, match=r"^scripted client has no response for round=1 prompt='p8'$"):
        client.generate("p8", "other prompt", 1, 64)


def test_scripted_client_train_is_noop():
    client = ScriptedClient({(1, "p0"): "x"})
    client.train(private(0, ("a", "b")), [("c", "d")], EVEN)
    assert client.generate("p0", "", 1, 4) == "x"


class ShoutingScript(ScriptedClient):
    """Answers through its own generate, which upper-cases the row."""

    def generate(self, prompt_id, prompt_text, round_index, max_tokens):
        return super().generate(prompt_id, prompt_text, round_index, max_tokens).upper()


def test_scripted_generate_many_matches_per_call_generate():
    keys = [(r, p) for r in (1, 2) for p in ("p0", "p1", "p2")]
    tables = [{(r, p): f"client {c} round {r} {p}" for r, p in keys} for c in range(3)]
    clients = [ScriptedClient(table) for table in tables]
    queries = [("p2", "x"), ("p0", "y"), ("p1", "z")]
    for round_index in (1, 2):
        per_call = [[c.generate(pid, text, round_index, 8) for pid, text in queries] for c in clients]
        assert ScriptedClient.generate_many(clients, queries, round_index, 8) == per_call
    assert ScriptedClient.generate_many(clients, [], 1, 8) == [[], [], []]
    assert ScriptedClient.generate_many([], queries, 1, 8) == []
    # a run holding a client that overrides generate is answered through it
    mixed = [ScriptedClient(tables[0]), ShoutingScript(tables[1])]
    per_call = [[c.generate(pid, text, 1, 8) for pid, text in queries] for c in mixed]
    assert per_call[1] == [f"CLIENT 1 ROUND 1 {pid.upper()}" for pid, _ in queries]
    for kind in (ScriptedClient, ShoutingScript):
        assert kind.generate_many(mixed, queries, 1, 8) == per_call


def test_scripted_generate_many_names_the_first_missing_row_as_generate_does():
    # client 0 lacks p1 and client 1 lacks p0: clients are answered in turn
    clients = [ScriptedClient({(1, "p0"): "a"}), ScriptedClient({(1, "p1"): "b"})]
    queries = [("p0", ""), ("p1", "")]
    with pytest.raises(ValueError) as per_call:
        Client.generate_many(clients, queries, 1, 8)
    message = r"^scripted client has no response for round=1 prompt='p1'$"
    with pytest.raises(ValueError, match=message) as batched:
        ScriptedClient.generate_many(clients, queries, 1, 8)
    assert str(batched.value) == str(per_call.value)
    assert batched.value.__context__ is None
    with pytest.raises(ValueError, match=r"^scripted client has no response for round=2 prompt='p0'$"):
        ScriptedClient.generate_many(clients, queries, 2, 8)


# ------------------------------------------------------------- markov


def test_markov_hand_computed_transition_table():
    client = MarkovToyClient(order=1, seed=0)
    client.train(private(0, ("", "a b a b")), [], EVEN)
    # stream a b a b: a->b twice, b->a once, each weighted alpha=0.5
    assert client.transitions == {("a",): {"b": 1.0}, ("b",): {"a": 0.5}}


def test_markov_generates_learned_alternation():
    client = MarkovToyClient(order=1, seed=0)
    client.train(private(0, ("", "a b a b")), [], EVEN)
    assert client.generate("p0", "a", 1, 5) == "b a b a b"
    assert client.generate("p0", "b", 1, 3) == "a b a"


def test_markov_generate_is_deterministic():
    client = MarkovToyClient(order=1, seed=3)
    client.train(
        private(0, ("", "x y"), ("", "x z"), ("", "x y z x")),
        [("q", "x y x z")],
        EVEN,
    )
    first = client.generate("p0", "the question x", 1, 16)
    second = client.generate("p0", "the question x", 1, 16)
    assert first == second


def test_markov_untrained_generates_empty():
    assert MarkovToyClient(order=1, seed=0).generate("p0", "anything", 1, 8) == ""


def test_markov_empty_pseudo_equals_private_alone():
    a = MarkovToyClient(order=1, seed=0)
    a.train(private(0, ("q", "a b c")), [], EVEN)
    b = MarkovToyClient(order=1, seed=0)
    b.train(private(0, ("q", "a b c")), [], TrainingWeights(alpha=0.5, beta=0.5))
    assert a.transitions == b.transitions
    # and the counts carry exactly the alpha weight
    assert a.transitions[("q",)] == {"a": 0.5}


def test_markov_same_example_in_both_sets_sums_to_one():
    client = MarkovToyClient(order=1, seed=0)
    client.train(private(0, ("q", "a b")), [("q", "a b")], EVEN)
    # alpha + beta = 1, so the combined weight equals one full count
    assert client.transitions == {("q",): {"a": 1.0}, ("a",): {"b": 1.0}}


def test_markov_two_example_corpus_exact_counts():
    client = MarkovToyClient(order=1, seed=0)
    client.train(private(0, ("go", "a b"), ("a", "b c")), [], EVEN)
    assert client.transitions == {
        ("go",): {"a": 0.5},
        ("a",): {"b": 1.0},
        ("b",): {"c": 0.5},
    }


def test_markov_order_two_uses_longer_context():
    client = MarkovToyClient(order=2, seed=0)
    client.train(private(0, ("", "a b x"), ("c", "b y")), [], EVEN)
    # context (a b) -> x, (c b) -> y; order-2 context disambiguates
    assert client.generate("p0", "a b", 1, 1) == "x"
    assert client.generate("p0", "c b", 1, 1) == "y"


def test_markov_backs_off_to_shorter_context():
    client = MarkovToyClient(order=2, seed=0)
    client.train(private(0, ("", "a b x")), [], EVEN)
    # context (z b) was never seen; suffix (b) -> x was
    assert client.generate("p0", "z b", 1, 1) == "x"


def test_markov_zero_token_budget_generates_nothing():
    client = MarkovToyClient(order=1, seed=0)
    client.train(private(0, ("", "a b")), [], EVEN)
    assert client.generate("p", "a", 1, 0) == ""


def test_markov_sampling_follows_weights():
    corpus = private(0, *((("", "a b"),) * 9), ("", "a c"))
    words = []
    for seed in range(40):
        client = MarkovToyClient(order=1, seed=seed)
        client.train(corpus, [], EVEN)
        words.append(client.generate("p", "a", 1, 1))
    # b carries 9x the weight of c; across seeds b must dominate but c
    # must still appear
    assert words.count("b") > words.count("c") > 0


def test_markov_order_validation():
    with pytest.raises(ValueError):
        MarkovToyClient(order=0)
    for order in (1.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="order"):
            MarkovToyClient(order=order)
    for seed in (-1, True, 1.0, None):
        with pytest.raises(ValueError, match="seed"):
            MarkovToyClient(order=1, seed=seed)
    MarkovToyClient(order=3, seed=2**64 - 1)


# A few words, so contexts repeat and many have several next words; "z"
# never appears in training.
WORDS = st.lists(st.sampled_from(["a", "b", "c", "d", "é"]), max_size=8).map(" ".join)
EXAMPLES = st.lists(st.tuples(WORDS, WORDS), max_size=6)
# alpha 0, -0 or 1 leaves zero-weight candidates; 5e-324 makes subnormal
# totals, where a scaled draw can land exactly on a running total.
ALPHAS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.3, 1 / 3, 5e-324])
PROMPTS = st.lists(st.sampled_from(["a", "b", "c", "é", "z"]), max_size=4).map(" ".join)


@given(
    order=st.integers(1, 3),
    seed=st.sampled_from([0, 2**64 - 1]),
    rounds=st.lists(st.tuples(EXAMPLES, EXAMPLES, ALPHAS), min_size=1, max_size=3),
    prompts=st.lists(PROMPTS, min_size=1, max_size=4),
    max_tokens=st.integers(1, 64),
)
# a draw equal to the first running total must pass that word by ("b a"
# draws 0.385, which scales to exactly 5e-324)
@example(order=1, seed=0, rounds=[([("", "a b"), ("", "a c")], [], 5e-324)],
         prompts=["a", "b a"], max_tokens=1)
# a lone next word of weight 0 stops the chain
@example(order=1, seed=0, rounds=[([("", "a b")], [("", "b a")], 0.0)],
         prompts=["a", "b"], max_tokens=8)
def test_markov_matches_reference_client(order, seed, rounds, prompts, max_tokens):
    """Same transitions, float for float, and the same text as the plain
    per-position, per-draw client, after every one of repeated trainings."""
    client = MarkovToyClient(order=order, seed=seed)
    reference = ReferenceMarkovClient(order=order, seed=seed)
    for private_examples, pseudo, alpha in rounds:
        weights = TrainingWeights(alpha=alpha, beta=1.0 - alpha)
        client.train(private(0, *private_examples), pseudo, weights)
        reference.train(private_examples, pseudo, weights.alpha, weights.beta)
        assert client.transitions == reference.transitions
        for prompt in prompts:
            expected = reference.generate(prompt, max_tokens)
            assert client.generate("p", prompt, 1, max_tokens) == expected


def test_markov_huge_token_budget_stops_with_the_chain():
    # each step draws once per live lane, so nothing is sized by the budget
    client = MarkovToyClient(order=2, seed=0)
    reference = ReferenceMarkovClient(order=2, seed=0)
    examples = [("", "a b c d"), ("", "a b d"), ("", "b c e")]
    client.train(private(0, *examples), [], EVEN)
    reference.train(examples, [], EVEN.alpha, EVEN.beta)
    for prompt in ("a", "b", "a b"):
        expected = reference.generate(prompt, 10**12)
        assert 0 < len(expected.split()) < 64
        # a walk that never stops fails here instead of running 10**12 steps
        assert client.generate("p", prompt, 1, 64) == expected
        assert client.generate("p", prompt, 1, 10**12) == expected


# ------------------------------------------------------- batched RNG

# SeedSequence splits each int into 32-bit words: 0 and ints < 2**32 are
# one word, larger ones two or more; past four words in all the extra
# words take numpy's second mixing loop.
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**80))
HASHES = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@given(
    seeds=st.lists(SEEDS, min_size=1, max_size=4),
    hashes=st.lists(HASHES, min_size=1, max_size=4),
)
@example(
    seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70, 2**200 + 3],
    hashes=[0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1],
)
def test_batched_seeding_matches_default_rng(seeds, hashes):
    states = clients_module._pcg64_states(seeds, hashes)
    assert states.shape == (4, len(seeds), len(hashes))
    for i, seed in enumerate(seeds):
        for j, text_hash in enumerate(hashes):
            state_hi, state_lo, inc_hi, inc_lo = states[:, i, j].tolist()
            want = np.random.default_rng([seed, text_hash]).bit_generator.state["state"]
            assert {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo} == want


def walk_draws(states, n):
    """n doubles per lane, lanes x n, drawn as the walk draws them: one
    ``_pcg64_next`` step of every lane at a time."""
    return np.array([clients_module._pcg64_next(states) for _ in range(n)]).T


@given(
    seeds=st.lists(SEEDS, min_size=1, max_size=3),
    hashes=st.lists(HASHES, min_size=1, max_size=3),
    n=st.sampled_from([1, 32, 33, 64, 200]),
)
# one lane and four, each 200 steps long
@example(seeds=[2**64 - 1], hashes=[2**32], n=200)
@example(seeds=[0, 2**64 - 1], hashes=[1, 2**32], n=200)
def test_array_draws_match_default_rng(seeds, hashes, n):
    """Seeded by ``_pcg64_states`` and stepped draw by draw, each lane
    reads the doubles of ``default_rng([seed, hash])``."""
    states = clients_module._pcg64_states(seeds, hashes).reshape(4, -1)
    draws = walk_draws(states, n)
    lanes = [(seed, text_hash) for seed in seeds for text_hash in hashes]
    for column, (row, lane) in enumerate(zip(draws, lanes)):
        rng = np.random.default_rng(list(lane))
        assert row.tobytes() == rng.random(n).tobytes()
        state_hi, state_lo, inc_hi, inc_lo = states[:, column].tolist()
        # the lane's state has moved past its n draws
        assert rng.bit_generator.state["state"] == {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}


_MULT = clients_module._PCG64_MULT
_LOW = (1 << 64) - 1
_INC = 0x9E3779B97F4A7C15_F39CC0605CEDC835


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize(
    "after, rotation, carry",
    [
        (0x0123456789ABCDEF_FEDCBA9876543210, 0, False),
        (0xFC23456789ABCDEF_FEDCBA9876543210, 63, False),
        # M * state ends in 64 one bits, so adding inc's low word carries
        (_LOW + _INC, 39, True),
    ],
)
def test_array_draws_match_numpy_on_edge_states(after, rotation, carry, lanes):
    """The first draw reads the state ``after`` one step, whose output
    rotates by ``rotation`` bits and whose step carries from the low word
    to the high one if ``carry``; every lane holds that state."""
    after &= (1 << 128) - 1
    state = (after - _INC) * pow(_MULT, -1, 1 << 128) & (1 << 128) - 1
    assert after >> 122 == rotation
    assert ((state * _MULT & _LOW) + (_INC & _LOW) > _LOW) == carry
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": _INC}, "has_uint32": 0, "uinteger": 0
    }
    halves = [state >> 64, state & _LOW, _INC >> 64, _INC & _LOW]
    states = np.array(halves, dtype=np.uint64)[:, None].repeat(lanes, axis=1)
    # both streams carry on from one n to the next
    for n in (1, 33, 200):
        expected = np.random.Generator(bit_generator).random(n)
        assert walk_draws(states, n).tobytes() == np.tile(expected, (lanes, 1)).tobytes()


CYCLE = [("", "a b c a b c a")]  # a -> b -> c -> a: the chain never stops
# Every run of four words over {a, b} appears (a de Bruijn sequence), so
# every context of up to three words has two next words: the chain never
# stops and every step draws.
BRANCHING = [("", "a a a a b a a b b a b a b b b b a a a")]
# For every order up to 3: the empty prompt, prompts shorter than the
# order, keys missing at full length whose shorter suffix matches ("z a",
# "z b a") next to keys that match in full ("b a", "b b a").
EDGE_PROMPTS = ["", "a", "z a", "b a", "z b a", "b b a"]


@given(
    order=st.integers(1, 3),
    seeds=st.lists(st.sampled_from([0, 7, 2**32 + 5, 2**64 - 1]), min_size=1, max_size=3),
    corpora=st.lists(
        st.one_of(st.just([]), st.just(CYCLE), st.just(BRANCHING), EXAMPLES), min_size=1, max_size=3
    ),
    prompts=st.lists(PROMPTS, max_size=4),
    max_tokens=st.sampled_from([0, 1, 31, 32, 33, 100]),
)
# a long chain, an untrained client, and a budget of 100 steps
@example(order=2, seeds=[0, 2**64 - 1], corpora=[CYCLE, []], prompts=["a", "z", ""], max_tokens=100)
# key edge cases at every order, walked for 100 steps
@example(order=1, seeds=[0, 7], corpora=[BRANCHING, CYCLE], prompts=EDGE_PROMPTS, max_tokens=100)
@example(order=2, seeds=[0, 7], corpora=[BRANCHING, CYCLE], prompts=EDGE_PROMPTS, max_tokens=100)
@example(order=3, seeds=[0, 7], corpora=[BRANCHING, CYCLE], prompts=EDGE_PROMPTS, max_tokens=100)
def test_generate_many_matches_per_call_and_reference(order, seeds, corpora, prompts, max_tokens):
    clients, references = [], []
    for index, seed in enumerate(seeds):
        examples = corpora[index % len(corpora)]
        client = MarkovToyClient(order=order, seed=seed)
        reference = ReferenceMarkovClient(order=order, seed=seed)
        client.train(private(index, *examples), [], EVEN)
        reference.train(examples, [], EVEN.alpha, EVEN.beta)
        clients.append(client)
        references.append(reference)
    queries = [(f"p{i}", text) for i, text in enumerate(prompts)]

    batched = MarkovToyClient.generate_many(clients, queries, 1, max_tokens)
    per_call = [[c.generate(pid, text, 1, max_tokens) for pid, text in queries] for c in clients]
    oracle = [[r.generate(text, max_tokens) for _, text in queries] for r in references]
    assert batched == per_call == oracle


def test_every_generate_path_seeds_its_lanes_without_default_rng(monkeypatch):
    """Per-call generate, generate_many, a zero budget and an untrained
    client give the reference texts while numpy's default_rng raises:
    every lane is seeded by ``_pcg64_states``."""
    queries = [(f"p{i}", text) for i, text in enumerate(EDGE_PROMPTS)]
    corpora = [BRANCHING, CYCLE, []]
    references = [ReferenceMarkovClient(order=2, seed=seed) for seed in (0, 7, 2**64 - 1)]
    for reference, corpus in zip(references, corpora):
        reference.train(corpus, [], EVEN.alpha, EVEN.beta)
    expected = {tokens: [[r.generate(text, tokens) for _, text in queries] for r in references] for tokens in (0, 40)}
    assert expected[40][2] == expected[0][0] == [""] * len(queries) != expected[40][0]

    def no_default_rng(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_default_rng)
    index = PairIndex(2)
    clients = [MarkovToyClient(order=2, seed=r.seed, index=index) for r in references]
    for slot, (client, corpus) in enumerate(zip(clients, corpora)):
        client.train(private(slot, *corpus), [], EVEN)
    for tokens, texts in expected.items():
        assert [[c.generate(pid, text, 1, tokens) for pid, text in queries] for c in clients] == texts
        assert MarkovToyClient.generate_many(clients, queries, 1, tokens) == texts
        assert MarkovToyClient.generate_many(clients[2:], queries, 1, tokens) == texts[2:]
    assert MarkovToyClient.generate_many(clients, [], 1, 40) == [[], [], []]
    assert MarkovToyClient.generate_many([MarkovToyClient(order=2)], queries, 1, 40) == expected[40][2:]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_generate_many_walks_never_ending_chains_for_300_tokens(order):
    """Every lane of these never-ending chains steps its PCG64 state 300
    times in one walk."""
    seeds = [0, 7, 2**64 - 1]
    clients, references = [], []
    for slot, seed in enumerate(seeds):
        examples = (CYCLE, BRANCHING)[slot % 2]
        client = MarkovToyClient(order=order, seed=seed)
        reference = ReferenceMarkovClient(order=order, seed=seed)
        client.train(private(slot, *examples), [], EVEN)
        reference.train(examples, [], EVEN.alpha, EVEN.beta)
        clients.append(client)
        references.append(reference)
    queries = [(f"p{i}", text) for i, text in enumerate(EDGE_PROMPTS)]

    batched = MarkovToyClient.generate_many(clients, queries, 1, 300)
    per_call = [[c.generate(pid, text, 1, 300) for pid, text in queries] for c in clients]
    oracle = [[r.generate(text, 300) for _, text in queries] for r in references]
    assert batched == per_call == oracle
    # the empty prompt has no context; every other one walks the full budget
    assert [[len(text.split()) for text in texts] for texts in batched] == [[0] + [300] * 5] * len(seeds)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_generate_many_steps_the_live_lanes_as_others_stop(order):
    """Lanes prompted "z", "y" and "x" stop after 1, 2 and 3 words, while
    the "a" lanes branch, and so draw, at every step: the live lanes'
    states must stay with their lanes as the others drop out.  The clients
    share an index, so all their lanes walk together."""
    examples = [*BRANCHING, ("", "x y z w")]
    seeds = [0, 7, 2**64 - 1]
    index = PairIndex(order)
    clients, references = [], []
    for slot, seed in enumerate(seeds):
        client = MarkovToyClient(order=order, seed=seed, index=index)
        reference = ReferenceMarkovClient(order=order, seed=seed)
        client.train(private(slot, *examples), [], EVEN)
        reference.train(examples, [], EVEN.alpha, EVEN.beta)
        clients.append(client)
        references.append(reference)
    queries = [(f"p{i}", text) for i, text in enumerate(["a", "z", "y", "x"])]

    batched = MarkovToyClient.generate_many(clients, queries, 1, 40)
    per_call = [[c.generate(pid, text, 1, 40) for pid, text in queries] for c in clients]
    oracle = [[r.generate(text, 40) for _, text in queries] for r in references]
    assert batched == per_call == oracle
    assert [[len(text.split()) for text in texts] for texts in batched] == [[40, 1, 2, 3]] * len(seeds)
    # the seeds' branching walks differ, so each lane read its own stream
    assert len({texts[0] for texts in batched}) == len(seeds)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_generate_many_reads_the_state_after_each_training(order):
    weights = TrainingWeights(alpha=0.3, beta=0.7)
    corpus = [("", "a b a c a b")]
    client = MarkovToyClient(order=order, seed=3)
    reference = ReferenceMarkovClient(order=order, seed=3)
    client.train(private(0, *corpus), [], weights)
    reference.train(corpus, [], weights.alpha, weights.beta)
    # every prompt ends in "a", which has several next words, and every
    # suffix of "b a c" up to the order has one, until "b a c d" is learnt
    tails = [("b", "a", "c")[-length:] for length in range(1, order + 1)]
    assert len(client.transitions[("a",)]) == 2
    assert all(len(client.transitions[tail]) == 1 for tail in tails)
    queries = [(f"p{i}", text) for i, text in enumerate(["a", "b a", "c a", "z a"])]

    batches = []
    # the first call follows no new training; the second follows training
    # that gives every tail a second next word
    for pseudo in ([], [("", "b a c d")]):
        client.train(private(0), pseudo, weights)
        reference.train([], pseudo, weights.alpha, weights.beta)
        transitions = client.transitions
        pairs_before, weights_before = client._pairs.copy(), client._weights.copy()
        (texts,) = MarkovToyClient.generate_many([client], queries, 1, 32)
        # generation leaves the model state as it was
        assert client.transitions == transitions
        assert np.array_equal(client._pairs, pairs_before)
        assert np.array_equal(client._weights, weights_before)
        assert texts == [reference.generate(text, 32) for _, text in queries]
        batches.append(texts)
    # the second call saw the new next word
    assert all(len(client.transitions[tail]) == 2 for tail in tails)
    assert batches[0] != batches[1]


@given(
    orders=st.lists(st.integers(1, 3), min_size=2, max_size=5),
    corpora=st.lists(st.one_of(st.just(CYCLE), st.just(BRANCHING), EXAMPLES), min_size=1, max_size=3),
    prompts=st.lists(PROMPTS, min_size=1, max_size=4),
    max_tokens=st.sampled_from([1, 31, 33, 100]),
)
# every order in one call, each index's clients apart, walked for 100 steps
@example(orders=[1, 2, 3, 2, 1], corpora=[BRANCHING, CYCLE], prompts=EDGE_PROMPTS, max_tokens=100)
# the shared index's clients are untrained, trained, untrained, trained, so
# each segment of the walk's views must map to its own client's slot
@example(orders=[2, 2, 2, 2, 2], corpora=[[], CYCLE, BRANCHING], prompts=EDGE_PROMPTS, max_tokens=100)
def test_generate_many_over_mixed_orders_and_indexes_matches_per_call_and_reference(
    orders, corpora, prompts, max_tokens
):
    """One call over clients of orders 1-3: the clients of one order share
    an index, except every third client, which has its own."""
    shared = {order: PairIndex(order) for order in set(orders)}
    clients, references = [], []
    for slot, order in enumerate(orders):
        examples = corpora[slot % len(corpora)]
        index = PairIndex(order) if slot % 3 == 2 else shared[order]
        client = MarkovToyClient(order=order, seed=slot, index=index)
        reference = ReferenceMarkovClient(order=order, seed=slot)
        client.train(private(slot, *examples), [], EVEN)
        reference.train(examples, [], EVEN.alpha, EVEN.beta)
        clients.append(client)
        references.append(reference)
    queries = [(f"p{i}", text) for i, text in enumerate(prompts)]

    batched = MarkovToyClient.generate_many(clients, queries, 1, max_tokens)
    per_call = [[c.generate(pid, text, 1, max_tokens) for pid, text in queries] for c in clients]
    oracle = [[r.generate(text, max_tokens) for _, text in queries] for r in references]
    assert batched == per_call == oracle


# From "a b", order 3 and 4 walks take c, d, e.  These clients lack "d e"
# and "c d e", which the index holds for the last client, but "e" alone
# leads to g, so the lane backs off to one word and then recovers "e g",
# "e g h", ...  "h" alone leads mostly to k, which no longer context does.
BACKOFF = [("", "a b c d e"), ("", "q e g h i j"), *[("", "r h k")] * 9]


@pytest.mark.parametrize("order", [3, 4])
def test_walks_back_off_to_one_word_and_recover_like_the_reference(order):
    index = PairIndex(order)
    corpora = [BACKOFF] * 3 + [[("", "c d e x")]]
    clients, references = [], []
    for slot, examples in enumerate(corpora):
        client = MarkovToyClient(order=order, seed=slot, index=index)
        reference = ReferenceMarkovClient(order=order, seed=slot)
        client.train(private(slot, *examples), [], EVEN)
        reference.train(examples, [], EVEN.alpha, EVEN.beta)
        clients.append(client)
        references.append(reference)
    # prompts shorter than the order, an unknown word, one longer than the order
    queries = [(f"p{i}", text) for i, text in enumerate(["a b", "a", "z e", "x q e g h", "", "r h"])]

    batched = MarkovToyClient.generate_many(clients, queries, 1, 40)
    per_call = [[c.generate(pid, text, 1, 40) for pid, text in queries] for c in clients]
    oracle = [[r.generate(text, 40) for _, text in queries] for r in references]
    assert batched == per_call == oracle
    assert [texts[:3] for texts in batched[:3]] == [["c d e g h i j", "b c d e g h i j", "g h i j"]] * 3
    # a walk that read "h" alone where "g h" matches could take k
    assert set(clients[0].transitions[("h",)]) == {"i", "k"}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_generate_many_looks_contexts_up_a_fixed_number_of_times(order, monkeypatch):
    """find runs once per context length for the prompts' keys and once
    per length for the successor table, however many steps the walk takes."""
    lengths = []
    find = PairIndex.find

    def counted(self, keys, length):
        lengths.append(length)
        return find(self, keys, length)

    monkeypatch.setattr(PairIndex, "find", counted)
    calls = []
    for max_tokens in (4, 40):
        index = PairIndex(order)
        clients = [MarkovToyClient(order=order, seed=seed, index=index) for seed in range(3)]
        for slot, client in enumerate(clients):
            client.train(private(slot, *BRANCHING), [], EVEN)
        lengths.clear()
        queries = [(f"p{i}", text) for i, text in enumerate(EDGE_PROMPTS)]
        texts = MarkovToyClient.generate_many(clients, queries, 1, max_tokens)
        assert [[len(text.split()) for text in row] for row in texts] == [[0] + [max_tokens] * 5] * 3
        calls.append(len(lengths))
    assert calls[0] == calls[1] <= 2 * order


class UpperMarkov(MarkovToyClient):
    """Answers through its own generate, which upper-cases the text."""

    def generate(self, prompt_id, prompt_text, round_index, max_tokens):
        return super().generate(prompt_id, prompt_text, round_index, max_tokens).upper()


def test_generate_many_answers_an_overriding_subclass_through_its_generate():
    plain, upper = MarkovToyClient(order=1, seed=1), UpperMarkov(order=1, seed=1)
    for client in (plain, upper):
        client.train(private(0, *CYCLE), [], EVEN)
    queries = [("p", "a"), ("q", "b")]
    for kind in (MarkovToyClient, UpperMarkov):
        texts = kind.generate_many([plain, upper], queries, 1, 8)
        assert texts[1] == [text.upper() for text in texts[0]] != texts[0]


# ----------------------------------------------------------- pair index

OVERLAPPING = [
    ("the sky is", "blue and the sky is wide"),
    ("is the sky", "the sky is blue"),
    ("", "a b a b a b"),
    ("a b", "a b c a b"),
]


def check_index(index, *clients):
    """Every pair id maps back to its context and word, and the index holds
    exactly the pairs its clients have trained on."""
    contexts, words = list(index.contexts), list(index.words)
    pairs = [(contexts[c], words[w]) for c, w in zip(index.context_of, index.word_of)]
    assert len(pairs) == len(set(pairs)) == len(index)
    assert all(len(context) <= index.order for context, _ in pairs)
    trained = {(context, word) for c in clients for context, bucket in c.transitions.items() for word in bucket}
    assert trained == set(pairs)


def test_clients_sharing_an_index_train_interleaved_like_the_reference():
    weights = TrainingWeights(alpha=0.3, beta=0.7)
    index = PairIndex(2)
    models = [
        (MarkovToyClient(order=2, seed=seed, index=index), ReferenceMarkovClient(order=2, seed=seed))
        for seed in (0, 1)
    ]
    prompts = ["the sky", "a b", "is", "z b a"]
    for turn in range(4):
        for client, reference in models[turn % 2 :] + models[: turn % 2]:
            pseudo = OVERLAPPING[turn:] + OVERLAPPING[:turn]
            client.train(private(0, *OVERLAPPING[turn % 2 :]), pseudo, weights)
            reference.train(OVERLAPPING[turn % 2 :], pseudo, weights.alpha, weights.beta)
            for model, oracle in models:
                assert model.transitions == oracle.transitions
                assert [model.generate("p", text, 1, 16) for text in prompts] == [
                    oracle.generate(text, 16) for text in prompts
                ]
            check_index(index, *(model for model, _ in models))


def test_a_client_reads_only_its_own_pairs_of_a_shared_index():
    index = PairIndex(2)
    first, second = (MarkovToyClient(order=2, seed=5, index=index) for _ in range(2))
    reference = ReferenceMarkovClient(order=2, seed=5)
    first.train(private(0, ("", "a b c")), [], EVEN)
    reference.train([("", "a b c")], [], EVEN.alpha, EVEN.beta)
    prompts = ["a", "a b", "x b", "b x", "x y b"]
    expected = [reference.generate(text, 8) for text in prompts]
    assert [first.generate("p", text, 1, 8) for text in prompts] == expected
    # the sibling interns contexts after the first client has answered:
    # "x b" and "b x" exist in the index now, but not for the first client
    second.train(private(1, ("", "x b x y b d")), [], EVEN)
    assert [first.generate("p", text, 1, 8) for text in prompts] == expected
    assert first.transitions == reference.transitions
    check_index(index, first, second)


def test_a_client_holds_arrays_as_long_as_its_own_pairs():
    """A client's state is its held pair ids, in ascending order, and their
    weights; a sibling that trains on other words grows the shared index,
    not it."""
    index = PairIndex(2)
    client, sibling = (MarkovToyClient(order=2, seed=seed, index=index) for seed in (0, 1))
    reference = ReferenceMarkovClient(order=2, seed=0)
    client.train(private(0, *CYCLE), [("b", "c a")], EVEN)
    reference.train(CYCLE, [("b", "c a")], EVEN.alpha, EVEN.beta)
    held = sum(map(len, client.transitions.values()))
    assert len(client._pairs) == len(client._weights) == held == len(index)
    assert np.all(np.diff(client._pairs) > 0)
    state = client._pairs.copy(), client._weights.copy(), client.transitions
    # "A" and "B" sort before every word the client holds, so its pairs'
    # ranks move; its arrays must not
    sibling.train(private(1, ("A B", "B A x B")), [("x", "A x x")], EVEN)
    assert len(index) > held
    assert np.array_equal(client._pairs, state[0]) and np.array_equal(client._weights, state[1])
    assert client.transitions == state[2] == reference.transitions
    assert np.all(np.diff(client._pairs) > 0)
    assert len(sibling._pairs) == len(sibling._weights) == len(index) - held
    prompts = ["a", "b c", "A a", "x b"]
    assert [client.generate("p", text, 1, 12) for text in prompts] == [
        reference.generate(text, 12) for text in prompts
    ]


def test_the_walk_rank_table_is_built_once_per_growth_and_only_by_the_walk(monkeypatch):
    """Training reads no walk order: clients trained one call at a time on
    words that grow their shared index build no rank table, the next walk
    builds it once, and a walk after no growth reuses it."""
    builds = []
    ranks = PairIndex.ranks

    def counted(self):
        builds.append(self._ranks is None)
        return ranks(self)

    monkeypatch.setattr(PairIndex, "ranks", counted)
    index = PairIndex(2)
    clients = [MarkovToyClient(order=2, seed=seed, index=index) for seed in range(5)]
    references = [ReferenceMarkovClient(order=2, seed=seed) for seed in range(5)]
    for turn in range(3):
        for slot, (client, reference) in enumerate(zip(clients, references)):
            # later words sort before earlier ones, so walk order is not id order
            corpus = [("a b", f"b {'ZYX'[turn]}{slot} a b c"), (f"c {'zyx'[turn]}", f"b c {'ZYX'[turn]}{slot}")]
            pseudo = [("b", f"{'CBA'[turn]} a c")]
            grown = len(index)
            client.train(private(slot, *corpus), pseudo, EVEN)
            reference.train(corpus, pseudo, EVEN.alpha, EVEN.beta)
            assert len(index) > grown
    assert sum(builds) == 0
    queries = [(f"p{i}", text) for i, text in enumerate(["a", "b", "c x", "A a", "z"])]
    expected = [[reference.generate(text, 12) for _, text in queries] for reference in references]
    assert MarkovToyClient.generate_many(clients, queries, 1, 12) == expected
    assert sum(builds) == 1
    assert MarkovToyClient.generate_many(clients, queries, 1, 12) == expected
    assert sum(builds) == 1


@given(order=st.integers(1, 5), batches=st.lists(EXAMPLES, min_size=1, max_size=3))
def test_successors_are_the_contexts_each_pair_leads_to(order, batches):
    """Row k - 1 of successors() holds, per pair (c, w), the context id of
    the last k words of c + w, or -1, as find(advance(...)) gives it; the
    table asked for before each intern must not outlive the growth."""
    index = PairIndex(order)
    for batch in batches:
        index.successors()
        index.intern(batch)
        contexts, words = index.contexts, index.words
        ids = {context: c for c, context in enumerate(contexts)}
        expected = np.full((order, len(index)), -1)
        for pair, (c, w) in enumerate(zip(index.context_of.tolist(), index.word_of.tolist())):
            after = contexts[c] + (words[w],)
            for length in range(1, min(order, len(after)) + 1):
                expected[length - 1, pair] = ids.get(after[-length:], -1)
        successors = index.successors()
        assert successors.dtype == np.int32
        assert np.array_equal(successors, expected)


@given(
    order=st.integers(1, 4),
    rounds=st.lists(st.tuples(st.lists(EXAMPLES, min_size=2, max_size=2), EXAMPLES, ALPHAS), min_size=1, max_size=3),
)
# alpha 0 leaves private pairs present with weight 0.0 next to pseudo ones
@example(order=3, rounds=[([[("a b", "c d")], [("", "b c d a")]], [("c", "d a b")], 0.0)])
def test_trained_clients_hold_prefix_closed_contexts(order, rounds):
    """A client holding context c + v also holds the pair (c, v), so the
    walk's successor rows need no context longer than the pair it took
    plus one word.  Pairs of weight 0.0 count as held."""
    index = PairIndex(order)
    clients = [MarkovToyClient(order=order, seed=slot, index=index) for slot in range(2)]
    for privates, pseudo, alpha in rounds:
        weights = TrainingWeights(alpha=alpha, beta=1.0 - alpha)
        MarkovToyClient.train_many(clients, [private(i, *ex) for i, ex in enumerate(privates)], pseudo, weights)
        for client in clients:
            table = client.transitions
            for context in table:
                if len(context) > 1:
                    assert context[-1] in table.get(context[:-1], {})


def test_a_client_rejects_an_index_of_another_order():
    with pytest.raises(ValueError, match="order"):
        MarkovToyClient(order=2, seed=0, index=PairIndex(3))


def test_index_gives_each_example_its_ids_in_training_order():
    index = PairIndex(2)
    ids = index.pair_ids("a b", "a b c")
    # 5 words: 4 pairs of length 1, then 3 of length 2; a -> b twice
    contexts, words = list(index.contexts), list(index.words)
    named = [(contexts[index.context_of[i]], words[index.word_of[i]]) for i in ids.tolist()]
    assert named == [
        (("a",), "b"), (("b",), "a"), (("a",), "b"), (("b",), "c"),
        (("a", "b"), "a"), (("b", "a"), "b"), (("a", "b"), "c"),
    ]
    assert len(index) == len(set(ids.tolist())) == 6
    # the example is split once: the same array comes back
    assert index.pair_ids("a b", "a b c") is ids
    # another example with the same stream reuses every pair
    assert index.pair_ids("a", "b a b c").tolist() == ids.tolist()
    assert index.pair_ids("", "a").tolist() == []
    assert len(index) == 6
    # a batch's new words get the next ids in first-seen order, across its
    # examples; known words keep theirs
    index.intern([("zeta c", "a yak zeta"), ("b", "xi yak ant")])
    assert index.words == ["", "a", "b", "c", "zeta", "yak", "xi", "ant"]


def test_repeated_non_dyadic_weights_sum_in_reference_order():
    weights = TrainingWeights(alpha=0.3, beta=0.7)
    client = MarkovToyClient(order=2, seed=0)
    reference = ReferenceMarkovClient(order=2, seed=0)
    example = ("a b", "a b a c a b")
    for _ in range(7):
        client.train(private(0, example, example), [example, example, example], weights)
        reference.train([example, example], [example, example, example], 0.3, 0.7)
        assert client.transitions == reference.transitions
    # a -> b gets 0.3 three times per private copy and 0.7 three times per
    # pseudo copy; another addition order gives another float
    additions = ([0.3] * 6 + [0.7] * 9) * 7
    total = 0.0
    for weight in additions:
        total += weight
    assert client.transitions[("a",)]["b"] == total != math.fsum(additions)
    check_index(client.index, client)


@pytest.mark.parametrize("alpha", [0.0, -0.0])
def test_a_zero_weight_pair_is_a_candidate(alpha):
    # a -> b holds the smallest subnormal and a -> c holds 0.0, so a draw
    # above one half lands on c's running total and picks it; without c
    # the context would have one next word and always give b
    prompts = ["a", "x a", "b a", "c a"]
    texts = []
    for seed in range(4):
        client = MarkovToyClient(order=2, seed=seed)
        reference = ReferenceMarkovClient(order=2, seed=seed)
        for weight, examples in ((5e-324, [("", "a b")]), (alpha, [("", "a c")])):
            weights = TrainingWeights(alpha=weight, beta=1.0 - weight)
            client.train(private(0, *examples), [], weights)
            reference.train(examples, [], weights.alpha, weights.beta)
        assert client.transitions == reference.transitions == {("a",): {"b": 5e-324, "c": 0.0}}
        assert math.copysign(1.0, client.transitions[("a",)]["c"]) == 1.0
        texts += [client.generate("p", text, 1, 4) for text in prompts]
        assert texts[-4:] == [reference.generate(text, 4) for text in prompts]
    assert {"b", "c"} == set(texts)


def test_empty_and_one_word_streams_add_nothing():
    client = MarkovToyClient(order=3, seed=0)
    reference = ReferenceMarkovClient(order=3, seed=0)
    examples = [("", ""), (" ", "\n"), ("a", ""), ("", "b"), ("  c ", " ")]
    for _ in range(2):
        client.train(private(0, *examples), examples, EVEN)
        reference.train(examples, examples, EVEN.alpha, EVEN.beta)
        assert client.transitions == reference.transitions == {}
        assert client.generate("p", "a", 1, 4) == ""
    assert len(client.index) == 0
    client.train(private(0), [], EVEN)
    assert client.transitions == {}


def test_every_generate_path_reads_the_state_right_after_each_training():
    index = PairIndex(1)
    client, sibling = MarkovToyClient(order=1, seed=2, index=index), MarkovToyClient(order=1, seed=2, index=index)
    reference = ReferenceMarkovClient(order=1, seed=2)
    queries = [("p", "a"), ("q", "b"), ("r", "c")]
    for examples in ([("", "a b a c")], [("", "c d b a")], [("", "d e")]):
        client.train(private(0, *examples), [], EVEN)
        reference.train(examples, [], EVEN.alpha, EVEN.beta)
        sibling.train(private(1, ("", "e a")), [], EVEN)
        expected = [reference.generate(text, 12) for _, text in queries]
        # each path, right after train and the sibling's training, reads the
        # new state, not the state of the previous turn
        assert [client.generate(pid, text, 1, 12) for pid, text in queries] == expected
        assert MarkovToyClient.generate_many([client], queries, 1, 12) == [expected]
        assert Client.generate_many([client], queries, 1, 12) == [expected]


@given(
    order=st.integers(1, 3),
    rounds=st.lists(st.tuples(EXAMPLES, EXAMPLES, ALPHAS), min_size=1, max_size=3),
    prompts=st.lists(PROMPTS, min_size=1, max_size=3),
)
def test_clients_of_one_index_match_their_references(order, rounds, prompts):
    index = PairIndex(order)
    models = [
        (MarkovToyClient(order=order, seed=seed, index=index), ReferenceMarkovClient(order=order, seed=seed))
        for seed in (0, 9)
    ]
    for turn, (private_examples, pseudo, alpha) in enumerate(rounds):
        weights = TrainingWeights(alpha=alpha, beta=1.0 - alpha)
        # the clients take turns: one trains on the round's examples swapped
        client, reference = models[turn % 2]
        client.train(private(0, *pseudo), private_examples, weights)
        reference.train(pseudo, private_examples, weights.alpha, weights.beta)
        client, reference = models[1 - turn % 2]
        client.train(private(0, *private_examples), pseudo, weights)
        reference.train(private_examples, pseudo, weights.alpha, weights.beta)
        for client, reference in models:
            assert client.transitions == reference.transitions
            queries = [(f"p{i}", text) for i, text in enumerate(prompts)]
            assert MarkovToyClient.generate_many([client], queries, 1, 16) == [
                [reference.generate(text, 16) for text in prompts]
            ]
        check_index(index, *(client for client, _ in models))


def test_views_built_in_one_pass_keep_each_clients_segments():
    # every client holds one context, "a", so in the batch of views the
    # walk builds one client's last segment meets the next one's first
    index = PairIndex(1)
    corpora = [[("", "a b"), ("", "a c")], [("", "a c"), ("", "a d"), ("", "a c")], [("", "a b a e")]]
    clients = [MarkovToyClient(order=1, seed=seed, index=index) for seed in range(len(corpora))]
    references = [ReferenceMarkovClient(order=1, seed=seed) for seed in range(len(corpora))]
    for client, reference, corpus in zip(clients, references, corpora):
        client.train(private(0, *corpus), [], EVEN)
        reference.train(corpus, [], EVEN.alpha, EVEN.beta)
    queries = [(f"p{i}", text) for i, text in enumerate(["a", "x a", "b a", "a a", "e a", "c a"])]
    assert MarkovToyClient.generate_many(clients, queries, 1, 1) == [
        [reference.generate(text, 1) for _, text in queries] for reference in references
    ]


def test_generate_many_after_per_call_generate_a_subset_call_and_retraining():
    index = PairIndex(2)
    corpora = [BRANCHING, CYCLE, [("", "a b c a c b")]]
    clients = [MarkovToyClient(order=2, seed=seed, index=index) for seed in range(3)]
    references = [ReferenceMarkovClient(order=2, seed=seed) for seed in range(3)]
    for slot, (client, reference) in enumerate(zip(clients, references)):
        client.train(private(slot, *corpora[slot]), [], EVEN)
        reference.train(corpora[slot], [], EVEN.alpha, EVEN.beta)
    queries = [(f"p{i}", text) for i, text in enumerate(EDGE_PROMPTS)]
    # client 0 answers per call, clients 1 and 2 answer one batched call,
    # and client 2 trains again; the last call over all three must read
    # every client's state as it stands then
    clients[0].generate("p", "a", 1, 4)
    MarkovToyClient.generate_many(clients[1:], queries, 1, 4)
    clients[2].train(private(2, ("", "c a b b")), [], EVEN)
    references[2].train([("", "c a b b")], [], EVEN.alpha, EVEN.beta)
    assert MarkovToyClient.generate_many(clients, queries, 1, 40) == [
        [reference.generate(text, 40) for _, text in queries] for reference in references
    ]


class CountingMarkov(MarkovToyClient):
    """Trains through its own train, which counts its calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trained = 0

    def train(self, private, pseudo, weights):
        self.trained += 1
        super().train(private, pseudo, weights)


@given(
    order=st.integers(1, 3),
    rounds=st.lists(
        st.tuples(st.lists(EXAMPLES, min_size=3, max_size=3), EXAMPLES, ALPHAS), min_size=2, max_size=3
    ),
)
# round 2's pseudo pairs merge into round 1's contexts and add new ones;
# alpha 0 leaves private pairs held with weight 0.0
@example(
    order=2,
    rounds=[
        ([[("a b", "c")], [("", "a b c d")], []], [("", "b c")], 0.0),
        ([[("a b", "c")], [], [("c", "a")]], [("a b", "d"), ("", "c a b e")], 0.3),
    ],
)
# round 2 brings words that sort before every word of round 1, and next
# words that sort first in contexts the clients hold, so the walk ranks of
# the held pairs move between the two trainings
@example(
    order=2,
    rounds=[
        ([[("m", "n o")], [("n", "o m n")], []], [("o", "m n")], 0.5),
        ([[("a", "m n")], [], [("b a", "n")]], [("m", "a b o"), ("n o", "b")], 0.3),
    ],
)
def test_train_many_matches_per_client_train(order, rounds):
    """train_many gives, float for float, the weights and transitions of
    train called client by client; both sets of clients share one index,
    so their pair ids agree."""
    index = PairIndex(order)
    batched = [MarkovToyClient(order=order, seed=i, index=index) for i in range(3)]
    single = [MarkovToyClient(order=order, seed=i, index=index) for i in range(3)]
    counting = [CountingMarkov(order=order, seed=i) for i in range(3)]
    references = [ReferenceMarkovClient(order=order, seed=i) for i in range(3)]
    for turn, (privates, pseudo, alpha) in enumerate(rounds):
        weights = TrainingWeights(alpha=alpha, beta=1.0 - alpha)
        datasets = [private(i, *examples) for i, examples in enumerate(privates)]
        MarkovToyClient.train_many(batched, datasets, pseudo, weights)
        for client, dataset in zip(single, datasets):
            client.train(dataset, pseudo, weights)
        # a subclass that overrides train is trained through it
        MarkovToyClient.train_many(counting, datasets, pseudo, weights)
        assert [client.trained for client in counting] == [turn + 1] * 3
        for reference, examples in zip(references, privates):
            reference.train(examples, pseudo, weights.alpha, weights.beta)
        for many, one, count, reference in zip(batched, single, counting, references):
            assert many.transitions == one.transitions == count.transitions == reference.transitions
            assert np.array_equal(many._pairs, one._pairs)
            assert np.array_equal(many._weights, one._weights)
        check_index(index, *batched, *single)
        queries = [("p", "a"), ("q", "b c"), ("r", "z a b")]
        assert MarkovToyClient.generate_many(batched, queries, 1, 16) == [
            [reference.generate(text, 16) for _, text in queries] for reference in references
        ]


def test_train_many_checks_the_dataset_count_before_it_interns():
    index = PairIndex(2)
    clients = [MarkovToyClient(order=2, seed=i, index=index) for i in range(3)]
    datasets = [private(0, ("a b", "c d e")), private(1, ("f", "g h"))]
    with pytest.raises(ValueError):
        MarkovToyClient.train_many(clients, datasets, [("i j", "k l")], EVEN)
    assert len(index) == 0
    assert index.words == [""]
    assert all(client.transitions == {} for client in clients)


EXAMPLES_ABOVE_THREE = [("c a b", "a c b c a b d"), ("d d", "a b c d e f")]


@pytest.mark.parametrize("order", [4, 5, 9])
def test_orders_above_three_pack_fewer_bits_and_match_the_reference(order):
    client = MarkovToyClient(order=order, seed=4)
    reference = ReferenceMarkovClient(order=order, seed=4)
    assert client.index.bits == 63 // order
    corpus = BRANCHING + [("a b c d", "e a b c d f a b")] + EXAMPLES_ABOVE_THREE
    for pseudo in ([], [("b a", "a b b a c")]):
        client.train(private(0, *corpus), pseudo, EVEN)
        reference.train(corpus, pseudo, EVEN.alpha, EVEN.beta)
        assert client.transitions == reference.transitions
        prompts = EDGE_PROMPTS + ["a b c d", "z a b c d", "a a b b a b", "f a b"]
        assert [client.generate("p", text, 1, 40) for text in prompts] == [
            reference.generate(text, 40) for text in prompts
        ]
        queries = [(f"p{i}", text) for i, text in enumerate(prompts)]
        assert MarkovToyClient.generate_many([client], queries, 1, 40) == [
            [reference.generate(text, 40) for text in prompts]
        ]


def test_a_vocabulary_past_the_packed_width_fails_and_adds_nothing():
    # order 21 packs 3 bits per word: ids 1..6, 7 is the unknown word
    client = MarkovToyClient(order=21, seed=0)
    client.train(private(0, ("a b", "c d e f")), [], EVEN)
    state = client.transitions
    message = r"^a Markov chain of order 21 packs 3 bits per word and holds at most 6 distinct words; training reads 7$"
    with pytest.raises(ValueError, match=message):
        client.train(private(0, ("a", "g")), [("b", "c")], EVEN)
    with pytest.raises(ValueError, match=message):
        MarkovToyClient.train_many([client], [private(0)], [("g", "a")], EVEN)
    assert client.index.words == ["", "a", "b", "c", "d", "e", "f"]
    assert client.transitions == state
    # 64 and above leave no bits at all; an empty stream still trains
    high = MarkovToyClient(order=64, seed=0)
    high.train(private(0, ("", " ")), [], EVEN)
    with pytest.raises(ValueError, match="holds at most 0 distinct words"):
        high.train(private(0, ("", "a")), [], EVEN)
    assert high.generate("p", "a", 1, 4) == ""


# ------------------------------------------------------------ loaders


def test_load_scripted_clients(tmp_path):
    path = tmp_path / "responses.jsonl"
    rows = [
        {"client": 0, "round": 1, "prompt_id": "p0", "response": "alpha"},
        {"client": 1, "round": 1, "prompt_id": "p0", "response": "beta"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    clients = load_scripted_clients(path)
    assert len(clients) == 2
    assert clients[0].generate("p0", "", 1, 8) == "alpha"
    assert clients[1].generate("p0", "", 1, 8) == "beta"


def test_load_scripted_clients_rejects_gaps_and_duplicates(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text(json.dumps({"client": 1, "round": 1, "prompt_id": "p0", "response": "x"}) + "\n")
    with pytest.raises(ValueError, match="0..K-1"):
        load_scripted_clients(path)
    row = {"client": 0, "round": 1, "prompt_id": "p0", "response": "x"}
    path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_scripted_clients(path)


def test_load_private_datasets(tmp_path):
    path = tmp_path / "private.jsonl"
    rows = [
        {"client": 0, "prompt": "q1", "response": "r1"},
        {"client": 0, "prompt": "q2", "response": "r2"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    datasets = load_private_datasets(path, 2)
    assert datasets[0].examples == (("q1", "r1"), ("q2", "r2"))
    assert datasets[1].examples == ()


def test_load_private_datasets_rejects_unknown_client(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"client": 5, "prompt": "q", "response": "r"}) + "\n")
    with pytest.raises(ValueError, match="outside"):
        load_private_datasets(path, 1)
