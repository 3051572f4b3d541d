import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import ReferenceMarkovClient

import semfed.clients as clients_module
from semfed.clients import (
    MarkovToyClient,
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
# alpha 0 or 1 leaves zero-weight candidates; 5e-324 makes subnormal
# totals, where a scaled draw can land exactly on a running total.
ALPHAS = st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 5e-324])
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
    # the draws come in batches sized by the output, never by the budget
    client = MarkovToyClient(order=2, seed=0)
    reference = ReferenceMarkovClient(order=2, seed=0)
    examples = [("", "a b c d"), ("", "a b d"), ("", "b c e")]
    client.train(private(0, *examples), [], EVEN)
    reference.train(examples, [], EVEN.alpha, EVEN.beta)
    for prompt in ("a", "b", "a b"):
        expected = reference.generate(prompt, 10**12)
        assert expected
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
    assert len(states) == len(seeds)
    for seed, lanes in zip(seeds, states):
        assert len(lanes) == len(hashes)
        for text_hash, (state, inc) in zip(hashes, lanes):
            want = np.random.default_rng([seed, text_hash]).bit_generator.state["state"]
            assert {"state": state, "inc": inc} == want


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
# a long chain, an untrained client, and a budget past the first batch
@example(order=2, seeds=[0, 2**64 - 1], corpora=[CYCLE, []], prompts=["a", "z", ""], max_tokens=100)
# key edge cases at every order, walked past the first 32-draw batch
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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_generate_many_memo_never_outlives_a_call(order, monkeypatch):
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

    resolved = []
    sampler = MarkovToyClient._sampler
    monkeypatch.setattr(
        MarkovToyClient, "_sampler", lambda self, key: resolved.append(key) or sampler(self, key)
    )
    batches = []
    # the first call follows no new training; the second follows training
    # that gives every tail a second next word
    for pseudo in ([], [("", "b a c d")]):
        client.train(private(0), pseudo, weights)
        reference.train([], pseudo, weights.alpha, weights.beta)
        state = copy.deepcopy(vars(client))
        resolved.clear()
        (texts,) = MarkovToyClient.generate_many([client], queries, 1, 32)
        assert vars(client) == state
        assert texts == [reference.generate(text, 32) for _, text in queries]
        # each key is resolved once per call, and later steps reuse it
        assert len(resolved) == len(set(resolved)) < sum(len(t.split()) for t in texts)
        batches.append(texts)
    # the second call saw the new next word
    assert all(len(client.transitions[tail]) == 2 for tail in tails)
    assert batches[0] != batches[1]


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


# ------------------------------------------------------------ pair memo


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty pair memo for one test; the process's memo is restored after."""
    monkeypatch.setattr(clients_module, "_PAIRS", {})
    monkeypatch.setattr(clients_module, "_pair_count", 0)


def memo_pairs():
    """The pairs the memo holds, checked against its running count and bound."""
    held = sum(len(nexts) for _, nexts in clients_module._PAIRS.values())
    assert held == clients_module._pair_count <= clients_module.PAIR_MEMO_SIZE
    return held


OVERLAPPING = [
    ("the sky is", "blue and the sky is wide"),
    ("is the sky", "the sky is blue"),
    ("", "a b a b a b"),
    ("a b", "a b c a b"),
]


def test_memo_clients_of_every_order_interleaved_match_reference(fresh_memo):
    weights = TrainingWeights(alpha=0.3, beta=0.7)
    models = [
        (MarkovToyClient(order=order, seed=order), ReferenceMarkovClient(order=order, seed=order))
        for order in (1, 2, 3)
    ]
    for turn in range(4):
        for client, reference in models[turn % 3 :] + models[: turn % 3]:
            pseudo = OVERLAPPING[turn:] + OVERLAPPING[:turn]
            client.train(private(0, *OVERLAPPING[1:]), pseudo, weights)
            reference.train(OVERLAPPING[1:], pseudo, weights.alpha, weights.beta)
            assert client.transitions == reference.transitions
            memo_pairs()
    # each order keeps its own entries for the same example
    assert {order for order, _, _ in clients_module._PAIRS} == {1, 2, 3}


def test_memo_repeated_non_dyadic_weights_sum_in_reference_order(fresh_memo):
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
    assert memo_pairs() == 7 + 6  # 8 words: 7 pairs of length 1, 6 of length 2


def test_memo_evicts_under_a_tiny_bound_and_never_stores_an_oversized_example(
    fresh_memo, monkeypatch
):
    monkeypatch.setattr(clients_module, "PAIR_MEMO_SIZE", 5)
    weights = TrainingWeights(alpha=0.3, beta=0.7)
    client = MarkovToyClient(order=2, seed=0)
    reference = ReferenceMarkovClient(order=2, seed=0)
    small = [("", "a b"), ("", "b c"), ("a", "c"), ("", "c a b")]  # 1, 1, 1, 3 pairs
    big = ("a b c", "a b c a")  # 7 words: 11 pairs at order 2
    client.train(private(0, *small), [], weights)
    reference.train(small, [], weights.alpha, weights.beta)
    assert client.transitions == reference.transitions
    # 3 + 3 pairs would pass the bound: the single pairs were dropped
    assert list(clients_module._PAIRS) == [(2, "", "c a b")]
    assert memo_pairs() == 3
    for examples in (small[::-1], [big], small + [big], [big] + small):
        client.train(private(0, *examples), examples[::-1], weights)
        reference.train(examples, examples[::-1], weights.alpha, weights.beta)
        assert client.transitions == reference.transitions
        assert (2, *big) not in clients_module._PAIRS
        memo_pairs()


def test_memo_empty_and_one_word_streams_add_nothing(fresh_memo):
    client = MarkovToyClient(order=3, seed=0)
    reference = ReferenceMarkovClient(order=3, seed=0)
    examples = [("", ""), (" ", "\n"), ("a", ""), ("", "b"), ("  c ", " ")]
    for _ in range(2):
        client.train(private(0, *examples), examples, EVEN)
        reference.train(examples, examples, EVEN.alpha, EVEN.beta)
        assert client.transitions == reference.transitions == {}
    assert clients_module._PAIRS == {}
    assert memo_pairs() == 0


@given(
    bound=st.integers(0, 8),
    orders=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    rounds=st.lists(st.tuples(EXAMPLES, EXAMPLES), min_size=1, max_size=3),
)
def test_memo_stays_within_its_bound_and_matches_reference(bound, orders, rounds):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clients_module, "_PAIRS", {})
        patch.setattr(clients_module, "_pair_count", 0)
        patch.setattr(clients_module, "PAIR_MEMO_SIZE", bound)
        weights = TrainingWeights(alpha=0.3, beta=0.7)
        models = [(MarkovToyClient(order=o), ReferenceMarkovClient(order=o, seed=0)) for o in orders]
        for private_examples, pseudo in rounds:
            for client, reference in models:
                client.train(private(0, *private_examples), pseudo, weights)
                reference.train(private_examples, pseudo, weights.alpha, weights.beta)
                assert client.transitions == reference.transitions
                memo_pairs()


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
