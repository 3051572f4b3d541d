import dataclasses
import json
import pickle
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from itertools import groupby, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semfed import cli, protocol
from semfed.clients import (
    Client,
    MarkovToyClient,
    PrivateDataset,
    ScriptedClient,
    TrainingWeights,
)
from semfed.consensus import ClusterParams, SelectionRule, SelectionStrategy, consensus_for_prompt
from semfed.costmodel import TextRoundCostSpec, text_round_bytes
from semfed.encoder import EncoderConfig, normalize_rows
from semfed.protocol import (
    ConfigError,
    PromptConsensus,
    PromptError,
    Prompt,
    PublicPromptSet,
    SessionParams,
    make_response,
    meter_message,
    report_to_dict,
    run_round,
    RoundTranscript,
    run_session,
    transcript_json,
    transcript_to_dict,
)


def prompt_set(n, text="what color is the sky over the bay"):
    return PublicPromptSet(
        prompts=tuple(Prompt(f"p{i:02d}", f"{text} {i}") for i in range(n))
    )


def scripted_uniform(num_clients, prompts, rounds, text):
    """Clients that all answer every prompt with the same string."""
    table = {
        (r, p.prompt_id): text for r in range(1, rounds + 1) for p in prompts.prompts
    }
    return [ScriptedClient(dict(table)) for _ in range(num_clients)]


class RecordingClient(Client):
    """Scripted client that captures every train() call."""

    def __init__(self, inner):
        self.inner = inner
        self.train_calls = []

    def generate(self, prompt_id, prompt_text, round_index, max_tokens):
        return self.inner.generate(prompt_id, prompt_text, round_index, max_tokens)

    def train(self, private, pseudo, weights):
        self.train_calls.append((tuple(private.examples), tuple(pseudo)))


# ------------------------------------------------------------ metering


def test_meter_message_examples():
    assert meter_message("") == 0
    assert meter_message("abcd") == 4
    assert meter_message("é") == 2


def test_response_record_byte_length_is_checked():
    rec = make_response(0, "p0", "héllo")
    assert rec.byte_len == len("héllo".encode("utf-8")) == 6
    # byte_len is always metered from the text; it cannot be passed in
    with pytest.raises(TypeError):
        type(rec)(client=0, prompt_id="p0", text="héllo", byte_len=6)


def test_response_record_is_a_frozen_slotted_dataclass():
    rec = make_response(3, "p0", "héllo")
    assert not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.text = "hello"
    fields = [(f.name, f.type, f.init) for f in dataclasses.fields(rec)]
    assert fields == [("client", "int", True), ("prompt_id", "str", True), ("text", "str", True),
                      ("byte_len", "int", False)]
    # equality and hash read all four fields, in order
    assert rec == make_response(3, "p0", "héllo") != make_response(4, "p0", "héllo")
    assert hash(rec) == hash((3, "p0", "héllo", 6))
    assert repr(rec) == "ResponseRecord(client=3, prompt_id='p0', text='héllo', byte_len=6)"
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(rec, proto))
        assert copy == rec and copy.byte_len == 6 and not hasattr(copy, "__dict__")


# ------------------------------------------------------------- rounds


def test_single_client_self_consensus():
    prompts = prompt_set(1)
    clients = scripted_uniform(1, prompts, 1, "the only answer around")
    transcript = run_round(clients, prompts, SessionParams(), 1)
    assert transcript.broadcast == (("p00", "the only answer around"),)
    assert transcript.consensus[0].members == (0,)
    assert transcript.consensus[0].fallback_all_outliers  # outlier fallback
    assert transcript.errors == ()


@pytest.mark.parametrize(
    "rule, calls",
    [(SelectionRule.CENTROID, 3), (SelectionRule.GLOBAL_MEDOID, 0), (SelectionRule.RANDOM_IN_CLUSTER, 0)],
)
def test_round_computes_centroids_only_under_the_centroid_rule(monkeypatch, rule, calls):
    from semfed import consensus

    seen = []
    centroid = consensus.normalized_centroid
    monkeypatch.setattr(consensus, "normalized_centroid", lambda *a: seen.append(a) or centroid(*a))
    prompts = prompt_set(3)
    clients = scripted_uniform(4, prompts, 1, "the sky over the bay is blue")
    transcript = run_round(clients, prompts, SessionParams(strategy=SelectionStrategy(rule)), 1)
    assert len(transcript.broadcast) == 3
    assert len(seen) == calls


def test_byte_totals_match_closed_form():
    # 10 clients, 4 prompts, every response exactly 128 bytes
    text = "z" * 128
    prompts = prompt_set(4)
    clients = scripted_uniform(10, prompts, 1, text)
    transcript = run_round(clients, prompts, SessionParams(), 1)
    assert transcript.uploaded_bytes == 10 * 4 * 128
    assert transcript.downloaded_bytes == 10 * 4 * 128
    spec = TextRoundCostSpec(
        num_clients=10, num_prompts=4, avg_tokens=128, bytes_per_token=1,
        include_download=True,
    )
    assert transcript.uploaded_bytes + transcript.downloaded_bytes == text_round_bytes(spec)


def test_empty_responses_drop_prompt_with_reason():
    prompts = prompt_set(2)
    table0 = {(1, "p00"): "", (1, "p01"): "a decent shared answer here"}
    table1 = {(1, "p00"): "", (1, "p01"): "a decent shared answer here"}
    clients = [ScriptedClient(table0), ScriptedClient(table1)]
    transcript = run_round(clients, prompts, SessionParams(), 1)
    assert [pid for pid, _ in transcript.broadcast] == ["p01"]
    reasons = {(e.prompt_id, e.client, e.reason) for e in transcript.errors}
    assert ("p00", None, "no_embeddable_responses") in reasons
    assert ("p00", 0, "zero_embedding") in reasons
    assert ("p00", 1, "zero_embedding") in reasons
    # empty uploads still count zero bytes, broadcast covers p01 only
    assert transcript.downloaded_bytes == 2 * meter_message("a decent shared answer here")


def test_round_calls_consensus_for_prompt_once_per_embeddable_prompt(monkeypatch):
    # perfbench's latency stopwatch wraps protocol.consensus_for_prompt, so
    # every prompt's consensus must go through that module attribute
    seen = []
    real = protocol.consensus_for_prompt

    def counted(responses, *args, **kwargs):
        seen.append((responses[0].prompt_id, tuple(r.client for r in responses)))
        return real(responses, *args, **kwargs)

    monkeypatch.setattr(protocol, "consensus_for_prompt", counted)
    good = "a decent shared answer here"
    clients = [
        ScriptedClient({(1, "p00"): "", (1, "p01"): good, (1, "p02"): good}),
        ScriptedClient({(1, "p00"): "", (1, "p01"): "", (1, "p02"): good}),
        ScriptedClient({(1, "p00"): "", (1, "p01"): good, (1, "p02"): good}),
    ]
    transcript = run_round(clients, prompt_set(3), SessionParams(), 1)
    # p00 has no embeddable response, so it never reaches consensus
    assert seen == [("p01", (0, 2)), ("p02", (0, 1, 2))]
    assert [pid for pid, _ in transcript.broadcast] == ["p01", "p02"]


def test_round_builds_every_record_through_protocol_make_response(monkeypatch):
    # perfbench's tracer wraps protocol.make_response as protocol.meter_s, so
    # every record of a round must be built through that module attribute,
    # once per (client, prompt), whatever runs of client classes answer
    made = []
    real = protocol.make_response

    def counted(client, prompt_id, text):
        made.append(real(client, prompt_id, text))
        return made[-1]

    monkeypatch.setattr(protocol, "make_response", counted)
    prompts = prompt_set(4)
    markov = [MarkovToyClient(order=1, seed=s) for s in range(2)]
    for client in markov:
        client.train(PrivateDataset((("", "a shared answer a shared answer"),), 0), [], TrainingWeights())
    scripted = scripted_uniform(2, prompts, 2, "a shared answer")
    clients = [scripted[0], *markov, scripted[1], RecordingClient(scripted[0])]
    for round_index in (1, 2):
        made.clear()
        transcript = run_round(clients, prompts, SessionParams(max_tokens=6), round_index)
        assert len(made) == len(clients) * len(prompts)
        assert all(a is b for a, b in zip(transcript.responses, made, strict=True))


def test_a_missing_scripted_row_is_named_at_the_lowest_prompt_id():
    # the prompts are answered in id order, and "p10" sorts before "p9"
    prompts = PublicPromptSet(prompts=(Prompt("p9", "a"), Prompt("p10", "b")))
    with pytest.raises(ValueError, match="round=1 prompt='p10'"):
        run_round([ScriptedClient({})], prompts, SessionParams(), 1)


def test_partial_empty_response_excluded_from_consensus():
    prompts = prompt_set(1)
    clients = [
        ScriptedClient({(1, "p00"): "a perfectly good shared answer"}),
        ScriptedClient({(1, "p00"): ""}),
        ScriptedClient({(1, "p00"): "a perfectly good shared answer"}),
    ]
    transcript = run_round(clients, prompts, SessionParams(), 1)
    entry = transcript.consensus[0]
    assert entry.clients == (0, 2)
    assert entry.members == (0, 2)
    assert entry.pseudo_label == "a perfectly good shared answer"
    assert any(e.client == 1 and e.reason == "zero_embedding" for e in transcript.errors)


# Two copies of this text are 6.7e-16 apart when each copy has its own
# row of the pairwise product, more than TINY_EPS.
TWICE = "the sky is blue today"
TINY_EPS = ClusterParams(eps=1e-17, min_pts=2)


def test_duplicate_responses_are_exactly_zero_apart_in_consensus_phase():
    records = [make_response(c, "p0", t) for c, t in enumerate([TWICE, TWICE, "water is wet"])]
    [(raw, rows)] = protocol.encode_prompts([records], EncoderConfig())
    outcome, result, errors = protocol.consensus_phase(
        "p0", records, raw, rows, TINY_EPS, SelectionStrategy()
    )
    assert errors == []
    assert outcome.labels == (0, 0, -1)
    assert outcome.members == (0, 1)
    assert not outcome.fallback_all_outliers
    assert outcome.pseudo_label == TWICE


def test_duplicate_responses_without_rows_are_exactly_zero_apart():
    # rows omitted, the two copies of TWICE are merged onto one row
    records = [make_response(c, "p0", t) for c, t in enumerate([TWICE, TWICE, "water is wet"])]
    [(raw, rows)] = protocol.encode_prompts([records], EncoderConfig())
    units, _ = normalize_rows(raw)
    result = consensus_for_prompt(records, units[rows], TINY_EPS)
    assert result.clustering.labels == (0, 0, -1)
    assert result.consensus_members == (0, 1)
    assert not result.fallback_all_outliers


def test_duplicate_responses_on_rows_of_their_own_are_not_zero_apart():
    # An explicit row per response keeps the product's rounding between
    # copies, so at this eps every response is an outlier and the set falls back.
    records = [make_response(c, "p0", t) for c, t in enumerate([TWICE, TWICE, "water is wet"])]
    [(raw, rows)] = protocol.encode_prompts([records], EncoderConfig())
    units, _ = normalize_rows(raw)
    result = consensus_for_prompt(records, units[rows], TINY_EPS, rows=range(3))
    assert result.clustering.labels == (-1, -1, -1)
    assert result.fallback_all_outliers
    assert result.consensus_members == (0, 1, 2)


def test_consensus_phase_passes_the_distinct_rows_renumbered_past_zero_rows(monkeypatch):
    seen = []
    real = protocol.consensus_for_prompt

    def recorded(responses, embeddings, *args):
        seen.append((np.shape(embeddings), args[-1]))
        return real(responses, embeddings, *args)

    monkeypatch.setattr(protocol, "consensus_for_prompt", recorded)
    texts = ["x", "water is wet", "x", "the sky is blue", "water is wet", "the sky is blue"]
    records = [make_response(c, "p0", t) for c, t in enumerate(texts)]
    [(raw, rows)] = protocol.encode_prompts([records], EncoderConfig())
    assert rows == [0, 1, 0, 2, 1, 2]
    outcome, _, errors = protocol.consensus_phase(
        "p0", records, raw, rows, ClusterParams(), SelectionStrategy()
    )
    # the empty row 0 is dropped and rows 1 and 2 become 0 and 1
    [(shape, passed)] = seen
    assert shape == (2, 384)
    assert list(passed) == [0, 1, 0, 1]
    assert [(e.client, e.reason) for e in errors] == [(0, "zero_embedding"), (2, "zero_embedding")]
    assert outcome.clients == (1, 3, 4, 5)
    assert outcome.labels == (0, 1, 0, 1)
    assert outcome.members == (1, 4)
    assert outcome.representative == 1


def test_pseudo_labels_fed_to_train_match_transcript():
    prompts = prompt_set(3)
    inner = scripted_uniform(2, prompts, 1, "a steady answer for all prompts")
    clients = [RecordingClient(c) for c in inner]
    transcript = run_round(clients, prompts, SessionParams(), 1)
    text_by_id = {p.prompt_id: p.text for p in prompts.prompts}
    expected = tuple(
        (text_by_id[pid], label) for pid, label in transcript.broadcast
    )
    for client in clients:
        # second call of the round is the joint pass
        assert client.train_calls[-1][1] == expected


def test_private_pass_respects_retrain_flag():
    prompts = prompt_set(1)
    inner = scripted_uniform(1, prompts, 3, "the same answer as always")

    always = [RecordingClient(inner[0])]
    run_session(always, prompts, 3, SessionParams())
    # two train calls per round: private pass + joint pass
    assert len(always[0].train_calls) == 6

    inner = scripted_uniform(1, prompts, 3, "the same answer as always")
    once = [RecordingClient(inner[0])]
    run_session(once, prompts, 3, SessionParams(retrain_private_every_round=False))
    # private pass only in round 1, then one joint pass per round
    assert len(once[0].train_calls) == 4


def test_round_and_session_validation():
    prompts = prompt_set(1)
    clients = scripted_uniform(1, prompts, 1, "answer text here")
    with pytest.raises(ConfigError):
        run_session(clients, prompts, 0, SessionParams())
    with pytest.raises(ConfigError, match="at least one client is required"):
        run_session([], prompts, 1, SessionParams())
    with pytest.raises(ConfigError, match="prompt set must be non-empty"):
        run_session(clients, PublicPromptSet(prompts=()), 1, SessionParams())
    with pytest.raises(ConfigError):
        run_round(clients, PublicPromptSet(prompts=()), SessionParams(), 1)
    with pytest.raises(ConfigError):
        run_round(clients, prompts, SessionParams(), 0)
    with pytest.raises(ConfigError):
        run_round(clients, prompts, SessionParams(), 1, private_datasets=[])
    with pytest.raises(ConfigError):
        PublicPromptSet(prompts=(Prompt("a", "x"), Prompt("a", "y")))
    for max_tokens in (0, 2.5, True):
        with pytest.raises(ConfigError, match="max_tokens"):
            SessionParams(max_tokens=max_tokens)


def test_private_datasets_out_of_owner_order_fail_before_training():
    prompts = PublicPromptSet(prompts=(Prompt("p0", "sky"),))
    swapped = [
        PrivateDataset((("sky", "blue"),), owner=1),
        PrivateDataset((("sky", "red"),), owner=0),
    ]
    markov = [MarkovToyClient(order=1, seed=0), MarkovToyClient(order=1, seed=1)]
    message = "^private dataset at position 0 has owner 1$"
    with pytest.raises(ConfigError, match=message):
        run_round(markov, prompts, SessionParams(max_tokens=1), 1, private_datasets=swapped)
    recording = [RecordingClient(c) for c in scripted_uniform(2, prompts, 1, "blue")]
    with pytest.raises(ConfigError, match=message):
        run_session(recording, prompts, 1, SessionParams(), private_datasets=swapped)
    assert [c.train_calls for c in recording] == [[], []]


def test_duplicate_prompt_ids_are_each_listed_once():
    ids = [f"p{i}" for i in range(100_000)] + ["p99999", "p7", "p7"]
    with pytest.raises(ConfigError, match=r"^duplicate prompt ids: \['p7', 'p99999'\]$"):
        PublicPromptSet(prompts=tuple(Prompt(i, "x") for i in ids))


def test_session_totals_are_sums_of_rounds():
    prompts = prompt_set(3)
    clients = scripted_uniform(4, prompts, 2, "an answer of fixed length!!")
    report = run_session(clients, prompts, 2, SessionParams())
    assert report.total_uploaded_bytes == sum(t.uploaded_bytes for t in report.transcripts)
    assert report.total_downloaded_bytes == sum(
        t.downloaded_bytes for t in report.transcripts
    )
    assert [t.round_index for t in report.transcripts] == [1, 2]


def test_mixed_client_kinds_produce_identical_transcripts():
    # a markov client trained to echo the scripted answer behaves the
    # same as the scripted client at the protocol layer
    prompts = PublicPromptSet(prompts=(Prompt("p00", "color"),))
    scripted = [
        ScriptedClient({(1, "p00"): "blue"}),
        ScriptedClient({(1, "p00"): "blue"}),
    ]
    markov = MarkovToyClient(order=1, seed=0)
    mixed = [ScriptedClient({(1, "p00"): "blue"}), markov]
    private = [
        PrivateDataset.empty(0),
        PrivateDataset(examples=(("color", "blue"),), owner=1),
    ]
    pure = run_round(scripted, prompts, SessionParams(), 1)
    hybrid = run_round(mixed, prompts, SessionParams(), 1, private_datasets=private)
    assert transcript_to_dict(pure) == transcript_to_dict(hybrid)


class UpperMarkov(MarkovToyClient):
    """A Markov client with its own generate: upper-cased text, calls counted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def generate(self, prompt_id, prompt_text, round_index, max_tokens):
        self.calls += 1
        return super().generate(prompt_id, prompt_text, round_index, max_tokens).upper()


FACTS = (
    ("what color is the sky", "the sky is blue over the bay"),
    ("what color is the sea", "the sea is blue and the sky is grey"),
    ("where is the bay", "the bay is under the sky"),
)


def interleaved_clients(markov_kind, prompts, rounds):
    """[Markov, Scripted, Markov, Markov, Scripted] with their private data."""
    kinds = ["markov", "scripted", "markov", "markov", "scripted"]
    clients, privates = [], []
    for index, kind in enumerate(kinds):
        if kind == "markov":
            clients.append(markov_kind(order=2, seed=index))
        else:
            table = {(r, p.prompt_id): f"client {index} says blue" for r in rounds for p in prompts.prompts}
            clients.append(ScriptedClient(table))
        privates.append(PrivateDataset(examples=FACTS[index % 3 :] + FACTS[: index % 3], owner=index))
    return clients, privates


@pytest.mark.parametrize("markov_kind", [MarkovToyClient, UpperMarkov])
def test_interleaved_client_kinds_match_a_per_call_loop(markov_kind):
    prompts = PublicPromptSet(
        prompts=tuple(Prompt(f"p{i}", text) for i, (text, _) in enumerate(FACTS))
    )
    params = SessionParams(max_tokens=12)
    rounds = (1, 2)
    clients, privates = interleaved_clients(markov_kind, prompts, rounds)
    by_hand, _ = interleaved_clients(markov_kind, prompts, rounds)
    for round_index in rounds:
        transcript = run_round(clients, prompts, params, round_index, privates)
        expected = []
        for index, (client, private) in enumerate(zip(by_hand, privates)):
            client.train(private, [], params.weights)
            for p in prompts.prompts:
                text = client.generate(p.prompt_id, p.text, round_index, params.max_tokens)
                expected.append(make_response(index, p.prompt_id, text))
        assert transcript.responses == tuple(sorted(expected, key=lambda r: (r.client, r.prompt_id)))
        pseudo = [(prompts.prompts[int(pid[1:])].text, label) for pid, label in transcript.broadcast]
        for client, private in zip(by_hand, privates):
            client.train(private, pseudo, params.weights)

    markov_texts = [r.text for r in transcript.responses if r.client in (0, 2, 3)]
    assert any(markov_texts)
    if markov_kind is UpperMarkov:
        # the override is what ran: once per prompt per round, upper-cased text
        assert [clients[i].calls for i in (0, 2, 3)] == [len(rounds) * len(prompts)] * 3
        assert all(text == text.upper() for text in markov_texts)


def test_round_makes_one_generate_many_call_per_run_of_one_class(monkeypatch):
    prompts = PublicPromptSet(prompts=(Prompt("p0", FACTS[0][0]),))
    clients, privates = interleaved_clients(MarkovToyClient, prompts, (1,))
    calls = []
    for kind in (MarkovToyClient, ScriptedClient):
        real = kind.generate_many

        def recording(cls, run, queries, round_index, max_tokens, real=real):
            calls.append((cls, [clients.index(c) for c in run]))
            return real(run, queries, round_index, max_tokens)

        monkeypatch.setattr(kind, "generate_many", classmethod(recording))
    run_round(clients, prompts, SessionParams(), 1, privates)
    assert calls == [
        (MarkovToyClient, [0]),
        (ScriptedClient, [1]),
        (MarkovToyClient, [2, 3]),
        (ScriptedClient, [4]),
    ]


class BatchRecording(RecordingClient):
    """A RecordingClient with a correct generate_many of its own: built prompt-major, then transposed."""

    @classmethod
    def generate_many(cls, clients, prompts, round_index, max_tokens):
        by_prompt = [[c.generate(pid, text, round_index, max_tokens) for c in clients] for pid, text in prompts]
        return [list(texts) for texts in zip(*by_prompt)]


class Reshaped(RecordingClient):
    """A RecordingClient whose generate_many passes the default's answer through ``reshape``."""

    @classmethod
    def generate_many(cls, clients, prompts, round_index, max_tokens):
        return cls.reshape(super().generate_many(clients, prompts, round_index, max_tokens))


WRONG_SHAPES = {
    "OneTextShort": lambda lists: [texts[:-1] for texts in lists],
    "OneListShort": lambda lists: lists[:-1],
    "OneListLong": lambda lists: lists + lists[-1:],
}


@pytest.mark.parametrize("name", list(WRONG_SHAPES))
def test_a_run_of_the_wrong_shape_fails_naming_its_class_before_joint_training(name):
    kind = type(name, (Reshaped,), {"reshape": staticmethod(WRONG_SHAPES[name])})
    prompts = prompt_set(2)
    # a scripted run follows, so a missing list would renumber its client
    clients = [kind(inner) for inner in scripted_uniform(2, prompts, 1, "red")]
    clients += scripted_uniform(1, prompts, 1, "blue")
    with pytest.raises(ValueError, match=rf"^{name}\.generate_many must return 2 lists of 2 texts$"):
        run_round(clients, prompts, SessionParams(), 1)
    # the private pass ran; the joint pass never did
    assert [client.train_calls for client in clients[:2]] == [[((), ())]] * 2


def federation(queries):
    """Six runs of four classes: Markov, Recording, Scripted, BatchRecording, Markov, Recording."""
    scripted = [ScriptedClient({(1, pid): f"client {i} says blue" for pid, _ in queries}) for i in range(9)]
    return [
        MarkovToyClient(order=2, seed=0),
        MarkovToyClient(order=1, seed=1),
        RecordingClient(scripted[2]),
        *scripted[3:5],
        BatchRecording(scripted[5]),
        MarkovToyClient(order=2, seed=6),
        RecordingClient(scripted[7]),
        RecordingClient(scripted[8]),
    ]


def test_each_response_is_numbered_by_its_place_in_the_round_list():
    prompts = PublicPromptSet(
        prompts=tuple(Prompt(f"p{i}", text) for i, (text, _) in reversed(list(enumerate(FACTS))))
    )
    queries = sorted((p.prompt_id, p.text) for p in prompts.prompts)
    m, params = len(queries), SessionParams(max_tokens=12)
    clients, by_hand = federation(queries), federation(queries)
    privates = [PrivateDataset(examples=FACTS, owner=i) for i in range(len(clients))]
    transcript = run_round(clients, prompts, params, 1, privates)
    for client, private in zip(by_hand, privates):
        client.train(private, [], params.weights)
    assert len(transcript.responses) == len(clients) * m
    for i, record in enumerate(transcript.responses):
        (prompt_id, text), client = queries[i % m], by_hand[i // m]
        assert (record.client, record.prompt_id) == (i // m, prompt_id)
        assert record.text == client.generate(prompt_id, text, 1, params.max_tokens)
    assert all(record.text for record in transcript.responses)
    # each prompt's consensus read the stride: every client, in client order
    assert transcript.errors == ()
    assert [c.prompt_id for c in transcript.consensus] == [pid for pid, _ in queries]
    assert all(c.clients == tuple(range(len(clients))) for c in transcript.consensus)


def test_private_data_never_appears_in_transcripts():
    # the private prompt shares no words with the public prompts, so
    # generation cannot reproduce the secret; what this checks is that
    # the orchestrator itself never serializes private datasets
    secret = "SENTINEL-private-record-7391"
    prompts = prompt_set(2)
    clients = [MarkovToyClient(order=1, seed=i) for i in range(2)]
    private = [
        PrivateDataset(examples=((f"vaultword{i}", secret),), owner=i)
        for i in range(2)
    ]
    report = run_session(clients, prompts, 1, SessionParams(), private)
    blob = json.dumps(
        [transcript_to_dict(t) for t in report.transcripts]
    ) + json.dumps(report_to_dict(report))
    assert secret not in blob


def test_dp_hook_records_one_budget_per_client_per_round():
    prompts = prompt_set(1)
    clients = scripted_uniform(3, prompts, 2, "the answer is forty two")
    params = SessionParams(dp_round_budget=(0.5, 1e-6))
    report = run_session(clients, prompts, 2, params)
    assert report.ledgers is not None
    assert len(report.ledgers) == 3
    for ledger in report.ledgers:
        assert [b.round_index for b in ledger.rounds] == [1, 2]
        assert all(b.epsilon == 0.5 and b.delta == 1e-6 for b in ledger.rounds)
    summary = report_to_dict(report)
    assert summary["privacy"][0]["epsilon_total"] == 1.0


# ------------------------------------------------------- encode once


ANSWERS = ["the sky is blue", "the sky is blue", "the sky is grey", "", "the sky is blue today"]


def counting_encode(monkeypatch):
    """Wrap ``protocol.encode_batch`` to count every text that reaches it."""
    calls = Counter()
    real = protocol.encode_batch

    def encode_batch(texts, config):
        calls.update(texts)
        return real(texts, config)

    monkeypatch.setattr(protocol, "encode_batch", encode_batch)
    return calls


def per_record_encode(prompts, config):
    """One separately encoded row per record of each prompt: no dedup, no batch."""
    for records in prompts:
        yield np.array([protocol.encode(r.text, config) for r in records]), range(len(records))


def test_round_encodes_each_distinct_text_once_per_prompt(monkeypatch):
    # 7 clients rotate through repeated answers, one of them empty, and
    # the same texts recur under every prompt
    prompts = prompt_set(3)
    clients = [
        ScriptedClient(
            {(1, p.prompt_id): ANSWERS[(c + i) % len(ANSWERS)] for i, p in enumerate(prompts.prompts)}
        )
        for c in range(7)
    ]
    calls = counting_encode(monkeypatch)
    transcript = run_round(clients, prompts, SessionParams(), 1)
    distinct = {(r.prompt_id, r.text) for r in transcript.responses}
    assert calls == Counter(text for _, text in distinct)
    assert sum(calls.values()) == len(distinct) < len(transcript.responses)
    assert any(e.reason == "zero_embedding" for e in transcript.errors)

    monkeypatch.setattr(protocol, "encode_prompts", per_record_encode)
    reference = run_round(clients, prompts, SessionParams(), 1)
    assert transcript_to_dict(transcript) == transcript_to_dict(reference)


def test_consensus_cli_encodes_each_distinct_text_once_per_prompt(monkeypatch, tmp_path, capsys):
    rows = [
        {"prompt_id": pid, "client_id": c, "response": ANSWERS[(c + i) % len(ANSWERS)]}
        for i, pid in enumerate(["p0", "p1"])
        for c in range(6)
    ]
    path = tmp_path / "responses.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    calls = counting_encode(monkeypatch)
    assert cli.main(["consensus", "--input", str(path)]) == 0
    deduped = capsys.readouterr().out
    distinct = {(r["prompt_id"], r["response"]) for r in rows}
    assert calls == Counter(text for _, text in distinct)
    assert sum(calls.values()) < len(rows)

    monkeypatch.setattr(cli, "encode_prompts", per_record_encode)
    assert cli.main(["consensus", "--input", str(path)]) == 0
    assert capsys.readouterr().out == deduped


# "" and "x" encode to zero rows; LONG alone is larger than one prompt's
# share of a small bound.
LONG = "a much longer answer that rambles on about the colour of the sky " * 4
POOL = ["", "x", "the sky is blue", "the sky is grey", "water is wet", "é ☁ 😀 sky", LONG]


def one_prompt_per_call(prompts, config):
    """Each prompt's distinct texts in an ``encode_batch`` call of their own."""
    for records in prompts:
        row_of = {}
        rows = [row_of.setdefault(r.text, len(row_of)) for r in records]
        yield protocol.encode_batch(list(row_of), config), rows


@given(
    grid=st.integers(1, 5).flatmap(
        lambda k: st.lists(st.lists(st.sampled_from(POOL), min_size=k, max_size=k), min_size=1, max_size=6)
    )
)
@example(
    grid=[
        ["", "x", ""],  # an all-empty prompt
        ["water is wet", "", "water is wet"],  # an empty text, a text the next prompt repeats
        ["water is wet", LONG, "the sky is blue"],  # larger than the first prompt's bound
        ["the sky is blue", "the sky is blue", "é ☁ 😀 sky"],
    ]
)
def test_batched_encode_matches_one_prompt_per_call(grid):
    prompts = prompt_set(len(grid))
    clients = [
        ScriptedClient({(1, p.prompt_id): answers[c] for p, answers in zip(prompts.prompts, grid)})
        for c in range(len(grid[0]))
    ]
    # prompt p's distinct texts, in order of first appearance
    distinct = [list(dict.fromkeys(answers)) for answers in grid]
    sizes = [sum(map(len, texts)) for texts in distinct]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "encode_prompts", one_prompt_per_call)
        reference = transcript_json(run_round(clients, prompts, SessionParams(), 1))
    for bound in (1, sizes[0], 2**62):
        calls = []

        def encode_batch(texts, config):
            calls.append(list(texts))
            return real(texts, config)

        real = protocol.encode_batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "ENCODE_BATCH_POINTS", bound)
            mp.setattr(protocol, "encode_batch", encode_batch)
            assert transcript_json(run_round(clients, prompts, SessionParams(), 1)) == reference
        # every call holds one or more whole consecutive prompts, and passes
        # the bound only when it holds one; a call closes only when the next prompt
        # would pass the bound
        batches, p = [], 0
        for texts in calls:
            start = p
            while p < len(grid) and sum(map(len, distinct[start:p])) < len(texts):
                p += 1
            assert p > start and texts == [t for prompt in distinct[start:p] for t in prompt]
            assert sum(sizes[start:p]) <= bound or p - start == 1
            batches.append((start, p))
        assert p == len(grid)
        for (start, end), (after, _) in zip(batches, batches[1:]):
            assert sum(sizes[start:end]) + sizes[after] > bound


def test_prompt_set_from_jsonl(tmp_path):
    path = tmp_path / "prompts.jsonl"
    rows = [{"prompt_id": f"p{i}", "text": f"question {i}"} for i in range(5)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert len(PublicPromptSet.from_jsonl(path)) == 5
    assert len(PublicPromptSet.from_jsonl(path, limit=3)) == 3
    # a malformed row past the budget is never parsed
    good = path.read_bytes()
    for bad, reason in (
        (b'{"prompt_id": null}', "expected keys"),
        (b'{"prompt_id": 1, "text": "hi"}', "prompt_id must be a JSON string"),
        (b"{", "invalid JSON"),
        (b"[]", "expected keys"),
        (b'{"prompt_id": "\xff"}', "'utf-8' codec can't decode"),
    ):
        path.write_bytes(good + bad + b"\n")
        assert len(PublicPromptSet.from_jsonl(path, limit=5)) == 5
        with pytest.raises(ValueError, match=f":6: {reason}"):
            PublicPromptSet.from_jsonl(path)


# Strings that JSON must escape or that sit at its edges: quotes,
# backslashes, control characters, U+2028, astral characters, the empty string.
# ---------------------------------------------------------- session contract

# Answers with empty, one- and two-character texts (the all-zero embedding
# at n-gram size 3), astral characters and near-duplicates.
SESSION_TEXTS = st.sampled_from(
    [
        "",
        "a",
        "ab",
        "\U0001f600",
        "\U0001f600\U0001f601\U0001f602",
        "\U0001d518\U0001d52b\U0001d526 sky",
        "the sky is blue",
        "the sky is blue.",
        "the sky is blue!",
        "The sky is blue",
        "water is wet",
        "water is wet, mostly",
    ]
)
PROMPT_TEXTS = st.sampled_from(["what color is the sky", "is water wet", "\U0001f600 or not", "x"])
# Drawn in shuffled file order; "p10" sorts before "p9", so id order is not numeric order.
PROMPT_IDS = ["p9", "p10", "p1", "p0", "p11"]


@st.composite
def sessions(draw):
    """Mixed scripted and Markov clients, prompts in file order, rounds and session knobs."""
    num_clients, num_prompts, rounds = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    prompts = PublicPromptSet(
        prompts=tuple(
            Prompt(pid, draw(PROMPT_TEXTS)) for pid in draw(st.permutations(PROMPT_IDS))[:num_prompts]
        )
    )
    clients, private = [], []
    for index in range(num_clients):
        examples = tuple(draw(st.lists(st.tuples(PROMPT_TEXTS, SESSION_TEXTS), max_size=3)))
        private.append(PrivateDataset(examples=examples, owner=index))
        order = draw(st.integers(0, 3))  # 0 draws a scripted client
        if order == 0:
            table = {
                (r, p.prompt_id): draw(SESSION_TEXTS) for r in range(1, rounds + 1) for p in prompts.prompts
            }
            clients.append(ScriptedClient(table))
        else:
            clients.append(MarkovToyClient(order=order, seed=index))
    params = SessionParams(
        encoder=EncoderConfig(
            dimension=draw(st.sampled_from([16, 384])),
            ngram_size=draw(st.integers(2, 4)),
            seed=draw(st.integers(0, 3)),
            lowercase=draw(st.booleans()),
        ),
        cluster=ClusterParams(eps=draw(st.sampled_from([1e-17, 0.05, 0.3, 1.0])), min_pts=draw(st.integers(1, 3))),
        strategy=SelectionStrategy(draw(st.sampled_from(list(SelectionRule))), seed=draw(st.integers(0, 9))),
        weights=TrainingWeights(alpha=0.3, beta=0.7),
        max_tokens=6,
    )
    return clients, prompts, rounds, params, private


def consensus_cli_prompts(transcript, params):
    """``semfed consensus`` on a round's responses with the session's settings."""
    encoder = params.encoder
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "responses.jsonl"
        path.write_text(
            "".join(
                json.dumps({"prompt_id": r.prompt_id, "client_id": r.client, "response": r.text}) + "\n"
                for r in transcript.responses
            ),
            encoding="utf-8",
        )
        out = StringIO()
        with redirect_stdout(out):
            code = cli.main([
                "consensus", "--input", str(path),
                "--eps", repr(params.cluster.eps), "--min-pts", str(params.cluster.min_pts),
                "--strategy", params.strategy.rule.value, "--seed", str(params.strategy.seed),
                "--dimension", str(encoder.dimension), "--ngram", str(encoder.ngram_size),
                "--encoder-seed", str(encoder.seed), "--lowercase" if encoder.lowercase else "--no-lowercase",
            ])
    assert code == 0
    return json.loads(out.getvalue())["outputs"]["prompts"]


def strictly_increasing(keys):
    return all(a < b for a, b in zip(keys, keys[1:]))


@given(sessions())
def test_every_round_keeps_the_session_contract(session):
    clients, prompts, rounds, params, private = session
    report = run_session(clients, prompts, rounds, params, private)
    assert len(report.transcripts) == rounds
    num_clients, num_prompts = len(clients), len(prompts)
    ids = sorted(p.prompt_id for p in prompts.prompts)
    for transcript in report.transcripts:
        responses = transcript.responses
        assert [(r.client, r.prompt_id) for r in responses] == list(product(range(num_clients), ids))
        assert strictly_increasing([c.prompt_id for c in transcript.consensus])
        assert strictly_increasing([(e.prompt_id, -1 if e.client is None else e.client) for e in transcript.errors])
        uploaded = transcript.uploaded_bytes
        assert uploaded == sum(r.byte_len for r in responses)
        assert uploaded == sum(len(r.text.encode("utf-8")) for r in responses)
        label_bytes = sum(len(label.encode("utf-8")) for _, label in transcript.broadcast)
        assert transcript.downloaded_bytes == num_clients * label_bytes

        text_of = {(r.client, r.prompt_id): r.text for r in responses}
        assert transcript.broadcast == tuple((c.prompt_id, c.pseudo_label) for c in transcript.consensus)
        for entry in transcript.consensus:
            assert entry.pseudo_label == text_of[entry.representative, entry.prompt_id]
            assert entry.representative in entry.members
            assert set(entry.members) <= set(entry.clients)

        if uploaded > 0:
            spec = TextRoundCostSpec(
                num_clients, num_prompts, uploaded / (num_clients * num_prompts), 1.0, include_download=False
            )
            assert text_round_bytes(spec) == uploaded

        # semfed consensus on the same responses gives the same entries
        entries = {c.prompt_id: json.loads(json.dumps(vars(c))) for c in transcript.consensus}
        skipped = {}
        for error in transcript.errors:
            if error.reason == "zero_embedding":
                skipped.setdefault(error.prompt_id, []).append(error.client)
        listed = consensus_cli_prompts(transcript, params)
        assert [entry["prompt_id"] for entry in listed] == ids
        for entry in listed:
            pid = entry["prompt_id"]
            assert entry.pop("skipped_clients", []) == skipped.get(pid, [])
            if pid in entries:
                del entry["centroid"]
                assert entry == entries[pid]
            else:
                assert entry == {"prompt_id": pid, "error": "no_embeddable_responses"}
                assert PromptError(pid, None, "no_embeddable_responses") in transcript.errors
    assert report.total_uploaded_bytes == sum(t.uploaded_bytes for t in report.transcripts)
    assert report.total_downloaded_bytes == sum(t.downloaded_bytes for t in report.transcripts)


@given(sessions(), st.sampled_from([1, 6]), st.booleans(), st.booleans())
def test_builtin_generate_many_returns_one_text_per_client_and_prompt(session, max_tokens, empty, trained):
    clients, prompts, rounds, params, private = session
    queries = sorted((p.prompt_id, "" if empty else p.text) for p in prompts.prompts)
    start = 0
    for kind, run in groupby(clients, key=type):
        run = list(run)
        if trained:
            kind.train_many(run, private[start : start + len(run)], [], params.weights)
        start += len(run)
        for round_index in range(1, rounds + 1):
            generated = kind.generate_many(run, queries, round_index, max_tokens)
            assert [len(texts) for texts in generated] == [len(queries)] * len(run)


TRICKY = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600", "caf\u00e9", "a\tb\r\n"]),
    st.text(max_size=12),
)
INTS = st.lists(st.integers(-1, 2**40), max_size=5).map(tuple)


@st.composite
def transcripts(draw):
    consensus = tuple(
        PromptConsensus(
            prompt_id=draw(TRICKY),
            clients=draw(INTS),
            labels=draw(st.lists(st.integers(-1, 4), max_size=5).map(tuple)),
            members=draw(INTS),
            representative=draw(st.integers(0, 2**40)),
            pseudo_label=draw(TRICKY),
            fallback_all_outliers=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return RoundTranscript(
        round_index=draw(st.integers(1, 10**6)),
        responses=tuple(
            draw(st.lists(st.builds(make_response, st.integers(0, 2**40), TRICKY, TRICKY), max_size=4))
        ),
        consensus=consensus,
        broadcast=tuple(draw(st.lists(st.tuples(TRICKY, TRICKY), max_size=3))),
        uploaded_bytes=draw(st.integers(0, 2**62)),
        downloaded_bytes=draw(st.integers(0, 2**62)),
        errors=tuple(
            draw(st.lists(st.builds(PromptError, TRICKY, st.none() | st.integers(0, 2**40), TRICKY), max_size=3))
        ),
    )


EMPTY_ROUND = RoundTranscript(1, (), (), (), 0, 0, ())
FULL_ROUND = RoundTranscript(
    round_index=2,
    responses=(make_response(0, "p\u2028", '"\\\U0001f600'), make_response(1, "", "")),
    consensus=(
        PromptConsensus("p0", (0, 1), (-1, -1), (0, 1), 0, "\x00", True),
        PromptConsensus("p1", (), (), (), 3, "x", False),
    ),
    broadcast=(("p0", "\x00"),),
    uploaded_bytes=7,
    downloaded_bytes=2,
    errors=(PromptError("p2", None, "no_embeddable_responses"), PromptError("p2", 4, "zero_embedding")),
)


@given(transcripts())
@example(EMPTY_ROUND)
@example(FULL_ROUND)
def test_transcript_json_is_the_canonical_dump_of_the_dict_view(transcript):
    expected = json.dumps(transcript_to_dict(transcript), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert transcript_json(transcript) == expected
