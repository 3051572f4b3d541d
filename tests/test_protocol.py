import json
from collections import Counter

import pytest

from semfed import cli, protocol
from semfed.clients import (
    Client,
    MarkovToyClient,
    PrivateDataset,
    ScriptedClient,
    TrainingWeights,
)
from semfed.costmodel import TextRoundCostSpec, text_round_bytes
from semfed.protocol import (
    ConfigError,
    PromptError,
    Prompt,
    PublicPromptSet,
    SessionParams,
    make_response,
    meter_message,
    report_to_dict,
    run_round,
    run_session,
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
    assert rec.byte_len == 6
    with pytest.raises(ValueError):
        type(rec)(client=0, prompt_id="p0", text="héllo", byte_len=5)


# ------------------------------------------------------------- rounds


def test_single_client_self_consensus():
    prompts = prompt_set(1)
    clients = scripted_uniform(1, prompts, 1, "the only answer around")
    transcript = run_round(clients, prompts, SessionParams(), 1)
    assert transcript.broadcast == (("p00", "the only answer around"),)
    assert transcript.consensus[0].members == (0,)
    assert transcript.consensus[0].fallback_all_outliers  # outlier fallback
    assert transcript.errors == ()


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


def per_record_encode(records, config):
    """One separately encoded vector per record: no dedup, no batch."""
    return [protocol.encode(r.text, config) for r in records], range(len(records))


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

    monkeypatch.setattr(protocol, "encode_responses", per_record_encode)
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

    monkeypatch.setattr(cli, "encode_responses", per_record_encode)
    assert cli.main(["consensus", "--input", str(path)]) == 0
    assert capsys.readouterr().out == deduped


def test_prompt_set_from_jsonl(tmp_path):
    path = tmp_path / "prompts.jsonl"
    rows = [{"prompt_id": f"p{i}", "text": f"question {i}"} for i in range(5)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert len(PublicPromptSet.from_jsonl(path)) == 5
    assert len(PublicPromptSet.from_jsonl(path, limit=3)) == 3
    # a malformed row past the budget is never parsed
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"prompt_id": null}\n')
    assert len(PublicPromptSet.from_jsonl(path, limit=5)) == 5
    with pytest.raises(ValueError, match=":6: expected keys"):
        PublicPromptSet.from_jsonl(path)
