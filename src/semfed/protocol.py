"""Round orchestration with exact byte metering over an in-process transport.

One round runs four phases: each client optionally retrains on its
private data, every client answers every public prompt (one
``Client.generate_many`` call per run of consecutive clients of one
class), the server embeds each prompt's distinct responses as one
matrix, normalizes its rows once and runs consensus on them, and the
resulting (prompt id, pseudo-label) pairs are broadcast back for a
joint training pass.  Uploads are the UTF-8 byte lengths of the
response payloads; downloads are the pseudo-label bytes times the
number of receiving clients.  Message framing, ids and serialization
overhead are deliberately excluded so measured totals match the
closed-form calculators byte for byte.

Consensus failures on a prompt (for example, every client generated an
un-embeddable empty string) never abort the round: the prompt is
dropped from that round's broadcast and the reason is recorded on the
transcript.

Determinism: the phases run in one thread in a fixed order, per-prompt
consensus is pure, and the prompts are sorted by id once, before
generation, so every transcript collection is built in canonical order
and reruns give byte-identical output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, islice
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Sequence

import numpy as np

from .clients import Client, PrivateDataset, TrainingWeights
from .consensus import ClusterParams, ConsensusResult, SelectionStrategy, consensus_for_prompt
# Unused ``encode`` and ``normalize`` stay importable for tools that wrap them by name.
from .encoder import EncoderConfig, encode, encode_batch, normalize, normalize_rows
from .jsonl import read_rows
from .privacy import PrivacyLedger, RoundBudget, total_budget

__all__ = [
    "ConfigError",
    "Prompt",
    "PublicPromptSet",
    "ResponseRecord",
    "PromptConsensus",
    "PromptError",
    "RoundTranscript",
    "SessionParams",
    "SessionReport",
    "meter_message",
    "make_response",
    "encode_responses",
    "consensus_phase",
    "run_round",
    "run_session",
    "transcript_to_dict",
    "transcript_json",
    "report_to_dict",
]


class ConfigError(ValueError):
    """Raised for invalid session structure before any work happens."""


def meter_message(payload: str) -> int:
    """Size of a message payload: UTF-8 byte length, no framing."""
    return len(payload.encode("utf-8"))


@dataclass(frozen=True)
class Prompt:
    prompt_id: str
    text: str


@dataclass(frozen=True)
class PublicPromptSet:
    """Ordered public prompts with unique ids."""

    prompts: tuple[Prompt, ...]

    def __post_init__(self) -> None:
        dupes = sorted(i for i, n in Counter(p.prompt_id for p in self.prompts).items() if n > 1)
        if dupes:
            raise ConfigError(f"duplicate prompt ids: {dupes}")

    def __len__(self) -> int:
        return len(self.prompts)

    @staticmethod
    def from_jsonl(path: str | Path, limit: int | None = None) -> "PublicPromptSet":
        """Read {"prompt_id": str, "text": str} rows with ``jsonl.read_rows``.

        ``limit`` caps how many rows are used; rows past it are never parsed.
        """
        rows = islice(read_rows(path, prompt_id=str, text=str), limit)
        return PublicPromptSet(prompts=tuple(Prompt(pid, text) for _, (pid, text) in rows))


@dataclass(frozen=True)
class ResponseRecord:
    """One client's answer to one prompt; ``byte_len``, its metered size, is set from the text."""

    client: int
    prompt_id: str
    text: str
    byte_len: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "byte_len", meter_message(self.text))


def make_response(client: int, prompt_id: str, text: str) -> ResponseRecord:
    return ResponseRecord(client, prompt_id, text)


@dataclass(frozen=True)
class PromptConsensus:
    """Serializable per-prompt consensus outcome with real client ids.

    ``clients`` lists the clients whose responses entered clustering
    (those whose text could be embedded); ``labels`` is parallel to it.
    """

    prompt_id: str
    clients: tuple[int, ...]
    labels: tuple[int, ...]
    members: tuple[int, ...]
    representative: int
    pseudo_label: str
    fallback_all_outliers: bool


@dataclass(frozen=True)
class PromptError:
    """Why a prompt or a single response dropped out of a round."""

    prompt_id: str
    client: int | None
    reason: str


@dataclass(frozen=True)
class RoundTranscript:
    """Everything one round produced, in canonical order.

    responses are in (client, prompt_id) order, consensus entries and
    broadcast pairs in prompt_id order, errors in (prompt_id, client)
    order with a prompt's client-None error first; none is re-sorted.
    """

    round_index: int
    responses: tuple[ResponseRecord, ...]
    consensus: tuple[PromptConsensus, ...]
    broadcast: tuple[tuple[str, str], ...]
    uploaded_bytes: int
    downloaded_bytes: int
    errors: tuple[PromptError, ...]


@dataclass(frozen=True)
class SessionParams:
    """Knobs for a whole session.

    retrain_private_every_round: when False, the private-only training
    pass before generation runs only in round 1 (later rounds already
    absorbed the private data during the joint pass of the previous
    round).  dp_round_budget, when set, charges every client that
    (epsilon, delta) per round on its privacy ledger.
    """

    encoder: EncoderConfig = EncoderConfig()
    cluster: ClusterParams = ClusterParams()
    strategy: SelectionStrategy = SelectionStrategy()
    weights: TrainingWeights = TrainingWeights()
    max_tokens: int = 64
    retrain_private_every_round: bool = True
    dp_round_budget: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if type(self.max_tokens) is not int or self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be an integer >= 1, got {self.max_tokens!r}")


@dataclass(frozen=True)
class SessionReport:
    """Ordered transcripts plus cumulative byte totals and DP ledgers."""

    transcripts: tuple[RoundTranscript, ...]
    total_uploaded_bytes: int
    total_downloaded_bytes: int
    ledgers: tuple[PrivacyLedger, ...] | None


def encode_responses(
    records: Sequence[ResponseRecord], config: EncoderConfig
) -> tuple[np.ndarray, list[int]]:
    """Encode one prompt's distinct response texts in one batch.

    Returns the raw (not normalized) matrix with one row per distinct
    text, in order of first appearance, and each record's row in it.
    """
    row_of: dict[str, int] = {}
    rows = [row_of.setdefault(record.text, len(row_of)) for record in records]
    return encode_batch(list(row_of), config), rows


def consensus_phase(
    prompt_id: str,
    records: Sequence[ResponseRecord],
    raw_vectors: np.ndarray,
    rows: Sequence[int],
    cluster: ClusterParams,
    strategy: SelectionStrategy,
) -> tuple[PromptConsensus | None, ConsensusResult | None, list[PromptError]]:
    """Normalize one prompt's raw vectors and run consensus.

    Record i's raw vector is row ``rows[i]`` of the matrix
    ``raw_vectors``, as ``encode_responses`` returns them; each row is
    normalized once.  A record whose vector is all zero (an empty or
    too-short text) is dropped with a ``zero_embedding`` error; a prompt
    left with no response gets a ``no_embeddable_responses`` error and
    no outcome.  Returns the transcript entry, the full result (which
    also holds the centroid), and the errors: any
    ``no_embeddable_responses`` first, then ``zero_embedding`` in record order.
    """
    units, zero = normalize_rows(raw_vectors)
    kept = ~zero[rows]
    usable = list(compress(records, kept))
    errors = [PromptError(prompt_id, r.client, "zero_embedding") for r in compress(records, ~kept)]
    if not usable:
        return None, None, [PromptError(prompt_id, None, "no_embeddable_responses"), *errors]
    result = consensus_for_prompt(usable, units[np.compress(kept, rows)], cluster, strategy)
    outcome = PromptConsensus(
        prompt_id=prompt_id,
        clients=tuple(r.client for r in usable),
        labels=result.clustering.labels,
        members=result.consensus_members,
        representative=result.representative,
        pseudo_label=result.pseudo_label,
        fallback_all_outliers=result.fallback_all_outliers,
    )
    return outcome, result, errors


def run_round(
    clients: Sequence[Client],
    prompts: PublicPromptSet,
    params: SessionParams,
    round_index: int,
    private_datasets: Sequence[PrivateDataset] | None = None,
) -> RoundTranscript:
    """Execute one full round and return its transcript.

    Rounds are 1-based, matching scripted-client tables.  The private
    training pass before generation is skipped when
    retrain_private_every_round is False and round_index > 1.  The
    prompts are sorted by id once, before generation, so every list
    below is built in the transcript's canonical order.
    """
    if round_index < 1:
        raise ConfigError(f"round_index must be >= 1, got {round_index}")
    if len(clients) == 0:
        raise ConfigError("at least one client is required")
    if len(prompts) == 0:
        raise ConfigError("prompt set must be non-empty")
    if private_datasets is None:
        private_datasets = [PrivateDataset.empty(i) for i in range(len(clients))]
    if len(private_datasets) != len(clients):
        raise ConfigError(
            f"{len(private_datasets)} private datasets for {len(clients)} clients"
        )

    do_private_pass = params.retrain_private_every_round or round_index == 1

    if do_private_pass:
        for client, private in zip(clients, private_datasets):
            client.train(private, [], params.weights)
    # One generate_many call per run of consecutive clients of one class;
    # a client's responses depend on its own state only, so training every
    # client first changes no text.
    queries = sorted((p.prompt_id, p.text) for p in prompts.prompts)
    generated = chain.from_iterable(
        kind.generate_many(list(run), queries, round_index, params.max_tokens)
        for kind, run in groupby(clients, key=type)
    )
    responses: list[ResponseRecord] = []
    by_prompt: dict[str, list[ResponseRecord]] = {prompt_id: [] for prompt_id, _ in queries}
    for index, texts in enumerate(generated):
        for (prompt_id, _), text in zip(queries, texts):
            record = make_response(index, prompt_id, text)
            responses.append(record)
            by_prompt[prompt_id].append(record)
    uploaded = sum(r.byte_len for r in responses)

    consensus_entries: list[PromptConsensus] = []
    errors: list[PromptError] = []
    for prompt_id, records in by_prompt.items():
        raw, rows = encode_responses(records, params.encoder)
        outcome, _, errs = consensus_phase(
            prompt_id, records, raw, rows, params.cluster, params.strategy
        )
        errors.extend(errs)
        if outcome is not None:
            consensus_entries.append(outcome)

    broadcast = tuple((c.prompt_id, c.pseudo_label) for c in consensus_entries)
    downloaded = len(clients) * sum(meter_message(label) for _, label in broadcast)

    prompt_text = dict(queries)
    pseudo_pairs = [(prompt_text[pid], label) for pid, label in broadcast]
    for client, private in zip(clients, private_datasets):
        client.train(private, pseudo_pairs, params.weights)

    return RoundTranscript(
        round_index=round_index,
        responses=tuple(responses),
        consensus=tuple(consensus_entries),
        broadcast=broadcast,
        uploaded_bytes=uploaded,
        downloaded_bytes=downloaded,
        errors=tuple(errors),
    )


def run_session(
    clients: Sequence[Client],
    prompts: PublicPromptSet,
    num_rounds: int,
    params: SessionParams,
    private_datasets: Sequence[PrivateDataset] | None = None,
) -> SessionReport:
    """Run ``num_rounds`` rounds and accumulate byte totals and ledgers.

    Every client's ledger (``params.dp_round_budget`` for each round) is
    built before round 1, so an invalid budget fails before any work.
    """
    if num_rounds < 1:
        raise ConfigError(f"num_rounds must be >= 1, got {num_rounds}")
    rounds = range(1, num_rounds + 1)
    ledgers = None
    if params.dp_round_budget is not None:
        budgets = tuple(RoundBudget(r, *params.dp_round_budget) for r in rounds)
        ledgers = tuple(PrivacyLedger(client=i, rounds=budgets) for i in range(len(clients)))

    transcripts = [run_round(clients, prompts, params, r, private_datasets) for r in rounds]
    return SessionReport(
        transcripts=tuple(transcripts),
        total_uploaded_bytes=sum(t.uploaded_bytes for t in transcripts),
        total_downloaded_bytes=sum(t.downloaded_bytes for t in transcripts),
        ledgers=ledgers,
    )


def transcript_to_dict(transcript: RoundTranscript) -> dict:
    """JSON-ready view of a round transcript, already canonically ordered.

    Each response, consensus entry and error is written as its own
    fields; their tuples serialize as JSON arrays.  ``transcript_json``
    writes this view's canonical text without building it.
    """
    return {
        "round": transcript.round_index,
        "responses": [dict(vars(r)) for r in transcript.responses],
        "consensus": [dict(vars(c)) for c in transcript.consensus],
        "broadcast": [
            {"prompt_id": pid, "pseudo_label": label} for pid, label in transcript.broadcast
        ],
        "uploaded_bytes": transcript.uploaded_bytes,
        "downloaded_bytes": transcript.downloaded_bytes,
        "errors": [dict(vars(e)) for e in transcript.errors],
    }


def _ints(values: tuple[int, ...]) -> str:
    """A JSON array of ints as ``json.dumps(..., indent=2)`` writes it three levels deep."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def _objects(key: str, items: list[str]) -> str:
    """Top-level ``key`` holding already-written objects, two spaces deep."""
    if not items:
        return f'  "{key}": []'
    return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]"


def transcript_json(transcript: RoundTranscript) -> str:
    """The round file's text: canonical JSON of ``transcript_to_dict(transcript)``.

    Equal byte for byte to ``json.dumps(transcript_to_dict(transcript),
    sort_keys=True, indent=2, allow_nan=False) + "\\n"`` (sorted keys,
    two-space indent, ASCII escapes, trailing newline), but written
    straight from the dataclasses: one f-string per entry, each string
    escaped by the C encoder, without the stdlib's pure-Python indent
    path.  The sorted key order is spelled out here.
    """
    s = _escape
    responses = [
        f'    {{\n      "byte_len": {r.byte_len},\n      "client": {r.client},\n'
        f'      "prompt_id": {s(r.prompt_id)},\n      "text": {s(r.text)}\n    }}'
        for r in transcript.responses
    ]
    consensus = [
        f'    {{\n      "clients": {_ints(c.clients)},\n'
        f'      "fallback_all_outliers": {"true" if c.fallback_all_outliers else "false"},\n'
        f'      "labels": {_ints(c.labels)},\n      "members": {_ints(c.members)},\n'
        f'      "prompt_id": {s(c.prompt_id)},\n      "pseudo_label": {s(c.pseudo_label)},\n'
        f'      "representative": {c.representative}\n    }}'
        for c in transcript.consensus
    ]
    broadcast = [
        f'    {{\n      "prompt_id": {s(pid)},\n      "pseudo_label": {s(label)}\n    }}'
        for pid, label in transcript.broadcast
    ]
    errors = [
        f'    {{\n      "client": {"null" if e.client is None else e.client},\n'
        f'      "prompt_id": {s(e.prompt_id)},\n      "reason": {s(e.reason)}\n    }}'
        for e in transcript.errors
    ]
    return (
        "{\n"
        + _objects("broadcast", broadcast)
        + ",\n"
        + _objects("consensus", consensus)
        + f',\n  "downloaded_bytes": {transcript.downloaded_bytes},\n'
        + _objects("errors", errors)
        + ",\n"
        + _objects("responses", responses)
        + f',\n  "round": {transcript.round_index},\n'
        + f'  "uploaded_bytes": {transcript.uploaded_bytes}\n}}\n'
    )


def report_to_dict(report: SessionReport) -> dict:
    """JSON-ready session summary (round summaries, not full transcripts)."""
    out = {
        "rounds": len(report.transcripts),
        "total_uploaded_bytes": report.total_uploaded_bytes,
        "total_downloaded_bytes": report.total_downloaded_bytes,
        "round_summaries": [
            {
                "round": t.round_index,
                "uploaded_bytes": t.uploaded_bytes,
                "downloaded_bytes": t.downloaded_bytes,
                "broadcast_prompts": len(t.broadcast),
                "errors": len(t.errors),
            }
            for t in report.transcripts
        ],
    }
    if report.ledgers is not None:
        totals = [(ledger.client, *total_budget(ledger)) for ledger in report.ledgers]
        out["privacy"] = [
            {"client": c, "epsilon_total": eps, "delta_total": delta} for c, eps, delta in totals
        ]
    return out
