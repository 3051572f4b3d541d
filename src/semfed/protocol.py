"""Round orchestration with exact byte metering over an in-process transport.

One round runs four phases: each client optionally retrains on its
private data, every client answers every public prompt, the server
embeds the responses and runs per-prompt consensus, and the resulting
(prompt id, pseudo-label) pairs are broadcast back for a joint training
pass.  Uploads are the UTF-8 byte lengths of the response payloads;
downloads are the pseudo-label bytes times the number of receiving
clients.  Message framing, ids and serialization overhead are
deliberately excluded so measured totals match the closed-form
calculators byte for byte.

Consensus failures on a prompt (for example, every client generated an
un-embeddable empty string) never abort the round: the prompt is
dropped from that round's broadcast and the reason is recorded on the
transcript.

Determinism: the phases run in one thread in a fixed order, per-prompt
consensus is pure, and all transcript collections are sorted before
emission, so reruns give byte-identical output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .clients import Client, PrivateDataset, TrainingWeights
from .consensus import ClusterParams, ConsensusResult, SelectionStrategy, consensus_for_prompt
# ``encode`` is not called here; it stays importable from this module,
# next to ``normalize``, for tools that wrap the encoder by that name.
from .encoder import EncoderConfig, ZeroVectorError, encode, encode_batch, normalize
from .jsonl import read_rows
from .privacy import PrivacyLedger, RoundBudget, record_round, total_budget

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
    """One client's answer to one prompt, with its metered upload size."""

    client: int
    prompt_id: str
    text: str
    byte_len: int

    def __post_init__(self) -> None:
        if self.byte_len != meter_message(self.text):
            raise ValueError(
                f"byte_len {self.byte_len} does not match text ({meter_message(self.text)} bytes)"
            )


def make_response(client: int, prompt_id: str, text: str) -> ResponseRecord:
    return ResponseRecord(client=client, prompt_id=prompt_id, text=text, byte_len=meter_message(text))


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

    responses are sorted by (client, prompt_id), consensus entries and
    broadcast pairs by prompt_id, errors by (prompt_id, client).
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
    raw_vectors: Sequence[np.ndarray],
    rows: Sequence[int],
    cluster: ClusterParams,
    strategy: SelectionStrategy,
) -> tuple[PromptConsensus | None, ConsensusResult | None, list[PromptError]]:
    """Normalize one prompt's raw vectors and run consensus.

    Record i's raw vector is ``raw_vectors[rows[i]]``: either the matrix
    and row index from ``encode_responses``, or one vector per record
    with ``rows = range(len(records))``.  Each raw vector is normalized
    once, however many records share it.  A record whose vector is all
    zero (an empty or too-short text) is dropped with a
    ``zero_embedding`` error; a prompt left with no response gets a
    ``no_embeddable_responses`` error and no outcome.  Returns the
    transcript entry, the full result (which also holds the centroid),
    and the errors.
    """
    units: list[np.ndarray | None] = []
    for raw in raw_vectors:
        try:
            units.append(normalize(raw))
        except ZeroVectorError:
            units.append(None)
    usable: list[ResponseRecord] = []
    embeddings = []
    errors: list[PromptError] = []
    for record, row in zip(records, rows):
        if units[row] is None:
            errors.append(PromptError(prompt_id, record.client, "zero_embedding"))
        else:
            embeddings.append(units[row])
            usable.append(record)
    if not usable:
        errors.append(PromptError(prompt_id, None, "no_embeddable_responses"))
        return None, None, errors
    result = consensus_for_prompt(usable, embeddings, cluster, strategy)
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
    retrain_private_every_round is False and round_index > 1.
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

    responses: list[ResponseRecord] = []
    for index, client in enumerate(clients):
        if do_private_pass:
            client.train(private_datasets[index], [], params.weights)
        for prompt in prompts.prompts:
            text = client.generate(prompt.prompt_id, prompt.text, round_index, params.max_tokens)
            responses.append(make_response(index, prompt.prompt_id, text))
    responses.sort(key=lambda r: (r.client, r.prompt_id))
    uploaded = sum(r.byte_len for r in responses)

    by_prompt = {p.prompt_id: [] for p in prompts.prompts}
    for rec in responses:
        by_prompt[rec.prompt_id].append(rec)

    consensus_entries: list[PromptConsensus] = []
    errors: list[PromptError] = []
    for prompt in prompts.prompts:
        records = by_prompt[prompt.prompt_id]
        raw, rows = encode_responses(records, params.encoder)
        outcome, _, errs = consensus_phase(
            prompt.prompt_id, records, raw, rows, params.cluster, params.strategy
        )
        errors.extend(errs)
        if outcome is not None:
            consensus_entries.append(outcome)
    consensus_entries.sort(key=lambda c: c.prompt_id)
    errors.sort(key=lambda e: (e.prompt_id, -1 if e.client is None else e.client))

    broadcast = tuple((c.prompt_id, c.pseudo_label) for c in consensus_entries)
    downloaded = len(clients) * sum(meter_message(label) for _, label in broadcast)

    prompt_text = {p.prompt_id: p.text for p in prompts.prompts}
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
    """Run ``num_rounds`` rounds and accumulate byte totals and ledgers."""
    if num_rounds < 1:
        raise ConfigError(f"num_rounds must be >= 1, got {num_rounds}")

    ledgers: list[PrivacyLedger] | None = None
    if params.dp_round_budget is not None:
        ledgers = [PrivacyLedger(client=i) for i in range(len(clients))]

    transcripts: list[RoundTranscript] = []
    for round_index in range(1, num_rounds + 1):
        transcripts.append(run_round(clients, prompts, params, round_index, private_datasets))
        if ledgers is not None:
            eps, delta = params.dp_round_budget
            budget = RoundBudget(round_index=round_index, epsilon=eps, delta=delta)
            ledgers = [record_round(ledger, budget) for ledger in ledgers]

    return SessionReport(
        transcripts=tuple(transcripts),
        total_uploaded_bytes=sum(t.uploaded_bytes for t in transcripts),
        total_downloaded_bytes=sum(t.downloaded_bytes for t in transcripts),
        ledgers=tuple(ledgers) if ledgers is not None else None,
    )


def transcript_to_dict(transcript: RoundTranscript) -> dict:
    """JSON-ready view of a round transcript, already canonically ordered."""
    return {
        "round": transcript.round_index,
        "responses": [
            {
                "client": r.client,
                "prompt_id": r.prompt_id,
                "text": r.text,
                "byte_len": r.byte_len,
            }
            for r in transcript.responses
        ],
        "consensus": [
            {
                "prompt_id": c.prompt_id,
                "clients": list(c.clients),
                "labels": list(c.labels),
                "members": list(c.members),
                "representative": c.representative,
                "pseudo_label": c.pseudo_label,
                "fallback_all_outliers": c.fallback_all_outliers,
            }
            for c in transcript.consensus
        ],
        "broadcast": [
            {"prompt_id": pid, "pseudo_label": label} for pid, label in transcript.broadcast
        ],
        "uploaded_bytes": transcript.uploaded_bytes,
        "downloaded_bytes": transcript.downloaded_bytes,
        "errors": [
            {"prompt_id": e.prompt_id, "client": e.client, "reason": e.reason}
            for e in transcript.errors
        ],
    }


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
        ledger_rows = []
        for ledger in report.ledgers:
            eps, delta = total_budget(ledger)
            ledger_rows.append(
                {"client": ledger.client, "epsilon_total": eps, "delta_total": delta}
            )
        out["privacy"] = ledger_rows
    return out
