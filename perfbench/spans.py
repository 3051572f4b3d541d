"""In-memory span tracing around the calls into each semfed layer.

The program has no timing hooks of its own, so the benchmark records
spans from outside: ``instrument`` replaces the module attributes the
program calls (``semfed.protocol.run_round``, ``semfed.consensus.dbscan``,
...) with wrappers that time each call, and restores them on exit.
Clients are wrapped in a delegating ``Client`` proxy.  Spans stay in
memory and are written as JSONL only when the traced run ends.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly because one thread makes them all.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRIC = {
    "clients.generate": "clients.generate_s",
    "clients.train": "clients.train_s",
    "encoder.encode": "encoder.encode_s",
    "encoder.normalize": "encoder.encode_s",
    "consensus.consensus_for_prompt": "consensus.self_s",
    "consensus.dbscan": "consensus.dbscan_s",
    "consensus.select_consensus_cluster": "consensus.select_s",
    "consensus.normalized_centroid": "consensus.select_s",
    "consensus.select_representative": "consensus.representative_s",
    "consensus.medoid": "consensus.representative_s",
    "protocol.make_response": "protocol.meter_s",
    "protocol.meter_message": "protocol.meter_s",
    "protocol.run_round": "protocol.self_s",
    "cli.load_prompts": "cli.load_s",
    "cli.load_scripted_clients": "cli.load_s",
    "cli.load_private_datasets": "cli.load_s",
    "cli.transcript_to_dict": "cli.write_s",
    "cli.json_dumps": "cli.write_s",
    "cli.write_text": "cli.write_s",
}


class Tracer:
    """Collects (id, name, start, end, parent, op, round, prompt) spans and counts."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self.op: int | None = None
        self.round: int | None = None
        self.prompt: str | None = None

    def wrap(self, name, fn, on_result=None, on_error=None):
        """``fn`` with a span around every call.

        ``on_result(args, kwargs, result)`` updates counts after the span
        has closed; ``on_error(exc)`` sees an exception before it propagates.
        """

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op, self.round, self.prompt))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        child_total: dict[int, float] = {}
        for _, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_total[parent] = child_total.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for span_id, name, start, end, *_ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_total.get(span_id, 0.0)
        return out

    def write_jsonl(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "round", "prompt")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                row = dict(zip(keys, span))
                row["start"] -= self.t0
                row["end"] -= self.t0
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def _patched(patches):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every layer boundary of semfed while the block runs."""
    from semfed import cli, consensus, protocol
    from semfed.clients import Client
    from semfed.encoder import ZeroVectorError

    counts = tracer.counts

    class TracedClient(Client):
        """Delegates to a real client, timing generate and train."""

        def __init__(self, inner: Client) -> None:
            self._generate = tracer.wrap("clients.generate", inner.generate, on_result=_count_generate)
            self._train = tracer.wrap("clients.train", inner.train, on_result=_count_train)

        def generate(self, prompt_id, prompt_text, round_index, max_tokens):
            return self._generate(prompt_id, prompt_text, round_index, max_tokens)

        def train(self, private, pseudo, weights):
            return self._train(private, pseudo, weights)

    def _count_generate(args, kwargs, text):
        counts["clients.generate_calls"] += 1
        counts["clients.tokens_out"] += len(text.split())

    def _count_train(args, kwargs, result):
        private, pseudo = args[0], args[1]
        counts["clients.train_examples"] += len(private.examples) + len(pseudo)

    def _count_encode(args, kwargs, vec):
        text, config = args[0], args[1]
        counts["encoder.texts"] += 1
        counts["encoder.ngrams"] += max(0, len(text) - config.ngram_size + 1)

    def _count_zero(exc):
        if isinstance(exc, ZeroVectorError):
            counts["encoder.zero_vectors"] += 1

    def _count_dbscan(args, kwargs, clustering):
        n = len(clustering.labels)
        counts["consensus.pairs"] += n * (n - 1) // 2
        counts["consensus.clusters"] += clustering.num_clusters

    def _count_consensus(args, kwargs, result):
        counts["consensus.fallback_prompts"] += int(result.fallback_all_outliers)

    def _count_round(args, kwargs, transcript):
        counts["protocol.uploaded_bytes"] += transcript.uploaded_bytes
        counts["protocol.downloaded_bytes"] += transcript.downloaded_bytes
        counts["protocol.prompt_errors"] += len(transcript.errors)

    def _count_write(args, kwargs, result):
        counts["cli.output_bytes"] += len(args[1].encode("utf-8"))

    run_round = tracer.wrap("protocol.run_round", protocol.run_round, on_result=_count_round)

    def round_with_id(*args, **kwargs):
        tracer.round = args[3] if len(args) > 3 else kwargs["round_index"]
        try:
            return run_round(*args, **kwargs)
        finally:
            tracer.round = None

    consensus_for_prompt = tracer.wrap(
        "consensus.consensus_for_prompt", consensus.consensus_for_prompt, on_result=_count_consensus
    )

    def consensus_with_id(responses, *args, **kwargs):
        tracer.prompt = responses[0].prompt_id if len(responses) else None
        try:
            return consensus_for_prompt(responses, *args, **kwargs)
        finally:
            tracer.prompt = None

    real_json = cli.json

    class TracedJson:
        """The json module with ``dumps`` traced."""

        dumps = staticmethod(tracer.wrap("cli.json_dumps", real_json.dumps))

        def __getattr__(self, name):
            return getattr(real_json, name)

    class TracedPath(type(cli.Path())):
        """Path whose write_text is traced; joins keep the subclass."""

        write_text = tracer.wrap("cli.write_text", type(cli.Path()).write_text, on_result=_count_write)

    def traced(owner, attr, name, **hooks):
        return (owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    load_scripted = tracer.wrap("cli.load_scripted_clients", cli.load_scripted_clients)
    markov = cli.MarkovToyClient
    prompts = protocol.PublicPromptSet
    patches = [
        (protocol, "run_round", round_with_id),
        traced(protocol, "make_response", "protocol.make_response"),
        traced(protocol, "meter_message", "protocol.meter_message"),
        traced(protocol, "encode", "encoder.encode", on_result=_count_encode),
        traced(protocol, "normalize", "encoder.normalize", on_error=_count_zero),
        (protocol, "consensus_for_prompt", consensus_with_id),
        (consensus, "consensus_for_prompt", consensus_with_id),
        traced(consensus, "dbscan", "consensus.dbscan", on_result=_count_dbscan),
        traced(consensus, "select_consensus_cluster", "consensus.select_consensus_cluster"),
        traced(consensus, "normalized_centroid", "consensus.normalized_centroid"),
        traced(consensus, "select_representative", "consensus.select_representative"),
        traced(consensus, "medoid", "consensus.medoid"),
        (prompts, "from_jsonl", staticmethod(tracer.wrap("cli.load_prompts", prompts.from_jsonl))),
        (cli, "load_scripted_clients", lambda *a, **k: [TracedClient(c) for c in load_scripted(*a, **k)]),
        traced(cli, "load_private_datasets", "cli.load_private_datasets"),
        (cli, "MarkovToyClient", lambda *a, **k: TracedClient(markov(*a, **k))),
        traced(cli, "transcript_to_dict", "cli.transcript_to_dict"),
        (cli, "json", TracedJson()),
        (cli, "Path", TracedPath),
    ]
    with _patched(patches):
        yield
