"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of (seed, sizes): it draws only from
``random.Random(seed)`` and never iterates a set or dict whose order could
depend on the hash seed, so two processes with different PYTHONHASHSEED
values write byte-identical inputs.  The program under test sees only the
files and objects built here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Workload sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same shape at a size where the smoke run finishes in seconds.
SIZES = {
    "full": {
        "markov-federation": {"clients": 50, "prompts": 100, "rounds": 2, "private": 40, "max_tokens": 32},
        "scripted-replay": {"clients": 40, "prompts": 100, "rounds": 2, "variants": 5, "answer_bytes": 170},
        "consensus-wide": {"k": 400, "prompts": 12},
    },
    "tiny": {
        "markov-federation": {"clients": 6, "prompts": 8, "rounds": 2, "private": 5, "max_tokens": 12},
        "scripted-replay": {"clients": 6, "prompts": 8, "rounds": 2, "variants": 3, "answer_bytes": 80},
        "consensus-wide": {"k": 40, "prompts": 3},
    },
}

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


def _lexicon(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pronounceable words, in draw order."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _perturb(words: list[str], pool: list[str], rate: float, rng: random.Random) -> list[str]:
    """Replace each word with a draw from ``pool`` with probability ``rate``."""
    return [rng.choice(pool) if rng.random() < rate else w for w in words]


def _sentence(words: list[str], pool: list[str], target_bytes: int, rng: random.Random) -> list[str]:
    """Extend ``words`` with draws from ``pool`` until the text reaches ``target_bytes``."""
    out = list(words)
    while len(" ".join(out)) < target_bytes:
        out.append(rng.choice(pool))
    return out


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


def _prompt_rows(subjects: list[str], topics: list[str]) -> list[dict]:
    return [
        {"prompt_id": f"p{j:03d}", "text": f"what does the {topics[j % len(topics)]} record say about {subject} ?"}
        for j, subject in enumerate(subjects)
    ]


def markov_federation(seed: int, directory: Path, sizes: dict) -> Path:
    """Markov clients trained on perturbed copies of shared topic facts.

    Each prompt has one fact: its subject followed by ~20 words from the
    prompt's topic vocabulary, so facts of one topic share words and an
    order-2 chain can wander between them.  Each client holds ``private``
    facts drawn without replacement, each with ~15% of its words swapped
    for other words of the same topic.
    """
    rng = random.Random(seed)
    n_topics = 10
    lexicon = _lexicon(rng, n_topics * 60 + sizes["prompts"] + n_topics)
    topics = lexicon[:n_topics]
    subjects = lexicon[n_topics : n_topics + sizes["prompts"]]
    vocab = lexicon[n_topics + sizes["prompts"] :]
    topic_vocab = [vocab[t * 60 : (t + 1) * 60] for t in range(n_topics)]
    prompts = _prompt_rows(subjects, topics)
    facts = [
        [subject] + [rng.choice(topic_vocab[j % n_topics]) for _ in range(rng.randint(18, 24))]
        for j, subject in enumerate(subjects)
    ]
    private = []
    for client in range(sizes["clients"]):
        for j in sorted(rng.sample(range(sizes["prompts"]), sizes["private"])):
            words = [facts[j][0]] + _perturb(facts[j][1:], topic_vocab[j % n_topics], 0.15, rng)
            private.append({"client": client, "prompt": prompts[j]["text"], "response": " ".join(words)})
    _write_jsonl(directory / "prompts.jsonl", prompts)
    _write_jsonl(directory / "private.jsonl", private)
    config = {
        "clients": {"type": "markov", "count": sizes["clients"], "order": 2, "private_file": "private.jsonl"},
        "rounds": sizes["rounds"],
        "prompt_file": "prompts.jsonl",
        "max_tokens": sizes["max_tokens"],
        "strategy": "centroid",
        "seed": seed,
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path


def scripted_replay(seed: int, directory: Path, sizes: dict) -> Path:
    """Scripted clients replaying one of a few answer variants per prompt.

    Each prompt has ``variants`` answers of ~``answer_bytes`` bytes: one
    base sentence and copies with one to three words changed.  Every
    (client, round, prompt) picks a variant with skewed weights, so each
    prompt carries at most ``variants`` distinct texts.
    """
    rng = random.Random(seed)
    lexicon = _lexicon(rng, 600 + sizes["prompts"] + 10)
    topics = lexicon[:10]
    subjects = lexicon[10 : 10 + sizes["prompts"]]
    vocab = lexicon[10 + sizes["prompts"] :]
    prompts = _prompt_rows(subjects, topics)
    weights = [2.0 ** -v for v in range(sizes["variants"])]
    rows = []
    variants_per_prompt = []
    for subject in subjects:
        base = _sentence([subject], vocab, sizes["answer_bytes"], rng)
        variants = [" ".join(base)]
        while len(variants) < sizes["variants"]:
            edited = list(base)
            for _ in range(rng.randint(1, 3)):
                edited[rng.randrange(1, len(edited))] = rng.choice(vocab)
            text = " ".join(edited)
            if text not in variants:
                variants.append(text)
        variants_per_prompt.append(variants)
    for client in range(sizes["clients"]):
        for round_index in range(1, sizes["rounds"] + 1):
            for prompt, variants in zip(prompts, variants_per_prompt):
                response = rng.choices(variants, weights=weights)[0]
                rows.append(
                    {"client": client, "round": round_index, "prompt_id": prompt["prompt_id"], "response": response}
                )
    _write_jsonl(directory / "prompts.jsonl", prompts)
    _write_jsonl(directory / "scripts.jsonl", rows)
    config = {
        "clients": {"type": "scripted", "path": "scripts.jsonl"},
        "rounds": sizes["rounds"],
        "prompt_file": "prompts.jsonl",
        "strategy": "global_medoid",
        "seed": seed,
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path


# Planted answer-family shares for consensus-wide; the rest are outliers.
# The largest family is well ahead of the second, so the consensus
# cluster it must produce is known in advance.
FAMILY_SHARES = (0.40, 0.22, 0.12, 0.08)
# Share of a family's members that repeat an earlier member's text exactly,
# chosen so ~30% of all responses are exact duplicates.
DUPLICATE_SHARE = 0.37


def consensus_wide(seed: int, sizes: dict) -> list[dict]:
    """Per-prompt response sets with planted families and outliers.

    Returns one dict per prompt: ``prompt_id``, ``texts`` (K texts in
    client order) and ``families`` (family index per client, -1 for an
    outlier).  Family members are the family's base sentence with one or
    two words changed; outliers are unrelated random sentences.
    """
    rng = random.Random(seed)
    vocab = _lexicon(rng, 3000)
    k = sizes["k"]
    out = []
    for j in range(sizes["prompts"]):
        family_sizes = [max(2, round(k * (share + rng.uniform(-0.02, 0.02)))) for share in FAMILY_SHARES]
        labels = [f for f, size in enumerate(family_sizes) for _ in range(size)]
        labels += [-1] * (k - len(labels))
        rng.shuffle(labels)
        bases = [_sentence([], vocab, 120, rng) for _ in FAMILY_SHARES]
        texts_by_family: list[list[str]] = [[] for _ in FAMILY_SHARES]
        texts = []
        for family in labels:
            if family < 0:
                texts.append(" ".join(_sentence([], vocab, 120, rng)))
                continue
            seen = texts_by_family[family]
            if seen and rng.random() < DUPLICATE_SHARE:
                text = rng.choice(seen)
            else:
                words = list(bases[family])
                for _ in range(rng.randint(1, 2)):
                    words[rng.randrange(len(words))] = rng.choice(vocab)
                text = " ".join(words)
                seen.append(text)
            texts.append(text)
        out.append({"prompt_id": f"p{j:03d}", "texts": texts, "families": labels})
    return out
