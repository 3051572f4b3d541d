"""Independent reference implementations used only by the tests.

Everything here re-derives results from the documented rules with
deliberately different code paths than the package: a per-text,
per-n-gram encoder loop with no table, one ``np.linalg.norm`` per
vector for normalization, a Markov client that trains position by
position and samples with a linear scan, pure-Python distance loops
and member sums, a dict-and-bytes loop that merges repeated rows,
union-find clustering instead of BFS expansion, a JSONL reader that
reads the whole file and runs ``json.loads`` on each line, and
high-precision mpmath arithmetic for the closed-form bounds.  Nothing
imports from the modules under test, so agreement is evidence and not
tautology.
"""

from __future__ import annotations

import hashlib
import json
import math

import mpmath as mp
import numpy as np

OUTLIER = -1
TIE_TOL = 1e-12
ZERO_NORM_EPS = 1e-12


# ------------------------------------------------------------ encoder


def reference_encode(text: str, dimension: int, ngram_size: int, seed: int, lowercase: bool):
    """The hashed n-gram encoder as a plain loop: one keyed blake2b per
    n-gram, no memo, each (bucket, sign) added in text order."""
    if lowercase:
        text = text.lower()
    vec = np.zeros(dimension, dtype=np.float64)
    key = seed.to_bytes(8, "little")
    for start in range(len(text) - ngram_size + 1):
        ngram = text[start : start + ngram_size].encode("utf-8")
        value = int.from_bytes(hashlib.blake2b(ngram, digest_size=8, key=key).digest(), "little")
        vec[(value >> 1) % dimension] += 1.0 if value & 1 else -1.0
    return vec


def reference_encode_batch(texts, dimension: int, ngram_size: int, seed: int, lowercase: bool):
    """``reference_encode`` of each text, stacked as a (len(texts), dimension) matrix."""
    rows = [reference_encode(text, dimension, ngram_size, seed, lowercase) for text in texts]
    return np.stack(rows) if rows else np.zeros((0, dimension), dtype=np.float64)


def reference_normalize(vec):
    """One vector scaled to unit norm, ``vec / float(np.linalg.norm(vec))``;
    None when the norm is below ZERO_NORM_EPS."""
    norm = float(np.linalg.norm(vec))
    return None if norm < ZERO_NORM_EPS else vec / norm


# ------------------------------------------------------------ markov client


class ReferenceMarkovClient:
    """The word-level Markov client as plain loops: training visits every
    stream position and every context length there; sampling sums the
    sorted candidates' weights with numpy and scans for the first running
    total above ``rng.random() * total``, one scalar draw per step."""

    def __init__(self, order: int, seed: int):
        self.order = order
        self.seed = seed
        self.transitions: dict[tuple[str, ...], dict[str, float]] = {}

    def _absorb(self, prompt: str, response: str, weight: float) -> None:
        stream = prompt.split() + response.split()
        for i in range(len(stream) - 1):
            nxt = stream[i + 1]
            for length in range(1, min(self.order, i + 1) + 1):
                context = tuple(stream[i - length + 1 : i + 1])
                bucket = self.transitions.setdefault(context, {})
                bucket[nxt] = bucket.get(nxt, 0.0) + weight

    def train(self, private_examples, pseudo, alpha: float, beta: float) -> None:
        for prompt, response in private_examples:
            self._absorb(prompt, response, alpha)
        for prompt, response in pseudo:
            self._absorb(prompt, response, beta)

    def _next_word(self, context: list[str], rng: np.random.Generator) -> str | None:
        for lo in range(max(0, len(context) - self.order), len(context)):
            candidates = self.transitions.get(tuple(context[lo:]))
            if candidates:
                break
        else:
            return None
        words = sorted(candidates)
        weights = np.array([candidates[w] for w in words], dtype=np.float64)
        total = float(weights.sum())
        if total <= 0.0:
            return None
        draw = float(rng.random()) * total
        cumulative = 0.0
        for word, w in zip(words, weights):
            cumulative += float(w)
            if draw < cumulative:
                return word
        return words[-1]

    def generate(self, prompt_text: str, max_tokens: int) -> str:
        if max_tokens < 1:
            return ""
        text_hash = hashlib.blake2b(prompt_text.encode("utf-8"), digest_size=8).digest()
        rng = np.random.default_rng([self.seed, int.from_bytes(text_hash, "little")])
        context = prompt_text.split()
        produced: list[str] = []
        while len(produced) < max_tokens:
            word = self._next_word(context, rng)
            if word is None:
                break
            produced.append(word)
            context.append(word)
        return " ".join(produced)


# ------------------------------------------------------------ geometry


def dot(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += float(x) * float(y)
    return total


def cosine_dist(a, b) -> float:
    d = 1.0 - dot(a, b)
    if d < 0.0:
        return 0.0
    if d > 2.0:
        return 2.0
    return d


def reference_member_sum(embeddings, members) -> np.ndarray:
    """Column sums of the member rows, each column a Python float running
    total that adds the members in increasing order, starting from 0.0."""
    sums = [0.0] * len(embeddings[0])
    for m in sorted(members):
        for c in range(len(sums)):
            sums[c] = sums[c] + float(embeddings[m][c])
    return np.array(sums)


def reference_merge_rows(texts, points):
    """The distinct rows and each response's row, by a plain loop.

    A response shares the row of the first response with its text when
    the two vectors' bytes are equal; otherwise it opens a row of its
    own.  Rows are numbered in order of their first response.
    """
    first, rows, distinct = {}, [], []
    for i, (text, vec) in enumerate(zip(texts, points)):
        head = first.setdefault(text, i)
        if head != i and np.asarray(points[head]).tobytes() == np.asarray(vec).tobytes():
            rows.append(rows[head])
        else:
            rows.append(len(distinct))
            distinct.append(np.asarray(vec))
    return distinct, rows


# ------------------------------------------------------------ dbscan


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def reference_dbscan(embeddings, eps: float, min_pts: int, dist=None, counts=None) -> list[int]:
    """Brute-force O(K^2) DBSCAN with the deterministic numbering rule.

    Core components are found with union-find over all core-core pairs
    within eps; components are numbered by their smallest core point;
    border points join the lowest-numbered cluster among the core
    points that reach them.  Neighbours are read from ``dist`` (a K x K
    nested sequence) when given, else from ``cosine_dist`` of every
    pair of embeddings.  ``counts[i]``, when given, is how many copies
    of point i there are, all 0 apart: a point's neighbours number the
    copies within eps, summed as Python ints, and each copy has the
    point's label.
    """
    n = len(embeddings)
    if dist is None:
        dist = [[cosine_dist(embeddings[i], embeddings[j]) for j in range(n)] for i in range(n)]
    counts = [1] * n if counts is None else [int(c) for c in counts]
    within = [[dist[i][j] <= eps for j in range(n)] for i in range(n)]
    core = [sum(c for c, w in zip(counts, within[i]) if w) >= min_pts for i in range(n)]

    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and within[i][j]:
                uf.union(i, j)

    roots = sorted({uf.find(i) for i in range(n) if core[i]})
    cluster_of_root = {root: num for num, root in enumerate(roots)}
    labels = [OUTLIER] * n
    for i in range(n):
        if core[i]:
            labels[i] = cluster_of_root[uf.find(i)]
    for i in range(n):
        if core[i]:
            continue
        claims = [labels[j] for j in range(n) if core[j] and within[i][j]]
        if claims:
            labels[i] = min(claims)
    return labels


# ------------------------------------------------------------ consensus


def _avg_pairwise(members, distance) -> float:
    """Mean of ``distance(a, b)`` over unordered member pairs; 0.0 below two members."""
    if len(members) < 2:
        return 0.0
    total = 0.0
    count = 0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            total += distance(members[a], members[b])
            count += 1
    return total / count


def reference_select_cluster(labels, distance) -> list[int]:
    """The consensus cluster's positions under the full selection chain.

    Every cluster is visited in id order: a larger cluster replaces the
    incumbent; an equal-size one replaces it when its mean pairwise
    ``distance`` is smaller by more than TIE_TOL, or within TIE_TOL and
    its smallest position is smaller.  All positions when every label is
    OUTLIER.
    """
    n = len(labels)
    num_clusters = len({lab for lab in labels if lab != OUTLIER})
    if num_clusters == 0:
        return list(range(n))
    members = None
    best_size = -1
    best_spread = 0.0
    for cluster in range(num_clusters):
        cluster_members = [i for i in range(n) if labels[i] == cluster]
        spread = _avg_pairwise(cluster_members, distance)
        if members is None or len(cluster_members) > best_size:
            members, best_size, best_spread = cluster_members, len(cluster_members), spread
        elif len(cluster_members) == best_size:
            if spread < best_spread - TIE_TOL:
                members, best_spread = cluster_members, spread
            elif abs(spread - best_spread) <= TIE_TOL and cluster_members[0] < members[0]:
                members, best_spread = cluster_members, spread
    return members


def reference_closest(members, scores, texts):
    """The eager selection scan: members in the order given, each with its
    score and the UTF-8 length of its text.  A member replaces the
    incumbent when its score is lower by more than TIE_TOL, or within
    TIE_TOL with fewer bytes; any other tie keeps the incumbent."""
    best = None
    best_score = 0.0
    best_len = 0
    for m, score in zip(members, scores):
        blen = len(texts[m].encode("utf-8"))
        if best is None or score < best_score - TIE_TOL:
            best, best_score, best_len = m, score, blen
        elif abs(score - best_score) <= TIE_TOL and blen < best_len:
            best, best_score, best_len = m, score, blen
    return best


def _best_by_distance(members, embeddings, texts, score_fn):
    """Scan members in order: score (tol ties), byte length, then index."""
    return reference_closest(members, [score_fn(m) for m in members], texts)


def reference_consensus(clients, texts, embeddings, eps: float, min_pts: int):
    """Full consensus pipeline, re-derived: returns a result dict.

    clients are the ids parallel to texts/embeddings; output members
    and representative are client ids.
    """
    labels = reference_dbscan(embeddings, eps, min_pts)
    fallback = all(lab == OUTLIER for lab in labels)
    members = reference_select_cluster(
        labels, lambda a, b: cosine_dist(embeddings[a], embeddings[b])
    )

    dim = len(embeddings[0])
    sums = [0.0] * dim
    for m in members:
        for c in range(dim):
            sums[c] = sums[c] + float(embeddings[m][c])
    norm = math.sqrt(sum(s * s for s in sums))
    if norm < 1e-12:
        rep = _best_by_distance(
            members,
            embeddings,
            texts,
            lambda m: (
                sum(cosine_dist(embeddings[m], embeddings[o]) for o in members if o != m)
                / (len(members) - 1)
                if len(members) > 1
                else 0.0
            ),
        )
    else:
        centroid = [s / norm for s in sums]
        rep = _best_by_distance(
            members, embeddings, texts, lambda m: cosine_dist(embeddings[m], centroid)
        )

    return {
        "labels": labels,
        "members": [clients[m] for m in members],
        "representative": clients[rep],
        "pseudo_label": texts[rep],
        "fallback": fallback,
    }


def reference_global_medoid(clients, texts, embeddings):
    """Representative minimizing mean distance to every other response."""
    n = len(embeddings)
    members = list(range(n))
    rep = _best_by_distance(
        members,
        embeddings,
        texts,
        lambda m: (
            sum(cosine_dist(embeddings[m], embeddings[o]) for o in members if o != m) / (n - 1)
            if n > 1
            else 0.0
        ),
    )
    return clients[rep], texts[rep]


# ------------------------------------------------------------ jsonl reader


_TYPE_NAMES = {
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    list: "array",
    dict: "object",
    type(None): "null",
}


def reference_check(value, kind: type, what: str):
    """The exact-JSON-type rule as a case analysis: a float field takes a
    finite number (an int converted, one too large for a float is
    infinite); any other field takes exactly its type, and a string no
    surrogate code point."""
    if kind is float:
        if type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if type(value) is not float:
            raise ValueError(f"{what} must be a JSON number, got {_TYPE_NAMES[type(value)]}")
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite, got {value}")
        return value
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {_TYPE_NAMES[kind]}, got {_TYPE_NAMES[type(value)]}")
    if kind is str and any(0xD800 <= ord(ch) <= 0xDFFF for ch in value):
        raise ValueError(f"{what} holds a lone surrogate")
    return value


def reference_read_rows(path, **fields: type) -> list:
    """Every ``(lineno, values)`` row of a JSONL file, read whole and parsed
    one line at a time with ``json.loads``; a bad line raises ValueError
    with ``path:lineno:`` and the reason."""
    with open(path, "rb") as fh:
        pieces = fh.read().split(b"\n")
    lines = [piece + b"\n" for piece in pieces[:-1]] + ([pieces[-1]] if pieces[-1] else [])
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        prefix = f"{path}:{lineno}: "
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(prefix + str(exc)) from None
        if not text:
            continue
        try:
            row = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{prefix}invalid JSON: {exc}") from None
        if not isinstance(row, dict) or not all(name in row for name in fields):
            raise ValueError(f"{prefix}expected keys {', '.join(fields)} in a JSON object")
        try:
            rows.append((lineno, tuple(reference_check(row[n], k, n) for n, k in fields.items())))
        except ValueError as exc:
            raise ValueError(prefix + str(exc)) from None
    return rows


# ------------------------------------------------------------ bounds


def mp_delta(grad_bound, kl_shift, label_noise, public_batch, param_dim, total_steps, confidence):
    """delta bound at 60 decimal digits."""
    with mp.workdps(60):
        g = mp.mpf(grad_bound)
        shift = g * mp.sqrt(2 * mp.mpf(kl_shift))
        noise = 2 * g * mp.mpf(label_noise)
        log_term = param_dim * mp.log(5) + mp.log(2 * mp.mpf(total_steps) / mp.mpf(confidence))
        conc = 4 * g * mp.sqrt((mp.mpf(2) / public_batch) * log_term)
        return shift + noise + conc


def mp_stationarity(
    grad_bound,
    kl_shift,
    label_noise,
    public_batch,
    param_dim,
    total_steps,
    confidence,
    smoothness,
    step_size,
    noise_var,
    heterogeneity,
    init_gap,
):
    """Stationarity bound total at 60 decimal digits."""
    with mp.workdps(60):
        delta = mp_delta(
            grad_bound, kl_shift, label_noise, public_batch, param_dim, total_steps, confidence
        )
        descent = 4 * mp.mpf(init_gap) / (mp.mpf(step_size) * total_steps)
        noise = 2 * mp.mpf(smoothness) * mp.mpf(step_size) * (
            mp.mpf(noise_var) + mp.mpf(heterogeneity) / 4
        )
        bias = mp.mpf(3) / 4 * delta * delta
        return descent + noise + bias
