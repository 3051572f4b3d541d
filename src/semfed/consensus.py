"""Per-prompt consensus over response embeddings.

The pipeline: density-cluster the unit embeddings of all submitted
responses under cosine distance, pick the consensus cluster (largest;
ties broken by compactness, then by smallest index), form its
normalized centroid, and return the member response closest to that
centroid as the pseudo-label.  The pseudo-label is always one of the
submitted responses verbatim, never a synthesized string.  Only that
default rule reads the centroid to choose; under the other rules the
result computes it when it is first read.

Every step is deterministic, including the classically order-dependent
parts of DBSCAN: clusters are numbered by their smallest core point and
border points join the lowest-numbered cluster that claims them.  A
cluster is a set, so ``dbscan`` grows it a whole BFS frontier per numpy
call and assigns every border point with one masked minimum; its cost
follows the number of clusters and BFS levels, not of points.
``select_consensus_cluster`` counts sizes with one ``np.bincount`` and
compares spreads only among clusters tied for the largest size.
Distance comparisons treat differences within TIE_TOL as exact ties so
the secondary tie-breakers (response byte length, then smallest index)
fire only on genuinely constructed ties, not on float noise.

``cosine_distances`` is the one distance rule, clip(1 - A @ B.T, 0, 2),
computed as a single matrix product.  ``consensus_for_prompt`` builds
the pairwise matrix once per prompt, exactly symmetric (one triangle
of a symmetric rank-k update, mirrored) with an exact zero diagonal,
and DBSCAN, the cluster choice and the medoid all read it; only the
distance to the centroid is a separate members x 1 product.  The unit
check reads that product's diagonal, the squared norms, before it is
zeroed: a row is unit when the square root lies within UNIT_NORM_TOL
of 1.  Whether a pair near eps counts as a DBSCAN neighbour is decided
by the matrix value.

Every prompt runs over a row index: the embeddings are the prompt's
distinct rows and ``rows`` gives each response's row (as
``protocol.consensus_phase`` passes them).  Without ``rows`` the
embeddings are one per response, and ``distinct_rows`` puts a response
that repeats an earlier text with a bit-identical vector on that
text's first row, so direct calls run over distinct rows too.  The
matrix is built over the rows only, so responses that share a row are
exactly 0 apart.  DBSCAN weighs each row by the number of responses on
it and its labels are gathered to the responses; the medoid and the
centroid rule score each distinct member row once and offer the first
response on it.  The centroid still sums the member responses' rows
one by one, in response order.

Degenerate inputs are handled, not hidden:

* every point an outlier: the consensus set falls back to all clients;
* centroid sum exactly cancelling (antipodal embeddings): selection
  falls back to the medoid of the consensus set.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .encoder import UNIT_NORM_TOL, ZERO_NORM_EPS, _text_u64, is_unit

__all__ = [
    "OUTLIER",
    "TIE_TOL",
    "ZeroSumError",
    "ClusterParams",
    "Clustering",
    "SelectionRule",
    "SelectionStrategy",
    "ConsensusResult",
    "cosine_distances",
    "dbscan",
    "average_pairwise_distance",
    "select_consensus_cluster",
    "normalized_centroid",
    "select_representative",
    "medoid",
    "distinct_rows",
    "consensus_for_prompt",
]

# Label for points that belong to no cluster.
OUTLIER = -1
# Absolute tolerance under which two distances count as tied.
TIE_TOL = 1e-12


class ZeroSumError(ValueError):
    """Raised when embeddings sum to (near-)zero so no centroid exists."""


@dataclass(frozen=True)
class ClusterParams:
    """DBSCAN parameters: cosine-distance radius and core threshold.

    min_pts counts the point itself, matching the convention that a
    point is always within eps of itself.
    """

    eps: float = 0.3
    min_pts: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.eps <= 2.0:
            raise ValueError(f"eps must be in (0, 2], got {self.eps}")
        if isinstance(self.min_pts, bool) or not isinstance(self.min_pts, int):
            raise ValueError(f"min_pts must be an int, got {self.min_pts!r}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass(frozen=True)
class Clustering:
    """Cluster labels per input position; OUTLIER (-1) marks noise.

    Labels are 0..num_clusters-1.  Cluster numbering follows the
    smallest core point, so equal inputs always produce equal labels.
    """

    labels: tuple[int, ...]
    num_clusters: int

    def __post_init__(self) -> None:
        seen = set(self.labels) - {OUTLIER}
        if seen != set(range(self.num_clusters)):
            raise ValueError(
                f"labels {self.labels} inconsistent with num_clusters={self.num_clusters}"
            )

    @classmethod
    def _of(cls, labels: np.ndarray, num_clusters: int) -> Clustering:
        """The Clustering of an integer label array, which it keeps as ``_array``.

        The caller hands the array over and writes to it no more.
        """
        clustering = cls(tuple(labels.tolist()), num_clusters)
        clustering.__dict__["_array"] = labels
        return clustering

    @cached_property
    def _array(self) -> np.ndarray:
        """The labels as an integer array, built when first read unless ``_of`` kept one."""
        return np.fromiter(self.labels, np.intp, len(self.labels))


class SelectionRule(Enum):
    """How a representative is chosen once the consensus set is fixed."""

    CENTROID = "centroid"
    RANDOM_IN_CLUSTER = "random_in_cluster"
    GLOBAL_MEDOID = "global_medoid"


@dataclass(frozen=True)
class SelectionStrategy:
    """Selection rule plus the seed used by the randomized variant.

    CENTROID is the default pipeline.  RANDOM_IN_CLUSTER draws a uniform
    member of the consensus set with an RNG derived from (seed,
    prompt_id), so repeated calls agree.  GLOBAL_MEDOID ignores the
    clustering and picks the response with the smallest mean distance to
    all other responses; its consensus set is therefore all clients.
    """

    rule: SelectionRule = SelectionRule.CENTROID
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"strategy seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ConsensusResult:
    """Everything the server derives from one prompt's responses.

    Indices (consensus_members, representative) are client ids taken
    from the submitted records.  pseudo_label is byte-identical to the
    representative client's response text.

    ``centroid`` is the unit-norm centroid of the consensus set, or the
    representative's own embedding when the members' sum cancels.  Only
    the CENTROID rule needs it to choose, so it comes in through
    ``_centroid``; otherwise it is computed from ``_points`` (the
    caller's unit rows, not a copy) and ``_rows`` (each response's row
    index into them) when first read.  When the call merged repeated
    responses itself, ``_points`` is the matrix it was given, one row
    per response, and ``_rows`` the identity, so the centroid sums the
    same bits as over the merged rows.
    """

    clustering: Clustering
    consensus_members: tuple[int, ...]
    representative: int
    pseudo_label: str
    fallback_all_outliers: bool
    _points: np.ndarray = field(repr=False, compare=False)
    _member_positions: tuple[int, ...] = field(repr=False, compare=False)
    _representative_position: int = field(repr=False, compare=False)
    _rows: np.ndarray = field(repr=False, compare=False)
    _centroid: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.representative not in self.consensus_members:
            raise ValueError("representative must be a consensus member")

    @cached_property
    def centroid(self) -> np.ndarray:
        centroid = self._centroid
        if centroid is None:
            try:
                centroid = normalized_centroid(self._member_positions, self._points, self._rows)
            except ZeroSumError:
                centroid = self._points[self._rows[self._representative_position]]
        if not is_unit(centroid):
            raise ValueError("centroid must have unit norm")
        return centroid


def _pairwise(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cosine_distances(rows)`` and the diagonal of ``rows @ rows.T``.

    The rows are made C-contiguous, so numpy forms the product by BLAS's
    symmetric rank-k update, which computes one triangle and mirrors it;
    a general product of another layout may differ from its transpose in
    the last bit.  The diagonal, each row's squared norm, is copied before
    it is zeroed.  Non-finite rows raise no floating-point warning here;
    their squared norms show them.
    """
    rows = np.ascontiguousarray(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        dist = rows @ rows.T
    squares = dist.diagonal().copy()
    np.subtract(1.0, dist, out=dist)
    dist.clip(0.0, 2.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist, squares


def cosine_distances(
    rows: Sequence[np.ndarray], others: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Cosine distances clip(1 - rows @ others.T, 0, 2) between unit rows.

    With ``others`` omitted the result is the pairwise matrix of
    ``rows``, exactly symmetric with an exact zero diagonal: the product
    is formed from C-ordered rows, which numpy hands to BLAS's symmetric
    rank-k update, so the two triangles are one computation.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if others is None:
        return _pairwise(rows)[0]
    dist = rows @ np.asarray(others, dtype=np.float64).T
    np.subtract(1.0, dist, out=dist)
    return dist.clip(0.0, 2.0, out=dist)


def dbscan(
    dist: np.ndarray, params: ClusterParams, counts: np.ndarray | None = None
) -> Clustering:
    """Deterministic DBSCAN over a pairwise cosine-distance matrix.

    ``dist`` is the K x K matrix from ``cosine_distances``.  Point i
    stands for ``counts[i]`` responses (one each when ``counts`` is
    omitted), and it is core when the counts within eps of it, its own
    included, sum to at least min_pts.  The labels are those of the
    points themselves; they equal the labels of every copy when each
    point is repeated ``counts[i]`` times at distance 0 and the points
    are numbered by their first copies.  Clusters are the connected
    components of core points under the within-eps relation.  The
    lowest core point not yet labelled opens the next cluster, which
    grows a whole BFS level at a time (every unlabelled core point
    within eps of the current frontier), so cluster k has the k-th
    smallest leading core point.  Non-core points within eps of a core
    point join the lowest-numbered such cluster, found with one masked
    minimum over their whole rows; the rest are outliers.

    The sums are one matrix product, read back as integers: in float32
    while the counts total at most 2**24, where every partial sum of
    non-negative integers is exact, and in int64 above that.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] == 0 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"dbscan needs a non-empty square distance matrix, got shape {dist.shape}")
    counts = np.ones(len(dist)) if counts is None else np.asarray(counts)
    if counts.shape != dist.shape[:1]:
        raise ValueError(f"got {dist.shape[0]} points but counts of shape {counts.shape}")
    within = dist <= params.eps
    dtype = np.float32 if counts.sum() <= 1 << 24 else np.int64
    sums = within.astype(dtype) @ counts.astype(dtype)
    core = sums.astype(np.int64) >= params.min_pts

    labels = np.full(dist.shape[0], OUTLIER)
    todo = core.copy()
    next_id = 0
    # np.count_nonzero is a plain C call; ndarray.any goes through a Python wrapper.
    while np.count_nonzero(todo):
        start = int(todo.argmax())
        labels[start] = next_id
        todo[start] = False
        # The first level reads a row view; later ones merge the frontier's rows.
        reached = within[start] & todo
        while np.count_nonzero(reached):
            labels[reached] = next_id
            todo &= ~reached
            reached = np.logical_or.reduce(within[reached]) & todo
        next_id += 1

    border = np.flatnonzero(~core)
    if border.size and next_id:
        # Every core point is labelled by now; a non-core neighbour claims nothing.
        claim = np.where(core, labels, next_id)
        lowest = np.where(within[border], claim, next_id).min(axis=1)
        labels[border] = np.where(lowest < next_id, lowest, OUTLIER)
    return Clustering._of(labels, next_id)


def average_pairwise_distance(members: Sequence[int], dist: np.ndarray) -> float:
    """Mean distance over unordered member pairs; 0.0 for singletons.

    ``dist`` is the pairwise matrix of all points; the members' block is
    read from it.
    """
    n = len(members)
    if n < 2:
        return 0.0
    # The block is symmetric, so its full sum counts every pair twice.
    return float(dist[np.ix_(members, members)].sum()) / (n * (n - 1))


def select_consensus_cluster(
    clustering: Clustering, dist: np.ndarray, rows: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Pick the consensus cluster's member positions.

    Largest cluster wins, sizes counted with one ``np.bincount``.  Tied
    largest clusters, taken in id order, compare average pairwise
    distance read from the pairwise matrix ``dist`` (smaller is better,
    ties within TIE_TOL), then the smallest member position, through
    ``_tie_winner``; spreads are computed only when clusters tie.  When
    everything is an outlier the consensus set falls back to all
    positions.  Position i's point is row ``rows[i]`` of ``dist`` (row i
    when ``rows`` is omitted), and the spreads are read through it.
    """
    if clustering.num_clusters == 0:
        return tuple(range(len(clustering.labels)))
    labels = clustering._array
    sizes = np.bincount(labels + 1)[1:]
    tied = [np.flatnonzero(labels == c) for c in np.flatnonzero(sizes == sizes.max()).tolist()]
    spreads = [0.0]
    if len(tied) > 1:
        rows = np.arange(len(labels)) if rows is None else np.asarray(rows)
        spreads = [average_pairwise_distance(rows[m], dist) for m in tied]
    return tuple(tied[_tie_winner(spreads, [m[0] for m in tied])].tolist())


def normalized_centroid(
    members: Sequence[int], embeddings: Sequence[np.ndarray], rows: Sequence[int] | None = None
) -> np.ndarray:
    """Unit-norm mean direction of the member embeddings.

    Member i's embedding is ``embeddings[rows[i]]``, or ``embeddings[i]``
    when ``rows`` is omitted.  Each column is a running total from +0.0
    over the members in increasing order.  Over two or more columns
    ``np.add.reduce`` along axis 0 adds whole rows in that order; one
    column is a single contiguous run, which it would sum pairwise, so
    that column is accumulated instead.  Raises ZeroSumError on
    antipodal cancellation.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    rows = np.arange(len(points)) if rows is None else np.asarray(rows)
    members = sorted(members)
    if not members:
        raise ValueError("centroid of an empty member set is undefined")
    # A row index copies the rows in C order, so axis 0 is the outer loop.
    block = points[rows[members]]
    if block.shape[1] == 1:
        # + 0.0 turns a -0.0 total into the +0.0 a sum from +0.0 ends at.
        total = np.add.accumulate(block)[-1] + 0.0
    else:
        total = np.add.reduce(block, axis=0, initial=0.0)
    norm = float(np.linalg.norm(total))
    if norm < ZERO_NORM_EPS:
        raise ZeroSumError(f"member embeddings sum to norm {norm!r}; no centroid direction")
    return total / norm


def _tie_winner(primary: Sequence[float], secondary: Sequence[int]) -> int:
    """Index of the best candidate, scanning candidates in the order given.

    A challenger replaces the incumbent when its primary value is lower
    by more than TIE_TOL, or within TIE_TOL with a lower secondary key;
    any remaining tie keeps the earlier candidate.
    """
    best = 0
    for i in range(1, len(primary)):
        p, top = primary[i], primary[best]
        if p < top - TIE_TOL or (abs(p - top) <= TIE_TOL and secondary[i] < secondary[best]):
            best = i
    return best


def _closest(members: Sequence[int], scores: np.ndarray, responses: Sequence[str]) -> int:
    """Member with the lowest score, scanning members in the order given.

    Scores within TIE_TOL count as ties and prefer the shorter response
    in UTF-8 bytes; with members in increasing order the earlier member
    wins any remaining tie on position.
    """
    lengths = [len(responses[m].encode("utf-8")) for m in members]
    return members[_tie_winner(scores.tolist(), lengths)]


def _pick(
    members: list[int],
    member_rows: np.ndarray,
    used: np.ndarray,
    scores: np.ndarray,
    responses: Sequence[str],
) -> int:
    """What ``_closest`` picks from the first member of each row, in member order.

    ``members`` are increasing, ``member_rows[i]`` is the row of
    ``members[i]`` and ``scores[j]`` the score of row ``used[j]``, their
    distinct rows in increasing order.  Only the rows whose scores chain
    to the lowest in steps of at most 2 * TIE_TOL can win: each replaces
    a row more than 2 * TIE_TOL above them all (it is lower by more than
    TIE_TOL) and no such row replaces one of them.  A lone lowest row
    wins without the scan, which encodes the byte lengths of the chain.
    """
    best = int(scores.argmin())
    if np.count_nonzero(scores <= scores[best] + 2 * TIE_TOL) == 1:
        return members[int((member_rows == used[best]).argmax())]
    member_scores = scores[used.searchsorted(member_rows)]
    ranked = np.sort(scores)
    gaps = np.flatnonzero(ranked[1:] - ranked[:-1] > 2 * TIE_TOL)
    on_chain = np.flatnonzero(member_scores <= ranked[gaps[0] if gaps.size else -1])
    firsts: dict[int, int] = {}
    for position, row in zip(on_chain.tolist(), member_rows[on_chain].tolist()):
        firsts.setdefault(row, position)
    heads = list(firsts.values())
    return _closest([members[p] for p in heads], member_scores[heads], responses)


def select_representative(
    members: Sequence[int],
    embeddings: Sequence[np.ndarray],
    responses: Sequence[str],
    centroid: np.ndarray,
    rows: Sequence[int] | None = None,
) -> int:
    """Member position closest to the centroid.

    Ties within TIE_TOL prefer the shorter response in UTF-8 bytes, then
    the smaller position.  Member i's embedding is ``embeddings[rows[i]]``
    (row i without ``rows``); each distinct member row is scored once and
    stands for its first member.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    rows = np.arange(len(points)) if rows is None else np.asarray(rows)
    members = sorted(members)
    member_rows = rows[members]
    used = np.flatnonzero(np.bincount(member_rows, minlength=len(points)))
    scores = cosine_distances(points[used], np.asarray(centroid, dtype=np.float64)[None, :])[:, 0]
    return _pick(members, member_rows, used, scores, responses)


def medoid(
    members: Sequence[int],
    dist: np.ndarray,
    responses: Sequence[str],
    rows: Sequence[int] | None = None,
) -> int:
    """Member with the smallest mean distance to the other members.

    Member i is row ``rows[i]`` of the pairwise matrix ``dist`` (row i
    when ``rows`` is omitted).  Each distinct member row is scored once,
    as its entry of ``dist @ weights / (n - 1)`` with the weights the
    number of members on each row, and stands for its first member.
    Singleton member sets score 0.0 by convention.  Ties use the same
    byte-length-then-index chain as select_representative.
    """
    members = sorted(members)
    n = len(members)
    if n == 1:
        return members[0]
    rows = np.arange(len(dist)) if rows is None else np.asarray(rows)
    member_rows = rows[members]
    weights = np.bincount(member_rows, minlength=len(dist)).astype(np.float64)
    used = np.flatnonzero(weights)
    return _pick(members, member_rows, used, (dist @ weights)[used] / (n - 1), responses)


def distinct_rows(texts: Sequence[str], points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the rows of responses that repeat an earlier text with the same bits.

    Response i's vector is row i of the float64 matrix ``points``; a
    count mismatch raises ValueError.  A response shares the row of the
    first response with the same text when their vectors are
    bit-identical, compared as ``uint64`` so that ``-0.0`` and ``0.0``
    differ; otherwise it keeps a row of its own.  Returns the distinct
    rows and each response's row, numbered by first use, as
    ``consensus_for_prompt`` takes them.  Responses on one row share
    their text, so offering only a row's first response to the
    byte-length tie-break picks what one row per response would.

    The text heads come from one dict pass, and only the repeats are
    bit-checked.  Without a repeated text the rows are returned as given.
    """
    k = len(texts)
    if k != len(points):
        raise ValueError(f"got {k} responses but {len(points)} embeddings")
    first: dict[str, int] = {}
    owner = np.fromiter(map(first.setdefault, texts, range(k)), np.intp, k)
    if len(first) == k:
        return points, owner
    repeats = np.flatnonzero(owner != np.arange(k))
    bits = points[repeats].view(np.uint64)
    differ = repeats[~(bits == points[owner[repeats]].view(np.uint64)).all(axis=1)]
    owner[differ] = differ
    kept = owner == np.arange(k)
    return points[kept], (np.cumsum(kept) - 1)[owner]


def _row_index(rows: Sequence[int], k: int, u: int) -> np.ndarray:
    """Each of k responses' row among u embeddings, checked.

    Every row must be used, and rows must be numbered by first use: the
    first response uses row 0, and every response uses a row already
    used or the next new one.  The check is one pass in Python, which
    beats numpy's per-call cost at a prompt's size; on a failure numpy
    finds the first fault of length, range, an unused row and order, in
    that order, and names it.
    """
    valid = False
    if len(rows) == k:
        top = -1
        for row in rows:
            if row > top:
                if row != top + 1:
                    break
                top = row
            elif row < 0:
                break
        else:
            valid = top == u - 1
    index = np.asarray(rows)
    if index.dtype.kind not in "iu":
        raise ValueError(f"rows must be integers, got {index.dtype}")
    if valid:
        return index
    if index.shape != (k,):
        raise ValueError(f"got {k} responses but {index.size} rows")
    outside = np.flatnonzero((index < 0) | (index >= u))
    if outside.size:
        p = int(outside[0])
        raise ValueError(
            f"row {index[p]} of the response at position {p} is out of range for {u} embeddings"
        )
    unused = np.flatnonzero(np.bincount(index, minlength=u) == 0)
    if unused.size:
        raise ValueError(f"embedding row {unused[0]} is used by no response")
    before = np.concatenate(([-1], np.maximum.accumulate(index)[:-1]))
    p = int(np.flatnonzero(index > before + 1)[0])
    raise ValueError(
        f"rows are not numbered by first use: the response at position {p} "
        f"uses row {index[p]} before row {before[p] + 1}"
    )


def consensus_for_prompt(
    responses: Sequence,
    embeddings: Sequence[np.ndarray],
    params: ClusterParams,
    strategy: SelectionStrategy = SelectionStrategy(),
    rows: Sequence[int] | None = None,
) -> ConsensusResult:
    """Run the full per-prompt consensus pipeline.

    ``responses`` are records with ``client`` (strictly increasing ints),
    ``prompt_id`` (identical across the batch) and ``text`` fields.
    ``embeddings`` are unit rows, and response i's vector is
    ``embeddings[rows[i]]``.  Without ``rows`` response i's vector is
    ``embeddings[i]``, and ``distinct_rows`` merges the responses that
    repeat an earlier text with the same bits onto one row; a count
    mismatch is raised before the merge.  Supplying embeddings
    explicitly lets callers swap in a real sentence encoder without
    touching this module.

    A given ``rows`` is taken as it is: every row must be used, and rows
    are numbered by first use (row 0 first, each new row one past the
    highest before it); responses on one row are taken to share their
    text.  The pairwise matrix is U x U over the rows, ``dbscan`` weighs
    each row by its number of responses and its row labels are gathered
    to the responses, so responses on one row are exactly 0 apart.  A
    non-unit row is named by the position of its first response when
    ``rows`` is omitted or each response has a row of its own, and
    otherwise as a row, with the first response that uses it.

    Reported members and the representative are client ids.  Only
    CENTROID selection computes the centroid here; when its direction
    cancels exactly, it falls back to the medoid of the consensus set
    and the recorded centroid is the representative's own embedding
    (the only unit direction that still describes the choice).  The
    other rules leave the centroid to be computed, by the same rule,
    when ``result.centroid`` is first read.
    """
    if len(responses) == 0:
        raise ValueError("consensus needs at least one response")
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("embeddings must be equal-length vectors")
    texts = [r.text for r in responses]
    if rows is None:
        distinct, index = distinct_rows(texts, points)
    else:
        distinct, index = points, _row_index(rows, len(responses), len(points))
    dist, squares = _pairwise(distinct)
    # A NaN squared norm fails the comparison, so it is not unit either.
    unit = np.abs(np.sqrt(squares) - 1.0) <= UNIT_NORM_TOL
    if not unit.all():
        bad = int(unit.argmin())
        # Rows are numbered by first use, so the first user of the first
        # bad row is the first response with a bad vector.
        user = int(np.argmax(index == bad))
        if rows is None or len(distinct) == len(responses):
            raise ValueError(f"embedding at position {user} is not unit norm")
        raise ValueError(
            f"embedding row {bad}, first used by the response at position {user}, is not unit norm"
        )
    clients = [r.client for r in responses]
    if not all(map(operator.lt, clients, clients[1:])):
        raise ValueError(f"client ids must be strictly increasing, got {clients}")
    prompt_ids = {r.prompt_id for r in responses}
    if len(prompt_ids) != 1:
        raise ValueError(f"responses span multiple prompts: {sorted(prompt_ids)}")

    by_row = dbscan(dist, params, np.bincount(index))
    # dbscan's row labels gathered to the responses once, as an array that
    # the cluster choice reads
    clustering = Clustering._of(by_row._array[index], by_row.num_clusters)
    fallback = clustering.num_clusters == 0
    if strategy.rule is SelectionRule.GLOBAL_MEDOID:
        member_positions = tuple(range(len(responses)))
    else:
        member_positions = select_consensus_cluster(clustering, dist, index)

    centroid = None
    if strategy.rule is SelectionRule.CENTROID:
        try:
            centroid = normalized_centroid(member_positions, distinct, index)
        except ZeroSumError:
            rep_pos = medoid(member_positions, dist, texts, index)
            centroid = distinct[index[rep_pos]]
        else:
            rep_pos = select_representative(member_positions, distinct, texts, centroid, index)
    elif strategy.rule is SelectionRule.RANDOM_IN_CLUSTER:
        prompt_id = next(iter(prompt_ids))
        rng = np.random.default_rng([strategy.seed, _text_u64(prompt_id)])
        rep_pos = member_positions[int(rng.integers(len(member_positions)))]
    else:  # GLOBAL_MEDOID
        rep_pos = medoid(member_positions, dist, texts, index)

    # The result keeps the caller's matrix, not the merged copy: a copy
    # held until the next call returns left glibc trimming the heap and
    # refaulting about 100 pages a call (BENCH_36.json).
    if rows is None:
        index = np.arange(len(responses))
    return ConsensusResult(
        clustering=clustering,
        consensus_members=tuple(map(clients.__getitem__, member_positions)),
        representative=clients[rep_pos],
        pseudo_label=texts[rep_pos],
        fallback_all_outliers=fallback,
        _points=points,
        _member_positions=member_positions,
        _representative_position=rep_pos,
        _rows=index,
        _centroid=centroid,
    )
