"""Per-prompt consensus over response embeddings.

The pipeline: density-cluster the unit embeddings of all submitted
responses under cosine distance, pick the consensus cluster (largest;
ties broken by compactness, then by smallest index), form its
normalized centroid, and return the member response closest to that
centroid as the pseudo-label.  The pseudo-label is always one of the
submitted responses verbatim, never a synthesized string.

Every step is deterministic, including the classically order-dependent
parts of DBSCAN: clusters are numbered by their smallest core point and
border points join the lowest-numbered cluster that claims them.
Distance comparisons treat differences within TIE_TOL as exact ties so
the secondary tie-breakers (response byte length, then smallest index)
fire only on genuinely constructed ties, not on float noise.

``cosine_distances`` is the one distance rule, clip(1 - A @ B.T, 0, 2),
computed as a single matrix product.  ``consensus_for_prompt`` builds
the pairwise matrix once per prompt, exactly symmetric with an exact
zero diagonal, and DBSCAN, the cluster choice and the medoid all read
it; only the distance to the centroid is a separate members x 1
product.  Whether a pair near eps counts as a DBSCAN neighbour is
decided by the matrix value.

Degenerate inputs are handled, not hidden:

* every point an outlier: the consensus set falls back to all clients;
* centroid sum exactly cancelling (antipodal embeddings): selection
  falls back to the medoid of the consensus set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .encoder import ZERO_NORM_EPS, _text_u64, is_unit

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
        seen = {lab for lab in self.labels if lab != OUTLIER}
        if seen != set(range(self.num_clusters)):
            raise ValueError(
                f"labels {self.labels} inconsistent with num_clusters={self.num_clusters}"
            )

    def members(self, cluster: int) -> tuple[int, ...]:
        """Positions assigned to ``cluster``, in increasing order."""
        return tuple(i for i, lab in enumerate(self.labels) if lab == cluster)


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


@dataclass(frozen=True)
class ConsensusResult:
    """Everything the server derives from one prompt's responses.

    Indices (consensus_members, representative) are client ids taken
    from the submitted records.  pseudo_label is byte-identical to the
    representative client's response text.
    """

    clustering: Clustering
    consensus_members: tuple[int, ...]
    centroid: np.ndarray
    representative: int
    pseudo_label: str
    fallback_all_outliers: bool

    def __post_init__(self) -> None:
        if self.representative not in self.consensus_members:
            raise ValueError("representative must be a consensus member")
        if not is_unit(self.centroid):
            raise ValueError("centroid must have unit norm")


def cosine_distances(
    rows: Sequence[np.ndarray], others: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Cosine distances clip(1 - rows @ others.T, 0, 2) between unit rows.

    With ``others`` omitted the result is the pairwise matrix of
    ``rows``, made exactly symmetric with an exact zero diagonal.
    """
    rows = np.asarray(rows, dtype=np.float64)
    dist = rows @ (rows if others is None else np.asarray(others, dtype=np.float64)).T
    np.subtract(1.0, dist, out=dist)
    np.clip(dist, 0.0, 2.0, out=dist)
    if others is None:
        np.minimum(dist, dist.T, out=dist)
        np.fill_diagonal(dist, 0.0)
    return dist


def dbscan(dist: np.ndarray, params: ClusterParams) -> Clustering:
    """Deterministic DBSCAN over a pairwise cosine-distance matrix.

    ``dist`` is the K x K matrix from ``cosine_distances``.  A point is
    core when at least min_pts points (itself included) lie within eps.
    Clusters are the connected components of core points under the
    within-eps relation, discovered in index order so cluster k has the
    k-th smallest leading core point.  Non-core points within eps of a
    core point join the lowest-numbered such cluster; the rest are
    outliers.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] == 0 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"dbscan needs a non-empty square distance matrix, got shape {dist.shape}")
    within = dist <= params.eps
    core = within.sum(axis=1) >= params.min_pts

    labels = np.full(dist.shape[0], OUTLIER)
    next_id = 0
    for start in np.flatnonzero(core):
        if labels[start] != OUTLIER:
            continue
        labels[start] = next_id
        frontier = [start]
        while frontier:
            reached = np.flatnonzero(within[frontier.pop()] & core & (labels == OUTLIER))
            labels[reached] = next_id
            frontier.extend(reached)
        next_id += 1

    for i in np.flatnonzero(~core):
        claims = labels[within[i] & core]
        labels[i] = claims.min() if claims.size else OUTLIER
    return Clustering(tuple(labels.tolist()), next_id)


def average_pairwise_distance(members: Sequence[int], dist: np.ndarray) -> float:
    """Mean distance over unordered member pairs; 0.0 for singletons.

    ``dist`` is the pairwise matrix of all points; the members' block is
    read from it.
    """
    members = list(members)
    n = len(members)
    if n < 2:
        return 0.0
    # The block is symmetric, so its full sum counts every pair twice.
    return float(dist[np.ix_(members, members)].sum()) / (n * (n - 1))


def select_consensus_cluster(clustering: Clustering, dist: np.ndarray) -> tuple[int, ...]:
    """Pick the consensus cluster's member positions.

    Largest cluster wins; equal sizes compare average pairwise distance
    (smaller is better, ties within TIE_TOL) read from the pairwise
    matrix ``dist``; remaining ties go to the cluster containing the
    smallest position.  Clusters are examined in id order, challengers
    replacing the incumbent only when strictly better under that chain.
    When everything is an outlier the consensus set falls back to all
    positions.
    """
    if clustering.num_clusters == 0:
        return tuple(range(len(clustering.labels)))

    best_members: tuple[int, ...] | None = None
    best_spread = 0.0
    for cluster in range(clustering.num_clusters):
        members = clustering.members(cluster)
        spread = average_pairwise_distance(members, dist)
        if best_members is None:
            best_members, best_spread = members, spread
            continue
        if len(members) > len(best_members):
            best_members, best_spread = members, spread
        elif len(members) == len(best_members):
            if spread < best_spread - TIE_TOL:
                best_members, best_spread = members, spread
            elif abs(spread - best_spread) <= TIE_TOL and members[0] < best_members[0]:
                best_members, best_spread = members, spread
    assert best_members is not None
    return best_members


def normalized_centroid(members: Sequence[int], embeddings: Sequence[np.ndarray]) -> np.ndarray:
    """Unit-norm mean direction of the member embeddings.

    Summation runs in increasing member order so results are
    reproducible.  Raises ZeroSumError on exact antipodal cancellation.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    members = sorted(members)
    if not members:
        raise ValueError("centroid of an empty member set is undefined")
    total = np.zeros(points.shape[1], dtype=np.float64)
    for m in members:
        total = total + points[m]
    norm = float(np.linalg.norm(total))
    if norm < ZERO_NORM_EPS:
        raise ZeroSumError(f"member embeddings sum to norm {norm!r}; no centroid direction")
    return total / norm


def _closest(members: Sequence[int], scores: np.ndarray, responses: Sequence[str]) -> int:
    """Member with the lowest score, scanning members in the order given.

    Scores within TIE_TOL of the incumbent's count as ties and prefer
    the shorter response in UTF-8 bytes; with members in increasing
    order the incumbent already wins any remaining tie on position.
    """
    scores = scores.tolist()
    best = members[0]
    best_score = scores[0]
    best_len = len(responses[best].encode("utf-8"))
    for m, score in zip(members[1:], scores[1:]):
        blen = len(responses[m].encode("utf-8"))
        if score < best_score - TIE_TOL or (abs(score - best_score) <= TIE_TOL and blen < best_len):
            best, best_score, best_len = m, score, blen
    return best


def select_representative(
    members: Sequence[int],
    embeddings: Sequence[np.ndarray],
    responses: Sequence[str],
    centroid: np.ndarray,
) -> int:
    """Member position closest to the centroid.

    Ties within TIE_TOL prefer the shorter response in UTF-8 bytes, then
    the smaller position.
    """
    members = sorted(members)
    points = np.asarray(embeddings, dtype=np.float64)[members]
    scores = cosine_distances(points, np.asarray(centroid, dtype=np.float64)[None, :])[:, 0]
    return _closest(members, scores, responses)


def medoid(members: Sequence[int], dist: np.ndarray, responses: Sequence[str]) -> int:
    """Member with the smallest mean distance to the other members.

    Distances are read from the pairwise matrix ``dist``.  Singleton
    member sets score 0.0 by convention.  Ties use the same
    byte-length-then-index chain as select_representative.
    """
    members = sorted(members)
    if len(members) == 1:
        return members[0]
    scores = dist[np.ix_(members, members)].sum(axis=1) / (len(members) - 1)
    return _closest(members, scores, responses)


def consensus_for_prompt(
    responses: Sequence,
    embeddings: Sequence[np.ndarray],
    params: ClusterParams,
    strategy: SelectionStrategy = SelectionStrategy(),
) -> ConsensusResult:
    """Run the full per-prompt consensus pipeline.

    ``responses`` are records with ``client`` (strictly increasing ints),
    ``prompt_id`` (identical across the batch) and ``text`` fields;
    ``embeddings`` is the parallel sequence of unit vectors, one per
    response.  Supplying embeddings explicitly lets callers swap in a
    real sentence encoder without touching this module.

    Reported members and the representative are client ids.  When the
    centroid direction cancels exactly, CENTROID selection falls back to
    the medoid of the consensus set and the recorded centroid is the
    representative's own embedding (the only unit direction that still
    describes the choice).
    """
    if len(responses) == 0:
        raise ValueError("consensus needs at least one response")
    if len(responses) != len(embeddings):
        raise ValueError(
            f"got {len(responses)} responses but {len(embeddings)} embeddings"
        )
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("embeddings must be equal-length vectors")
    off_unit = np.flatnonzero(~is_unit(points))
    if off_unit.size:
        raise ValueError(f"embedding at position {off_unit[0]} is not unit norm")
    clients = [r.client for r in responses]
    if any(b <= a for a, b in zip(clients, clients[1:])):
        raise ValueError(f"client ids must be strictly increasing, got {clients}")
    prompt_ids = {r.prompt_id for r in responses}
    if len(prompt_ids) != 1:
        raise ValueError(f"responses span multiple prompts: {sorted(prompt_ids)}")
    texts = [r.text for r in responses]

    dist = cosine_distances(points)
    clustering = dbscan(dist, params)
    fallback = clustering.num_clusters == 0
    if strategy.rule is SelectionRule.GLOBAL_MEDOID:
        member_positions = tuple(range(len(responses)))
    else:
        member_positions = select_consensus_cluster(clustering, dist)

    centroid: np.ndarray | None
    try:
        centroid = normalized_centroid(member_positions, points)
    except ZeroSumError:
        centroid = None

    if strategy.rule is SelectionRule.CENTROID:
        if centroid is not None:
            rep_pos = select_representative(member_positions, points, texts, centroid)
        else:
            rep_pos = medoid(member_positions, dist, texts)
    elif strategy.rule is SelectionRule.RANDOM_IN_CLUSTER:
        prompt_id = next(iter(prompt_ids))
        rng = np.random.default_rng([strategy.seed, _text_u64(prompt_id)])
        rep_pos = member_positions[int(rng.integers(len(member_positions)))]
    else:  # GLOBAL_MEDOID
        rep_pos = medoid(member_positions, dist, texts)
    if centroid is None:
        centroid = points[rep_pos]

    return ConsensusResult(
        clustering=clustering,
        consensus_members=tuple(clients[p] for p in member_positions),
        centroid=centroid,
        representative=clients[rep_pos],
        pseudo_label=texts[rep_pos],
        fallback_all_outliers=fallback,
    )
