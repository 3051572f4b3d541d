import inspect
import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import semfed.consensus as consensus
from oracles import (
    cosine_dist,
    reference_closest,
    reference_consensus,
    reference_dbscan,
    reference_global_medoid,
    reference_member_sum,
    reference_merge_rows,
    reference_select_cluster,
)
from semfed.consensus import (
    OUTLIER,
    TIE_TOL,
    ClusterParams,
    Clustering,
    SelectionRule,
    SelectionStrategy,
    ZeroSumError,
    average_pairwise_distance,
    consensus_for_prompt,
    cosine_distances,
    dbscan,
    distinct_rows,
    medoid,
    normalized_centroid,
    select_consensus_cluster,
    select_representative,
)
from semfed.encoder import EncoderConfig, encode_normalized, is_unit
from semfed.protocol import make_response

CFG = EncoderConfig()


def unit(*coords):
    vec = np.asarray(coords, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def on_circle(angle):
    """Unit vector in the plane at ``angle`` radians, padded to 4 dims."""
    return np.array([math.cos(angle), math.sin(angle), 0.0, 0.0])


def records(texts, prompt_id="p0", clients=None):
    clients = range(len(texts)) if clients is None else clients
    return [make_response(c, prompt_id, t) for c, t in zip(clients, texts)]


# ------------------------------------------------------------ dbscan


def test_identical_points_form_one_cluster():
    points = [unit(1, 0, 0)] * 4
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.3, min_pts=2))
    assert clustering.labels == (0, 0, 0, 0)
    assert clustering.num_clusters == 1


def test_far_apart_points_are_outliers():
    points = [unit(1, 0, 0), unit(0, 1, 0), unit(-1, 0, 0)]
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.3, min_pts=2))
    assert clustering.labels == (OUTLIER, OUTLIER, OUTLIER)
    assert clustering.num_clusters == 0


def test_min_pts_one_makes_singletons_clusters():
    points = [unit(1, 0, 0), unit(0, 1, 0)]
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.1, min_pts=1))
    assert clustering.labels == (0, 1)


def test_cluster_numbering_follows_smallest_core_index():
    # two groups, the group containing index 0 must be cluster 0
    points = [
        on_circle(0.0),
        on_circle(math.pi / 2),
        on_circle(0.02),
        on_circle(math.pi / 2 + 0.02),
    ]
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.05, min_pts=2))
    assert clustering.labels == (0, 1, 0, 1)


def test_border_point_joins_lowest_numbered_cluster():
    # two dense groups, each reaching the middle point only through a
    # single bridge core; the middle point itself has three neighbors
    # (itself and the two bridges), below min_pts, so it is a border
    # point claimed by both clusters and must join cluster 0
    mid = on_circle(0.0)
    left = [on_circle(a) for a in (-0.45, -0.85, -0.87, -0.89)]
    right = [on_circle(a) for a in (0.45, 0.85, 0.87, 0.89)]
    points = [mid] + left + right
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.12, min_pts=4))
    assert clustering.labels[1:5] == (0, 0, 0, 0)
    assert clustering.labels[5:9] == (1, 1, 1, 1)
    assert clustering.labels[0] == 0


def test_dbscan_matches_reference_on_random_instances():
    rng = np.random.default_rng(20240817)
    for _ in range(150):
        k = int(rng.integers(1, 9))
        dim = int(rng.choice([3, 8]))
        centers = rng.normal(size=(int(rng.integers(1, 4)), dim))
        points = []
        for _ in range(k):
            center = centers[int(rng.integers(len(centers)))]
            points.append(
                np.asarray(center + 0.2 * rng.normal(size=dim), dtype=np.float64)
            )
        points = [p / np.linalg.norm(p) for p in points]
        eps = float(rng.uniform(0.05, 0.8))
        min_pts = int(rng.integers(1, 4))
        got = dbscan(cosine_distances(points), ClusterParams(eps=eps, min_pts=min_pts))
        want = reference_dbscan(points, eps, min_pts)
        assert list(got.labels) == want


def test_dbscan_rejects_empty_or_non_square_matrix():
    for bad in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(3), []):
        with pytest.raises(ValueError, match="non-empty square distance matrix"):
            dbscan(bad, ClusterParams())


def test_clustering_validates_labels():
    with pytest.raises(ValueError):
        Clustering(labels=(0, 2), num_clusters=2)


def test_cluster_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(eps=0.0)
    for bad in (0, True, 2.5):
        with pytest.raises(ValueError):
            ClusterParams(min_pts=bad)


# ------------------------------------------------- cluster selection


def test_larger_cluster_wins():
    points = [on_circle(a) for a in (0.0, 0.02, 0.04)] + [
        on_circle(a) for a in (2.0, 2.02)
    ]
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.1, min_pts=2))
    assert clustering.num_clusters == 2
    assert select_consensus_cluster(clustering, cosine_distances(points)) == (0, 1, 2)


def test_size_tie_broken_by_compactness():
    tight = [on_circle(0.0), on_circle(math.acos(0.95))]  # pairwise 0.05
    loose = [on_circle(2.0), on_circle(2.0 + math.acos(0.80))]  # pairwise 0.20
    points = tight + loose
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.3, min_pts=2))
    assert clustering.num_clusters == 2
    assert select_consensus_cluster(clustering, cosine_distances(points)) == (0, 1)
    # flip the order: the tighter pair still wins
    points = loose + tight
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.3, min_pts=2))
    assert select_consensus_cluster(clustering, cosine_distances(points)) == (2, 3)


def test_full_tie_broken_by_smallest_index():
    # two identical-shape singleton clusters
    points = [unit(1, 0, 0), unit(0, 1, 0)]
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.1, min_pts=1))
    assert select_consensus_cluster(clustering, cosine_distances(points)) == (0,)


def test_all_outliers_falls_back_to_everyone():
    points = [unit(1, 0, 0), unit(0, 1, 0), unit(-1, 0, 0)]
    clustering = dbscan(cosine_distances(points), ClusterParams(eps=0.3, min_pts=2))
    assert select_consensus_cluster(clustering, cosine_distances(points)) == (0, 1, 2)


# b - a is about -1.00009e-12, yet b < a - TIE_TOL is False in floats: the
# challenger is neither better by more than TIE_TOL nor within it, so the
# incumbent stays.  Written as b - a < -TIE_TOL the rule would pick b.
BOUNDARY = (1.1555896156024061, 1.155589615601406)


def test_closest_keeps_the_incumbent_at_the_tie_boundary():
    a, b = BOUNDARY
    assert (b < a - consensus.TIE_TOL, b - a < -consensus.TIE_TOL) == (False, True)
    assert consensus._closest([0, 1], np.array(BOUNDARY), ["xx", "xx"]) == 0


def test_cluster_choice_keeps_the_incumbent_at_the_tie_boundary():
    # Two tied pairs whose spreads are the boundary values exactly.
    dist = np.zeros((4, 4))
    dist[0, 1] = dist[1, 0] = BOUNDARY[0]
    dist[2, 3] = dist[3, 2] = BOUNDARY[1]
    assert [average_pairwise_distance(m, dist) for m in ([0, 1], [2, 3])] == list(BOUNDARY)
    assert select_consensus_cluster(Clustering((0, 0, 1, 1), 2), dist) == (0, 1)


def test_average_pairwise_distance_singleton_is_zero():
    assert average_pairwise_distance([3], cosine_distances(np.eye(4))) == 0.0


# ------------------------------------------- centroid and selection


def test_normalized_centroid_of_duplicates():
    points = [unit(0, 1, 0)] * 3
    assert np.allclose(normalized_centroid([0, 1, 2], points), unit(0, 1, 0))


def test_normalized_centroid_antipodal_raises():
    points = [unit(1, 0, 0), unit(-1, 0, 0)]
    with pytest.raises(ZeroSumError):
        normalized_centroid([0, 1], points)


@given(
    columns=st.integers(1, 4) | st.just(384),
    size=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    zero_column=st.booleans(),
    fortran=st.booleans(),
)
def test_normalized_centroid_sums_members_in_increasing_order(
    columns, size, seed, zero_column, fortran
):
    # Rows as far from unit norm as is_unit accepts; a column of -0.0
    # checks that the sum starts from +0.0.  Column-major points, whose
    # columns numpy would sum pairwise, must give the same bits.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(size, columns))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points *= 1 + rng.uniform(-1e-9, 1e-9, size=(size, 1))
    if zero_column and columns > 1:
        points[:, -1] = -0.0
    members = rng.permutation(size)[: rng.integers(1, size + 1)].tolist()
    total = reference_member_sum(points, members)
    if fortran:
        points = np.asfortranarray(points)
    norm = float(np.linalg.norm(total))
    if norm < 1e-12:
        with pytest.raises(ZeroSumError):
            normalized_centroid(members, points)
    else:
        assert normalized_centroid(members, points).tobytes() == (total / norm).tobytes()


def test_normalized_centroid_of_one_column_is_the_running_total():
    # Sixteen one-column rows within UNIT_NORM_TOL of +-1 whose exact sum
    # is about ZERO_NORM_EPS: the running total lands below it, so there
    # is no centroid, while numpy's pairwise sum lands above it.
    rng = np.random.default_rng(0)
    deltas = rng.uniform(-1e-9, 1e-9, 8)
    column = np.concatenate([1 + deltas, -(1 + rng.permutation(deltas))])
    column[-1] = 1e-12 - math.fsum(column[:-1].tolist())
    assert is_unit(column[:, None]).all()
    with pytest.raises(ZeroSumError):
        normalized_centroid(range(16), column[:, None])


def test_representative_distance_tie_prefers_shorter_bytes():
    centroid = np.array([1.0, 0.0, 0.0, 0.0])
    phi = 0.3
    points = [on_circle(phi), on_circle(-phi)]  # exactly equidistant
    texts = ["a response that is quite long indeed", "short one"]
    assert select_representative([0, 1], points, texts, centroid) == 1
    texts = ["same size", "samo size"]
    assert select_representative([0, 1], points, texts, centroid) == 0


def test_medoid_singleton():
    assert medoid([2], cosine_distances(np.eye(3)), ["x", "y", "z"]) == 2


def test_selection_over_rows_offers_the_first_member_of_each_row():
    points = np.array([on_circle(0.0), on_circle(1.0)])
    dist = cosine_distances(points)
    rows = [0, 1, 0, 1, 1]
    texts = ["aa", "b", "aa", "b", "b"]
    every = dist[np.ix_(rows, rows)]
    # the row with more members has the lower mean distance; its first
    # member stands for it, as on the matrix with a row per member
    for members, chosen in (([0, 1, 2, 3, 4], 1), ([2, 3, 4], 3), ([0, 2, 3], 0), ([4, 0], 4)):
        assert medoid(members, dist, texts, rows) == chosen
        assert medoid(members, every, texts) == chosen
    # both rows equally far from the centroid: the shorter text, row 1
    centroid = on_circle(0.5)
    assert select_representative([0, 1, 2, 3, 4], points, texts, centroid, rows) == 1
    assert select_representative([0, 2, 4], points, texts, centroid, rows) == 4
    assert select_representative([0, 2], points, texts, centroid, rows) == 0


def test_dbscan_counts_above_2_to_the_24_are_exact():
    # 2**24 + 1 is not a float32, so a float32 sum rounds it down to 2**24
    params = ClusterParams(eps=0.5, min_pts=2**24 + 1)
    clustering = dbscan(np.zeros((2, 2)), params, np.array([2**24, 1]))
    assert clustering.labels == (0, 0)
    assert dbscan(np.zeros((2, 2)), params, np.array([2**24 - 1, 1])).labels == (-1, -1)


def test_dbscan_counts_must_give_one_count_per_point():
    dist = cosine_distances(np.eye(3))
    with pytest.raises(ValueError, match="^got 3 points but counts of shape \\(2,\\)$"):
        dbscan(dist, ClusterParams(), np.array([1, 2]))


# Scores a fixed step from a base: exact ties, steps of exactly TIE_TOL and
# 2 * TIE_TOL (exact from a base of 0.0), just past 2 * TIE_TOL, and far;
# and the BOUNDARY pair.
_STEPS = (0.0, TIE_TOL, 2 * TIE_TOL, 3 * TIE_TOL, 2.5 * TIE_TOL, 4 * TIE_TOL, 0.25)
_SCORES = [base + step for base in (0.0, 0.5, 1.9) for step in _STEPS] + list(BOUNDARY)
# Texts whose UTF-8 byte and character lengths order differently.
_TIE_TEXTS = ("ab", "abc", "é", "éé", "日本", "abcd", "ñandú", "zz")


@given(
    scores=st.lists(st.sampled_from(_SCORES), min_size=1, max_size=12),
    texts=st.lists(st.sampled_from(_TIE_TEXTS), min_size=15, max_size=15),
    order=st.permutations(range(15)),
)
@example(
    scores=[*BOUNDARY, BOUNDARY[1], BOUNDARY[0] + TIE_TOL],
    texts=["abcd", "éé", "abc", "日本"] + ["zz"] * 11,
    order=list(range(15)),
)
@example(scores=list(BOUNDARY), texts=["zz"] * 15, order=list(range(15)))
@example(
    scores=[2 * TIE_TOL, 0.0, TIE_TOL], texts=["é", "ab", "éé"] + ["zz"] * 12, order=list(range(15))
)
def test_closest_picks_what_the_eager_scan_picks(scores, texts, order):
    members = sorted(order[: len(scores)])
    want = reference_closest(members, scores, texts)
    assert consensus._closest(members, np.array(scores), texts) == want


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 10), every=st.booleans())
def test_medoid_and_representative_pick_what_the_eager_scan_picks(seed, k, every):
    rng = np.random.default_rng(seed)
    texts = [_TIE_TEXTS[i] for i in rng.integers(len(_TIE_TEXTS), size=k)]
    # every position reads the whole matrix; a subset reads its block
    members = list(range(k)) if every else sorted(rng.permutation(k)[: rng.integers(1, k + 1)])
    # A symmetric matrix of few values: member rows often sum to the same
    # mean, or to means TIE_TOL or 2 * TIE_TOL apart.
    dist = rng.choice([0.5, 0.5 + TIE_TOL, 0.5 + 2 * TIE_TOL, 1.0], size=(k, k))
    dist = np.triu(dist, 1) + np.triu(dist, 1).T
    means = dist[np.ix_(members, members)].sum(axis=1) / max(len(members) - 1, 1)
    want = reference_closest(members, means.tolist(), texts)
    assert medoid(members, dist, texts) == want
    # Rows at +-phi from the centroid are exactly as far from it, and
    # duplicate rows too.
    angles = rng.choice([0.3, -0.3, 0.6, -0.6, 0.3 + 1e-12], size=k)
    points = np.array([on_circle(a) for a in angles])
    centroid = np.array([1.0, 0.0, 0.0, 0.0])
    scores = cosine_distances(points[members], centroid[None, :])[:, 0]
    want = reference_closest(members, scores.tolist(), texts)
    assert select_representative(members, points, texts, centroid) == want


# ---------------------------------------------- consensus_for_prompt


def test_identical_responses_select_client_zero():
    texts = ["the sky is blue today"] * 3
    recs = records(texts)
    embs = [encode_normalized(t, CFG) for t in texts]
    result = consensus_for_prompt(recs, embs, ClusterParams())
    assert result.consensus_members == (0, 1, 2)
    assert result.representative == 0
    assert result.pseudo_label == texts[0]
    assert not result.fallback_all_outliers


def test_majority_cluster_beats_minority():
    texts = [
        "the capital of france is paris, a large city",
        "the capital of france is paris, the city",
        "the capital of france is paris in europe",
        "bananas are yellow fruit",
        "quantum entanglement wobbles",
    ]
    recs = records(texts)
    embs = [encode_normalized(t, CFG) for t in texts]
    result = consensus_for_prompt(recs, embs, ClusterParams())
    assert result.consensus_members == (0, 1, 2)
    assert result.representative in (0, 1, 2)
    assert result.pseudo_label == texts[result.representative]
    oracle = reference_consensus([r.client for r in recs], texts, embs, 0.3, 2)
    assert result.pseudo_label == oracle["pseudo_label"]
    assert result.representative == oracle["representative"]


def test_single_client_is_its_own_consensus():
    texts = ["only voice"]
    recs = records(texts)
    embs = [encode_normalized(t, CFG) for t in texts]
    result = consensus_for_prompt(recs, embs, ClusterParams())
    # a single point with min_pts=2 is an outlier; fallback keeps it
    assert result.fallback_all_outliers
    assert result.consensus_members == (0,)
    assert result.pseudo_label == "only voice"


def test_antipodal_fallback_uses_medoid_and_shorter_text():
    points = [unit(1, 0, 0, 0), unit(-1, 0, 0, 0)]
    texts = ["the long-winded answer", "brief"]
    recs = records(texts)
    result = consensus_for_prompt(recs, points, ClusterParams(eps=0.3, min_pts=2))
    assert result.fallback_all_outliers
    assert result.consensus_members == (0, 1)
    # centroid sum cancels exactly; medoid scores tie at 2.0; byte
    # length picks the shorter response
    assert result.representative == 1
    assert result.pseudo_label == "brief"
    assert np.allclose(result.centroid, points[1])


def test_client_ids_are_reported_not_positions():
    texts = ["the sky is blue today"] * 2
    recs = records(texts, clients=[4, 9])
    embs = [encode_normalized(t, CFG) for t in texts]
    result = consensus_for_prompt(recs, embs, ClusterParams())
    assert result.consensus_members == (4, 9)
    assert result.representative == 4


def test_input_validation():
    texts = ["alpha bravo", "charlie delta"]
    embs = [encode_normalized(t, CFG) for t in texts]
    with pytest.raises(ValueError, match="at least one"):
        consensus_for_prompt([], [], ClusterParams())
    with pytest.raises(ValueError, match="embeddings"):
        consensus_for_prompt(records(texts), embs[:1], ClusterParams())
    with pytest.raises(ValueError, match="unit norm"):
        consensus_for_prompt(records(texts), [embs[0], embs[1] * 2.0], ClusterParams())
    with pytest.raises(ValueError, match="strictly increasing"):
        consensus_for_prompt(records(texts, clients=[1, 1]), embs, ClusterParams())
    mixed = records(texts[:1]) + records(texts[1:], prompt_id="p1", clients=[1])
    with pytest.raises(ValueError, match="multiple prompts"):
        consensus_for_prompt(mixed, embs, ClusterParams())


@pytest.mark.parametrize("bad", [1.5, 1.0 + 1e-6, math.nan])
def test_unit_norm_error_names_first_offending_position(bad):
    texts = ["alpha bravo", "charlie delta", "echo foxtrot", "golf hotel", "india juliet"]
    embs = [encode_normalized(t, CFG) for t in texts]
    # position 3 is the first bad row; position 4 is bad as well
    embs[3] = embs[3] * bad
    embs[4] = embs[4] * 2.0
    with pytest.raises(ValueError, match="^embedding at position 3 is not unit norm$"):
        consensus_for_prompt(records(texts), embs, ClusterParams())
    # within UNIT_NORM_TOL still counts as unit
    embs = [encode_normalized(t, CFG) for t in texts]
    embs[3] = embs[3] * (1.0 + 1e-12)
    consensus_for_prompt(records(texts), embs, ClusterParams())


@pytest.mark.parametrize(
    "scale, unit",
    [
        (1 + 0.5e-9, True),
        (1 - 0.5e-9, True),
        (1 + 2e-9, False),
        (1 - 2e-9, False),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
    ],
)
def test_unit_check_reads_the_squared_norms_at_the_tolerance(scale, unit):
    # |sqrt(squared norm) - 1| <= UNIT_NORM_TOL (1e-9) is unit; the first
    # bad position is named, and non-finite rows warn about nothing
    texts = ["alpha bravo", "charlie delta", "echo foxtrot", "golf hotel", "india juliet"]
    embs = [encode_normalized(t, CFG) for t in texts]
    with np.errstate(invalid="ignore"):  # 0 * inf
        embs[1] = embs[1] * scale
        embs[3] = embs[3] * scale
    if unit:
        result = consensus_for_prompt(records(texts), embs, ClusterParams())
        assert result.consensus_members
    else:
        with pytest.raises(ValueError, match="^embedding at position 1 is not unit norm$"):
            consensus_for_prompt(records(texts), embs, ClusterParams())


@pytest.mark.parametrize(
    "rows, u, message",
    [
        ([0, 1], 2, "got 3 responses but 2 rows"),
        ([0, 1, 1, 0], 2, "got 3 responses but 4 rows"),
        ([0, 1, 2], 2, "row 2 of the response at position 2 is out of range for 2 embeddings"),
        ([0, -1, 1], 2, "row -1 of the response at position 1 is out of range for 2 embeddings"),
        ([0, 0, 1], 3, "embedding row 2 is used by no response"),
        ([0, 2, 2], 3, "embedding row 1 is used by no response"),
        ([1, 0, 1], 2, "rows are not numbered by first use: the response at position 0 uses row 1 before row 0"),
        ([0, 2, 1], 3, "rows are not numbered by first use: the response at position 1 uses row 2 before row 1"),
        ([0.0, 1.0, 1.0], 2, "rows must be integers, got float64"),
    ],
)
def test_rows_must_map_every_response_onto_every_row_in_first_use_order(rows, u, message):
    texts = ["alpha bravo", "charlie delta", "echo foxtrot"]
    embs = [encode_normalized(t, CFG) for t in texts[:u]]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        consensus_for_prompt(records(texts), embs, ClusterParams(), rows=rows)


def test_unit_norm_error_names_the_first_response_on_the_bad_row():
    texts = ["alpha bravo", "alpha bravo", "charlie delta", "echo foxtrot", "echo foxtrot"]
    embs = [encode_normalized(t, CFG) for t in ("alpha bravo", "charlie delta", "echo foxtrot")]
    rows = [0, 0, 1, 2, 2]
    consensus_for_prompt(records(texts), embs, ClusterParams(), rows=rows)
    embs[2] = embs[2] * 2.0
    message = "^embedding row 2, first used by the response at position 3, is not unit norm$"
    with pytest.raises(ValueError, match=message):
        consensus_for_prompt(records(texts), embs, ClusterParams(), rows=rows)


def test_one_non_finite_entry_fails_the_unit_check():
    texts = ["alpha bravo", "charlie delta", "echo foxtrot"]
    for bad in (math.nan, math.inf):
        embs = [encode_normalized(t, CFG) for t in texts]
        embs[2] = embs[2].copy()
        embs[2][0] = bad
        with pytest.raises(ValueError, match="^embedding at position 2 is not unit norm$"):
            consensus_for_prompt(records(texts), embs, ClusterParams())


def test_consensus_builds_one_pairwise_matrix_per_prompt(monkeypatch):
    shapes, choices, centroids, norms = [], [], [], []
    pairwise, distances = consensus._pairwise, consensus.cosine_distances
    choose, centroid = consensus.select_consensus_cluster, consensus.normalized_centroid
    norm, unit_check = np.linalg.norm, consensus.is_unit

    # The K x K product is built by _pairwise, which also hands
    # consensus_for_prompt its diagonal for the unit check;
    # cosine_distances(rows) goes through it as well.
    def counted_pairwise(rows):
        dist, squares = pairwise(rows)
        shapes.append(dist.shape)
        return dist, squares

    def counted_distances(rows, others=None):
        dist = distances(rows, others)
        if others is not None:
            shapes.append(dist.shape)
        return dist

    def counted_choice(*args):
        choices.append(args)
        return choose(*args)

    def counted_centroid(*args):
        centroids.append(args)
        return centroid(*args)

    def counted_norm(x, *args, **kwargs):
        norms.append(np.shape(x))
        return norm(x, *args, **kwargs)

    def counted_unit_check(vectors):
        norms.append(np.shape(vectors))
        return unit_check(vectors)

    monkeypatch.setattr(consensus, "_pairwise", counted_pairwise)
    monkeypatch.setattr(consensus, "cosine_distances", counted_distances)
    monkeypatch.setattr(consensus, "select_consensus_cluster", counted_choice)
    monkeypatch.setattr(consensus, "normalized_centroid", counted_centroid)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(consensus, "is_unit", counted_unit_check)
    points = [on_circle(a) for a in (0.0, 0.02, 0.04, 2.0, 2.02)]
    recs = records([f"answer {i}" for i in range(5)])
    params = ClusterParams(eps=0.1, min_pts=2)

    result = consensus_for_prompt(recs, points, params)
    assert result.clustering.num_clusters == 2
    assert result.consensus_members == (0, 1, 2)
    # the K x K matrix, then the members x 1 distances to the centroid
    assert shapes == [(5, 5), (3, 1)]
    assert len(choices) == 1
    # the centroid that chose the representative is the one reported
    assert len(centroids) == 1
    assert result.centroid is result.centroid
    assert len(centroids) == 1
    # the unit check reads the product's diagonal: norms are taken of
    # the centroid's sum and of the centroid, never of the points
    assert norms and all(len(shape) == 1 for shape in norms)

    for rule, members, chosen in (
        (SelectionRule.GLOBAL_MEDOID, tuple(range(5)), 0),
        (SelectionRule.RANDOM_IN_CLUSTER, (0, 1, 2), 1),
    ):
        shapes.clear()
        choices.clear()
        centroids.clear()
        norms.clear()
        result = consensus_for_prompt(recs, points, params, SelectionStrategy(rule=rule))
        assert result.consensus_members == members
        assert shapes == [(5, 5)]
        assert len(choices) == chosen
        assert norms == []
        # no centroid until it is read, then one, kept for later reads
        assert centroids == []
        assert result.centroid is result.centroid
        assert len(centroids) == 1
        assert norms and all(len(shape) == 1 for shape in norms)


# DBSCAN's counts and each selection helper's row index, by parameter name.
_INDEXED = {
    "dbscan": "counts",
    "select_consensus_cluster": "rows",
    "normalized_centroid": "rows",
    "select_representative": "rows",
    "medoid": "rows",
}


def test_every_helper_call_gets_its_counts_or_rows(monkeypatch):
    # rows omitted, the identity and repeated rows all run one path: every
    # call consensus_for_prompt makes, and the lazy centroid, passes the index
    calls = []
    for name, arg in _INDEXED.items():
        real = getattr(consensus, name)

        def indexed(*args, _real=real, _name=name, _arg=arg, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            calls.append((_name, bound.arguments.get(_arg) is not None))
            return _real(*args, **kwargs)

        monkeypatch.setattr(consensus, name, indexed)
    texts = ["alpha bravo", "alpha bravo", "charlie delta", "echo foxtrot", "alpha bravo"]
    distinct = [encode_normalized(t, CFG) for t in ("alpha bravo", "charlie delta", "echo foxtrot")]
    every = [distinct[r] for r in (0, 0, 1, 2, 0)]
    cases = [
        (every, None),
        (every, [0, 1, 2, 3, 4]),
        (distinct, [0, 0, 1, 2, 0]),
        # antipodal outliers: the centroid cancels and the medoid chooses
        ([unit(1.0, 0.0), unit(-1.0, 0.0)], None),
        ([unit(1.0, 0.0), unit(-1.0, 0.0)], [0, 1]),
    ]
    for embeddings, rows in cases:
        for rule in SelectionRule:
            result = consensus_for_prompt(
                records(texts[: len(embeddings) if rows is None else len(rows)]),
                embeddings,
                ClusterParams(),
                SelectionStrategy(rule),
                rows,
            )
            assert is_unit(result.centroid)
    assert {name for name, _ in calls} == set(_INDEXED)
    assert [name for name, indexed in calls if not indexed] == []


# ------------------------------------------------ repeated responses

# How a repeat of an earlier response differs from it: an exact copy, one
# ulp up in one entry, -0.0 where it has 0.0, or its vector under the
# repeat's own text.
_REPEAT_FORMS = ("copy", "ulp", "signed_zero", "other_text")


def with_repeats(seed, k, families, noise, forms):
    """``planted_families`` rows, with a trailing 0.0 entry, and repeats.

    Each form in ``forms`` (up to k // 2 of them) copies one row onto
    another position, both drawn without replacement, and all but
    ``other_text`` give that position the copied row's text as well.
    """
    points, texts = planted_families(seed, k, families, noise, dup_share=0.3)
    points = np.hstack([points, np.zeros((k, 1))])
    rng = np.random.default_rng(seed)
    n = min(k // 2, len(forms))
    slots = rng.permutation(k)[: 2 * n].tolist()
    for form, source, target in zip(forms, slots[:n], slots[n:]):
        vec = points[source].copy()
        if form == "ulp":
            vec[0] = np.nextafter(vec[0], 2.0)
        elif form == "signed_zero":
            vec[-1] = -0.0
        if form != "other_text":
            texts[target] = texts[source]
        points[target] = vec
    return points, texts


def outputs(result):
    return (
        result.clustering,
        result.consensus_members,
        result.representative,
        result.pseudo_label,
        result.fallback_all_outliers,
        result.centroid.tobytes(),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(8, 48),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.05, 0.3]),
    extra=st.lists(st.sampled_from(_REPEAT_FORMS), max_size=20),
    eps=st.sampled_from([1e-17, 0.05, 0.3, 0.9]),
    min_pts=st.integers(1, 4),
    rule=st.sampled_from(list(SelectionRule)),
)
def test_omitted_rows_run_on_the_reference_merge_of_repeated_responses(
    seed, k, families, noise, extra, eps, min_pts, rule
):
    # every example holds each form once, so a merge keyed on the bits
    # alone, on the text alone, or on float equality differs here
    points, texts = with_repeats(seed, k, families, noise, [*_REPEAT_FORMS, *extra])
    distinct, rows = reference_merge_rows(texts, points)
    merged, index = distinct_rows(texts, points)
    assert index.tolist() == rows
    assert merged.tobytes() == np.array(distinct).tobytes()
    assert len(distinct) < k

    shapes = []
    pairwise = consensus._pairwise

    def recorded(rows_in):
        dist, squares = pairwise(rows_in)
        shapes.append(dist.shape)
        return dist, squares

    params, strategy = ClusterParams(eps=eps, min_pts=min_pts), SelectionStrategy(rule)
    with mock.patch.object(consensus, "_pairwise", recorded):
        got = consensus_for_prompt(records(texts), points, params, strategy)
    assert shapes == [(len(distinct), len(distinct))]
    want = consensus_for_prompt(records(texts), distinct, params, strategy, rows)
    assert outputs(got) == outputs(want)


def test_identical_vectors_under_different_texts_keep_their_rows():
    # one row would offer only "r0" to the tie-break and skip the shorter "s"
    points = np.array([unit(1.0, 0.0)] * 2 + [unit(0.0, 1.0)])
    texts = ["r0", "s", "r1"]
    merged, index = distinct_rows(texts, points)
    assert merged is points and index.tolist() == [0, 1, 2]
    result = consensus_for_prompt(records(texts), points, ClusterParams(eps=1e-17))
    assert result.pseudo_label == "s"


def test_a_repeated_non_unit_row_is_named_by_its_first_position():
    texts = ["alpha bravo", "charlie delta", "alpha bravo", "echo foxtrot", "charlie delta"]
    embs = [encode_normalized(t, CFG) for t in texts]
    embs[1] = embs[4] = embs[1] * 2.0
    with pytest.raises(ValueError, match="^embedding at position 1 is not unit norm$"):
        consensus_for_prompt(records(texts), embs, ClusterParams())
    # a repeat whose bits differ keeps its row, and is named by its own position
    embs[1] = encode_normalized(texts[1], CFG)
    with pytest.raises(ValueError, match="^embedding at position 4 is not unit norm$"):
        consensus_for_prompt(records(texts), embs, ClusterParams())


def test_a_count_mismatch_fails_before_any_merge(monkeypatch):
    # the two distinct texts would fit the two embeddings after a merge
    calls = []
    monkeypatch.setattr(consensus, "_pairwise", lambda rows: calls.append(rows))
    texts = ["alpha bravo", "alpha bravo", "charlie delta"]
    embs = [encode_normalized(t, CFG) for t in ("alpha bravo", "charlie delta")]
    with pytest.raises(ValueError, match="^got 3 responses but 2 embeddings$"):
        consensus_for_prompt(records(texts), embs, ClusterParams())
    assert calls == []


# ------------------------------------------------------- strategies


def test_global_medoid_matches_naive_scan():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        texts = [f"response {i} " + "x" * int(rng.integers(0, 20)) for i in range(k)]
        embs = [v / np.linalg.norm(v) for v in rng.normal(size=(k, 6))]
        recs = records(texts)
        result = consensus_for_prompt(
            recs, embs, ClusterParams(), SelectionStrategy(rule=SelectionRule.GLOBAL_MEDOID)
        )
        want_rep, want_label = reference_global_medoid(list(range(k)), texts, embs)
        assert result.representative == want_rep
        assert result.pseudo_label == want_label
        assert result.consensus_members == tuple(range(k))


def test_random_in_cluster_is_deterministic_and_in_members():
    texts = [
        "the capital of france is paris, a large city",
        "the capital of france is paris, the city",
        "the capital of france is paris in europe",
        "bananas are yellow fruit",
    ]
    recs = records(texts)
    embs = [encode_normalized(t, CFG) for t in texts]
    strategy = SelectionStrategy(rule=SelectionRule.RANDOM_IN_CLUSTER, seed=11)
    first = consensus_for_prompt(recs, embs, ClusterParams(), strategy)
    second = consensus_for_prompt(recs, embs, ClusterParams(), strategy)
    assert first.representative == second.representative
    assert first.representative in first.consensus_members
    assert first.consensus_members == (0, 1, 2)
    # the draw depends on the prompt id, not on call order
    other_prompt = [make_response(r.client, "p9", r.text) for r in recs]
    reps = {
        consensus_for_prompt(
            other_prompt, embs, ClusterParams(), SelectionStrategy(SelectionRule.RANDOM_IN_CLUSTER, seed=s)
        ).representative
        for s in range(8)
    }
    assert reps <= {0, 1, 2}
    assert len(reps) > 1


@pytest.mark.parametrize("rule", list(SelectionRule))
@pytest.mark.parametrize("seed", [-1, True, 1.0, None])
def test_selection_strategy_seed_must_be_a_non_negative_int(rule, seed):
    with pytest.raises(ValueError, match="strategy seed must be a non-negative integer"):
        SelectionStrategy(rule, seed=seed)
    # no upper bound: the seed only keys the RNG
    SelectionStrategy(rule, seed=2**70)


# ------------------------------------------------------- properties


@given(seed=st.integers(0, 2**32 - 1))
def test_permutation_of_clients_keeps_the_label(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    embs = [v / np.linalg.norm(v) for v in rng.normal(size=(k, 5))]
    texts = [f"text {i} " + "pad" * i for i in range(k)]
    params = ClusterParams(eps=float(rng.uniform(0.2, 0.9)), min_pts=2)
    base = consensus_for_prompt(records(texts), embs, params)
    perm = rng.permutation(k)
    permuted_texts = [texts[p] for p in perm]
    permuted_embs = [embs[p] for p in perm]
    permuted = consensus_for_prompt(records(permuted_texts), permuted_embs, params)
    # random unit vectors are tie-free with probability one, so the
    # selected text cannot depend on client order
    assert permuted.pseudo_label == base.pseudo_label


@given(exponent=st.integers(-6, 6))
def test_raw_embedding_scaling_leaves_result_unchanged(exponent):
    from semfed.encoder import encode, normalize

    texts = [
        "the capital of france is paris, a large city",
        "the capital of france is paris, the city",
        "bananas are yellow fruit",
    ]
    raw = [encode(t, CFG) for t in texts]
    scale = 2.0**exponent
    base = consensus_for_prompt(records(texts), [normalize(v) for v in raw], ClusterParams())
    scaled = consensus_for_prompt(
        records(texts), [normalize(v * scale) for v in raw], ClusterParams()
    )
    # powers of two rescale mantissas exactly, so everything matches
    # bit for bit
    assert scaled.pseudo_label == base.pseudo_label
    assert scaled.consensus_members == base.consensus_members
    assert scaled.representative == base.representative
    assert np.array_equal(scaled.centroid, base.centroid)


# ------------------------------------------------------ matrix path


def planted_families(seed, k, families, noise, dup_share, dim=8):
    """Unit rows around a few family centres, some rows exact copies of earlier ones.

    Texts carry 0-3 bytes of padding so duplicate rows exercise both the
    byte-length and the position tie-breaks.
    """
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(families, dim))
    rows = []
    for i in range(k):
        if i and rng.random() < dup_share:
            rows.append(rows[int(rng.integers(i))].copy())
            continue
        row = centres[int(rng.integers(families))] + noise * rng.normal(size=dim)
        rows.append(row / np.linalg.norm(row))
    texts = [f"r{i}" + "x" * int(rng.integers(4)) for i in range(k)]
    return np.array(rows), texts


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 64),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    dup_share=st.sampled_from([0.0, 0.3, 0.7]),
    eps=st.floats(0.02, 0.9),
    min_pts=st.integers(1, 4),
    rule=st.sampled_from([SelectionRule.CENTROID, SelectionRule.GLOBAL_MEDOID]),
)
def test_matrix_path_matches_pairwise_reference(
    seed, k, families, noise, dup_share, eps, min_pts, rule
):
    points, texts = planted_families(seed, k, families, noise, dup_share)
    dist = cosine_distances(points)
    assert np.array_equal(dist, dist.T)
    assert not np.any(np.diag(dist))
    pairwise = np.array([[cosine_dist(a, b) for b in points] for a in points])
    off_diagonal = ~np.eye(k, dtype=bool)
    assert np.all(np.abs(dist - pairwise)[off_diagonal] <= 1e-13)
    # a pair this close to eps is a neighbour or not by rounding alone
    assume(not np.any(np.abs(pairwise[off_diagonal] - eps) <= 1e-9))

    rows = [list(map(float, p)) for p in points]
    params = ClusterParams(eps=eps, min_pts=min_pts)
    got = consensus_for_prompt(records(texts), list(points), params, SelectionStrategy(rule))
    if rule is SelectionRule.GLOBAL_MEDOID:
        assert (got.representative, got.pseudo_label) == reference_global_medoid(
            list(range(k)), texts, rows
        )
        assert got.consensus_members == tuple(range(k))
        return
    want = reference_consensus(list(range(k)), texts, rows, eps, min_pts)
    assert list(got.clustering.labels) == want["labels"]
    assert list(got.consensus_members) == want["members"]
    assert got.representative == want["representative"]
    assert got.fallback_all_outliers == want["fallback"]


def eager_centroid(points, members, representative):
    """The centroid as every result once held it: the normalized running
    sum of the member rows, or the representative's row when it cancels."""
    total = reference_member_sum(points, members)
    norm = float(np.linalg.norm(total))
    return points[representative] if norm < 1e-12 else total / norm


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 24),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    dup_share=st.sampled_from([0.0, 0.3, 0.7]),
    antipodal=st.booleans(),
    eps=st.floats(0.02, 0.9),
    rule=st.sampled_from(list(SelectionRule)),
)
# all outliers, so every pair is in the consensus set and the sum cancels
@example(seed=0, k=3, families=3, noise=1.0, dup_share=0.0, antipodal=True, eps=0.02,
         rule=SelectionRule.CENTROID)
@example(seed=0, k=3, families=3, noise=1.0, dup_share=0.0, antipodal=True, eps=0.02,
         rule=SelectionRule.RANDOM_IN_CLUSTER)
@example(seed=0, k=3, families=1, noise=0.0, dup_share=0.0, antipodal=True, eps=0.02,
         rule=SelectionRule.GLOBAL_MEDOID)
def test_centroid_equals_the_eager_centroid_under_every_rule(
    seed, k, families, noise, dup_share, antipodal, eps, rule
):
    points, texts = planted_families(seed, k, families, noise, dup_share)
    if antipodal:
        # each row followed by its negation: a set holding every pair sums
        # to exactly zero, so the centroid is the representative's row
        points = np.stack([points, -points], axis=1).reshape(2 * k, -1)
        texts = [t + tail for t in texts for tail in ("", "-")]
    result = consensus_for_prompt(
        records(texts), points, ClusterParams(eps=eps), SelectionStrategy(rule)
    )
    want = eager_centroid(points, result.consensus_members, result.representative)
    assert result.centroid.tobytes() == want.tobytes()


_SYMMETRY_CHILD = """
import json
import numpy as np
from semfed.consensus import cosine_distances
broken = []
for k in (1, 2, 129, 400):
    for d in (1, 384, 1000):
        rows = np.random.default_rng(k * 1000 + d).normal(size=(k, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        wide = np.zeros((2 * k, 2 * d))
        wide[::2, ::2] = rows
        layouts = {
            "c": rows,
            "fortran": np.asfortranarray(rows),
            "reversed rows": np.ascontiguousarray(rows[::-1])[::-1],
            "reversed columns": np.ascontiguousarray(rows[:, ::-1])[:, ::-1],
            "strided": wide[::2, ::2],
        }
        for layout, view in layouts.items():
            dist = cosine_distances(view)
            if dist.shape != (k, k) or not np.array_equal(dist, dist.T) or np.diag(dist).any():
                broken.append([layout, k, d])
print(json.dumps(broken))
"""


def test_pairwise_distances_are_symmetric_in_every_layout():
    # A general product of a non-C layout may differ from its transpose in
    # the last bit (K=129 and d >= 384 under two BLAS threads did here);
    # only the symmetric rank-k update is symmetric by construction.  Each
    # thread count runs in a child, since BLAS reads it at import.
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _SYMMETRY_CHILD],
            capture_output=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout) == [], f"asymmetric under {threads} BLAS threads"


@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 48),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    dup_share=st.sampled_from([0.0, 0.3, 0.7]),
    dim=st.sampled_from([2, 8]),
)
def test_dbscan_matches_union_find_reference(data, seed, k, families, noise, dup_share, dim):
    # on the circle (dim 2) border points are often claimed by two clusters
    points, _ = planted_families(seed, k, families, noise, dup_share, dim)
    dist = cosine_distances(points)
    # eps drawn from the matrix itself puts pairs exactly on the boundary
    values = np.unique(dist[dist > 0]).tolist()
    eps_choices = st.floats(0.02, 0.9)
    if values:
        eps_choices = eps_choices | st.sampled_from(values)
    eps = data.draw(eps_choices, label="eps")
    min_pts = data.draw(st.sampled_from([1, 2, 3, 4, k + 1]), label="min_pts")

    got = dbscan(dist, ClusterParams(eps=eps, min_pts=min_pts))
    want = reference_dbscan(points, eps, min_pts, dist=dist.tolist())
    assert list(got.labels) == want
    assert got.num_clusters == len(set(want) - {OUTLIER})
    if min_pts > k:
        assert want == [OUTLIER] * k


@given(
    seed=st.integers(0, 2**32 - 1),
    clumps=st.integers(2, 4),
    size=st.integers(5, 8),
    eps_angle=st.floats(0.08, 0.095),
    data=st.data(),
)
def test_dbscan_bridged_clumps_match_reference(seed, clumps, size, eps_angle, data):
    # dense clumps 0.2 rad apart on the circle with one bridge point midway;
    # the bridge reaches a few points of each neighbour, often too few to be
    # core, so two clusters claim it and the lowest-numbered must win
    rng = np.random.default_rng(seed)
    angles = []
    for j in range(clumps):
        angles.extend(0.2 * j + rng.uniform(-0.03, 0.03, size=size))
        if j:
            angles.append(0.2 * j - 0.1)
    angles = np.array(angles)[rng.permutation(len(angles))]
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dist = cosine_distances(points)
    eps = 1.0 - math.cos(eps_angle)
    min_pts = data.draw(st.integers(4, size), label="min_pts")
    got = dbscan(dist, ClusterParams(eps=eps, min_pts=min_pts))
    assert list(got.labels) == reference_dbscan(points, eps, min_pts, dist=dist.tolist())


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 48))
def test_dbscan_all_singletons_match_reference(seed, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(k, 8))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    dist = cosine_distances(points)
    off_diagonal = dist[~np.eye(k, dtype=bool)]
    # below every off-diagonal distance, each point is its own cluster
    eps = float(off_diagonal.min()) / 2 if k > 1 else 0.1
    assume(eps > 0)
    got = dbscan(dist, ClusterParams(eps=eps, min_pts=1))
    assert list(got.labels) == list(range(k))
    assert list(got.labels) == reference_dbscan(points, eps, 1, dist=dist.tolist())


@st.composite
def row_maps(draw, max_k=40):
    """Each response's row, numbered by first use, every row used at least once."""
    picks = draw(st.lists(st.integers(0, 11), min_size=1, max_size=max_k))
    first: dict[int, int] = {}
    return [first.setdefault(p, len(first)) for p in picks]


@given(
    data=st.data(),
    rows=row_maps(),
    seed=st.integers(0, 2**32 - 1),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.05, 0.3, 1.0]),
    dim=st.sampled_from([2, 8]),
)
def test_dbscan_with_counts_matches_reference_on_repeated_rows(data, rows, seed, families, noise, dim):
    # distinct rows; the reference sees each response, copies 0 apart
    u = max(rows) + 1
    points, _ = planted_families(seed, u, families, noise, 0.0, dim)
    dist = cosine_distances(points)
    values = np.unique(dist[dist > 0]).tolist()
    eps_choices = st.floats(0.02, 0.9)
    if values:
        eps_choices = eps_choices | st.sampled_from(values)
    eps = data.draw(eps_choices, label="eps")
    min_pts = data.draw(st.sampled_from([1, 2, 3, 4, len(rows) + 1]), label="min_pts")

    got = dbscan(dist, ClusterParams(eps=eps, min_pts=min_pts), np.bincount(rows))
    assert len(got.labels) == u
    every = dist[np.ix_(rows, rows)]
    want = reference_dbscan(points[rows], eps, min_pts, dist=every.tolist())
    assert [got.labels[r] for r in rows] == want
    assert got.num_clusters == len(set(want) - {OUTLIER})
    # the weighted reference is the per-copy one
    weighted = reference_dbscan(points, eps, min_pts, dist=dist.tolist(), counts=np.bincount(rows))
    assert weighted == list(got.labels)


@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 12),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.05, 0.3, 1.0]),
    eps=st.floats(0.02, 0.9),
)
def test_dbscan_counts_are_exact_sums_of_responses(data, seed, k, families, noise, eps):
    points, _ = planted_families(seed, k, families, noise, 0.0, 2)
    dist = cosine_distances(points)
    # omitted counts are one response per point
    params = ClusterParams(eps=eps, min_pts=data.draw(st.integers(1, k + 1), label="min_pts"))
    assert dbscan(dist, params) == dbscan(dist, params, np.ones(k, dtype=int))
    # min_pts next to some point's neighbour sum, where a count off by
    # one would flip that point; twelve points of 2**20 stay below 2**24
    counts = data.draw(st.lists(st.integers(1, 2**20), min_size=k, max_size=k), label="counts")
    sums = [sum(c for c, w in zip(counts, row) if w) for row in (dist <= eps).tolist()]
    min_pts = data.draw(st.sampled_from(sorted({s + d for s in sums for d in (-1, 0, 1)} - {0})))
    got = dbscan(dist, ClusterParams(eps=eps, min_pts=min_pts), np.array(counts))
    assert list(got.labels) == reference_dbscan(
        points, eps, min_pts, dist=dist.tolist(), counts=counts
    )


def _near_tie_tol(scores, rows):
    """Whether two scores of different rows lie within 1e-9 above TIE_TOL, or
    below it by less than TIE_TOL / 2; closer gaps are ties on either side."""
    scores, rows = np.asarray(scores, dtype=np.float64), np.asarray(rows)
    gaps = np.abs(scores[:, None] - scores[None, :])[rows[:, None] != rows[None, :]]
    return bool(np.any((gaps > TIE_TOL / 2) & (gaps <= TIE_TOL + 1e-9)))


@given(
    rows=row_maps(),
    seed=st.integers(0, 2**32 - 1),
    families=st.integers(1, 4),
    noise=st.sampled_from([0.05, 0.3, 1.0]),
    eps=st.floats(0.02, 0.9),
    min_pts=st.integers(1, 4),
    rule=st.sampled_from(list(SelectionRule)),
)
def test_consensus_over_distinct_rows_matches_a_row_per_response(
    rows, seed, families, noise, eps, min_pts, rule
):
    u = max(rows) + 1
    points, row_texts = planted_families(seed, u, families, noise, 0.0)
    texts = [row_texts[r] for r in rows]
    every = points[rows]
    dist = cosine_distances(every)
    # a pair this close to eps is a neighbour or not by rounding alone
    apart = np.array(rows)[:, None] != np.array(rows)[None, :]
    assume(not np.any(np.abs(dist[apart] - eps) <= 1e-9))
    params, strategy = ClusterParams(eps=eps, min_pts=min_pts), SelectionStrategy(rule)
    # an explicit identity keeps a row per response; omitted rows would merge
    # the repeats onto the same rows as ``got``
    want = consensus_for_prompt(records(texts), every, params, strategy, range(len(rows)))

    # the scores each rule compares stay clear of the TIE_TOL boundary
    labels = np.array(want.clustering.labels)
    if want.clustering.num_clusters:
        sizes = np.bincount(labels[labels >= 0])
        tied = [np.flatnonzero(labels == c) for c in np.flatnonzero(sizes == sizes.max())]
        spreads = [average_pairwise_distance(m, dist) for m in tied]
        assume(not _near_tie_tol(spreads, range(len(tied))))
    members = list(want.consensus_members)
    means = dist[np.ix_(members, members)].sum(axis=1) / max(len(members) - 1, 1)
    member_rows = np.array(rows)[members]
    assume(not _near_tie_tol(means, member_rows))
    centroid = cosine_distances(every[members], want.centroid[None, :])[:, 0]
    assume(not _near_tie_tol(centroid, member_rows))

    got = consensus_for_prompt(records(texts), points, params, strategy, rows)
    assert got == want
    assert got.centroid.tobytes() == want.centroid.tobytes()
    # both runs take one path, so the pairwise oracle over a row per
    # response anchors them
    every_rows = [list(map(float, p)) for p in every]
    k = len(rows)
    if rule is SelectionRule.CENTROID:
        oracle = reference_consensus(list(range(k)), texts, every_rows, eps, min_pts)
        assert list(got.clustering.labels) == oracle["labels"]
        assert list(got.consensus_members) == oracle["members"]
        assert (got.representative, got.pseudo_label) == (
            oracle["representative"], oracle["pseudo_label"]
        )
        assert got.fallback_all_outliers == oracle["fallback"]
    elif rule is SelectionRule.GLOBAL_MEDOID:
        assert (got.representative, got.pseudo_label) == reference_global_medoid(
            list(range(k)), texts, every_rows
        )


# Spread offsets around a base: ties within TIE_TOL (at most 6e-13 apart,
# far from the 1e-12 boundary), and differences well beyond it.
_TIED_OFFSETS = (0.0, 3e-13, -3e-13)
_DISTINCT_OFFSETS = (2e-9, -2e-9, 0.05, 0.4)


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    outliers=st.integers(0, 3),
    ties_only=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 6), min_size=6, max_size=6),
    # mostly shuffled, so most random cases number clusters arbitrarily
    shuffled=st.sampled_from([True, True, True, False]),
)
# K=400 with min_pts 1, every point its own cluster: ids follow positions,
# as DBSCAN numbers them, and every cluster is tied
@example(sizes=[1] * 400, outliers=0, ties_only=True, seed=0, picks=[0, 1, 2, 0, 1, 2],
         shuffled=False)
# many singletons with ids in any order
@example(sizes=[1] * 400, outliers=0, ties_only=True, seed=0, picks=[0, 1, 2, 0, 1, 2],
         shuffled=True)
@example(sizes=[1] * 397, outliers=3, ties_only=False, seed=1, picks=[0, 1, 2, 3, 4, 5],
         shuffled=True)
@example(sizes=[2] * 200, outliers=0, ties_only=True, seed=2, picks=[0, 1, 2, 0, 1, 2],
         shuffled=True)
def test_select_consensus_cluster_matches_reference(
    sizes, outliers, ties_only, seed, picks, shuffled
):
    rng = np.random.default_rng(seed)
    offsets = _TIED_OFFSETS if ties_only else _TIED_OFFSETS + _DISTINCT_OFFSETS
    # cluster c's spread offset is offsets[picks[c % 6]]: independent for
    # up to 6 clusters, repeating beyond
    spreads = [0.5 + offsets[picks[c % len(picks)] % len(offsets)] for c in range(len(sizes))]
    pooled = [c for c, size in enumerate(sizes) for _ in range(size)] + [OUTLIER] * outliers
    order = rng.permutation(len(pooled)) if shuffled else range(len(pooled))
    labels = [pooled[i] for i in order]
    k = len(labels)
    # every pair inside cluster c sits at spreads[c]; other pairs anywhere in [0, 2]
    dist = rng.uniform(0.0, 2.0, size=(k, k))
    dist = np.triu(dist, 1) + np.triu(dist, 1).T
    for c, spread in enumerate(spreads):
        block = np.flatnonzero(np.array(labels) == c)
        dist[np.ix_(block, block)] = spread
    np.fill_diagonal(dist, 0.0)

    got = select_consensus_cluster(Clustering(tuple(labels), len(sizes)), dist)
    nested = dist.tolist()
    want = reference_select_cluster(labels, lambda a, b: nested[a][b])
    assert list(got) == want

    members_of = [[i for i, lab in enumerate(labels) if lab == c] for c in range(len(sizes))]
    largest = [c for c, size in enumerate(sizes) if size == max(sizes)]
    if len(largest) == 1:
        # a unique largest cluster wins whatever the spreads
        assert list(got) == members_of[largest[0]]
    elif ties_only:
        # every tied cluster is within TIE_TOL of every other: smallest position decides
        assert got[0] == min(members_of[c][0] for c in largest)


_CONSENSUS_CHILD = """
import json, sys
import numpy as np
from semfed.consensus import ClusterParams, consensus_for_prompt
from semfed.protocol import make_response

points = np.load(sys.argv[1])
texts = json.loads(open(sys.argv[2], encoding="utf-8").read())
recs = [make_response(i, "p0", t) for i, t in enumerate(texts)]
params = ClusterParams(eps=0.1, min_pts=3)
r = consensus_for_prompt(recs, list(points), params)
# rows scaled just inside and just outside UNIT_NORM_TOL
inside, outside = points.copy(), points.copy()
inside[150] *= 1 + 0.5e-9
outside[150] *= 1 + 2e-9
kept = consensus_for_prompt(recs, list(inside), params).consensus_members
try:
    consensus_for_prompt(recs, list(outside), params)
    verdict = None
except ValueError as exc:
    verdict = str(exc)
print(json.dumps([r.clustering.labels, r.consensus_members, r.representative, kept, verdict]))
"""


def test_consensus_is_independent_of_blas_thread_count(tmp_path):
    points, texts = planted_families(seed=5, k=200, families=4, noise=0.05, dup_share=0.3)
    points_path, texts_path = tmp_path / "points.npy", tmp_path / "texts.json"
    np.save(points_path, points)
    texts_path.write_text(json.dumps(texts), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _CONSENSUS_CHILD, str(points_path), str(texts_path)],
            capture_output=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    labels, members, _, kept, verdict = outputs[0]
    assert len(members) > 1 and max(labels) >= 1
    assert kept == members
    assert verdict == "embedding at position 150 is not unit norm"
