"""Acceptance battery: one test per numbered criterion.

Each test prints exactly one `[acceptance] criterion N (...): PASS|FAIL`
line on the real stdout so the verdicts survive pytest's capture, then
asserts the underlying checks.  Reference results come from the
independent implementations in oracles.py.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bound_harness import (
    client_variance_check,
    empirical_bound_check,
    make_quadratic_problem,
    random_distribution_pairs,
    tv_pinsker_check,
)
from oracles import (
    mp_delta,
    mp_stationarity,
    reference_consensus,
    reference_dbscan,
)
from semfed.clients import load_scripted_clients
from semfed.consensus import (
    ClusterParams,
    SelectionRule,
    SelectionStrategy,
    consensus_for_prompt,
    cosine_distances,
    dbscan,
)
from semfed.costmodel import (
    PRESETS,
    TextRoundCostSpec,
    comparison_report,
    lora_spec_for_preset,
    lora_upload_bytes,
    text_round_bytes,
)
from semfed.encoder import EncoderConfig, encode_normalized
from semfed.privacy import PrivacyLedger, RoundBudget, record_round, total_budget
from semfed.protocol import (
    Prompt,
    PublicPromptSet,
    SessionParams,
    make_response,
    run_session,
)
from semfed.theory import GapParams, StationarityParams, delta_T, stationarity_rhs


@pytest.fixture
def criterion(capfd):
    """Context manager printing one PASS/FAIL verdict line per criterion."""

    @contextmanager
    def _criterion(number: int, name: str):
        try:
            yield
        except BaseException:
            _verdict(capfd, number, name, "FAIL")
            raise
        _verdict(capfd, number, name, "PASS")

    return _criterion


def _verdict(capfd, number: int, name: str, outcome: str) -> None:
    with capfd.disabled():
        sys.stdout.write(f"\n[acceptance] criterion {number} ({name}): {outcome}\n")
        sys.stdout.flush()


# ------------------------------------------------------------ criterion 1


def test_criterion_1_exact_communication_costs(criterion):
    with criterion(1, "byte-exact communication cost examples"):
        start = time.perf_counter()

        text_spec = TextRoundCostSpec(
            num_clients=10, num_prompts=1024, avg_tokens=128.0, bytes_per_token=2.0
        )
        assert text_round_bytes(text_spec) == 5_242_880

        golden_uploads = {
            ("llama3.1-405b", "qv"): 528_482_304,
            ("llama3.1-405b", "attn_mlp"): 2_741_501_952,
            ("llama2-13b", "qv"): 52_428_800,
            ("llama2-13b", "attn_mlp"): 250_347_520,
        }
        for (preset_name, targets), want in golden_uploads.items():
            spec = lora_spec_for_preset(PRESETS[preset_name], targets, num_clients=1)
            assert lora_upload_bytes(spec) == want, (preset_name, targets)

        report = comparison_report(PRESETS["llama3.1-405b"], text_spec)
        by_targets = {e.targets: e for e in report.adapters}
        assert math.isclose(by_targets["qv"].ratio_exact, 201.6, rel_tol=1e-12)
        assert math.isclose(by_targets["attn_mlp"].ratio_exact, 1045.8, rel_tol=1e-12)
        assert by_targets["qv"].ratio_rounded == 194
        assert by_targets["attn_mlp"].ratio_rounded == 1006
        assert by_targets["qv"].total_mib == 1008.0
        assert by_targets["attn_mlp"].total_mib == 5229.0

        assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ criterion 2


def _handcrafted_pool() -> list[np.ndarray]:
    """32 exact unit vectors in 4-d, closed under negation."""
    vectors = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        vectors.append(e.copy())
        vectors.append(-e)
    root_half = 1.0 / math.sqrt(2.0)
    for i in range(4):
        for j in range(i + 1, 4):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                v = np.zeros(4)
                v[i] = si * root_half
                v[j] = sj * root_half
                vectors.append(v)
    return vectors


_WORDS = (
    "yes", "no", "maybe", "alpha", "gamma", "delta", "blue", "red",
    "water", "stone", "cloud", "sun", "it depends", "absolutely not",
)


def _encoded_pool() -> tuple[list[str], list[np.ndarray]]:
    config = EncoderConfig()
    texts = []
    for adj in ("red", "blue", "tall", "wet"):
        for noun in ("sky", "sea", "tree", "answer", "stone"):
            texts.append(f"the {adj} {noun} stands")
            texts.append(f"a {adj} {noun}")
    texts.extend(texts[:4])  # exact duplicates to force ties
    return texts, [encode_normalized(t, config) for t in texts]


def _consensus_instance(clients, texts, points, eps, min_pts):
    """Run package and oracle on one instance; return both results."""
    records = [
        make_response(client, "p", text) for client, text in zip(clients, texts)
    ]
    got = consensus_for_prompt(
        records,
        [np.asarray(p) for p in points],
        ClusterParams(eps=eps, min_pts=min_pts),
        SelectionStrategy(rule=SelectionRule.CENTROID),
    )
    want = reference_consensus(clients, texts, [list(map(float, p)) for p in points], eps, min_pts)
    return got, want


def _assert_consensus_agrees(got, want, context):
    assert list(got.clustering.labels) == want["labels"], context
    assert list(got.consensus_members) == want["members"], context
    assert got.representative == want["representative"], context
    assert got.pseudo_label == want["pseudo_label"], context
    assert got.fallback_all_outliers == want["fallback"], context


def test_criterion_2_consensus_matches_independent_reference(criterion):
    with criterion(2, "consensus pipeline vs independent reference, 1000+ instances"):
        rng = np.random.default_rng(20260815)
        grid = _handcrafted_pool()
        enc_texts, enc_points = _encoded_pool()
        instances = 0
        fallbacks = 0

        for case in range(550):
            k = int(rng.integers(1, 7))
            picks = rng.integers(0, len(grid), size=k)
            points = [grid[int(p)] for p in picks]
            texts = [_WORDS[int(w)] for w in rng.integers(0, len(_WORDS), size=k)]
            clients = sorted(int(c) for c in rng.choice(50, size=k, replace=False))
            eps = float(rng.uniform(0.05, 1.95))
            min_pts = int(rng.integers(1, 5))
            got, want = _consensus_instance(clients, texts, points, eps, min_pts)
            _assert_consensus_agrees(got, want, ("grid", case))
            instances += 1
            fallbacks += got.fallback_all_outliers

        for case in range(550):
            k = int(rng.integers(1, 7))
            picks = rng.integers(0, len(enc_texts), size=k)
            points = [enc_points[int(p)] for p in picks]
            texts = [enc_texts[int(p)] for p in picks]
            clients = sorted(int(c) for c in rng.choice(50, size=k, replace=False))
            eps = float(rng.uniform(0.05, 0.8))
            min_pts = int(rng.integers(1, 5))
            got, want = _consensus_instance(clients, texts, points, eps, min_pts)
            _assert_consensus_agrees(got, want, ("encoded", case))
            instances += 1
            fallbacks += got.fallback_all_outliers

        e0 = grid[0]
        crafted = [
            # antipodal pair, no cores: all-outlier fallback whose sum cancels
            ([3, 7], ["longer text", "short"], [e0, -e0], 0.5, 3),
            # two antipodal pairs chained into one cluster: zero-sum centroid
            ([0, 1, 2, 3], ["aa", "bb", "cc", "d"], [grid[0], grid[2], grid[1], grid[3]], 1.95, 2),
            # identical points and texts: every tie rule fires at once
            ([5, 6, 7], ["same", "same", "same"], [e0, e0.copy(), e0.copy()], 0.3, 2),
            # singleton prompt
            ([9], ["only voice"], [grid[10]], 0.3, 2),
        ]
        for clients, texts, points, eps, min_pts in crafted:
            got, want = _consensus_instance(clients, texts, points, eps, min_pts)
            _assert_consensus_agrees(got, want, ("crafted", clients))
            instances += 1
            fallbacks += got.fallback_all_outliers

        assert instances >= 1000
        assert fallbacks >= 10


# ------------------------------------------------------------ criterion 3


def test_criterion_3_clustering_matches_independent_reference(criterion):
    with criterion(3, "deterministic clustering vs independent reference, 1000+ instances"):
        rng = np.random.default_rng(77)
        checked = 0

        for case in range(1000):
            k = int(rng.integers(1, 11))
            dim = 3 if case % 2 == 0 else 8
            raw = rng.normal(size=(k, dim))
            points = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            eps = float(rng.uniform(0.05, 0.8))
            min_pts = int(rng.integers(1, 5))
            got = dbscan(cosine_distances(points), ClusterParams(eps=eps, min_pts=min_pts))
            want = reference_dbscan([list(map(float, p)) for p in points], eps, min_pts)
            assert list(got.labels) == want, ("random", case)
            checked += 1

        # structured: duplicates, antipodes, and tight pairs in 3-d
        base = np.eye(3)
        structured_points = [
            [base[0], base[0].copy(), base[1], -base[0]],
            [base[0]] * 5,
            [base[0], -base[0]],
            [base[0], base[1], base[2]],
        ]
        for case in range(100):
            points = structured_points[case % len(structured_points)]
            eps = float(rng.uniform(0.05, 1.95))
            min_pts = int(rng.integers(1, 5))
            got = dbscan(cosine_distances(points), ClusterParams(eps=eps, min_pts=min_pts))
            want = reference_dbscan([list(map(float, p)) for p in points], eps, min_pts)
            assert list(got.labels) == want, ("structured", case)
            checked += 1

        assert checked >= 1000


# ------------------------------------------------------------ criterion 4


def _ascii_response(prefix: str, pad: str, size: int = 128) -> str:
    if len(prefix) > size:
        raise AssertionError("prefix too long")
    text = prefix + pad * (size - len(prefix))
    assert len(text.encode("utf-8")) == size
    return text


def test_criterion_4_round_metering_matches_closed_form(criterion, tmp_path):
    with criterion(4, "3-vs-2 session: majority labels and exact byte meters"):
        num_clients, num_prompts, rounds = 5, 20, 2
        prompts = PublicPromptSet(
            prompts=tuple(Prompt(f"q{i:02d}", f"question number {i}") for i in range(num_prompts))
        )
        majority = {
            p.prompt_id: _ascii_response(f"majority view on {p.prompt_id} ", "m")
            for p in prompts.prompts
        }
        minority = {
            p.prompt_id: _ascii_response(f"dissent zq{p.prompt_id[1:]} ", "z")
            for p in prompts.prompts
        }
        rows = []
        for rnd in range(1, rounds + 1):
            for client in range(num_clients):
                source = majority if client < 3 else minority
                for p in prompts.prompts:
                    rows.append(
                        {
                            "client": client,
                            "round": rnd,
                            "prompt_id": p.prompt_id,
                            "response": source[p.prompt_id],
                        }
                    )
        script_path = tmp_path / "scripts.jsonl"
        script_path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        clients = load_scripted_clients(script_path)

        report = run_session(list(clients), prompts, rounds, SessionParams())

        per_round = num_clients * num_prompts * 128
        assert per_round == 12_800
        majority_sourced = 0
        for transcript in report.transcripts:
            assert transcript.uploaded_bytes == per_round
            assert transcript.downloaded_bytes == per_round
            assert len(transcript.broadcast) == num_prompts
            assert not transcript.errors
            for prompt_id, label in transcript.broadcast:
                assert label == majority[prompt_id]
                majority_sourced += 1
            for entry in transcript.consensus:
                assert list(entry.members) == [0, 1, 2]
        assert majority_sourced == rounds * num_prompts

        text_spec = TextRoundCostSpec(
            num_clients=num_clients,
            num_prompts=num_prompts,
            avg_tokens=128.0,
            bytes_per_token=1.0,
        )
        assert text_round_bytes(text_spec) == per_round * 2
        assert report.total_uploaded_bytes + report.total_downloaded_bytes == rounds * text_round_bytes(text_spec)


# ------------------------------------------------------------ criterion 5


def test_criterion_5_stationarity_bound_holds_on_exact_assumption_problem(criterion):
    with criterion(5, "biased-SGD bound holds on 100/100 seeded runs"):
        start = time.perf_counter()
        gap = GapParams(
            grad_bound=1.0,
            kl_shift=0.02,
            label_noise=0.05,
            public_batch=256,
            param_dim=2,
            total_steps=500,
            confidence=0.05,
        )
        problem = make_quadratic_problem(
            client_optima=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            init=[2.0, 1.0],
            gap=gap,
            step_size=1.0 / 8.0,
            noise_sigma=0.1,
            bias_magnitude=delta_T(gap) / 2.0,
            seed=42,
        )
        report = empirical_bound_check(problem, runs=100)
        assert report.violations == 0
        assert len(report.per_run_lhs) == 100
        assert report.mean_lhs < report.bound.total
        assert time.perf_counter() - start < 60.0


# ------------------------------------------------------------ criterion 6


def test_criterion_6_supporting_inequalities_hold(criterion):
    with criterion(6, "Pinsker, expectation-shift, and variance checks hold"):
        pairs = random_distribution_pairs(1000, support=6, seed=11)
        report = tv_pinsker_check(pairs, bound=1.5, functions_per_pair=1, seed=12)
        assert report.instances == 1000
        assert report.pinsker_violations == 0
        assert report.shift_violations == 0
        assert report.max_pinsker_slack <= 0.0
        assert report.min_shift_slack >= 0.0

        rng = np.random.default_rng(6)
        for config in range(50):
            k = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 9))
            grads = rng.normal(scale=2.0, size=(k, dim))
            noise_var = float(rng.uniform(0.0, 2.0))
            check = client_variance_check(
                grads, noise_var=noise_var, samples=4000, seed=1000 + config
            )
            assert check.holds_within_3se, config


# ------------------------------------------------------------ criterion 7


def _random_gap(rng) -> GapParams:
    return GapParams(
        grad_bound=float(rng.uniform(0.01, 5.0)),
        kl_shift=float(rng.uniform(0.0, 3.0)),
        label_noise=float(rng.uniform(0.0, 1.0)),
        public_batch=int(rng.integers(1, 10**6)),
        param_dim=int(rng.integers(1, 513)),
        total_steps=int(rng.integers(1, 10**6)),
        confidence=float(rng.uniform(0.001, 0.999)),
    )


def test_criterion_7_closed_forms_precise_and_monotone(criterion):
    with criterion(7, "closed forms match 60-digit oracle and are monotone"):
        rng = np.random.default_rng(707)

        for point in range(100):
            gap = _random_gap(rng)
            got = delta_T(gap)
            want = float(
                mp_delta(
                    gap.grad_bound, gap.kl_shift, gap.label_noise, gap.public_batch,
                    gap.param_dim, gap.total_steps, gap.confidence,
                )
            )
            assert abs(got - want) <= 1e-12 * abs(want), ("gap", point)

            smoothness = float(rng.uniform(0.1, 10.0))
            step = float(rng.uniform(0.05, 1.0)) / (4.0 * smoothness)
            noise_var = float(rng.uniform(0.0, 5.0))
            heterogeneity = float(rng.uniform(0.0, 5.0))
            init_gap = float(rng.uniform(0.1, 10.0))
            got_total = stationarity_rhs(
                StationarityParams(
                    gap=gap, smoothness=smoothness, step_size=step,
                    noise_var=noise_var, heterogeneity=heterogeneity, init_gap=init_gap,
                )
            ).total
            want_total = float(
                mp_stationarity(
                    gap.grad_bound, gap.kl_shift, gap.label_noise, gap.public_batch,
                    gap.param_dim, gap.total_steps, gap.confidence,
                    smoothness, step, noise_var, heterogeneity, init_gap,
                )
            )
            assert abs(got_total - want_total) <= 1e-12 * abs(want_total), ("rhs", point)

        for draw in range(10_000):
            gap = _random_gap(rng)
            base = delta_T(gap)
            coord = draw % 3
            if coord == 0:
                grown = GapParams(
                    gap.grad_bound, gap.kl_shift, gap.label_noise, gap.public_batch,
                    gap.param_dim, gap.total_steps * int(rng.integers(2, 10)), gap.confidence,
                )
                assert delta_T(grown) >= base
            elif coord == 1:
                grown = GapParams(
                    gap.grad_bound, gap.kl_shift, gap.label_noise, gap.public_batch,
                    gap.param_dim + int(rng.integers(1, 64)), gap.total_steps, gap.confidence,
                )
                assert delta_T(grown) >= base
            else:
                grown = GapParams(
                    gap.grad_bound, gap.kl_shift, gap.label_noise,
                    gap.public_batch * int(rng.integers(2, 10)),
                    gap.param_dim, gap.total_steps, gap.confidence,
                )
                assert delta_T(grown) <= base


# ------------------------------------------------------------ criterion 8


def test_criterion_8_privacy_composition_sums(criterion):
    with criterion(8, "privacy composition: coordinate-wise sums"):
        ledger = PrivacyLedger(client=0)
        for r in (1, 2, 3):
            ledger = record_round(ledger, RoundBudget(r, 1.0, 1e-5))
        eps, delta = total_budget(ledger)
        assert eps == 3.0
        assert math.isclose(delta, 3e-5, rel_tol=1e-12)

        rng = np.random.default_rng(8)
        for case in range(200):
            n = int(rng.integers(0, 12))
            costs = [(float(rng.uniform(0, 2)), float(rng.uniform(0, 0.01))) for _ in range(n)]
            split = int(rng.integers(0, n + 1))
            whole = PrivacyLedger(client=1)
            head = PrivacyLedger(client=1)
            tail = PrivacyLedger(client=1)
            for i, (e, d) in enumerate(costs, start=1):
                whole = record_round(whole, RoundBudget(i, e, d))
                if i <= split:
                    head = record_round(head, RoundBudget(i, e, d))
                else:
                    tail = record_round(tail, RoundBudget(i, e, d))
            we, wd = total_budget(whole)
            he, hd = total_budget(head)
            te, td = total_budget(tail)
            assert math.isclose(we, he + te, rel_tol=1e-12, abs_tol=1e-15), case
            assert math.isclose(wd, hd + td, rel_tol=1e-12, abs_tol=1e-15), case


# ------------------------------------------------------------ criterion 9


def _write_session_fixture(base) -> str:
    prompts = base / "prompts.jsonl"
    prompts.write_text(
        "".join(
            json.dumps({"prompt_id": f"p{i}", "text": f"topic {i} question"}) + "\n"
            for i in range(4)
        ),
        encoding="utf-8",
    )
    rows = []
    for rnd in (1, 2):
        for client in range(3):
            for i in range(4):
                text = f"agreed answer {i}" if client < 2 else f"qqvz dissent {i}"
                rows.append(
                    {"client": client, "round": rnd, "prompt_id": f"p{i}", "response": text}
                )
    scripts = base / "scripts.jsonl"
    scripts.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    config = base / "config.json"
    config.write_text(
        json.dumps(
            {
                "clients": {"type": "scripted", "path": "scripts.jsonl"},
                "rounds": 2,
                "prompt_file": "prompts.jsonl",
            }
        ),
        encoding="utf-8",
    )
    return str(config)


def test_criterion_9_cli_simulation_is_deterministic(criterion, tmp_path):
    with criterion(9, "CLI reruns under different hash seeds are byte-identical"):
        config = _write_session_fixture(tmp_path)
        outputs = []
        for run, hash_seed in (("a", "0"), ("b", "4242")):
            out_dir = tmp_path / run
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "semfed.cli", "simulate",
                    "--config", config, "--output", str(out_dir),
                ],
                capture_output=True,
                env=env,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            files = {
                name: (out_dir / name).read_bytes()
                for name in ("round_0001.json", "round_0002.json", "session.json")
            }
            outputs.append((proc.stdout, files))
        assert outputs[0] == outputs[1]
