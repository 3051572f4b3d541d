import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_normalize

import semfed
from semfed import cli, protocol
from semfed.cli import build_parser, main
from semfed.clients import TrainingWeights
from semfed.consensus import OUTLIER, ClusterParams, SelectionStrategy
from semfed.encoder import EncoderConfig
from semfed.privacy import PrivacyWarning
from semfed.protocol import SessionParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- cost


def test_cost_defaults_match_reference_total(capsys):
    report = run_json(capsys, "cost")
    assert report["command"] == "cost"
    assert report["outputs"]["text_round"]["total_bytes"] == 5_242_880
    assert report["inputs"]["clients"] == 10
    assert report["version"]


def test_cost_upload_only_halves_total(capsys):
    report = run_json(capsys, "cost", "--upload-only")
    assert report["outputs"]["text_round"]["total_bytes"] == 2_621_440
    assert report["outputs"]["text_round"]["include_download"] is False


def test_cost_preset_comparison_numbers(capsys):
    report = run_json(capsys, "cost", "--preset", "llama3.1-405b")
    comparison = report["outputs"]["comparison"]
    assert comparison["text_mb"] == pytest.approx(5.24288, rel=1e-12)
    by_targets = {e["targets"]: e for e in comparison["adapters"]}
    qv = by_targets["qv"]
    assert qv["upload_bytes"] == 528_482_304
    assert qv["total_mib"] == pytest.approx(1008.0, rel=1e-12)
    assert qv["ratio_exact"] == pytest.approx(201.6, rel=1e-12)
    assert qv["ratio_rounded"] == 194
    full = by_targets["attn_mlp"]
    assert full["upload_bytes"] == 2_741_501_952
    assert full["ratio_exact"] == pytest.approx(1045.8, rel=1e-12)
    assert full["ratio_rounded"] == 1006


def test_cost_subsample(capsys):
    report = run_json(
        capsys, "cost", "--subsample-fraction", "0.5", "--total-params", "1000",
        "--clients", "2", "--bytes-per-param", "2.0",
    )
    assert report["outputs"]["subsample"]["total_bytes"] == 2000


def test_cost_subsample_requires_total_params(capsys):
    code, _, err = run_cli(capsys, "cost", "--subsample-fraction", "0.5")
    assert code == 2
    assert "total-params" in err


def test_cost_csv_format(capsys):
    code, out, _ = run_cli(capsys, "cost", "--preset", "llama2-13b", "--format", "csv")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert lines[0].split(",") == ["kind", "targets", "bytes"]
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert rows[("text_round", "")] == "5242880"
    assert rows[("lora_upload", "qv")] == "52428800"


def test_cost_rejects_invalid_spec(capsys):
    code, _, err = run_cli(capsys, "cost", "--clients", "0")
    assert code == 2
    assert "num_clients" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tokens", "inf"], "avg_tokens must be finite"),
        (["--tokens", "nan"], "avg_tokens must be finite"),
        (["--bytes-per-token", "inf"], "bytes_per_token must be finite"),
        (["--preset", "llama3.1-405b", "--bytes-per-param", "inf"], "bytes_per_param must be finite"),
        (["--subsample-fraction", "0.5", "--total-params", "10", "--bytes-per-param", "nan"],
         "bytes_per_param must be finite"),
        (["--tokens", "1e308", "--prompts", "10000000"], "does not fit a float"),
        (["--bytes-per-token", "1e-120", "--preset", "llama2-13b"], "rounds to 0 bytes"),
        (["--preset", "llama2-13b", "--bytes-per-param", "1e300", "--rank", "10" * 10],
         "does not fit a float"),
        # flags no output uses are still echoed, so still checked
        (["--rank", "0"], "rank must be >= 1"),
        (["--bytes-per-param", "nan", "--format", "csv"], "bytes_per_param must be finite"),
        (["--bytes-per-param", "-1"], "bytes_per_param must be finite"),
        (["--total-params", "0"], "total_params must be >= 1"),
        (["--subsample-fraction", "nan", "--total-params", "10"], "subsample_fraction must be in"),
    ],
)
def test_cost_non_finite_or_overflowing_input_fails(capsys, argv, message):
    code, out, err = run_cli(capsys, "cost", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_cost_comparison_with_a_total_under_a_tenth_of_a_mb(capsys):
    # the text total rounds to 0.0 MB, so the rounded ratio is undefined
    report = run_json(capsys, "cost", "--clients", "1", "--prompts", "1", "--tokens", "1",
                      "--preset", "llama2-13b")
    comparison = report["outputs"]["comparison"]
    assert comparison["text_bytes"] == 4
    for entry in comparison["adapters"]:
        assert entry["ratio_rounded"] is None
        assert entry["ratio_exact"] == entry["total_bytes"] / 4


# ---------------------------------------------------------------- bound


def test_bound_zero_gradient_bound(capsys):
    report = run_json(capsys, "bound", "--grad-bound", "0")
    assert report["outputs"]["gap"] == 0.0
    assert "stationarity" not in report["outputs"]


def test_bound_full_stationarity(capsys):
    report = run_json(
        capsys, "bound", "--grad-bound", "1", "--kl-shift", "0.5",
        "--label-noise", "0.1", "--public-batch", "64", "--param-dim", "4",
        "--steps", "100", "--confidence", "0.05", "--smoothness", "2",
        "--step-size", "0.1", "--noise-var", "0.5", "--heterogeneity", "1",
        "--init-gap", "3",
    )
    gap = report["outputs"]["gap"]
    assert gap == pytest.approx(3.9140192786565122, rel=1e-12)
    st = report["outputs"]["stationarity"]
    assert st["total"] == pytest.approx(
        st["descent_term"] + st["noise_term"] + st["bias_term"], rel=1e-15
    )


def test_bound_partial_stationarity_flags_fail(capsys):
    code, _, err = run_cli(capsys, "bound", "--grad-bound", "1", "--smoothness", "2")
    assert code == 2
    assert "--step-size" in err


def test_bound_step_cap_violation_fails(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--grad-bound", "1", "--smoothness", "1",
        "--step-size", "0.5", "--noise-var", "0", "--heterogeneity", "0",
        "--init-gap", "0",
    )
    assert code == 2
    assert "step_size" in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--grad-bound", "nan"], "grad_bound"),
        (["--grad-bound", "inf"], "grad_bound"),
        (["--grad-bound", "1", "--kl-shift", "nan"], "kl_shift"),
        (["--grad-bound", "1", "--smoothness", "nan", "--step-size", "0.1", "--noise-var", "0",
          "--heterogeneity", "0", "--init-gap", "0"], "smoothness"),
        (["--grad-bound", "1", "--smoothness", "1", "--step-size", "0.1", "--noise-var", "inf",
          "--heterogeneity", "0", "--init-gap", "0"], "noise_var"),
    ],
)
def test_bound_non_finite_input_names_the_field(capsys, flags, field):
    code, out, err = run_cli(capsys, "bound", *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize(
    "flags, message",
    [
        # 2 * 1e308 is inf, and inf times the default label noise 0.0 is NaN
        (["--grad-bound", "1e308", "--param-dim", "1000000", "--steps", "1000000"], "gap overflows to nan"),
        (["--grad-bound", "1e308", "--label-noise", "0.5"], "gap overflows to inf"),
        (["--grad-bound", "1", "--smoothness", "1", "--step-size", "1e-300", "--noise-var", "0",
          "--heterogeneity", "0", "--init-gap", "1e10"], "stationarity total overflows to inf"),
    ],
)
def test_bound_that_does_not_fit_a_float_fails(capsys, flags, message):
    code, out, err = run_cli(capsys, "bound", *flags)
    assert (code, out, err) == (2, "", f"error: bound does not fit a float: {message}\n")


# ---------------------------------------------------------------- privacy


def test_privacy_totals_and_vacuous_flag(tmp_path, capsys):
    path = tmp_path / "ledger.csv"
    path.write_text(
        "client,round,epsilon,delta\n"
        "0,1,1.0,0.00001\n0,2,1.0,0.00001\n0,3,1.0,0.00001\n"
        "1,1,0.5,0.6\n1,2,0.5,0.6\n",
        encoding="utf-8",
    )
    with pytest.warns(PrivacyWarning):
        report = run_json(capsys, "privacy", "--csv", str(path), "--semantics", "per-example")
    rows = {r["client"]: r for r in report["outputs"]["clients"]}
    assert rows[0]["epsilon_total"] == 3.0
    assert rows[0]["delta_total"] == pytest.approx(3e-5, rel=1e-12)
    assert rows[0]["delta_vacuous"] is False
    assert rows[1]["delta_vacuous"] is True
    combined = report["outputs"]["combined"]
    assert combined["epsilon_total"] == 4.0
    assert report["outputs"]["semantics"] == "per-example"


def test_privacy_empty_csv(tmp_path, capsys):
    path = tmp_path / "ledger.csv"
    path.write_text("client,round,epsilon,delta\n", encoding="utf-8")
    report = run_json(capsys, "privacy", "--csv", str(path))
    assert report["outputs"]["clients"] == []
    assert report["outputs"]["combined"] == {"epsilon_total": 0.0, "delta_total": 0.0}


def test_privacy_bad_csv_fails(tmp_path, capsys):
    path = tmp_path / "ledger.csv"
    path.write_text("client,round\n0,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "privacy", "--csv", str(path))
    assert code == 2
    assert "header" in err
    # a non-finite budget, or a total that overflows, is not JSON: exit 2, no NaN/Infinity
    for rows, message in (("0,1,nan,0\n", "finite"), ("0,1,inf,0\n", "finite"),
                          ("0,1,1e308,0\n0,2,1e308,0\n", "not valid JSON")):
        path.write_text("client,round,epsilon,delta\n" + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "privacy", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err
    # every error about a row names its line, also those raised after sorting
    for rows, message in (
        ("0,1,1,0\n0,2,nan,0\n", ":3: malformed row"),
        ("0,1,1,0\n0,2,1,nan\n", ":3: malformed row"),
        ("0,0,1,0\n", ":2: malformed row"),
        ("0,1,1,0\n\n-1,1,1,0\n", ":4: client must be >= 0"),
        ("0,2,1,0\n0,1,1,0\n0,2,1,0\n", ":4: round 2 does not follow round 2"),
        ("0,1,1,x\n", ":2: malformed row"),
        ("0,1,1\n", ":2: malformed row"),
        ("0,1,1," + "9" * 200_000 + "\n", ":2: field larger than field limit"),
    ):
        path.write_text("client,round,epsilon,delta\n" + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "privacy", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}{message}"), err[:200]


def test_calculator_echo_lists_every_parser_destination(tmp_path, capsys):
    path = tmp_path / "ledger.csv"
    path.write_text("client,round,epsilon,delta\n", encoding="utf-8")
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    for argv, unechoed in (
        (["cost"], {"format"}),
        (["bound", "--grad-bound", "1.0"], set()),
        (["privacy", "--csv", str(path)], set()),
    ):
        actions = subparsers.choices[argv[0]]._actions
        dests = {a.dest for a in actions if a.dest != "help"} - unechoed
        assert set(run_json(capsys, *argv)["inputs"]) == dests, argv[0]


# ---------------------------------------------------------------- consensus


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def test_consensus_majority_and_skipped_clients(tmp_path, capsys):
    rows = [
        {"prompt_id": "p0", "client_id": 0, "response": "roses are red"},
        {"prompt_id": "p0", "client_id": 1, "response": "roses are red"},
        {"prompt_id": "p0", "client_id": 2, "response": ""},
        {"prompt_id": "p1", "client_id": 0, "response": ""},
        {"prompt_id": "p1", "client_id": 1, "response": ""},
    ]
    path = write_jsonl(tmp_path / "responses.jsonl", rows)
    report = run_json(capsys, "consensus", "--input", str(path))
    prompts = {entry["prompt_id"]: entry for entry in report["outputs"]["prompts"]}

    p0 = prompts["p0"]
    assert p0["clients"] == [0, 1]
    assert p0["skipped_clients"] == [2]
    assert p0["pseudo_label"] == "roses are red"
    assert p0["members"] == [0, 1]
    assert p0["labels"] == [0, 0]
    assert p0["fallback_all_outliers"] is False
    assert len(p0["centroid"]) == 384

    p1 = prompts["p1"]
    assert p1["error"] == "no_embeddable_responses"
    assert p1["skipped_clients"] == [0, 1]


def test_consensus_single_response_falls_back(tmp_path, capsys):
    path = write_jsonl(
        tmp_path / "r.jsonl", [{"prompt_id": "p", "client_id": 5, "response": "lone answer"}]
    )
    report = run_json(capsys, "consensus", "--input", str(path))
    (entry,) = report["outputs"]["prompts"]
    assert entry["fallback_all_outliers"] is True
    assert entry["representative"] == 5
    assert entry["pseudo_label"] == "lone answer"


def test_consensus_duplicate_client_row_fails(tmp_path, capsys):
    path = write_jsonl(
        tmp_path / "r.jsonl",
        [
            {"prompt_id": "p", "client_id": 0, "response": "a"},
            {"prompt_id": "p", "client_id": 0, "response": "b"},
        ],
    )
    code, _, err = run_cli(capsys, "consensus", "--input", str(path))
    assert code == 2
    assert "duplicate client" in err


def test_consensus_with_external_embeddings(tmp_path, capsys):
    responses = write_jsonl(
        tmp_path / "r.jsonl",
        [
            {"prompt_id": "p", "client_id": 0, "response": "yes"},
            {"prompt_id": "p", "client_id": 1, "response": "yes!"},
            {"prompt_id": "p", "client_id": 2, "response": "no"},
        ],
    )
    embeddings = write_jsonl(
        tmp_path / "e.jsonl",
        [
            {"response_id": "p/0", "embedding": [1.0, 0.0]},
            {"response_id": "p/1", "embedding": [0.98, 0.199]},
            {"response_id": "p/2", "embedding": [-1.0, 0.0]},
        ],
    )
    report = run_json(
        capsys, "consensus", "--input", str(responses), "--embeddings", str(embeddings)
    )
    (entry,) = report["outputs"]["prompts"]
    assert entry["members"] == [0, 1]
    assert entry["pseudo_label"] == "yes"
    assert entry["labels"] == [0, 0, -1]


def per_row_normalize(raw):
    """``normalize_rows`` as one ``reference_normalize`` call per row."""
    rows = np.asarray(raw, dtype=np.float64)
    units = [reference_normalize(row) for row in rows]
    zero = np.array([unit is None for unit in units])
    return np.array([row if unit is None else unit for row, unit in zip(rows, units)]), zero


def test_consensus_external_float_embeddings_print_the_per_row_result(tmp_path, capsys, monkeypatch):
    vectors = {
        "p/0": [0.1, 0.7, 0.3],
        "p/1": [0.11, 0.69, 0.31],
        "p/2": [0.0, 0.0, 0.0],
        "p/3": [-0.5, 0.2, 0.9],
        "p/4": [0.1, 0.7, 0.3],
        "p/5": [0.3, 1.9, 0.7],
        "q/0": [1e-7, 3e-7, -2e-7],
        "q/1": [0.3, 0.9, -0.6],
    }
    responses = write_jsonl(
        tmp_path / "r.jsonl",
        [{"prompt_id": rid[0], "client_id": int(rid[2]), "response": f"answer {rid}"} for rid in vectors],
    )
    embeddings = write_jsonl(
        tmp_path / "e.jsonl", [{"response_id": rid, "embedding": vec} for rid, vec in vectors.items()]
    )
    argv = ["consensus", "--input", str(responses), "--embeddings", str(embeddings)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    p, q = json.loads(out)["outputs"]["prompts"]
    assert p["skipped_clients"] == [2] and len(p["centroid"]) == 3 and q["clients"] == [0, 1]
    monkeypatch.setattr(protocol, "normalize_rows", per_row_normalize)
    assert run_cli(capsys, *argv) == (0, out, "")


def test_consensus_missing_external_embedding_fails(tmp_path, capsys):
    responses = write_jsonl(
        tmp_path / "r.jsonl", [{"prompt_id": "p", "client_id": 0, "response": "yes"}]
    )
    embeddings = write_jsonl(
        tmp_path / "e.jsonl", [{"response_id": "q/0", "embedding": [1.0, 0.0]}]
    )
    code, out, err = run_cli(
        capsys, "consensus", "--input", str(responses), "--embeddings", str(embeddings)
    )
    assert (code, out, err) == (2, "", "error: missing external embedding for 'p/0'\n")


def test_consensus_malformed_external_embedding_fails(tmp_path, capsys):
    responses = write_jsonl(
        tmp_path / "r.jsonl", [{"prompt_id": "p", "client_id": 0, "response": "yes"}]
    )
    embeddings = write_jsonl(
        tmp_path / "e.jsonl", [{"response_id": "p/0", "embedding": {"x": 1}}]
    )
    code, out, err = run_cli(
        capsys, "consensus", "--input", str(responses), "--embeddings", str(embeddings)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {embeddings}:1: embedding")


def test_consensus_external_embedding_whose_norm_overflows_fails(tmp_path, capsys):
    # finite entries, but the squared norm is 2e400; no numpy warning may escape
    responses = write_jsonl(
        tmp_path / "r.jsonl", [{"prompt_id": "p", "client_id": 0, "response": "yes"}]
    )
    embeddings = write_jsonl(
        tmp_path / "e.jsonl", [{"response_id": "p/0", "embedding": [1e200, 1e200]}]
    )
    code, out, err = run_cli(
        capsys, "consensus", "--input", str(responses), "--embeddings", str(embeddings)
    )
    assert (code, out, err) == (2, "", f"error: {embeddings}:1: embedding norm overflows a float\n")


def test_consensus_external_zero_embedding_is_skipped(tmp_path, capsys):
    responses = write_jsonl(
        tmp_path / "r.jsonl",
        [
            {"prompt_id": "p", "client_id": 0, "response": "yes"},
            {"prompt_id": "p", "client_id": 1, "response": "yes"},
            {"prompt_id": "q", "client_id": 0, "response": "no"},
        ],
    )
    embeddings = write_jsonl(
        tmp_path / "e.jsonl",
        [
            {"response_id": "p/0", "embedding": [1.0, 0.0]},
            {"response_id": "p/1", "embedding": [0.0, 0.0]},
            {"response_id": "q/0", "embedding": [0, 0]},
        ],
    )
    report = run_json(
        capsys, "consensus", "--input", str(responses), "--embeddings", str(embeddings)
    )
    p, q = report["outputs"]["prompts"]
    assert p["clients"] == [0] and p["skipped_clients"] == [1]
    assert q == {"prompt_id": "q", "error": "no_embeddable_responses", "skipped_clients": [0]}


def test_consensus_flag_defaults_are_the_dataclass_defaults():
    args = build_parser().parse_args(["consensus", "--input", "r.jsonl"])
    cluster, encoder = ClusterParams(), EncoderConfig()
    assert (args.eps, args.min_pts, args.strategy, args.seed) == (
        cluster.eps,
        cluster.min_pts,
        SelectionStrategy().rule.value,
        None,
    )
    assert (args.dimension, args.ngram, args.encoder_seed, args.lowercase) == (
        encoder.dimension,
        encoder.ngram_size,
        encoder.seed,
        encoder.lowercase,
    )


@pytest.mark.parametrize("flags, lowercase", [([], False), (["--lowercase"], True)])
def test_consensus_lowercase_flag_reaches_the_encoder(tmp_path, capsys, flags, lowercase):
    responses = write_jsonl(
        tmp_path / "r.jsonl",
        [
            {"prompt_id": "p0", "client_id": 0, "response": "Hello World"},
            {"prompt_id": "p0", "client_id": 1, "response": "hello world"},
        ],
    )
    report = run_json(capsys, "consensus", "--input", str(responses), *flags)
    assert report["inputs"]["encoder"]["lowercase"] is lowercase
    (entry,) = report["outputs"]["prompts"]
    if lowercase:
        # both texts encode to one vector, so they form one cluster
        assert (entry["labels"], entry["members"]) == ([0, 0], [0, 1])
    else:
        assert entry["labels"] == [OUTLIER, OUTLIER]
        assert entry["fallback_all_outliers"] is True


def test_negative_strategy_seed_fails_naming_it(tmp_path, capsys):
    responses = write_jsonl(
        tmp_path / "r.jsonl",
        [{"prompt_id": "p0", "client_id": c, "response": "the same answer"} for c in range(3)],
    )
    for strategy in ("centroid", "random_in_cluster"):
        code, out, err = run_cli(
            capsys, "consensus", "--input", str(responses), "--strategy", strategy, "--seed=-1"
        )
        assert (code, out) == (2, ""), strategy
        assert err.startswith("error: strategy seed must be a non-negative integer"), err
    config_path, base = scripted_fixture(tmp_path)
    for config in (
        {**base, "strategy_seed": -1},
        {**base, "strategy": "random_in_cluster", "strategy_seed": -1},
    ):
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
        assert (code, out) == (2, ""), config
        assert err.startswith("error: strategy seed must be a non-negative integer"), err
    # no upper bound
    report = run_json(
        capsys, "consensus", "--input", str(responses), "--strategy", "random_in_cluster",
        f"--seed={2**70}",
    )
    assert report["seed"] == 2**70
    assert report["outputs"]["prompts"][0]["members"] == [0, 1, 2]


# ---------------------------------------------------------------- simulate


MAJORITY_P0 = "the sky is blue"
MINORITY_P0 = "zzq vrn kplx woth"
LABEL_P1 = "water is wet"


def scripted_fixture(tmp_path):
    prompts = write_jsonl(
        tmp_path / "prompts.jsonl",
        [
            {"prompt_id": "p0", "text": "what color is the sky"},
            {"prompt_id": "p1", "text": "is water wet"},
        ],
    )
    rows = []
    for rnd in (1, 2):
        for client in range(3):
            rows.append(
                {
                    "client": client,
                    "round": rnd,
                    "prompt_id": "p0",
                    "response": MAJORITY_P0 if client < 2 else MINORITY_P0,
                }
            )
            rows.append(
                {"client": client, "round": rnd, "prompt_id": "p1", "response": LABEL_P1}
            )
    scripts = write_jsonl(tmp_path / "scripts.jsonl", rows)
    config = {
        "clients": {"type": "scripted", "path": scripts.name},
        "rounds": 2,
        "prompt_file": prompts.name,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path, config


def test_simulate_scripted_session(tmp_path, capsys):
    config_path, _ = scripted_fixture(tmp_path)
    out_dir = tmp_path / "out"
    report = run_json(
        capsys, "simulate", "--config", str(config_path), "--output", str(out_dir)
    )
    per_round_upload = sum(
        len(t.encode("utf-8")) for t in (MAJORITY_P0, MAJORITY_P0, MINORITY_P0, LABEL_P1, LABEL_P1, LABEL_P1)
    )
    outputs = report["outputs"]
    assert outputs["rounds"] == 2
    assert outputs["total_uploaded_bytes"] == 2 * per_round_upload

    round_1 = json.loads((out_dir / "round_0001.json").read_text(encoding="utf-8"))
    labels = {b["prompt_id"]: b["pseudo_label"] for b in round_1["broadcast"]}
    assert labels == {"p0": MAJORITY_P0, "p1": LABEL_P1}
    assert round_1["uploaded_bytes"] == per_round_upload
    # both prompts broadcast to all 3 clients
    expected_down = 3 * (len(MAJORITY_P0.encode()) + len(LABEL_P1.encode()))
    assert round_1["downloaded_bytes"] == expected_down
    assert (out_dir / "round_0002.json").exists()
    assert (out_dir / "session.json").exists()


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    config_path, _ = scripted_fixture(tmp_path)
    dirs = (tmp_path / "a", tmp_path / "b")
    stdouts = []
    for out_dir in dirs:
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--output", str(out_dir)
        )
        assert code == 0
        stdouts.append(out)
    assert stdouts[0] == stdouts[1]
    for name in ("round_0001.json", "round_0002.json", "session.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_script_missing_a_row_fails_naming_it(tmp_path, capsys):
    config_path, _ = scripted_fixture(tmp_path)
    scripts = tmp_path / "scripts.jsonl"
    rows = [json.loads(line) for line in scripts.read_text(encoding="utf-8").splitlines()]
    kept = [r for r in rows if (r["client"], r["round"], r["prompt_id"]) != (1, 1, "p1")]
    write_jsonl(scripts, kept)
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err == "error: scripted client has no response for round=1 prompt='p1'\n"


def test_a_key_error_inside_a_command_is_not_turned_into_exit_2(tmp_path, monkeypatch):
    # Only ValueError, OSError and OverflowError mean bad input; anything else is a bug.
    def broken(*args, **kwargs):
        raise KeyError("bug")

    config_path, _ = scripted_fixture(tmp_path)
    monkeypatch.setattr(cli, "run_session", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["simulate", "--config", str(config_path)])

    responses = write_jsonl(
        tmp_path / "r.jsonl", [{"prompt_id": "p", "client_id": 0, "response": "yes"}]
    )
    embeddings = write_jsonl(tmp_path / "e.jsonl", [{"response_id": "p/0", "embedding": [1.0, 0.0]}])
    monkeypatch.setattr(cli, "consensus_phase", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["consensus", "--input", str(responses), "--embeddings", str(embeddings)])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_benchmark(name):
    """``perfbench/<name>.py``, a module of the benchmark, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_simulate_runs_under_the_benchmark_tracer(tmp_path, capsys):
    """The tracer replaces cli and protocol names (``cli.transcript_to_dict``,
    ``cli.json``, ``cli.Path``, ...) by attribute; each must still be there."""
    spans = _load_benchmark("spans")
    config_path, _ = scripted_fixture(tmp_path)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(config_path), "--output", str(tmp_path / "out")
        )
    assert code == 0, err
    names = {span[1] for span in tracer.spans}
    assert {"cli.load_prompts", "protocol.run_round", "consensus.dbscan", "cli.write_text"} <= names
    assert set(tracer.self_times()) <= set(spans.SELF_TIME_METRIC)


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_benchmark_seed_0_transcripts_match_the_recorded_hashes(size, tmp_path, monkeypatch):
    """Every workload's seed-0 operations, run in process by the benchmark's own
    worker classes, hash as ``perfbench/run.py`` hashes them to the value
    recorded in ``perfbench/expected_hashes.json``."""
    inputs = _load_benchmark("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)  # the worker imports it by name
    worker = _load_benchmark("worker")
    recorded = json.loads((PERFBENCH / "expected_hashes.json").read_text(encoding="utf-8"))[size]
    for name, sizes in inputs.SIZES[size].items():
        if name == "consensus-wide":
            workload = worker.ConsensusWorkload(0, sizes, semfed)
        else:
            (tmp_path / name).mkdir()
            workload = worker.SessionWorkload(name, 0, sizes, tmp_path / name)
        hashes = {}
        for key in workload.keys:
            workload.run(key, semfed)
            hashes[key] = workload.check(key)
        joined = "".join(hashes[key] for key in sorted(hashes))
        assert hashlib.sha256(joined.encode()).hexdigest() == recorded[name]["0"], name


def test_simulate_unusable_output_path_fails_before_printing(tmp_path, capsys):
    config_path, _ = scripted_fixture(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(config_path), "--output", str(taken)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_simulate_markov_clients_with_private_data(tmp_path, capsys):
    prompts = write_jsonl(
        tmp_path / "prompts.jsonl", [{"prompt_id": "p0", "text": "alpha beta"}]
    )
    private = write_jsonl(
        tmp_path / "private.jsonl",
        [
            {"client": 0, "prompt": "alpha beta", "response": "gamma delta"},
            {"client": 1, "prompt": "alpha beta", "response": "gamma delta"},
        ],
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "clients": {"type": "markov", "count": 2, "private_file": private.name},
                "rounds": 2,
                "prompt_file": prompts.name,
                "max_tokens": 4,
                "dp": {"epsilon": 0.5, "delta": 1e-6},
            }
        ),
        encoding="utf-8",
    )
    report = run_json(capsys, "simulate", "--config", str(config_path))
    outputs = report["outputs"]
    assert outputs["total_uploaded_bytes"] > 0
    privacy = {row["client"]: row for row in outputs["privacy"]}
    assert privacy[0]["epsilon_total"] == 1.0
    assert privacy[1]["delta_total"] == pytest.approx(2e-6, rel=1e-12)


def test_simulate_rejects_a_bad_dp_budget_before_round_1(tmp_path, capsys):
    # The script has no round-1 rows, so running round 1 first would fail on it.
    config_path, base = scripted_fixture(tmp_path)
    scripts = tmp_path / base["clients"]["path"]
    rows = [json.loads(line) for line in scripts.read_text(encoding="utf-8").splitlines()]
    write_jsonl(scripts, [row for row in rows if row["round"] != 1])
    config_path.write_text(json.dumps({**base, "dp": {"epsilon": -1.0, "delta": 0.5}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert (code, out, err) == (2, "", "error: epsilon must be finite and >= 0, got -1.0\n")


def test_simulate_negative_seed_with_markov_clients_fails_naming_it(tmp_path, capsys):
    prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"prompt_id": "p0", "text": "a b"}])
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"clients": 2, "prompt_file": prompts.name, "seed": -1}), encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be a non-negative integer")


def test_simulate_negative_seed_with_scripted_clients_fails_naming_it(tmp_path, capsys):
    # the strategy seed defaults to the seed, but the error names the key set
    config_path, base = scripted_fixture(tmp_path)
    config_path.write_text(json.dumps({**base, "seed": -1}), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be a non-negative integer, got -1"), err
    config_path.write_text(json.dumps(base), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path), "--seed=-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be a non-negative integer, got -1"), err


def test_simulate_unknown_config_key_fails(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for key in ("promt_file", "workers"):
        config_path.write_text(json.dumps({"clients": 2, key: 1}), encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config_path))
        assert code == 2
        assert "unknown config keys" in err and key in err
    # values are checked against their JSON type, never coerced
    _, base = scripted_fixture(tmp_path)
    for key, value in (
        ("rounds", 1.7),
        ("rounds", True),
        ("max_tokens", 3.9),
        ("prompt_budget", "5"),
        ("seed", None),
        ("retrain_private_every_round", "false"),
        ("retrain_private_every_round", 0),
        ("eps", "0.3"),
        ("encoder", {"lowercase": 1}),
        ("prompt_file", 7),
    ):
        config_path.write_text(json.dumps({**base, key: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
        assert (code, out) == (2, ""), (key, value)
        assert err.startswith("error: ") and "must be a JSON" in err, (key, value, err)


def test_simulate_missing_prompt_file_fails(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"clients": 2}), encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert code == 2
    assert "prompt_file" in err


def test_simulate_seed_override_is_echoed(tmp_path, capsys):
    config_path, config = scripted_fixture(tmp_path)
    report = run_json(capsys, "simulate", "--config", str(config_path), "--seed", "9")
    assert report["seed"] == 9
    # the config seed is checked even when --seed overrides it
    config_path.write_text(json.dumps({**config, "seed": "oops"}), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be a JSON integer, got string"), err


CONFIG_KEYS = {
    "clients", "rounds", "prompt_file", "prompt_budget", "eps", "min_pts", "strategy",
    "strategy_seed", "seed", "encoder", "weights", "max_tokens", "retrain_private_every_round",
    "dp",
}


def test_simulate_echo_holds_every_config_key_with_the_dataclass_defaults(tmp_path, capsys):
    config_path, config = scripted_fixture(tmp_path)
    report = run_json(capsys, "simulate", "--config", str(config_path))
    inputs = report["inputs"]
    assert set(inputs) == CONFIG_KEYS - {"seed"} | {"config_file", "prompts_used"}
    cluster, encoder, weights, session = (
        ClusterParams(), EncoderConfig(), TrainingWeights(), SessionParams()
    )
    assert inputs == {
        **config,
        "clients": {**config["clients"], "count": 3},
        "config_file": str(config_path),
        "prompts_used": 2,
        "prompt_budget": 500,
        "eps": cluster.eps,
        "min_pts": cluster.min_pts,
        "strategy": session.strategy.rule.value,
        "strategy_seed": report["seed"],
        "encoder": {
            "dimension": encoder.dimension,
            "ngram": encoder.ngram_size,
            "seed": encoder.seed,
            "lowercase": encoder.lowercase,
        },
        "weights": {"alpha": weights.alpha, "beta": weights.beta},
        "max_tokens": session.max_tokens,
        "retrain_private_every_round": session.retrain_private_every_round,
        "dp": None,
    }
    assert report["seed"] == 0


# A config that sets every key, and the sha256 of stdout and of each file
# of its --output run.  Any drift in the echo or the transcripts moves them.
GOLDEN_CONFIG = {
    "clients": {"type": "markov", "count": 3, "order": 2, "private_file": "private.jsonl"},
    "rounds": 2,
    "prompt_file": "prompts.jsonl",
    "prompt_budget": 3,
    "eps": 1,
    "min_pts": 1,
    "strategy": "random_in_cluster",
    "strategy_seed": 7,
    "seed": 4,
    "encoder": {"dimension": 64, "ngram": 2, "seed": 9, "lowercase": True},
    "weights": {"alpha": 0.25, "beta": 0.75},
    "max_tokens": 6,
    "retrain_private_every_round": False,
    "dp": {"epsilon": 0.5, "delta": 1e-6},
}
GOLDEN_PROMPTS = ["what color is the sky", "is water wet", "name a fruit", "the quick brown fox"]
GOLDEN_SHA256 = {
    "round_0001.json": "84e0590f29dfae067e43b771f61f04d740d1ea8e80be65edf78109c3cbe13ecd",
    "round_0002.json": "4564a3bb171cccc2586cb212be54052f8183a70d8adcd36a009030c4a0c9195f",
    "session.json": "bb9b4ccb3f50671e1efc18206e38989188a0d0e25b655e0ba58db1007381f500",
    "stdout": "bb9b4ccb3f50671e1efc18206e38989188a0d0e25b655e0ba58db1007381f500",
}


def test_simulate_golden_output_with_every_key_set(tmp_path, capsys, monkeypatch):
    assert set(GOLDEN_CONFIG) == CONFIG_KEYS
    monkeypatch.chdir(tmp_path)
    prompts = [{"prompt_id": f"p{i}", "text": t} for i, t in enumerate(GOLDEN_PROMPTS)]
    write_jsonl(tmp_path / "prompts.jsonl", prompts)
    write_jsonl(
        tmp_path / "private.jsonl",
        [
            {"client": c, "prompt": p["text"], "response": f"answer {c} to {p['prompt_id']}"}
            for c in range(3)
            for p in prompts
        ],
    )
    (tmp_path / "config.json").write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", "config.json", "--output", "out")
    assert code == 0, err
    digests = {"stdout": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    for path in sorted((tmp_path / "out").iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_SHA256


# A Markov session that retrains on its private set every round under
# weights that are not dyadic, so each transition's float sum depends on
# the order of its additions; the sha256 of each round file it writes.
RETRAIN_CONFIG = {
    "clients": {"type": "markov", "count": 4, "order": 2, "private_file": "private.jsonl"},
    "rounds": 2,
    "prompt_file": "prompts.jsonl",
    "weights": {"alpha": 0.3, "beta": 0.7},
    "max_tokens": 12,
    "retrain_private_every_round": True,
}
RETRAIN_FACTS = [
    "the sky is blue and the sea is blue",
    "the sea is wide and the sky is wide",
    "water is wet and the sea is water",
    "a fruit is sweet and the apple is a fruit",
    "the fox is quick and the dog is lazy",
]
RETRAIN_SHA256 = {
    "round_0001.json": "4087644cf9af26fe38c7ffe4a5214efcd6eaa0b679e18744aa096e25a5ac4f97",
    "round_0002.json": "376ffc79110e4d7ce8e9dc8ce0077a71d07144d6eb7ac861d2882b08fcbbedab",
}


def test_simulate_golden_rounds_with_private_retraining_and_non_dyadic_weights(tmp_path):
    prompts = [{"prompt_id": f"p{i}", "text": t} for i, t in enumerate(GOLDEN_PROMPTS)]
    write_jsonl(tmp_path / "prompts.jsonl", prompts)
    write_jsonl(
        tmp_path / "private.jsonl",
        [
            {"client": c, "prompt": fact.rsplit(" and ", 1)[0], "response": fact}
            for c in range(4)
            for fact in RETRAIN_FACTS[c:] + RETRAIN_FACTS[:c]
        ],
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RETRAIN_CONFIG), encoding="utf-8")
    runs = []
    for hash_seed in ("0", "1"):
        out_dir = tmp_path / f"out{hash_seed}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "semfed.cli", "simulate",
                "--config", str(config), "--output", str(out_dir),
            ],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append({name: (out_dir / name).read_bytes() for name in RETRAIN_SHA256})
    assert runs[0] == runs[1]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in runs[0].items()}
    assert digests == RETRAIN_SHA256


# ---------------------------------------------------------------- process


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "semfed.cli", "--version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "semfed" in proc.stdout
