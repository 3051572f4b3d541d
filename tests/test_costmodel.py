import pytest

from semfed.costmodel import (
    MIB,
    PRESETS,
    LoraCostSpec,
    TextRoundCostSpec,
    SubsampleCostSpec,
    comparison_report,
    lora_spec_for_preset,
    lora_upload_bytes,
    preset_layer_shapes,
    text_round_bytes,
    subsample_bytes,
)

TEXT_ROUND_REFERENCE = TextRoundCostSpec(
    num_clients=10, num_prompts=1024, avg_tokens=128.0, bytes_per_token=2.0,
    include_download=True,
)


# ----------------------------------------------------- text-round cost


def test_text_round_minimal_example():
    spec = TextRoundCostSpec(
        num_clients=1, num_prompts=1, avg_tokens=1.0, bytes_per_token=1.0,
        include_download=False,
    )
    assert text_round_bytes(spec) == 1


def test_text_round_reference_total():
    assert text_round_bytes(TEXT_ROUND_REFERENCE) == 5_242_880


def test_text_round_upload_only_is_half():
    upload_only = TextRoundCostSpec(
        num_clients=10, num_prompts=1024, avg_tokens=128.0, bytes_per_token=2.0,
        include_download=False,
    )
    assert text_round_bytes(upload_only) * 2 == text_round_bytes(TEXT_ROUND_REFERENCE)


def test_text_round_linear_in_each_factor():
    base = TextRoundCostSpec(
        num_clients=3, num_prompts=7, avg_tokens=11.0, bytes_per_token=2.0,
        include_download=False,
    )
    value = text_round_bytes(base)
    assert text_round_bytes(
        TextRoundCostSpec(6, 7, 11.0, 2.0, include_download=False)
    ) == 2 * value
    assert text_round_bytes(
        TextRoundCostSpec(3, 14, 11.0, 2.0, include_download=False)
    ) == 2 * value
    assert text_round_bytes(
        TextRoundCostSpec(3, 7, 22.0, 2.0, include_download=False)
    ) == 2 * value
    assert text_round_bytes(
        TextRoundCostSpec(3, 7, 11.0, 4.0, include_download=False)
    ) == 2 * value


def test_text_round_fractional_product_rounds_once():
    spec = TextRoundCostSpec(
        num_clients=1, num_prompts=1, avg_tokens=2.5, bytes_per_token=1.0,
        include_download=True,
    )
    # round(2.5) = 2 (banker's rounding), then doubled
    assert text_round_bytes(spec) == 4


def test_text_round_validation():
    with pytest.raises(ValueError):
        TextRoundCostSpec(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        TextRoundCostSpec(1, 1, 0.0, 1.0)


# ------------------------------------------------------------- adapters


def test_single_square_matrix_example():
    spec = LoraCostSpec(
        num_clients=1, rank=8, layer_shapes=((100, 100),), bytes_per_param=2.0
    )
    # 8 * (100 + 100) params * 2 bytes
    assert lora_upload_bytes(spec) == 3200


def test_preset_shapes():
    qv = preset_layer_shapes(PRESETS["llama2-13b"], "qv")
    assert len(qv) == 80
    assert qv[0] == (5120, 5120)
    full = preset_layer_shapes(PRESETS["llama2-13b"], "attn_mlp")
    assert len(full) == 280
    assert full.count((5120, 13824)) == 120
    with pytest.raises(ValueError):
        preset_layer_shapes(PRESETS["llama2-13b"], "everything")


def test_preset_upload_golden_values():
    cases = [
        ("llama3.1-405b", "qv", 528_482_304),
        ("llama3.1-405b", "attn_mlp", 2_741_501_952),
        ("llama2-13b", "qv", 52_428_800),
        ("llama2-13b", "attn_mlp", 250_347_520),
    ]
    for preset_name, targets, expected in cases:
        spec = lora_spec_for_preset(PRESETS[preset_name], targets)
        assert lora_upload_bytes(spec) == expected


def test_upload_scales_with_clients_unless_per_client():
    one, seven = (lora_spec_for_preset(PRESETS["llama2-13b"], "qv", num_clients=k) for k in (1, 7))
    assert lora_upload_bytes(seven) == 7 * lora_upload_bytes(one)


def test_lora_validation():
    with pytest.raises(ValueError):
        LoraCostSpec(num_clients=1, rank=0, layer_shapes=((4, 4),), bytes_per_param=2.0)
    with pytest.raises(ValueError):
        LoraCostSpec(num_clients=1, rank=1, layer_shapes=(), bytes_per_param=2.0)
    with pytest.raises(ValueError):
        LoraCostSpec(num_clients=1, rank=1, layer_shapes=((0, 4),), bytes_per_param=2.0)


# ------------------------------------------------------------ subsample


def test_subsample_example():
    spec = SubsampleCostSpec(
        num_clients=10, fraction=0.01, total_params=13_000_000_000, bytes_per_param=2.0
    )
    assert subsample_bytes(spec) == 2_600_000_000


def test_subsample_full_fraction_is_everything():
    spec = SubsampleCostSpec(
        num_clients=1, fraction=1.0, total_params=1000, bytes_per_param=2.0
    )
    assert subsample_bytes(spec) == 2000


def test_subsample_validation():
    with pytest.raises(ValueError):
        SubsampleCostSpec(num_clients=1, fraction=0.0, total_params=10, bytes_per_param=2.0)
    with pytest.raises(ValueError):
        SubsampleCostSpec(num_clients=1, fraction=1.5, total_params=10, bytes_per_param=2.0)


# ------------------------------------------------------------- report


def test_comparison_report_405b():
    report = comparison_report(PRESETS["llama3.1-405b"], TEXT_ROUND_REFERENCE)
    assert report.text_bytes == 5_242_880
    assert report.text_mb == 5.24288
    assert report.text_mib == 5.0
    by_targets = {e.targets: e for e in report.adapters}
    qv = by_targets["qv"]
    assert qv.total_bytes == 1_056_964_608
    assert qv.total_mib == 1008.0
    assert abs(qv.ratio_exact - 201.6) < 1e-9
    assert qv.ratio_rounded == 194
    full = by_targets["attn_mlp"]
    assert full.total_bytes == 5_483_003_904
    assert full.total_mib == 5229.0
    assert abs(full.ratio_exact - 1045.8) < 1e-9
    assert full.ratio_rounded == 1006


def test_comparison_report_13b_upload_mib():
    report = comparison_report(PRESETS["llama2-13b"], TEXT_ROUND_REFERENCE)
    by_targets = {e.targets: e for e in report.adapters}
    assert by_targets["qv"].upload_bytes == 52_428_800
    assert by_targets["qv"].upload_mib == 50.0
    assert by_targets["attn_mlp"].upload_bytes == 250_347_520
    assert by_targets["attn_mlp"].upload_mib == 238.75


def test_exact_ratio_invariant_under_joint_scaling_but_rounded_is_not():
    # tripling both byte widths scales both totals by three, so the
    # exact ratio is unchanged; the rounded recipe is not invariant
    # because its numerator and denominator round in different units
    base = comparison_report(PRESETS["llama3.1-405b"], TEXT_ROUND_REFERENCE)
    scaled_sc = TextRoundCostSpec(
        num_clients=10, num_prompts=1024, avg_tokens=128.0, bytes_per_token=6.0,
        include_download=True,
    )
    scaled = comparison_report(
        PRESETS["llama3.1-405b"], scaled_sc, bytes_per_param=6.0
    )
    for b, s in zip(base.adapters, scaled.adapters):
        assert abs(b.ratio_exact - s.ratio_exact) < 1e-9
    assert [e.ratio_rounded for e in scaled.adapters] != [
        e.ratio_rounded for e in base.adapters
    ]


def test_mb_and_mib_renderings_differ():
    report = comparison_report(PRESETS["llama3.1-405b"], TEXT_ROUND_REFERENCE)
    assert report.text_mb != report.text_mib
    assert report.text_mib == report.text_bytes / MIB
