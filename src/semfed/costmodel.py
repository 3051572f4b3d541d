"""Closed-form per-round communication cost calculators.

Three exchange styles are compared:

* text consensus: every client uploads a generated answer per prompt
  and downloads the pseudo-labels, so bytes scale with clients x
  prompts x answer length;
* adapter upload: every client ships its low-rank adapter weights,
  so bytes scale with the adapted matrix shapes and the rank;
* parameter subsampling: every client ships a fraction of the full
  parameter vector.

All results are exact integer byte counts (products are rounded once,
at the end).  MB here always means 10^6 bytes and MiB 2^20 bytes;
both renderings are reported because rounded summary figures in
circulation mix the two conventions, and the ratio helpers reproduce
both the exact-bytes ratio and the ratio recomputed from 0.1-precision
summaries (MiB-valued adapter totals over an MB-valued text-consensus
figure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TextRoundCostSpec",
    "LoraCostSpec",
    "SubsampleCostSpec",
    "ModelPreset",
    "PRESETS",
    "TARGET_SETS",
    "preset_layer_shapes",
    "lora_spec_for_preset",
    "text_round_bytes",
    "lora_upload_bytes",
    "subsample_bytes",
    "LoraComparisonEntry",
    "CostComparison",
    "comparison_report",
]

MB = 10**6
MIB = 2**20


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TextRoundCostSpec:
    """Text-consensus exchange: clients x prompts x answer bytes.

    avg_tokens is the mean answer length in tokens and bytes_per_token
    the byte width of one token; their product is the mean answer size
    in bytes.  include_download doubles the total, modeling the
    pseudo-label broadcast as the same volume coming back.
    """

    num_clients: int
    num_prompts: int
    avg_tokens: float
    bytes_per_token: float
    include_download: bool = True

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.num_prompts < 1:
            raise ValueError(f"num_prompts must be >= 1, got {self.num_prompts}")
        _check_positive("avg_tokens", self.avg_tokens)
        _check_positive("bytes_per_token", self.bytes_per_token)


@dataclass(frozen=True)
class LoraCostSpec:
    """Low-rank adapter exchange.

    layer_shapes lists (d_in, d_out) for every adapted matrix; each
    contributes rank * (d_in + d_out) parameters.  bytes_per_param is
    typically 2 (fp16/bf16).
    """

    num_clients: int
    rank: int
    layer_shapes: tuple[tuple[int, int], ...]
    bytes_per_param: float

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not self.layer_shapes:
            raise ValueError("layer_shapes must be non-empty")
        for shape in self.layer_shapes:
            if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
                raise ValueError(f"invalid layer shape {shape}")
        _check_positive("bytes_per_param", self.bytes_per_param)


@dataclass(frozen=True)
class SubsampleCostSpec:
    """Random-fraction parameter exchange: K * rho * P parameters."""

    num_clients: int
    fraction: float
    total_params: int
    bytes_per_param: float

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"subsample_fraction must be in (0, 1], got {self.fraction}")
        if self.total_params < 1:
            raise ValueError(f"total_params must be >= 1, got {self.total_params}")
        _check_positive("bytes_per_param", self.bytes_per_param)


@dataclass(frozen=True)
class ModelPreset:
    """Transformer dimensions needed to enumerate adapted matrices."""

    name: str
    num_layers: int
    d_model: int
    d_ff: int


PRESETS: dict[str, ModelPreset] = {
    "llama2-13b": ModelPreset(name="llama2-13b", num_layers=40, d_model=5120, d_ff=13824),
    "llama3.1-405b": ModelPreset(name="llama3.1-405b", num_layers=126, d_model=16384, d_ff=53248),
}

# "qv" adapts the query and value projections; "attn_mlp" adapts all
# four attention projections plus the three MLP matrices.
TARGET_SETS = ("qv", "attn_mlp")


def preset_layer_shapes(preset: ModelPreset, targets: str) -> tuple[tuple[int, int], ...]:
    """(d_in, d_out) for every adapted matrix in every layer."""
    d, f = preset.d_model, preset.d_ff
    if targets == "qv":
        per_layer = [(d, d), (d, d)]
    elif targets == "attn_mlp":
        per_layer = [(d, d)] * 4 + [(d, f)] * 3
    else:
        raise ValueError(f"unknown target set {targets!r}; expected one of {TARGET_SETS}")
    return tuple(per_layer * preset.num_layers)


def lora_spec_for_preset(
    preset: ModelPreset,
    targets: str,
    num_clients: int = 1,
    rank: int = 32,
    bytes_per_param: float = 2.0,
) -> LoraCostSpec:
    return LoraCostSpec(
        num_clients=num_clients,
        rank=rank,
        layer_shapes=preset_layer_shapes(preset, targets),
        bytes_per_param=bytes_per_param,
    )


def text_round_bytes(spec: TextRoundCostSpec) -> int:
    """Per-round text-consensus bytes: K * M * tokens * bytes/token.

    The product is rounded to an integer once, before the optional
    download doubling, so the doubled figure is exactly twice the
    upload figure.
    """
    upload = round(spec.num_clients * spec.num_prompts * spec.avg_tokens * spec.bytes_per_token)
    return upload * 2 if spec.include_download else upload


def lora_upload_bytes(spec: LoraCostSpec) -> int:
    """Adapter upload bytes: K * bytes/param * sum over matrices of r*(d_in+d_out)."""
    params = spec.rank * sum(d_in + d_out for d_in, d_out in spec.layer_shapes)
    return round(spec.bytes_per_param * params * spec.num_clients)


def subsample_bytes(spec: SubsampleCostSpec) -> int:
    """Subsampled-parameter bytes: K * rho * P * bytes/param, rounded once."""
    return round(spec.num_clients * spec.fraction * spec.total_params * spec.bytes_per_param)


@dataclass(frozen=True)
class LoraComparisonEntry:
    """One adapter configuration against the text-consensus baseline.

    ratio_exact divides exact byte totals.  ratio_rounded reproduces
    the ratio as quoted from 0.1-precision summaries: the adapter total
    in MiB rounded to one decimal, divided by the text-consensus total
    in MB rounded to one decimal, rounded to the nearest integer.  The
    two disagree because the numerator and denominator of the rounded
    form live in different units.  ratio_rounded is None when the
    text-consensus total rounds to 0.0 MB, which leaves it undefined.
    """

    targets: str
    upload_bytes: int
    total_bytes: int
    upload_mib: float
    total_mib: float
    ratio_exact: float
    ratio_rounded: int | None


@dataclass(frozen=True)
class CostComparison:
    preset: str
    rank: int
    bytes_per_param: float
    text_bytes: int
    text_mb: float
    text_mib: float
    adapters: tuple[LoraComparisonEntry, ...]


def comparison_report(
    preset: ModelPreset,
    text_round: TextRoundCostSpec,
    rank: int = 32,
    bytes_per_param: float = 2.0,
) -> CostComparison:
    """Compare per-client adapter traffic against the text-consensus total.

    Adapter totals count upload plus an equal download (the aggregated
    adapter coming back), mirroring the up-plus-down text-consensus
    figure.  A text-consensus total that rounds to 0 bytes leaves
    nothing to compare against and raises ValueError.
    """
    text_bytes = text_round_bytes(text_round)
    if text_bytes == 0:
        raise ValueError("the text-consensus total rounds to 0 bytes; nothing to compare")
    text_mb_rounded = round(text_bytes / MB, 1)
    adapters = []
    for targets in TARGET_SETS:
        spec = lora_spec_for_preset(
            preset, targets, num_clients=1, rank=rank, bytes_per_param=bytes_per_param
        )
        upload = lora_upload_bytes(spec)
        total = upload * 2
        total_mib = total / MIB
        adapters.append(
            LoraComparisonEntry(
                targets=targets,
                upload_bytes=upload,
                total_bytes=total,
                upload_mib=upload / MIB,
                total_mib=total_mib,
                ratio_exact=total / text_bytes,
                ratio_rounded=(
                    round(round(total_mib, 1) / text_mb_rounded) if text_mb_rounded else None
                ),
            )
        )
    return CostComparison(
        preset=preset.name,
        rank=rank,
        bytes_per_param=bytes_per_param,
        text_bytes=text_bytes,
        text_mb=text_bytes / MB,
        text_mib=text_bytes / MIB,
        adapters=tuple(adapters),
    )
