"""Deterministic in-process simulator of federated rounds that exchange text.

Clients are black boxes that generate text for shared public prompts;
a server embeds the responses, density-clusters them, and broadcasts
the most central response of the consensus cluster as a pseudo-label
for joint training.  Companion modules provide exact communication
cost calculators, the two closed-form convergence bounds, and a
per-client differential-privacy ledger.
"""

__version__ = "0.1.0"

from .clients import (
    Client,
    MarkovToyClient,
    PrivateDataset,
    ScriptedClient,
    TrainingWeights,
)
from .consensus import (
    OUTLIER,
    ClusterParams,
    Clustering,
    ConsensusResult,
    SelectionRule,
    SelectionStrategy,
    ZeroSumError,
    consensus_for_prompt,
    cosine_distances,
    dbscan,
)
from .costmodel import (
    PRESETS,
    LoraCostSpec,
    ModelPreset,
    TextRoundCostSpec,
    SubsampleCostSpec,
    comparison_report,
    lora_upload_bytes,
    text_round_bytes,
    subsample_bytes,
)
from .encoder import (
    EncoderConfig,
    ZeroVectorError,
    encode,
    encode_batch,
    encode_normalized,
    load_embeddings_jsonl,
    normalize,
)
from .privacy import (
    NonMonotoneRoundError,
    PrivacyLedger,
    PrivacyWarning,
    RoundBudget,
    record_round,
    total_budget,
)
from .protocol import (
    ConfigError,
    Prompt,
    PublicPromptSet,
    ResponseRecord,
    RoundTranscript,
    SessionParams,
    SessionReport,
    make_response,
    meter_message,
    run_round,
    run_session,
)
from .theory import (
    GapParams,
    StationarityParams,
    StepTooLargeError,
    delta_T,
    stationarity_rhs,
)

__all__ = [
    "__version__",
    "Client",
    "MarkovToyClient",
    "PrivateDataset",
    "ScriptedClient",
    "TrainingWeights",
    "OUTLIER",
    "ClusterParams",
    "Clustering",
    "ConsensusResult",
    "SelectionRule",
    "SelectionStrategy",
    "ZeroSumError",
    "consensus_for_prompt",
    "cosine_distances",
    "dbscan",
    "PRESETS",
    "LoraCostSpec",
    "ModelPreset",
    "TextRoundCostSpec",
    "SubsampleCostSpec",
    "comparison_report",
    "lora_upload_bytes",
    "text_round_bytes",
    "subsample_bytes",
    "EncoderConfig",
    "ZeroVectorError",
    "encode",
    "encode_batch",
    "encode_normalized",
    "load_embeddings_jsonl",
    "normalize",
    "NonMonotoneRoundError",
    "PrivacyLedger",
    "PrivacyWarning",
    "RoundBudget",
    "record_round",
    "total_budget",
    "ConfigError",
    "Prompt",
    "PublicPromptSet",
    "ResponseRecord",
    "RoundTranscript",
    "SessionParams",
    "SessionReport",
    "make_response",
    "meter_message",
    "run_round",
    "run_session",
    "GapParams",
    "StationarityParams",
    "StepTooLargeError",
    "delta_T",
    "stationarity_rhs",
]
