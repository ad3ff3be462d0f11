"""modalmetric: cross-modality metric learning on sketch/photo data.

Trains small normalized embedders with modality-aware batch-hard triplet
losses balanced by closed-form gradient weighting, and evaluates them
with zero-shot retrieval metrics and modality-gap diagnostics.

The package exports the names README's "Library use" documents; the
rest of the library is reached through its submodules.
"""

from .data import (
    Dataset,
    PKSampler,
    SyntheticConfig,
    generate_synthetic,
    read_dataset,
    write_dataset,
    zero_shot_split,
)
from .errors import (
    ConfigError,
    DataError,
    MetricError,
    MiningError,
    ModalMetricError,
    NumericError,
    ProtocolError,
)
from .evaluation import (
    Ranking,
    between_class_discrepancy,
    compute_metrics,
    map_at_all,
    map_at_n,
    modality_gap,
    prec_at_k,
    retrieve,
    within_class_similarity,
)
from .model import AdamState, ModelParams, adam_step
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ConfigError",
    "DataError",
    "Dataset",
    "MetricError",
    "MiningError",
    "ModalMetricError",
    "ModelParams",
    "NumericError",
    "PKSampler",
    "ProtocolError",
    "Ranking",
    "SyntheticConfig",
    "TrainConfig",
    "adam_step",
    "between_class_discrepancy",
    "compute_metrics",
    "generate_synthetic",
    "map_at_all",
    "map_at_n",
    "modality_gap",
    "prec_at_k",
    "read_dataset",
    "retrieve",
    "train",
    "within_class_similarity",
    "write_dataset",
    "zero_shot_split",
]
