"""Flow-record network traffic classification toolkit."""

from .classifier import (
    ClassifierModel,
    NIGPrior,
    load_model,
    predict,
    save_model,
    train,
    update,
)
from .errors import ContractError, DegenerateDatasetError, FlowidentError, FormatError
from .evaluation import confusion, evaluate_predictions, kfold_cv, metrics
from .features import (
    FEATURE_NAMES,
    Dataset,
    FeatureVector,
    featurize,
    read_dataset,
    write_dataset,
)
from .flow import (
    FlowKey,
    FlowRecord,
    PacketRecord,
    Proto,
    aggregate,
)
from .sampling import (
    FlowTrace,
    Metric,
    SamplingConfig,
    adre,
    build_sampling_report,
    dre,
    relative_error_variance,
    simulate_estimates,
    traces_from_packets,
)
from .selection import discretize, fcbf_select, symmetrical_uncertainty

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel",
    "ContractError",
    "Dataset",
    "DegenerateDatasetError",
    "FEATURE_NAMES",
    "FeatureVector",
    "FlowKey",
    "FlowRecord",
    "FlowTrace",
    "FlowidentError",
    "FormatError",
    "Metric",
    "NIGPrior",
    "PacketRecord",
    "Proto",
    "SamplingConfig",
    "adre",
    "aggregate",
    "build_sampling_report",
    "confusion",
    "discretize",
    "dre",
    "evaluate_predictions",
    "fcbf_select",
    "featurize",
    "kfold_cv",
    "load_model",
    "metrics",
    "predict",
    "read_dataset",
    "relative_error_variance",
    "save_model",
    "simulate_estimates",
    "symmetrical_uncertainty",
    "traces_from_packets",
    "train",
    "update",
    "write_dataset",
]
