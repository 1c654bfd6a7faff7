"""One-Class-One-Network workbench for formant-based recognition.

A self-contained supervised-classification toolkit: measurement-file
ingestion, F0-ratio feature processing, balanced one-vs-rest encoding, a
from-scratch MLP engine with Adam/RMSProp, staged informed grid search,
ensemble training and inference, and ROC/DET evaluation.

The names below are re-exported lazily (PEP 562): ``from ocon import
train_ensemble`` imports ``ocon.ensemble`` on first use, so a command that
imports ``ocon.cli`` loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names it re-exports at the package level
_EXPORTS = {
    "balancer": ("BalancedSubset", "build_balanced_subset"),
    "dataset": ("ARPABET_CODES", "ClassStats", "ColumnLayout", "FeatureRecord",
                "FeatureSetKind", "PhonemeLabel", "SpeakerGroup", "class_statistics",
                "decode_filename", "encode_filename", "filter_usable", "load_dataset"),
    "ensemble": ("OconModel", "evaluate_ensemble", "infer", "load_ensemble",
                 "retrain_member", "save_ensemble", "train_ensemble"),
    "errors": ("OconError",),
    "features": ("FeatureMatrix", "ScalingRecord", "build_feature_matrix", "fit_minmax",
                 "load_matrix", "normalize_by_f0", "save_matrix", "speaker_view"),
    "metrics": ("ConfusionCounts", "DetMetrics", "RocCurve", "det_metrics", "report_tables",
                "roc_auc"),
    "mlp": ("MlpConfig", "MlpModel", "forward", "init_params", "load_model",
            "loss_and_grads", "optimizer_step", "save_model"),
    "search": ("SearchStage", "desk_scale", "run_stage", "stage_presets"),
    "training": ("EarlyStopRule", "KFoldResult", "TrainConfig", "TrainReport",
                 "k_fold_evaluate", "split_dataset", "train_one_class"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    try:  # a submodule, such as ``ocon.metrics`` after a bare ``import ocon``
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as err:
        if not f"{__name__}.{name}".startswith(err.name or ""):
            raise                   # a submodule that exists lacks a dependency
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
