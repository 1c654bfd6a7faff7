"""One-Class-One-Network workbench for formant-based recognition.

A self-contained supervised-classification toolkit: measurement-file
ingestion, F0-ratio feature processing, balanced one-vs-rest encoding, a
from-scratch MLP engine with Adam/RMSProp, staged informed grid search,
ensemble training and inference, and ROC/DET evaluation.
"""

__version__ = "0.1.0"

from .balancer import BalancedSubset, build_balanced_subset
from .dataset import (
    ARPABET_CODES,
    ClassStats,
    ColumnLayout,
    FeatureRecord,
    PhonemeLabel,
    SpeakerGroup,
    class_statistics,
    decode_filename,
    encode_filename,
    filter_usable,
    load_dataset,
)
from .ensemble import (
    OconModel,
    evaluate_ensemble,
    infer,
    load_ensemble,
    retrain_member,
    save_ensemble,
    train_ensemble,
)
from .errors import OconError
from .features import (
    FeatureMatrix,
    FeatureSetKind,
    ScalingRecord,
    build_feature_matrix,
    fit_minmax,
    load_matrix,
    normalize_by_f0,
    save_matrix,
    speaker_view,
)
from .metrics import ConfusionCounts, DetMetrics, RocCurve, det_metrics, report_tables, roc_auc
from .mlp import (
    MlpConfig,
    MlpModel,
    MlpParams,
    forward,
    init_params,
    load_model,
    loss_and_grads,
    optimizer_step,
    save_model,
)
from .search import SearchStage, desk_scale, narrow_grid, run_stage, stage_presets
from .training import (
    EarlyStopRule,
    KFoldResult,
    TrainConfig,
    TrainReport,
    k_fold_evaluate,
    split_dataset,
    train_one_class,
)
