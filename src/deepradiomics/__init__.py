"""Deep radiomic features for tumour volumes.

Converts 3D tumour volumes into Gaussian-mixture summaries of the
activation maps of a fixed two-layer 3D CNN, classifies immune-marker
status and survival groups with a seeded random forest under
leave-one-out cross-validation, and compares predicted survival groups
with Kaplan-Meier curves and the log-rank test.
"""

from .cnn import (
    ActivationSet,
    CnnWeights,
    conv3d,
    forward,
    generate_test_weights,
    load_weights,
    maxpool3d,
    relu,
    save_weights,
)
from .forest import (
    Dataset,
    EvalReport,
    RfModel,
    RfParams,
    compute_auc,
    confusion_matrix,
    loocv,
    rf_predict,
    rf_train,
    roc_points,
)
from .gmm import (
    FeatureVector,
    GmmComponent,
    GmmFit,
    build_feature_vector,
    collect_samples,
    em_fit,
    em_fit_rows,
    feature_names,
    fit_roi_samples,
    reduce_modalities,
    roi_samples,
)
from .manifest import PatientRecord, RunConfig, load_config, load_manifest
from .pipeline import (
    cmd_classify,
    cmd_extract,
    cmd_inspect,
    cmd_survive,
    patient_features,
    volume_activations,
    volume_features,
)
from .survival import (
    KmCurve,
    SurvivalTestResult,
    chi2_sf,
    impute_censored,
    km_estimate,
    logrank_test,
    median_split,
)
from .volume import (
    RoiMask,
    Volume3D,
    extract_cnn_input,
    load_mask,
    load_volume,
    resample_isotropic,
    resample_mask,
    save_mask,
    save_volume,
    standardize_intensity,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSet",
    "CnnWeights",
    "Dataset",
    "EvalReport",
    "FeatureVector",
    "GmmComponent",
    "GmmFit",
    "KmCurve",
    "PatientRecord",
    "RfModel",
    "RfParams",
    "RoiMask",
    "RunConfig",
    "SurvivalTestResult",
    "Volume3D",
    "build_feature_vector",
    "chi2_sf",
    "cmd_classify",
    "cmd_extract",
    "cmd_inspect",
    "cmd_survive",
    "collect_samples",
    "compute_auc",
    "confusion_matrix",
    "conv3d",
    "em_fit",
    "em_fit_rows",
    "extract_cnn_input",
    "feature_names",
    "fit_roi_samples",
    "forward",
    "generate_test_weights",
    "impute_censored",
    "km_estimate",
    "load_config",
    "load_manifest",
    "load_mask",
    "load_volume",
    "load_weights",
    "logrank_test",
    "loocv",
    "maxpool3d",
    "median_split",
    "patient_features",
    "reduce_modalities",
    "relu",
    "resample_isotropic",
    "resample_mask",
    "rf_predict",
    "rf_train",
    "roc_points",
    "roi_samples",
    "save_mask",
    "save_volume",
    "save_weights",
    "standardize_intensity",
    "volume_activations",
    "volume_features",
]
