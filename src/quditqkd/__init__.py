"""Workbench for a qudit pair-state prepare-and-measure QKD scheme.

The package simulates and analyses a protocol in which Alice sends
two-level superpositions of qudit basis states labelled by GF(2^n)
elements, Bob measures along randomly chosen pair bases, and the two
sides distil a shared key while bounding the eavesdropper through the
observed bit and collapse statistics.

Module map:

    field      exact GF(2^n) arithmetic
    qstates    pair-measurement outcomes, Bell-frame conjugation
    channels   adversary/noise channel models
    protocol   Monte Carlo session engine and estimators
    analysis   closed-form observable prediction from channel models
    distill    advantage distillation and parameter selection
    threshold  tolerable-error-rate certification scans
    netrun     two-process wire protocol (alice/bob/eve roles)
    cli        command line entry points
"""

from .analysis import (
    BellDistribution,
    EdVerdict,
    ErrorMatrix,
    ObservablePrediction,
    analysis_report,
    bell_distribution,
    check_ed_condition,
    error_matrix,
    intercept_distribution,
    predict_observables,
)
from .channels import (
    ChannelModel,
    UnsupportedModelError,
    full_dephase,
    identity,
    parse_channel_spec,
    partial_intercept,
    resolve_channel,
    shift_noise,
    z_flip,
)
from .distill import (
    DistillBudget,
    DistillParams,
    DistillationReport,
    InsufficientKeyError,
    LabeledKey,
    SelectionOutcome,
    check_secure_condition,
    ep_recursion,
    majority_stage,
    sample_labeled_key,
    select_params,
    simulate_distillation,
)
from .field import FieldSpec, field_spec
from .protocol import (
    RateEstimate,
    SessionConfig,
    SessionOutput,
    SessionStats,
    check_pm_condition,
    pm_condition_lhs,
    run_session,
    wilson_interval,
)
from .qstates import Outcome
from .threshold import FeasibilityPoint, ScanResult, e_max_scan, ec_star, f_value

__version__ = "0.1.0"

__all__ = [
    "BellDistribution",
    "ChannelModel",
    "DistillBudget",
    "DistillParams",
    "DistillationReport",
    "EdVerdict",
    "ErrorMatrix",
    "FeasibilityPoint",
    "FieldSpec",
    "InsufficientKeyError",
    "LabeledKey",
    "ObservablePrediction",
    "Outcome",
    "RateEstimate",
    "ScanResult",
    "SelectionOutcome",
    "SessionConfig",
    "SessionOutput",
    "SessionStats",
    "UnsupportedModelError",
    "analysis_report",
    "bell_distribution",
    "check_ed_condition",
    "check_pm_condition",
    "check_secure_condition",
    "e_max_scan",
    "ec_star",
    "ep_recursion",
    "error_matrix",
    "f_value",
    "field_spec",
    "full_dephase",
    "identity",
    "intercept_distribution",
    "majority_stage",
    "parse_channel_spec",
    "partial_intercept",
    "pm_condition_lhs",
    "predict_observables",
    "resolve_channel",
    "run_session",
    "sample_labeled_key",
    "select_params",
    "shift_noise",
    "simulate_distillation",
    "wilson_interval",
    "z_flip",
]
