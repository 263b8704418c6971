"""The package's exported names, and the scalar reference kept out of it."""

from __future__ import annotations

import pytest

import quditqkd
import quditqkd.channels as channels
import quditqkd.field as field
import quditqkd.netrun.wire as wire
import quditqkd.protocol as protocol
import quditqkd.qstates as qstates

from reference import SparseKet

EXPORTED = [
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


def test_all_is_pinned_and_resolves():
    assert quditqkd.__all__ == EXPORTED
    for name in quditqkd.__all__:
        assert getattr(quditqkd, name) is not None, name


# The round-at-a-time path, the ket layer it runs on and the scalar
# field elements, sign-mask operator and frame rule live in
# tests/reference.py; PairState, the scalar sampler qstates.measure, the
# per-record decoders, SparseKet.deserialize, estimate_ec,
# RoundLog.record, FieldSpec's scalar mul, inv and pow and the Born
# rule's ket search are gone.
GONE = [
    (protocol, "replay_session_scalar"),
    (protocol, "draw_alice_round"),
    (protocol, "draw_bob_round"),
    (protocol, "decode_bob_bit"),
    (protocol, "pick_pair_index"),
    (protocol, "pair_offset"),
    (protocol, "estimate_ec"),
    (protocol, "RoundRecord"),
    (protocol, "_case_kets"),
    (protocol, "_CASE_KETS"),
    (protocol.RoundLog, "record"),
    (protocol.RateEstimate, "covers"),
    (channels, "apply_term"),
    (channels, "apply_error"),
    (channels, "transmit"),
    (qstates, "apply_error"),
    (qstates, "SparseKet"),
    (qstates, "PairState"),
    (qstates, "probabilities"),
    (qstates, "decide_outcome"),
    (qstates, "measure"),
    (SparseKet, "serialize"),
    (SparseKet, "deserialize"),
    (wire, "encode_pair"),
    (wire, "decode_pair"),
    (wire, "encode_outcome_announce"),
    (wire, "decode_outcome_announce"),
    (quditqkd, "BellIndex"),
    (quditqkd, "FieldElement"),
    (quditqkd, "FieldMismatchError"),
    (quditqkd, "conjugate_bell"),
    (qstates, "BellIndex"),
    (qstates, "conjugate_bell"),
    (qstates, "conjugate_bell_mask"),
    (qstates, "DiagonalPhase"),
    (field, "FieldElement"),
    (field, "FieldMismatchError"),
    (field.FieldSpec, "el"),
    (field.FieldSpec, "mul"),
    (field.FieldSpec, "inv"),
    (field.FieldSpec, "pow"),
    (field, "poly_degree"),
    (field, "poly_mod"),
    (field, "is_irreducible"),
    (field, "smallest_irreducible"),
]


@pytest.mark.parametrize(
    "owner, name",
    GONE,
    ids=[f"{owner.__name__.rpartition('.')[2]}-{name}" for owner, name in GONE],
)
def test_scalar_reference_not_shipped(owner, name):
    assert not hasattr(owner, name)
