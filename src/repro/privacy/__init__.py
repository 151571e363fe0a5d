"""Differential-privacy machinery for the Vuvuzela reproduction.

Implements the paper's privacy analysis end to end: the truncated-Laplace
noise distribution each server samples (§4.2, §5.3), the single-round
guarantee of Theorem 1 and its dialing variant (§6.5), the multi-round
advanced composition of Theorem 2, the noise calibration sweep of §6.4, the
Bayesian "plausible deniability" interpretation, the Figure 6 sensitivity
table, and an operational privacy-budget accountant.
"""

from .accountant import LedgerAuditReport, PrivacyAccountant, audit_ledger_records
from .bayes import belief_amplification, plausible_deniability, posterior_belief
from .calibration import (
    NoiseConfiguration,
    PAPER_CONVERSATION_CONFIGS,
    PAPER_CONVERSATION_ROUNDS,
    PAPER_DIALING_CONFIGS,
    PAPER_DIALING_ROUNDS,
    TARGET_DELTA,
    TARGET_EPSILON,
    calibrate_conversation_noise,
    noise_for_rounds,
)
from .composition import (
    DEFAULT_COMPOSITION_D,
    ComposedGuarantee,
    compose,
    max_rounds,
    per_round_delta_for,
    per_round_epsilon_for,
)
from .laplace import (
    LaplaceParams,
    laplace_cdf,
    laplace_pdf,
    sample_laplace,
    sample_truncated_laplace,
    truncated_mass_at_zero,
    truncated_mean,
)
from .mechanism import (
    NO_PRIVACY,
    PrivacyGuarantee,
    conversation_guarantee,
    conversation_noise_for,
    conversation_noise_params,
    dialing_guarantee,
    dialing_noise_for,
    single_variable_guarantee,
)
from .sensitivity import (
    CONVERSATION_SENSITIVITY_M1,
    CONVERSATION_SENSITIVITY_M2,
    DIALING_AFFECTED_DEAD_DROPS,
    DIALING_SENSITIVITY,
    Action,
    ActionKind,
    CountDelta,
    count_delta,
    figure6_cover_stories,
    figure6_real_actions,
    figure6_table,
    max_sensitivity,
)

__all__ = [
    "Action",
    "ActionKind",
    "CONVERSATION_SENSITIVITY_M1",
    "CONVERSATION_SENSITIVITY_M2",
    "ComposedGuarantee",
    "CountDelta",
    "DEFAULT_COMPOSITION_D",
    "DIALING_AFFECTED_DEAD_DROPS",
    "DIALING_SENSITIVITY",
    "LaplaceParams",
    "LedgerAuditReport",
    "NO_PRIVACY",
    "NoiseConfiguration",
    "PAPER_CONVERSATION_CONFIGS",
    "PAPER_CONVERSATION_ROUNDS",
    "PAPER_DIALING_CONFIGS",
    "PAPER_DIALING_ROUNDS",
    "PrivacyAccountant",
    "PrivacyGuarantee",
    "TARGET_DELTA",
    "TARGET_EPSILON",
    "audit_ledger_records",
    "belief_amplification",
    "calibrate_conversation_noise",
    "compose",
    "conversation_guarantee",
    "conversation_noise_for",
    "conversation_noise_params",
    "count_delta",
    "dialing_guarantee",
    "dialing_noise_for",
    "figure6_cover_stories",
    "figure6_real_actions",
    "figure6_table",
    "laplace_cdf",
    "laplace_pdf",
    "max_rounds",
    "max_sensitivity",
    "noise_for_rounds",
    "per_round_delta_for",
    "per_round_epsilon_for",
    "plausible_deniability",
    "posterior_belief",
    "sample_laplace",
    "sample_truncated_laplace",
    "single_variable_guarantee",
    "truncated_mass_at_zero",
    "truncated_mean",
]
