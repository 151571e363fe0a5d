"""The dialing protocol: invitations, dialing rounds and dead-drop tuning."""

from .client import (
    build_dial_request,
    download_size_bytes,
    fetch_invitations,
    own_invitation_bucket,
)
from .invitation import (
    DIALING_REQUEST_SIZE,
    INVITATION_OVERHEAD,
    INVITATION_SIZE,
    DialingRequest,
    open_invitation,
    seal_invitation,
)
from .server import DialingProcessor, dialing_noise_builder
from .tuning import (
    DialingCostModel,
    invitations_fit_estimate,
    optimal_bucket_count,
    paper_dialing_cost_model,
)

__all__ = [
    "DIALING_REQUEST_SIZE",
    "DialingCostModel",
    "DialingProcessor",
    "DialingRequest",
    "INVITATION_OVERHEAD",
    "INVITATION_SIZE",
    "build_dial_request",
    "dialing_noise_builder",
    "download_size_bytes",
    "fetch_invitations",
    "invitations_fit_estimate",
    "open_invitation",
    "optimal_bucket_count",
    "own_invitation_bucket",
    "paper_dialing_cost_model",
    "seal_invitation",
]
