"""Exception hierarchy shared across the Vuvuzela reproduction.

Every package raises subclasses of :class:`ReproError` so applications can
catch library failures with a single ``except`` clause while still being able
to distinguish, e.g., cryptographic failures from protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, corrupt ciphertext, ...)."""


class DecryptionError(CryptoError):
    """Authenticated decryption failed: the ciphertext or tag is invalid."""


class PaddingError(CryptoError):
    """A message does not fit the fixed wire size, or unpadding failed."""


class OnionError(CryptoError):
    """An onion-encrypted request or response is malformed."""


class ProtocolError(ReproError):
    """A peer violated the Vuvuzela protocol (wrong sizes, wrong round, ...)."""


class RoundAbortedError(ProtocolError):
    """A round's chain drive failed and the round was aborted.

    Raised by the coordinator when a hop failure aborts a round that is
    being retried: accepted submissions have been refunded into the
    resubmission queue and a fresh window for the same round number is
    already open.  Blocked long-polls are answered with the ``ABORTED``
    marker rather than this exception — clients resubmit, they do not
    crash.  A round whose retry budget is exhausted raises a plain
    :class:`ProtocolError` instead.
    """


class ConfigurationError(ReproError):
    """The system was configured with invalid or inconsistent parameters."""


class PrivacyBudgetError(ReproError):
    """A privacy accounting operation was invalid (negative budget, bad k, ...)."""


class NetworkError(ReproError):
    """A network operation failed (unknown peer, link down, ...)."""


class TransportTimeout(NetworkError):
    """A transport operation exceeded its configured deadline.

    Kept distinct from plain :class:`NetworkError` so the round coordinator
    can surface a timed-out chain hop as a :class:`ProtocolError` while an
    unreachable endpoint stays a network failure.
    """


class ConnectTimeout(TransportTimeout):
    """Connecting to a peer timed out before any data was sent.

    Kept distinct from a request-phase :class:`TransportTimeout` because a
    connect that never completed provably delivered nothing: the round
    coordinator may safely retry it, where a request-phase timeout is
    ambiguous (the peer may have processed the batch before the deadline).
    """


class SimulationError(ReproError):
    """The deployment simulator was asked to do something unsupported."""


class LedgerError(ReproError):
    """The round ledger is corrupt, tampered with, or used incorrectly.

    A *torn tail* (a crash mid-append) is recovered, not raised; this error
    means something stronger — a hash-chain break or malformed record in the
    ledger's interior, which no crash of the single appending process can
    produce."""
