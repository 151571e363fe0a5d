"""A client's connection to a deployment over a transport.

:class:`VuvuzelaClient` is transport-agnostic: it builds and consumes byte
strings.  :class:`ClientConnection` is the piece that moves those bytes — it
submits each round's requests to the entry server over any
:class:`~repro.net.transport.Transport` and feeds the replies back into the
client's ``handle_*`` methods.

It speaks the *blocking-response* protocol of the networked entry server
(:mod:`repro.server.entry_main`): a submission's transport reply IS the
round response — the onion-wrapped response bytes once the round resolves,
or the :data:`~repro.server.entry.REFUSED` / :data:`~repro.runtime.LATE`
markers, both of which the client experiences as a lost round (it
retransmits, §3.1).  A client with several conversation slots submits its
requests concurrently, one connection each, since every submission blocks
until the round closes.

The connection is also where client-side fault tolerance lives.  A
submission whose reply is :data:`~repro.runtime.ABORTED` (the round's chain
drive failed and the coordinator opened a retry window) is *resubmitted* —
the identical wire bytes, so the entry's idempotency key
``(kind, round, client, index)`` re-attaches it to its original batch slot
instead of admitting it twice.  A submission that dies to a transport
failure (the entry crashed or restarted; the long-poll connection was cut)
is retried the same way: the pooled transport reconnects on the next send,
and the resubmission is idempotent, so a reply that was lost after the
request was delivered cannot double-submit.  When the retry budget runs
out, the client experiences a lost round and retransmits next round —
exactly the paper's §3.1 behaviour.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .client import VuvuzelaClient
from ..deaddrop import InvitationDropStore
from ..errors import NetworkError, ProtocolError
from ..net import MessageKind, Transport
from ..runtime import ABORTED, LATE
from ..runtime.protocols import DialingProtocol, RoundProtocol, make_protocol
from ..server import REFUSED
from ..server.wire import encode_download_request


@dataclass
class ClientConnection:
    """Drives one :class:`VuvuzelaClient` over a transport, round by round."""

    client: VuvuzelaClient
    transport: Transport
    entry_name: str = "entry"
    #: Total tries per submission: the first send plus resubmissions after
    #: an ABORTED reply or a transport failure.
    max_submit_attempts: int = 4
    #: Base pause before a resubmission; grows linearly with the attempt so
    #: a crashed server gets time to be restarted before the budget runs out.
    retry_backoff_seconds: float = 0.2
    #: Rounds in which at least one of this client's requests was refused or
    #: arrived late — the client-visible face of §7/§9 admission control.
    refused_rounds: int = field(default=0, init=False)
    late_rounds: int = field(default=0, init=False)
    #: ABORTED replies received (one per aborted attempt of a round).
    aborted_replies: int = field(default=0, init=False)
    #: Idempotent resubmissions performed (abort recovery + reconnects).
    resubmissions: int = field(default=0, init=False)
    #: Sends retried after a transport-level failure (timeout, dead link).
    reconnects: int = field(default=0, init=False)
    #: Rounds the deployment failed permanently (retry budget exhausted at
    #: the coordinator) — experienced as lost rounds, never retried here.
    failed_rounds: int = field(default=0, init=False)

    @property
    def name(self) -> str:
        return self.client.name

    def _decode(self, reply: bytes | None) -> bytes | None:
        """Map entry markers onto the ``None`` (= lost round) the client expects."""
        if reply is None:
            return None
        reply = bytes(reply)
        if reply == REFUSED:
            self.refused_rounds += 1
            return None
        if reply == LATE:
            self.late_rounds += 1
            return None
        return reply

    def _submit(self, wire: bytes, kind: MessageKind, round_number: int) -> bytes | None:
        reply: bytes | None = None
        for attempt in range(self.max_submit_attempts):
            if attempt:
                self.resubmissions += 1
                time.sleep(self.retry_backoff_seconds * attempt)
            try:
                reply = self.transport.send(self.name, self.entry_name, wire, kind, round_number)
            except ProtocolError:
                # The round failed for good (the coordinator's retry budget
                # ran out): a lost round, not a crash — the message stays
                # queued and retransmits next round (§3.1).  Resubmitting
                # would only be refused as a straggler.
                self.failed_rounds += 1
                reply = None
                break
            except NetworkError:  # includes TransportTimeout
                # The entry is unreachable or the long-poll was cut.  The
                # pooled transport reconnects on the next send; resubmitting
                # the identical wire is idempotent at the coordinator, so a
                # reply lost *after* delivery cannot double-submit.
                self.reconnects += 1
                reply = None
                continue
            if reply is not None and bytes(reply) == ABORTED:
                # The round's chain drive failed; a retry window for the
                # same round is already open.  Resubmit to re-attach our
                # reply channel to the retried round.
                self.aborted_replies += 1
                reply = None
                continue
            return self._decode(reply)
        # Retry budget exhausted: a lost round (the client retransmits).
        return self._decode(reply)

    def run_round(
        self, protocol: RoundProtocol, round_number: int, wires: list[bytes] | None = None
    ):
        """Build, submit and resolve one round of any protocol.

        The protocol object supplies the wires and consumes the responses;
        this connection supplies the transport, the resubmission logic and
        the marker decoding — the same pipeline whether the round is a
        conversation or a dialing round.  A driver that built every
        client's round at once hands this client's ``wires`` in; without
        them the connection builds a one-client batch itself.
        """
        if wires is None:
            (wires,) = protocol.build_wires([self.client], round_number)
        if len(wires) == 1:
            responses = [self._submit(wires[0], protocol.kind, round_number)]
        else:
            # Every submission long-polls until the round closes, so a
            # multi-slot client must put each request on its own connection.
            with ThreadPoolExecutor(max_workers=len(wires)) as pool:
                responses = list(
                    pool.map(
                        lambda wire: self._submit(wire, protocol.kind, round_number),
                        wires,
                    )
                )
        return protocol.handle_responses(self.client, round_number, responses)

    def run_conversation_round(self, round_number: int) -> list[bytes | None]:
        """Build, submit and resolve one conversation round's requests."""
        return self.run_round(make_protocol("conversation"), round_number)

    def run_dialing_round(self, round_number: int, num_buckets: int) -> None:
        """Build, submit and resolve one dialing round's request."""
        self.run_round(DialingProtocol(num_buckets=num_buckets), round_number)

    def fetch_invitation_store(self, round_number: int) -> InvitationDropStore:
        """Download a dialing round's invitation store from the entry server.

        This is the paper's CDN download, carried over the same envelope
        path as every other client request (``DIAL_DOWNLOAD`` to the entry),
        so dialing works end to end over any transport.
        """
        reply = self.transport.send(
            self.name,
            self.entry_name,
            encode_download_request(round_number),
            MessageKind.DIAL_DOWNLOAD,
            round_number,
        )
        if reply is None:
            raise NetworkError(
                f"dialing round {round_number}: the invitation download was lost"
            )
        return InvitationDropStore.restore(json.loads(bytes(reply).decode("utf-8")))
