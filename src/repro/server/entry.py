"""The untrusted entry server (§7).

The entry server's only job is to terminate a large number of client
connections, multiplex each round's client requests into one batch for the
first chain server, and demultiplex the responses back to the clients.  It is
*not* one of the chain servers and is not trusted: everything it sees is
onion-encrypted, fixed-size and already covered by the privacy analysis (the
adversary is assumed to see all network traffic anyway).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .wire import decode_batch, encode_batch
from ..errors import NetworkError, ProtocolError
from ..net import MessageKind, Transport

ACK = b"ok"


#: Reply sent to clients whose requests were refused by admission control.
REFUSED = b"refused"


@dataclass
class EntryServer:
    """Buffers client requests per round and drives the chain.

    §9 "Denial of service attacks": because every client talks to the entry
    server first, it is the natural place to mitigate client DoS — requiring
    an account, proof-of-work, or payment.  This implementation models the
    account-based variant: with ``require_registration`` enabled, requests
    from unregistered sources are refused (and counted), and each account is
    limited to one request per protocol per round.  Identifying clients to the
    entry server does not weaken privacy: the adversary is already assumed to
    know who is connected (§2.2).

    The entry server is not a transport endpoint of its own: the
    :class:`~repro.runtime.coordinator.RoundCoordinator` registers its name
    and calls :meth:`admit` only for submissions that reach an open window.
    """

    network: Transport
    first_server: dict[MessageKind, str]
    name: str = "entry"
    require_registration: bool = False
    #: Requests a registered account may submit per protocol per round.  The
    #: conversation protocol uses one request per conversation slot (§9), so
    #: deployments with multi-conversation clients raise this accordingly.
    max_requests_per_account_per_round: int = 1
    #: When set, the entry also plays the paper's CDN: clients fetch a
    #: dialing round's invitation store with a ``DIAL_DOWNLOAD`` envelope,
    #: and this callable asks the last chain server for the round's
    #: (JSON-safe) store snapshot — once: snapshots are cached per round.
    invitation_fetcher: Callable[[int], dict] | None = None
    #: Cached snapshots are dropped once they fall this many rounds behind
    #: the newest download — continuous operation must not grow memory.
    keep_snapshots: int = 8
    _accounts: set[str] = field(default_factory=set)
    _buffers: dict[tuple[MessageKind, int], list[tuple[str, bytes]]] = field(default_factory=dict)
    #: Per-round, per-source submission counts mirroring ``_buffers`` — the
    #: admission cap check must stay O(1) per request, not a scan of the
    #: round's buffer (quadratic over a 100k-client swarm round).
    _counts: dict[tuple[MessageKind, int], dict[str, int]] = field(default_factory=dict)
    _snapshots: dict[int, bytes] = field(default_factory=dict)
    refused_requests: int = 0
    #: Invitation-store downloads served (cache hits included).
    downloads_served: int = 0

    def register_account(self, client_name: str) -> None:
        """Admit a client (models sign-up / proof-of-work / payment, §9)."""
        self._accounts.add(client_name)

    def revoke_account(self, client_name: str) -> None:
        self._accounts.discard(client_name)

    def is_registered(self, client_name: str) -> bool:
        return client_name in self._accounts

    def admit(self, kind: MessageKind, round_number: int, source: str, payload: bytes) -> bytes:
        """The §9 admission decision for one submission.

        The round coordinator calls this for every submission that reaches
        an open window, whether it came in its own envelope or in a batch
        frame, so registration gating, the per-account cap and the refusal
        counters are identical observables no matter how a submission
        arrived.  ``payload`` may be any bytes-like object; zero-copy views
        from a decoded batch frame are buffered as-is.
        """
        if kind not in self.first_server:
            raise ProtocolError(f"the entry server does not handle {kind}")
        if self.require_registration and source not in self._accounts:
            self.refused_requests += 1
            return REFUSED
        key = (kind, round_number)
        submissions = self._buffers.setdefault(key, [])
        counts = self._counts.setdefault(key, {})
        if self.require_registration:
            if counts.get(source, 0) >= self.max_requests_per_account_per_round:
                # A bounded number of requests per account per protocol per
                # round: a flood from a registered-but-misbehaving client
                # cannot inflate the round.
                self.refused_requests += 1
                return REFUSED
        submissions.append((source, payload))
        counts[source] = counts.get(source, 0) + 1
        return ACK

    def admit_chunk(
        self,
        kind: MessageKind,
        round_number: int,
        entries: list[tuple[str, bytes]],
        tallies: dict[str, int],
    ) -> int:
        """Bulk-admit one chunk when every entry is acceptable by construction.

        The coordinator's batched fast path calls this only when
        ``require_registration`` is off — the one configuration where
        :meth:`admit` cannot refuse, so the whole chunk collapses to one
        buffer extend and one tally merge.  ``tallies`` is the chunk's
        per-source multiplicity, precomputed by the caller *outside* the
        coordinator lock.  Buffer order and per-source counts end up exactly
        as per-entry :meth:`admit` calls would leave them.
        """
        if kind not in self.first_server:
            raise ProtocolError(f"the entry server does not handle {kind}")
        if self.require_registration:
            raise ProtocolError("admit_chunk cannot apply registration gating")
        key = (kind, round_number)
        self._buffers.setdefault(key, []).extend(entries)
        counts = self._counts.setdefault(key, {})
        for source, added in tallies.items():
            counts[source] = counts.get(source, 0) + added
        return len(entries)

    def serve_invitations(self, round_number: int) -> bytes:
        """One dialing round's invitation store, JSON-encoded, cached.

        The snapshot is fetched once per round through ``invitation_fetcher``
        and byte-identical for every client that downloads it — exactly the
        CDN behaviour the paper assumes (§5.2).
        """
        cached = self._snapshots.get(round_number)
        if cached is None:
            if self.invitation_fetcher is None:
                raise ProtocolError("this entry server serves no invitation downloads")
            cached = json.dumps(
                self.invitation_fetcher(round_number), sort_keys=True
            ).encode("utf-8")
            self._snapshots[round_number] = cached
            horizon = round_number - self.keep_snapshots
            for old in [r for r in self._snapshots if r < horizon]:
                del self._snapshots[old]
        self.downloads_served += 1
        return cached

    def pending_requests(self, kind: MessageKind, round_number: int) -> int:
        return len(self._buffers.get((kind, round_number), []))

    def buffered_total(self) -> int:
        """Submissions buffered across all open rounds (refund conservation)."""
        return sum(len(submissions) for submissions in self._buffers.values())

    def submissions(self, kind: MessageKind, round_number: int) -> list[tuple[str, bytes]]:
        """A read-only view of one round's buffered ``(client, payload)`` pairs."""
        return list(self._buffers.get((kind, round_number), []))

    def withdraw(self, kind: MessageKind, round_number: int) -> list[tuple[str, bytes]]:
        """Remove and return one round's buffered submissions.

        A round's batch leaves the buffer once the chain ran it; the
        coordinator also withdraws the batch of a round that failed for good
        and parks it in its resubmission queue.
        """
        self._counts.pop((kind, round_number), None)
        return self._buffers.pop((kind, round_number), [])

    def run_round_grouped(
        self, kind: MessageKind, round_number: int, attempt: int = 1
    ) -> dict[str, list[bytes]]:
        """Send the buffered batch through the chain; group responses per client.

        Each client's responses appear in the order it submitted its requests.
        The buffer for the round is consumed on success: late requests for an
        already-run round are rejected by the round sequencing above this
        server rather than silently queued forever.  On a chain failure the
        batch stays buffered — a crashed hop must not silently discard every
        accepted submission of the round (the coordinator refunds them into
        a retry of the round, or parks them once the round fails for good).
        """
        submissions = self._buffers.get((kind, round_number), [])
        batch = [payload for _, payload in submissions]
        reply = self.network.send(
            self.name,
            self.first_server[kind],
            encode_batch(round_number, batch, attempt),
            kind=kind,
            round_number=round_number,
        )
        if reply is None:
            raise NetworkError(
                f"round {round_number}: the first chain server is unreachable"
            )
        reply_round, _, responses = decode_batch(reply)
        if reply_round != round_number or len(responses) != len(submissions):
            raise ProtocolError("the chain returned a malformed round result")
        self.withdraw(kind, round_number)
        grouped: dict[str, list[bytes]] = {}
        for (client, _), response in zip(submissions, responses):
            # The zero-copy views from decode_batch stop here: clients get
            # real bytes (the documented contract), and retaining a response
            # must not pin the whole round's reply buffer alive.
            # repro-lint: allow[zero-copy] declared retention boundary: responses outlive the frame, so this copy is the contract
            grouped.setdefault(client, []).append(bytes(response))
        return grouped
