"""Abstract network interface and framing arithmetic.

Every concrete medium (Ethernet, FDDI, ATM LAN/WAN, Allnode crossbar)
implements :meth:`Network.transfer`, a generator that completes when
the last byte of a message arrives at the destination NIC.  The
network layer models only the *wire*: media acquisition/contention,
framing overhead, transmission and propagation.  Host-side software
costs (drivers, protocol stacks, tool runtimes) are charged to node
CPUs by the tool layer using the per-network ``host_*`` attributes
declared here.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import NetworkError, validate_noise
from repro.sim import Environment, NullTracer, Tracer

__all__ = ["FrameFormat", "NetworkStats", "Network"]


class FrameFormat(object):
    """Payload/overhead arithmetic for a link-layer frame format."""

    __slots__ = ("payload_bytes", "overhead_bytes", "min_wire_bytes")

    def __init__(self, payload_bytes: int, overhead_bytes: int, min_wire_bytes: int = 0) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if overhead_bytes < 0 or min_wire_bytes < 0:
            raise ValueError("overheads must be non-negative")
        self.payload_bytes = int(payload_bytes)
        self.overhead_bytes = int(overhead_bytes)
        self.min_wire_bytes = int(min_wire_bytes)

    def __repr__(self) -> str:
        return "FrameFormat(payload=%d, overhead=%d, min=%d)" % (
            self.payload_bytes,
            self.overhead_bytes,
            self.min_wire_bytes,
        )

    def frame_count(self, nbytes: int) -> int:
        """Number of frames needed for an ``nbytes`` message (min 1).

        Pure integer ceiling division, so the count always agrees with
        :meth:`frame_payloads` even for messages too large for exact
        float division.
        """
        if nbytes <= 0:
            return 1
        return -(-int(nbytes) // self.payload_bytes)

    def last_frame_payload(self, nbytes: int) -> int:
        """Payload carried by the final frame of an ``nbytes`` message."""
        if nbytes <= 0:
            return 0
        remainder = int(nbytes) % self.payload_bytes
        return remainder if remainder else self.payload_bytes

    def frame_payloads(self, nbytes: int) -> Iterator[int]:
        """Yield the payload size of each successive frame."""
        if nbytes <= 0:
            yield 0
            return
        remaining = int(nbytes)
        while remaining > 0:
            chunk = min(remaining, self.payload_bytes)
            yield chunk
            remaining -= chunk

    def wire_bytes(self, payload: int) -> int:
        """Bytes on the wire for one frame carrying ``payload`` bytes."""
        return max(payload + self.overhead_bytes, self.min_wire_bytes)

    def total_wire_bytes(self, nbytes: int) -> int:
        """Bytes on the wire for a whole ``nbytes`` message.

        Closed form: every frame but the last carries a full payload,
        so the O(frames) generator sum reduces to O(1) arithmetic.
        (Integer sums are associative, so this is exactly the
        per-frame sum — the property tests assert it.)
        """
        if nbytes <= 0:
            return self.wire_bytes(0)
        frames = self.frame_count(nbytes)
        return (frames - 1) * self.wire_bytes(self.payload_bytes) + self.wire_bytes(
            self.last_frame_payload(nbytes)
        )


class NetworkStats(object):
    """Running counters a network keeps about delivered traffic."""

    __slots__ = ("messages", "payload_bytes", "wire_bytes", "busy_seconds")

    def __init__(self) -> None:
        self.messages = 0
        self.payload_bytes = 0
        self.wire_bytes = 0
        self.busy_seconds = 0.0

    def __repr__(self) -> str:
        return "NetworkStats(messages=%d, payload=%dB, wire=%dB, busy=%.6fs)" % (
            self.messages,
            self.payload_bytes,
            self.wire_bytes,
            self.busy_seconds,
        )

    def account(self, payload_bytes: int, wire_bytes: int, busy_seconds: float) -> None:
        self.messages += 1
        self.payload_bytes += payload_bytes
        self.wire_bytes += wire_bytes
        self.busy_seconds += busy_seconds


class Network(object):
    """Base class for all media models.

    Parameters
    ----------
    env:
        Simulation environment.
    node_count:
        Number of attached hosts; endpoints are 0..node_count-1.
    tracer:
        Optional structured tracer; receives ``net.transfer`` records.

    Attributes
    ----------
    host_fixed_seconds:
        Per-message host driver/stack cost (at the reference node),
        charged by the tool layer on each side.
    host_per_byte_seconds:
        Per-byte host driver cost (at the reference node), charged by
        the tool layer on each side.
    full_duplex:
        Whether a host can send and receive simultaneously.
    """

    #: Short catalog name, set by subclasses (e.g. ``"ethernet"``).
    kind = "abstract"

    host_fixed_seconds = 0.0
    host_per_byte_seconds = 0.0
    full_duplex = True

    def __init__(self, env: Environment, node_count: int, tracer: Optional[Tracer] = None) -> None:
        if node_count < 1:
            raise NetworkError("a network needs at least one host, got %d" % node_count)
        self.env = env
        self.node_count = int(node_count)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.stats = NetworkStats()
        # Seeded jitter model, attached by enable_noise(); with no
        # generator the medium is exactly deterministic.
        self._jitter_rng = None
        self._max_jitter = 0.0

    def enable_noise(self, streams, scale: float = 1.0) -> None:
        """Attach this medium's seeded stochastic model.

        ``streams`` is the platform's
        :class:`~repro.sim.rng.RandomStreams`; every medium draws from
        its own named stream, so enabling noise on one never perturbs
        another.  ``scale`` multiplies the medium's class-default
        jitter amplitude (``1.0`` = the physical model's nominal
        spread).  Media without a stochastic model refuse rather than
        silently simulate deterministic results under a noise flag.
        """
        raise NetworkError("%s has no stochastic model to enable" % self.kind)

    def _noise_scale(self, scale: float) -> float:
        """Validate an ``enable_noise`` amplitude scale."""
        return validate_noise(scale, NetworkError, what="noise scale",
                              allow_zero=False)

    def _jitter_seconds(self) -> float:
        """One seeded jitter draw (0.0 when noise is disabled)."""
        if self._jitter_rng is None:
            return 0.0
        return self._jitter_rng.uniform(0.0, self._max_jitter)

    def __repr__(self) -> str:
        return "<%s nodes=%d>" % (type(self).__name__, self.node_count)

    def validate_endpoints(self, src: int, dst: int) -> None:
        """Reject out-of-range or self-directed transfers."""
        for endpoint in (src, dst):
            if not 0 <= endpoint < self.node_count:
                raise NetworkError(
                    "endpoint %d out of range for %d-node %s"
                    % (endpoint, self.node_count, self.kind)
                )
        if src == dst:
            raise NetworkError("self-transfer %d -> %d is a host-local copy, not a send" % (src, dst))

    def transfer(self, src: int, dst: int, nbytes: int):
        """Deliver ``nbytes`` from ``src`` to ``dst`` (generator).

        Completes when the last byte arrives at the destination NIC.
        Subclasses implement the medium-specific behaviour.
        """
        raise NotImplementedError

    def contention(self, node: int) -> int:
        """How many transmitters are queued on ``node``'s transmit path.

        Shared-medium networks report the medium queue; switched
        networks are contention-free per port by default.  Unreliable
        transports (PVM's daemon UDP) consult this to decide whether a
        fragment would have been lost to congestion.
        """
        return 0

    def _record(self, src: int, dst: int, nbytes: int, wire_bytes: int, busy: float) -> None:
        self.stats.account(nbytes, wire_bytes, busy)
        self.tracer.record(
            self.env.now,
            "net.transfer",
            network=self.kind,
            src=src,
            dst=dst,
            nbytes=nbytes,
            wire_bytes=wire_bytes,
            busy=busy,
        )
