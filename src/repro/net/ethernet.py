"""10 Mb/s shared Ethernet (the paper's SUN/Ethernet and SP-1 LAN).

The defining property of 1995 Ethernet for these benchmarks is the
*shared half-duplex medium*: one frame on the wire at a time, campus
wide.  We model the segment as an exclusive resource acquired per
frame (FIFO acquisition approximates CSMA/CD under the moderate loads
of the paper's 2-8 host experiments; an optional seeded jitter models
backoff noise).  Framing covers Ethernet + IP + TCP/UDP headers,
preamble and inter-frame gap.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.base import FrameFormat, Network
from repro.sim import Environment, Resource, Tracer, Train

__all__ = ["Ethernet"]

#: MTU payload once IP (20 B) and TCP (20 B) headers are inside the
#: 1500-byte Ethernet payload.
_TCP_MSS = 1460

#: Per-frame wire overhead: 18 B Ethernet header/FCS + 8 B preamble +
#: 12 B inter-frame gap equivalent + 40 B IP/TCP headers.
_FRAME_OVERHEAD = 78

#: Minimum wire size of an Ethernet frame (64 B + preamble + gap).
_MIN_WIRE = 84


class Ethernet(Network):
    """A single shared 10 Mb/s Ethernet segment."""

    kind = "ethernet"
    full_duplex = False

    #: Host driver/protocol-stack costs at the reference SPARC IPX.
    host_fixed_seconds = 0.35e-3
    host_per_byte_seconds = 0.08e-6

    def __init__(
        self,
        env: Environment,
        node_count: int,
        tracer: Optional[Tracer] = None,
        rate_bps: float = 10e6,
        propagation_seconds: float = 15e-6,
        backoff_rng: Optional[random.Random] = None,
        max_backoff_seconds: float = 60e-6,
    ) -> None:
        super(Ethernet, self).__init__(env, node_count, tracer)
        self.rate_bps = float(rate_bps)
        self.propagation_seconds = float(propagation_seconds)
        self.frame_format = FrameFormat(_TCP_MSS, _FRAME_OVERHEAD, _MIN_WIRE)
        self._medium = Resource(env, capacity=1)
        self._backoff_rng = backoff_rng
        # Nominal amplitude kept separately so enable_noise scales
        # from the configured value, not from a previous scaling.
        self._nominal_backoff = float(max_backoff_seconds)
        self._max_backoff = self._nominal_backoff

    def enable_noise(self, streams, scale: float = 1.0) -> None:
        """Seeded CSMA/CD backoff: a host that finds the segment busy
        defers a uniform random slice of ``max_backoff_seconds`` before
        transmitting.  Draws come from the ``"ethernet.backoff"``
        stream, and only ever occur under contention — an uncontended
        transfer runs its frames as one timer and leaves the stream
        untouched.
        """
        scale = self._noise_scale(scale)  # validate before any mutation
        self._backoff_rng = streams.stream("ethernet.backoff")
        self._max_backoff = self._nominal_backoff * scale

    @property
    def medium_queue_length(self) -> int:
        """Hosts currently waiting for the segment (for tests/metrics)."""
        return self._medium.queue_length

    def contention(self, node: int) -> int:
        """Everyone shares the one segment: queue length is global."""
        return self._medium.queue_length

    def frame_seconds(self, payload: int) -> float:
        """Wire time of a single frame carrying ``payload`` bytes."""
        return self.frame_format.wire_bytes(payload) * 8.0 / self.rate_bps

    def _backoff_seconds(self) -> float:
        """One seeded CSMA/CD backoff draw."""
        return self._backoff_rng.uniform(0.0, self._max_backoff)

    def transfer(self, src: int, dst: int, nbytes: int):
        """Send ``nbytes`` from ``src`` to ``dst`` frame by frame.

        The frames are one :class:`~repro.sim.Train` over the segment,
        claimed once per frame: frames on an idle segment run as one
        timer, and the moment another host queues for the wire — when
        collisions and seeded backoff become possible — the train
        sends frame by frame, each after a backoff draw.
        """
        self.validate_endpoints(src, dst)
        start = self.env.now
        frame_format = self.frame_format
        busy_total = yield Train(
            self._medium,
            frame_format.frame_count(nbytes),
            self.frame_seconds(frame_format.payload_bytes),
            self.frame_seconds(frame_format.last_frame_payload(nbytes)),
            None if self._backoff_rng is None else self._backoff_seconds,
        )
        yield self.env.timeout(self.propagation_seconds)
        self._record(src, dst, nbytes, frame_format.total_wire_bytes(nbytes), busy_total)
        return self.env.now - start
