"""100 Mb/s FDDI token ring (the paper's ALPHA/FDDI backbone).

A station must hold the token to transmit; the token then circulates.
We model the token as an exclusive resource whose acquisition costs a
rotation latency (the mean time for the token to come around an
otherwise idle ring).  FDDI is effectively half-duplex per station but
multiple stations' traffic shares the 100 Mb/s ring bandwidth through
token serialization, which the exclusive token resource captures.
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import FrameFormat, Network
from repro.sim import Environment, Resource, Tracer

__all__ = ["FddiRing"]

#: FDDI max frame is 4500 B; after headers we carry ~4 KB of payload.
_FDDI_PAYLOAD = 4096

#: Frame header/trailer + LLC + IP/TCP headers.
_FRAME_OVERHEAD = 80


class FddiRing(Network):
    """A switched-concentrator FDDI ring of workstations."""

    kind = "fddi"
    full_duplex = False

    #: DEC's FDDI adapters had DMA; host cost is lower than Ethernet's
    #: but the 100 Mb/s stream still costs CPU on the receive side.
    host_fixed_seconds = 0.35e-3
    host_per_byte_seconds = 0.05e-6

    def __init__(
        self,
        env: Environment,
        node_count: int,
        tracer: Optional[Tracer] = None,
        rate_bps: float = 100e6,
        token_latency_seconds: float = 45e-6,
        propagation_seconds: float = 8e-6,
    ) -> None:
        super(FddiRing, self).__init__(env, node_count, tracer)
        self.rate_bps = float(rate_bps)
        self.token_latency_seconds = float(token_latency_seconds)
        self.propagation_seconds = float(propagation_seconds)
        self.frame_format = FrameFormat(_FDDI_PAYLOAD, _FRAME_OVERHEAD)
        self._token = Resource(env, capacity=1)

    def enable_noise(self, streams, scale: float = 1.0) -> None:
        """Seeded token-rotation jitter: ``token_latency_seconds`` is
        the *mean* wait for the token on an idle ring, but the token is
        actually somewhere along the ring when a station wants it.
        With noise enabled each capture waits an extra uniform draw in
        ``[0, scale * token_latency_seconds]`` from the
        ``"fddi.token"`` stream — one draw per message, matching the
        once-per-message token capture.
        """
        scale = self._noise_scale(scale)  # validate before any mutation
        self._jitter_rng = streams.stream("fddi.token")
        self._max_jitter = self.token_latency_seconds * scale

    def frame_seconds(self, payload: int) -> float:
        """Wire time of one frame carrying ``payload`` bytes."""
        return self.frame_format.wire_bytes(payload) * 8.0 / self.rate_bps

    def transfer(self, src: int, dst: int, nbytes: int):
        """Send ``nbytes`` from ``src`` to ``dst`` around the ring.

        The token is captured once per *message* (FDDI allows a station
        to transmit several frames per token capture up to its
        synchronous allocation), so large messages do not pay the
        rotation latency per frame.
        """
        self.validate_endpoints(src, dst)
        start = self.env.now
        wire_total = self.frame_format.total_wire_bytes(nbytes)
        busy_total = wire_total * 8.0 / self.rate_bps
        token_wait = self.token_latency_seconds + self._jitter_seconds()
        yield self._token.hold(token_wait, busy_total)
        yield self.env.timeout(self.propagation_seconds)
        self._record(src, dst, nbytes, wire_total, busy_total)
        return self.env.now - start
