"""The IBM SP-1 Allnode crossbar switch.

Each node connects to a non-blocking crossbar through a dedicated
full-duplex 40 MB/s link; latency through the switch is microseconds.
Like the ATM model, only the sender's output port and the receiver's
input port can contend.  Packetization overhead is small (the Allnode
switch used small flits with negligible header tax at the message
sizes the paper measures), so we model a simple per-packet overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import FrameFormat, Network
from repro.sim import Environment, Hold, Resource, Tracer

__all__ = ["AllnodeSwitch"]


class AllnodeSwitch(Network):
    """The SP-1's Allnode crossbar interconnect."""

    kind = "allnode"
    full_duplex = True

    #: The SP-1's early message layer (EUI/MPL era) still crossed the
    #: kernel; per-message host cost is low but not negligible.
    host_fixed_seconds = 0.25e-3
    host_per_byte_seconds = 0.03e-6

    switch_latency_seconds = 5e-6
    propagation_seconds = 1e-6

    def __init__(
        self,
        env: Environment,
        node_count: int,
        tracer: Optional[Tracer] = None,
        rate_bps: float = 320e6,
    ) -> None:
        super(AllnodeSwitch, self).__init__(env, node_count, tracer)
        self.rate_bps = float(rate_bps)
        self.frame_format = FrameFormat(payload_bytes=4096, overhead_bytes=16)
        self._out_ports = [Resource(env, capacity=1) for _ in range(node_count)]
        self._in_ports = [Resource(env, capacity=1) for _ in range(node_count)]

    def enable_noise(self, streams, scale: float = 1.0) -> None:
        """Seeded route-setup jitter: the Allnode switch establishes a
        circuit per message, and setup time varies with switch state.
        Each message pays an extra uniform draw in
        ``[0, scale * switch_latency_seconds]`` from the
        ``"allnode.switch"`` stream.
        """
        scale = self._noise_scale(scale)  # validate before any mutation
        self._jitter_rng = streams.stream("allnode.switch")
        self._max_jitter = self.switch_latency_seconds * scale

    def stream_seconds(self, nbytes: int) -> float:
        """Wire time for an ``nbytes`` message including packet tax."""
        return self.frame_format.total_wire_bytes(nbytes) * 8.0 / self.rate_bps

    def transfer(self, src: int, dst: int, nbytes: int):
        """Stream the message through the crossbar."""
        self.validate_endpoints(src, dst)
        start = self.env.now
        stream_time = self.stream_seconds(nbytes)
        # Output port then input port, as on the ATM switch.
        yield Hold((self._out_ports[src], self._in_ports[dst]), (stream_time,))
        yield self.env.timeout(
            self.switch_latency_seconds + self._jitter_seconds() + self.propagation_seconds
        )
        wire_total = self.frame_format.total_wire_bytes(nbytes)
        self._record(src, dst, nbytes, wire_total, stream_time)
        return self.env.now - start
