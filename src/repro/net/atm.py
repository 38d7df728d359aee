"""ATM networks: the FORE-switch LAN and the NYNET wide-area network.

ATM is cell-switched: every message is segmented (AAL5) into 53-byte
cells carrying 48 bytes of payload, and the last cell carries an 8-byte
trailer.  Hosts connect to a non-blocking switch through dedicated
full-duplex links, so unlike Ethernet there is no shared medium — only
the sender's output port and the receiver's input port can contend.

The WAN variant (NYNET, Syracuse <-> Rome NY) differs in propagation
delay and per-message switching latency; the paper's observation that
"ATM WAN performance ... is similar to those of ATM LAN" falls out of
the cell rate being host-limited rather than distance-limited.
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import Network
from repro.sim import Environment, Hold, Resource, Tracer

__all__ = ["AtmLan", "AtmWan"]

_CELL_BYTES = 53
_CELL_PAYLOAD = 48
_AAL5_TRAILER = 8


def cells_for(nbytes: int) -> int:
    """Number of ATM cells for an ``nbytes`` AAL5 PDU (min 1)."""
    total = max(int(nbytes), 0) + _AAL5_TRAILER
    return (total + _CELL_PAYLOAD - 1) // _CELL_PAYLOAD


class AtmLan(Network):
    """SPARCstations on a FORE ASX switch over 140 Mb/s TAXI links."""

    kind = "atm-lan"
    full_duplex = True

    #: Per-message adapter cost; the TAXI adapters the paper used kept
    #: per-byte host cost low enough that tool software, not the
    #: driver, set the ATM throughput ceiling.
    host_fixed_seconds = 0.35e-3
    host_per_byte_seconds = 0.03e-6

    #: Per-message switch traversal (VC lookup + cut-through start).
    switch_latency_seconds = 50e-6

    propagation_seconds = 10e-6

    def __init__(
        self,
        env: Environment,
        node_count: int,
        tracer: Optional[Tracer] = None,
        line_rate_bps: float = 140e6,
    ) -> None:
        super(AtmLan, self).__init__(env, node_count, tracer)
        self.line_rate_bps = float(line_rate_bps)
        self._out_ports = [Resource(env, capacity=1) for _ in range(node_count)]
        self._in_ports = [Resource(env, capacity=1) for _ in range(node_count)]

    def enable_noise(self, streams, scale: float = 1.0) -> None:
        """Seeded switch-traversal jitter: VC lookup and cut-through
        start vary with switch occupancy, so each message pays an extra
        uniform draw in ``[0, scale * switch_latency_seconds]`` from
        the ``"atm.switch"`` stream on top of the nominal traversal.
        """
        scale = self._noise_scale(scale)  # validate before any mutation
        self._jitter_rng = streams.stream("atm.switch")
        self._max_jitter = self.switch_latency_seconds * scale

    @property
    def payload_rate_bps(self) -> float:
        """User-data rate after the 53/48 cell tax."""
        return self.line_rate_bps * _CELL_PAYLOAD / _CELL_BYTES

    def cell_stream_seconds(self, nbytes: int) -> float:
        """Wire time of the whole cell stream for an ``nbytes`` message."""
        return cells_for(nbytes) * _CELL_BYTES * 8.0 / self.line_rate_bps

    def transfer(self, src: int, dst: int, nbytes: int):
        """Stream the message's cells through the switch."""
        self.validate_endpoints(src, dst)
        start = self.env.now
        stream_time = self.cell_stream_seconds(nbytes)
        # Hold the sender's output port and the receiver's input port
        # for the duration of the stream; the switch core never blocks.
        # Output is claimed first and released first, so rival grants
        # fire in a fixed order.
        yield Hold((self._out_ports[src], self._in_ports[dst]), (stream_time,))
        yield self.env.timeout(
            self.switch_latency_seconds + self._jitter_seconds() + self.propagation_seconds
        )
        wire_total = cells_for(nbytes) * _CELL_BYTES
        self._record(src, dst, nbytes, wire_total, stream_time)
        return self.env.now - start


class AtmWan(AtmLan):
    """NYNET: ATM WAN between Syracuse University and Rome Laboratory.

    Access links are OC-3 (155 Mb/s, ~149.76 Mb/s SONET payload); the
    OC-48 backbone never limits a single conversation, so the access
    link sets the cell rate.  Distance adds ~0.35 ms propagation one
    way and WAN switches add per-message latency.
    """

    kind = "atm-wan"

    #: Two WAN switch traversals plus VC handling.
    switch_latency_seconds = 120e-6

    #: Syracuse to Rome NY fiber path, ~70 km at 5 us/km.
    propagation_seconds = 350e-6

    def __init__(
        self,
        env: Environment,
        node_count: int,
        tracer: Optional[Tracer] = None,
        line_rate_bps: float = 149.76e6,
    ) -> None:
        super(AtmWan, self).__init__(env, node_count, tracer, line_rate_bps=line_rate_bps)
