"""Node (host computer) models.

A :class:`NodeSpec` is a static description of a machine type — clock
rate and sustained throughput for the three operation classes that
matter for the paper's workloads (integer ops, floating-point ops,
memory copies).  A :class:`Node` is a live instance inside a platform:
it owns a CPU resource so that concurrent activities on the same host
(application compute, tool pack/unpack, daemon store-and-forward)
serialize exactly as they would on a real single-CPU 1995 workstation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim import Environment, Resource

__all__ = ["Work", "NodeSpec", "Node"]


class Work(object):
    """An amount of computation, broken down by operation class.

    Parameters
    ----------
    flops:
        Floating-point operations.
    int_ops:
        Integer/logic operations.
    mem_bytes:
        Bytes moved through memory (copies, scans).
    """

    __slots__ = ("flops", "int_ops", "mem_bytes")

    def __init__(self, flops: float = 0.0, int_ops: float = 0.0, mem_bytes: float = 0.0) -> None:
        if flops < 0 or int_ops < 0 or mem_bytes < 0:
            raise ValueError("work amounts must be non-negative")
        self.flops = float(flops)
        self.int_ops = float(int_ops)
        self.mem_bytes = float(mem_bytes)

    def __repr__(self) -> str:
        return "Work(flops=%g, int_ops=%g, mem_bytes=%g)" % (
            self.flops,
            self.int_ops,
            self.mem_bytes,
        )

    def __add__(self, other: "Work") -> "Work":
        return Work(
            self.flops + other.flops,
            self.int_ops + other.int_ops,
            self.mem_bytes + other.mem_bytes,
        )

    def __mul__(self, factor: float) -> "Work":
        return Work(self.flops * factor, self.int_ops * factor, self.mem_bytes * factor)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Work):
            return NotImplemented
        return (
            self.flops == other.flops
            and self.int_ops == other.int_ops
            and self.mem_bytes == other.mem_bytes
        )


class NodeSpec(object):
    """Static performance description of a machine type.

    Throughputs are *sustained application-level* rates, not peak
    datasheet rates; they are what sets the compute portion of the
    paper's application-level (APL) curves.

    Parameters
    ----------
    name:
        Human-readable machine name (e.g. ``"SPARCstation IPX"``).
    clock_mhz:
        CPU clock in MHz (documentation; timing uses the throughputs).
    mips:
        Sustained integer throughput in millions of ops per second.
    mflops:
        Sustained floating-point throughput in MFLOPS.
    mem_mbps:
        Sustained memory-copy bandwidth in MB/s.
    """

    __slots__ = ("name", "clock_mhz", "mips", "mflops", "mem_mbps")

    def __init__(
        self,
        name: str,
        clock_mhz: float,
        mips: float,
        mflops: float,
        mem_mbps: float,
    ) -> None:
        if min(clock_mhz, mips, mflops, mem_mbps) <= 0:
            raise ConfigurationError("node spec rates must be positive: %s" % name)
        self.name = name
        self.clock_mhz = float(clock_mhz)
        self.mips = float(mips)
        self.mflops = float(mflops)
        self.mem_mbps = float(mem_mbps)

    def __repr__(self) -> str:
        return "NodeSpec(%r, %.1f MHz, %.1f MIPS, %.1f MFLOPS, %.0f MB/s)" % (
            self.name,
            self.clock_mhz,
            self.mips,
            self.mflops,
            self.mem_mbps,
        )

    def duration(self, work: Work) -> float:
        """Seconds this machine needs to execute ``work``."""
        return (
            work.flops / (self.mflops * 1e6)
            + work.int_ops / (self.mips * 1e6)
            + work.mem_bytes / (self.mem_mbps * 1e6)
        )

    def software_seconds(self, seconds_at_reference: float, reference: "NodeSpec") -> float:
        """Scale a software cost calibrated on ``reference`` to this node.

        Tool and driver overheads in the calibration tables are measured
        on the reference machine (SPARCstation IPX, matching the paper's
        Table 3 hosts); on a faster host the same code runs
        proportionally faster.
        """
        return seconds_at_reference * (reference.mips / self.mips)


class Node(object):
    """A live host inside a platform.

    The single :class:`~repro.sim.Resource` CPU makes concurrent
    software activity on one host serialize, which is what lets
    behaviours like PVM daemon store-and-forward contention *emerge*
    rather than being hard-coded.  Long computations are sliced into
    scheduler quanta so short activities (a daemon forwarding a
    fragment, a protocol handshake) preempt within a quantum, as they
    would under a timesharing OS.
    """

    #: Timesharing quantum: how long one claim may hold the CPU before
    #: queued work gets a turn.
    quantum_seconds = 5e-3

    def __init__(self, env: Environment, node_id: int, spec: NodeSpec) -> None:
        self.env = env
        self.node_id = int(node_id)
        self.spec = spec
        self.cpu = Resource(env, capacity=1)

    def __repr__(self) -> str:
        return "<Node %d (%s)>" % (self.node_id, self.spec.name)

    def use_cpu(self, seconds: float):
        """Occupy this node's CPU for ``seconds`` total (generator).

        Concurrent callers interleave at quantum granularity, like
        runnable processes on a single-CPU workstation; total CPU time
        on a node is conserved regardless of interleaving.  Each slice
        is one :meth:`~repro.sim.Resource.hold` of the CPU (claim,
        sleep one quantum or less, release), so a slice costs the
        caller one resume.
        """
        if seconds < 0:
            raise ValueError("negative CPU time %r" % (seconds,))
        cpu = self.cpu
        quantum = self.quantum_seconds
        remaining = seconds
        while remaining > 0.0:
            timeslice = min(remaining, quantum)
            yield cpu.hold(timeslice)
            remaining -= timeslice

    def execute(self, work: Work):
        """Occupy the CPU long enough to perform ``work`` (generator)."""
        yield from self.use_cpu(self.spec.duration(work))

    def software_cost(self, seconds_at_reference: float, reference: Optional[NodeSpec] = None):
        """Charge a reference-calibrated software cost on this CPU."""
        if reference is None:
            reference = self.spec
        yield from self.use_cpu(self.spec.software_seconds(seconds_at_reference, reference))
