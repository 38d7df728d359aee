"""Abstract tool runtime and the communicator API.

A :class:`ToolRuntime` binds a tool's cost profile to a platform: it
owns one mailbox per node and implements the tool's send path over the
platform's network.  A :class:`Communicator` is the per-rank handle an
application program uses — its interface mirrors the primitive classes
the paper benchmarks at the Tool Performance Level: point-to-point
send/receive, broadcast/multicast, ring communication, global
reduction, plus synchronization (barrier) and process management
(launch).

Application programs are generator functions ``program(comm, *args)``
that ``yield from`` communicator calls, e.g.::

    def worker(comm, n):
        if comm.rank == 0:
            yield from comm.send(1, payload=b"x" * n)
        else:
            msg = yield from comm.recv(src=0)
        return comm.rank
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ConfigurationError, ToolError, UnsupportedOperationError
from repro.hardware.node import Node
from repro.hardware.platform import Platform
from repro.hardware.specs import REFERENCE_SPEC
from repro.sim import FilterStore, Process
from repro.tools import collectives
from repro.tools.messages import Message, sizeof
from repro.tools.profiles import ToolProfile

__all__ = ["ToolRuntime", "Communicator"]


class ToolRuntime(object):
    """A message-passing tool instantiated on a platform.

    Subclasses implement :meth:`send_path` (the tool's blocking send
    semantics) and may override :meth:`multicast_path`.
    """

    #: Subclasses set the default cost profile.
    default_profile: Optional[ToolProfile] = None

    def __init__(self, platform: Platform, profile: Optional[ToolProfile] = None) -> None:
        self.platform = platform
        self.env = platform.env
        self.network = platform.network
        self.profile = profile if profile is not None else self.default_profile
        if self.profile is None:
            raise ConfigurationError("%s has no cost profile" % type(self).__name__)
        self.reference = REFERENCE_SPEC
        self.mailboxes = [FilterStore(self.env) for _ in range(platform.node_count)]

    def __repr__(self) -> str:
        return "<%s on %s>" % (type(self).__name__, self.platform.name)

    @property
    def name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def software(self, node: Node, seconds: float):
        """Charge reference-calibrated software time on a node (gen.)."""
        yield from node.software_cost(seconds, self.reference)

    def send_side_cost(self, nbytes: int) -> float:
        """Sender software seconds at the reference machine."""
        return (
            self.profile.send_fixed
            + self.network.host_fixed_seconds
            + (self.profile.pack_per_byte + self.network.host_per_byte_seconds) * nbytes
        )

    def recv_side_cost(self, nbytes: int) -> float:
        """Receiver software seconds at the reference machine."""
        return (
            self.profile.recv_fixed
            + self.network.host_fixed_seconds
            + (self.profile.unpack_per_byte + self.network.host_per_byte_seconds) * nbytes
        )

    # ------------------------------------------------------------------
    # Transfer paths
    # ------------------------------------------------------------------

    def send_path(self, msg: Message):
        """Move ``msg`` from its source to its destination (generator).

        Blocking semantics are tool-specific; completion of this
        generator is when the *sender* regains control, which may be
        before the message arrives (PVM) or only after (p4, Express).
        """
        raise NotImplementedError

    def multicast_path(self, msg: Message, dsts: Sequence[int]):
        """Tool-specific one-to-many path; default is sequential sends."""
        for dst in dsts:
            copy = Message(msg.src, dst, msg.tag, msg.nbytes, msg.payload, sent_at=self.env.now)
            yield from self.send_path(copy)

    def deliver(self, msg: Message) -> None:
        """Put ``msg`` into the destination mailbox (arrival instant)."""
        msg.arrived_at = self.env.now
        self.platform.tracer.record(
            self.env.now,
            "tool.deliver",
            tool=self.name,
            src=msg.src,
            dst=msg.dst,
            nbytes=msg.nbytes,
        )
        self.mailboxes[msg.dst].put(msg)

    # ------------------------------------------------------------------
    # Program launch (system management primitives)
    # ------------------------------------------------------------------

    def communicator(self, rank: int, size: Optional[int] = None) -> "Communicator":
        """The communicator for ``rank`` in a ``size``-process program."""
        if size is None:
            size = self.platform.node_count
        return Communicator(self, rank, size)

    def launch(
        self,
        program: Callable,
        nprocs: Optional[int] = None,
        args: Sequence[Any] = (),
    ) -> List[Process]:
        """Start an SPMD program on the first ``nprocs`` nodes."""
        size = nprocs if nprocs is not None else self.platform.node_count
        if not 1 <= size <= self.platform.node_count:
            raise ConfigurationError(
                "cannot launch %d processes on %d nodes" % (size, self.platform.node_count)
            )
        processes = []
        for rank in range(size):
            comm = self.communicator(rank, size)
            processes.append(self.env.process(program(comm, *args)))
        return processes

    def run_spmd(
        self,
        program: Callable,
        nprocs: Optional[int] = None,
        args: Sequence[Any] = (),
    ) -> List[Any]:
        """Launch, run to completion, and return per-rank results."""
        processes = self.launch(program, nprocs, args)
        self.env.run(until=self.env.all_of(processes))
        return [process.value for process in processes]


class Communicator(object):
    """Per-rank handle for one SPMD program."""

    def __init__(self, runtime: ToolRuntime, rank: int, size: int) -> None:
        if not 0 <= rank < size:
            raise ToolError("rank %d out of range for size %d" % (rank, size))
        if size > runtime.platform.node_count:
            raise ToolError(
                "size %d exceeds the %d-node platform" % (size, runtime.platform.node_count)
            )
        self.runtime = runtime
        self.rank = rank
        self.size = size
        self._collective_seq = 0

    def __repr__(self) -> str:
        return "<Communicator rank=%d/%d tool=%s>" % (self.rank, self.size, self.runtime.name)

    @property
    def env(self):
        return self.runtime.env

    @property
    def node(self) -> Node:
        """The node this rank runs on (rank r on node r)."""
        return self.runtime.platform.node(self.rank)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ToolError("peer rank %d out of range for size %d" % (peer, self.size))
        if peer == self.rank:
            raise ToolError("rank %d cannot message itself" % self.rank)

    def _next_collective_tag(self, kind: str):
        # SPMD programs call collectives in the same order on every
        # rank, so a per-communicator sequence number keeps successive
        # collectives from stealing each other's messages.
        tag = ("__%s__" % kind, self._collective_seq)
        self._collective_seq += 1
        return tag

    # ------------------------------------------------------------------
    # Point-to-point (TPL: Send/Receive)
    # ------------------------------------------------------------------

    def send(self, dst: int, payload: Any = None, nbytes: Optional[int] = None, tag: Any = 0):
        """Send to ``dst`` (generator; tool-specific blocking).

        ``nbytes`` defaults to the estimated wire size of ``payload``.
        """
        self._check_peer(dst)
        if nbytes is None:
            nbytes = sizeof(payload)
        if nbytes < 0:
            raise ToolError("negative message size %d" % nbytes)
        msg = Message(self.rank, dst, tag, nbytes, payload, sent_at=self.env.now)
        yield from self.runtime.software(self.node, self.runtime.send_side_cost(nbytes))
        yield from self.runtime.send_path(msg)
        return msg

    def recv(self, src: Optional[int] = None, tag: Any = None):
        """Receive the next matching message (generator).

        ``src=None`` / ``tag=None`` match anything, mirroring the
        wildcard receives all three tools provide.
        """
        if src is not None:
            self._check_peer(src)
        mailbox = self.runtime.mailboxes[self.rank]
        msg = yield mailbox.get(lambda m: m.matches(src, tag))
        yield from self.runtime.software(self.node, self.runtime.recv_side_cost(msg.nbytes))
        return msg

    def sendrecv(
        self,
        dst: int,
        src: Optional[int] = None,
        payload: Any = None,
        nbytes: Optional[int] = None,
        tag: Any = 0,
    ):
        """Send to ``dst`` then receive from ``src`` (generator)."""
        yield from self.send(dst, payload=payload, nbytes=nbytes, tag=tag)
        msg = yield from self.recv(src=src, tag=tag)
        return msg

    # ------------------------------------------------------------------
    # Group communication (TPL: Broadcast/Multicast, Ring)
    # ------------------------------------------------------------------

    def broadcast(self, root: int, payload: Any = None, nbytes: Optional[int] = None):
        """One-to-all broadcast; returns the payload on every rank."""
        if not 0 <= root < self.size:
            raise ToolError("root %d out of range" % root)
        tag = self._next_collective_tag("bcast")
        if nbytes is None and self.rank == root:
            nbytes = sizeof(payload)
        algorithm = self.runtime.profile.broadcast_algorithm
        if algorithm == "binomial":
            result = yield from collectives.binomial_broadcast(self, root, payload, nbytes, tag)
        elif algorithm == "sequential":
            result = yield from collectives.sequential_broadcast(self, root, payload, nbytes, tag)
        elif algorithm == "daemon-sequential":
            result = yield from collectives.multicast_broadcast(self, root, payload, nbytes, tag)
        else:  # pragma: no cover - profiles validate the algorithm name
            raise ConfigurationError("unknown broadcast algorithm %r" % algorithm)
        return result

    def ring_shift(self, payload: Any = None, nbytes: Optional[int] = None, step: int = 0):
        """Send to the right neighbour, receive from the left.

        All ranks call this together — the paper's "all nodes send and
        receive" ring pattern, built on plain send/recv in all tools.
        """
        if self.size < 2:
            raise ToolError("ring needs at least 2 ranks")
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        tag = ("__ring__", step)
        yield from self.send(right, payload=payload, nbytes=nbytes, tag=tag)
        msg = yield from self.recv(src=left, tag=tag)
        return msg

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def barrier(self):
        """Block until every rank has entered the barrier (generator)."""
        tag = self._next_collective_tag("barrier")
        yield from collectives.tree_barrier(self, tag)

    # ------------------------------------------------------------------
    # Global operations (TPL: Global Sum)
    # ------------------------------------------------------------------

    def global_sum(self, values):
        """Element-wise global vector sum, result on every rank.

        Raises
        ------
        UnsupportedOperationError
            If the tool has no global reduction (PVM — Table 1 lists
            global sum as "Not Available").
        """
        profile = self.runtime.profile
        if not profile.supports_reduce:
            raise UnsupportedOperationError(
                "%s provides no global reduction primitive" % profile.display_name
            )
        import numpy as np

        values = np.asarray(values)
        reduce_tag = self._next_collective_tag("reduce")
        if profile.reduce_algorithm == "binomial":
            total = yield from collectives.binomial_reduce(self, 0, values, reduce_tag)
        else:
            total = yield from collectives.linear_reduce(self, 0, values, reduce_tag)
        result = yield from self.broadcast(0, payload=total)
        return result
