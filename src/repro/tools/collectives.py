"""Collective communication algorithms.

These are the algorithms the 1995 tools actually used, expressed over
the point-to-point layer so their costs are emergent:

* binomial tree (p4's ``p4_broadcast`` / ``p4_global_op``),
* sequential root loop (Express's ``exbroadcast`` over its handshaked
  channel),
* daemon multicast (PVM's ``pvm_mcast``: one hand-off to the local
  daemon, which then walks the destination list),
* tree barrier (gather-to-root + release, all tools).

The paper's observation that "the tool with better snd/rcv performance
does not necessarily imply the better performance for broadcast"
(Section 3.2.2) is exactly the difference between these algorithms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    import numpy as np

from repro.errors import ToolError
from repro.hardware.node import Work

__all__ = [
    "binomial_broadcast",
    "sequential_broadcast",
    "multicast_broadcast",
    "binomial_reduce",
    "linear_reduce",
    "tree_barrier",
]


def binomial_broadcast(comm, root: int, payload: Any, nbytes: Optional[int], tag: Any):
    """Binomial-tree broadcast (generator); returns the payload.

    Rank ``r`` (relative to root) receives from ``r - lowbit(r)`` and
    forwards to ``r + m`` for each ``m`` below its low bit.
    """
    size, rank = comm.size, comm.rank
    relative = (rank - root) % size

    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            msg = yield from comm.recv(src=parent, tag=tag)
            payload, nbytes = msg.payload, msg.nbytes
            break
        mask <<= 1

    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            child = (relative + mask + root) % size
            yield from comm.send(child, payload=payload, nbytes=nbytes, tag=tag)
        mask >>= 1
    return payload


def sequential_broadcast(comm, root: int, payload: Any, nbytes: Optional[int], tag: Any):
    """Root sends to every other rank in turn (generator)."""
    if comm.rank == root:
        for dst in range(comm.size):
            if dst != root:
                yield from comm.send(dst, payload=payload, nbytes=nbytes, tag=tag)
        return payload
    msg = yield from comm.recv(src=root, tag=tag)
    return msg.payload


def multicast_broadcast(comm, root: int, payload: Any, nbytes: Optional[int], tag: Any):
    """Broadcast through the tool's one-to-many path (generator).

    The root pays the send-side cost once and hands the message to the
    runtime's :meth:`multicast_path` (for PVM: the local daemon walks
    the destination list); receivers post plain receives.
    """
    runtime = comm.runtime
    if comm.rank == root:
        from repro.tools.messages import Message, sizeof  # local import: avoid cycle

        if nbytes is None:
            nbytes = sizeof(payload)
        dsts = [dst for dst in range(comm.size) if dst != root]
        msg = Message(comm.rank, root, tag, nbytes, payload, sent_at=comm.env.now)
        yield from runtime.software(comm.node, runtime.send_side_cost(nbytes))
        yield from runtime.multicast_path(msg, dsts)
        return payload
    msg = yield from comm.recv(src=root, tag=tag)
    return msg.payload


def _combine(local: np.ndarray, incoming: np.ndarray, comm):
    """Element-wise sum plus the CPU cost of performing it (generator)."""
    import numpy as np

    local = np.asarray(local)
    incoming = np.asarray(incoming)
    if local.shape != incoming.shape:
        raise ToolError(
            "reduction shape mismatch: %r vs %r" % (local.shape, incoming.shape)
        )
    result = local + incoming
    yield from comm.node.execute(Work(int_ops=float(result.size)))
    return result


def binomial_reduce(comm, root: int, values: np.ndarray, tag: Any):
    """Binomial-tree reduction to ``root`` (generator).

    Returns the reduced vector on root, ``None`` elsewhere.
    """
    import numpy as np

    size, rank = comm.size, comm.rank
    relative = (rank - root) % size
    local = np.asarray(values)

    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            yield from comm.send(parent, payload=local, tag=tag)
            return None
        partner = relative | mask
        if partner < size:
            msg = yield from comm.recv(src=(partner + root) % size, tag=tag)
            local = yield from _combine(local, msg.payload, comm)
        mask <<= 1
    return local


def linear_reduce(comm, root: int, values: np.ndarray, tag: Any):
    """Root gathers from every rank in turn and combines (generator)."""
    import numpy as np

    local = np.asarray(values)
    if comm.rank != root:
        yield from comm.send(root, payload=local, tag=tag)
        return None
    for src in range(comm.size):
        if src == root:
            continue
        msg = yield from comm.recv(src=src, tag=tag)
        local = yield from _combine(local, msg.payload, comm)
    return local


def tree_barrier(comm, tag: Any):
    """Gather-to-rank-0 then release broadcast, both binomial (gen.)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    gather_tag = (tag, "gather")
    release_tag = (tag, "release")

    # Gather phase: binomial fan-in of empty messages to rank 0.
    mask = 1
    while mask < size:
        if rank & mask:
            yield from comm.send(rank - mask, nbytes=0, tag=gather_tag)
            break
        partner = rank | mask
        if partner < size:
            yield from comm.recv(src=partner, tag=gather_tag)
        mask <<= 1

    # Release phase: binomial fan-out of empty messages from rank 0.
    yield from binomial_broadcast(comm, 0, None, 0, release_tag)
