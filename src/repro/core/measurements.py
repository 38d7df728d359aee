"""Measurement runners: one function per benchmarked quantity.

Each function builds a fresh platform (so runs are independent and
deterministic given the seed), instantiates the tool, executes the
benchmark program and returns simulated seconds.  Their one caller is
:func:`repro.core.jobs.execute_job`: evaluations, the service, the
worker fleet and the paper's tables and figures all measure through
the scheduler's jobs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.suite import create_application
from repro.errors import UnsupportedOperationError
from repro.hardware.catalog import build_platform
from repro.tools.profiles import ToolProfile
from repro.tools.registry import create_tool

__all__ = [
    "measure_sendrecv",
    "measure_broadcast",
    "measure_ring",
    "measure_global_sum",
    "measure_barrier",
    "measure_application",
]


def _make(tool_name, platform_name, processors, seed, profile, noise=0.0):
    platform = build_platform(platform_name, processors=processors, seed=seed, noise=noise)
    return create_tool(tool_name, platform, profile)


def measure_sendrecv(
    tool_name: str,
    platform_name: str,
    nbytes: int,
    processors: int = 2,
    seed: int = 0,
    profile: Optional[ToolProfile] = None,
    noise: float = 0.0,
) -> float:
    """Round-trip echo time (seconds) between ranks 0 and 1.

    This is the paper's Table 3 experiment: rank 0 sends ``nbytes``,
    rank 1 echoes them back, and the elapsed round trip is reported.
    """
    tool = _make(tool_name, platform_name, processors, seed, profile, noise)

    def program(comm):
        if comm.rank == 0:
            start = comm.env.now
            yield from comm.send(1, nbytes=nbytes, tag="ping")
            yield from comm.recv(src=1, tag="pong")
            return comm.env.now - start
        if comm.rank == 1:
            yield from comm.recv(src=0, tag="ping")
            yield from comm.send(0, nbytes=nbytes, tag="pong")
        return None

    return tool.run_spmd(program, nprocs=max(processors, 2))[0]


def measure_broadcast(
    tool_name: str,
    platform_name: str,
    nbytes: int,
    processors: int = 4,
    seed: int = 0,
    profile: Optional[ToolProfile] = None,
    noise: float = 0.0,
) -> float:
    """Time (seconds) until every rank holds the root's message."""
    tool = _make(tool_name, platform_name, processors, seed, profile, noise)

    def program(comm):
        payload = b"" if comm.rank == 0 else None
        yield from comm.broadcast(0, payload=payload, nbytes=nbytes)
        return comm.env.now

    return max(tool.run_spmd(program, nprocs=processors))


def measure_ring(
    tool_name: str,
    platform_name: str,
    nbytes: int,
    processors: int = 4,
    seed: int = 0,
    profile: Optional[ToolProfile] = None,
    noise: float = 0.0,
) -> float:
    """Ring communication time: all nodes send right and receive left.

    The paper's TPL ring experiment ("all nodes send and receive"):
    completion is when the last node holds its neighbour's message.
    """
    tool = _make(tool_name, platform_name, processors, seed, profile, noise)

    def program(comm):
        yield from comm.ring_shift(nbytes=nbytes)
        return comm.env.now

    return max(tool.run_spmd(program, nprocs=processors))


def measure_global_sum(
    tool_name: str,
    platform_name: str,
    vector_ints: int,
    processors: int = 4,
    seed: int = 0,
    profile: Optional[ToolProfile] = None,
    noise: float = 0.0,
) -> Optional[float]:
    """Global vector-sum time, or ``None`` if the tool has no global
    operation (PVM: Table 1 "Not Available")."""
    tool = _make(tool_name, platform_name, processors, seed, profile, noise)

    def program(comm):
        vector = np.ones(vector_ints, dtype=np.int32)
        try:
            yield from comm.global_sum(vector)
        except UnsupportedOperationError:
            return None
        return comm.env.now

    results = tool.run_spmd(program, nprocs=processors)
    if any(result is None for result in results):
        return None
    return max(results)


def measure_barrier(
    tool_name: str,
    platform_name: str,
    processors: int = 4,
    seed: int = 0,
    profile: Optional[ToolProfile] = None,
    noise: float = 0.0,
) -> float:
    """Barrier synchronization time across ``processors`` ranks."""
    tool = _make(tool_name, platform_name, processors, seed, profile, noise)

    def program(comm):
        yield from comm.barrier()
        return comm.env.now

    return max(tool.run_spmd(program, nprocs=processors))


def measure_application(
    app_name: str,
    tool_name: str,
    platform_name: str,
    processors: int,
    seed: int = 0,
    check: bool = False,
    profile: Optional[ToolProfile] = None,
    noise: float = 0.0,
    **app_params,
) -> float:
    """End-to-end application time (seconds) — the APL experiment."""
    application = create_application(app_name, **app_params)
    platform = build_platform(platform_name, processors=max(processors, 1), seed=seed, noise=noise)
    tool = create_tool(tool_name, platform, profile)
    run = application.run(tool, processors=processors, check=check)
    return run.elapsed_seconds
