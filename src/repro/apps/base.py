"""Common infrastructure for the SU PDABS benchmark applications.

Every application provides a *real* algorithm (actual numerics on
actual data, verified against references) plus a parallel driver that
runs it over a tool's :class:`~repro.tools.base.Communicator`.  The
computation's cost is charged to the executing node through explicit
operation counts (:class:`~repro.hardware.node.Work`), so application-
level timings have the right compute/communication balance while
outputs stay checkable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ApplicationError
from repro.hardware.platform import Platform
from repro.sim import RandomStreams
from repro.tools.base import ToolRuntime

__all__ = ["AppRun", "ParallelApplication", "split_evenly"]


def split_evenly(total: int, parts: int) -> List[int]:
    """Sizes of ``parts`` contiguous chunks covering ``total`` items.

    Matches the paper's JPEG partitioning: "divided into N equal
    parts ... except for the one portion which can be slightly larger
    than the rest".
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


class AppRun(object):
    """Outcome of one parallel application execution."""

    def __init__(
        self,
        app_name: str,
        tool_name: str,
        platform_name: str,
        processors: int,
        elapsed_seconds: float,
        output: Any,
        rank_outputs: Optional[List[Any]] = None,
        stats: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.app_name = app_name
        self.tool_name = tool_name
        self.platform_name = platform_name
        self.processors = processors
        self.elapsed_seconds = elapsed_seconds
        self.output = output
        self.rank_outputs = list(rank_outputs) if rank_outputs is not None else [output]
        self.stats = dict(stats or {})

    def __repr__(self) -> str:
        return "<AppRun %s/%s on %s P=%d: %.4fs>" % (
            self.app_name,
            self.tool_name,
            self.platform_name,
            self.processors,
            self.elapsed_seconds,
        )


class ParallelApplication(object):
    """Base class for SU PDABS applications.

    Subclasses define:

    * :attr:`name` and :attr:`paper_class` (Table 2 column),
    * :meth:`make_workload` — deterministic input generation,
    * :meth:`program` — the per-rank generator (host-node or SPMD),
    * :meth:`verify` — correctness check of the parallel output.
    """

    #: Short identifier, e.g. ``"jpeg"``.
    name = "abstract"
    #: Table 2 application class.
    paper_class = "unclassified"
    #: Whether the simulated time can depend on the platform seed with
    #: noise off.  An application that draws seeded inputs whose values
    #: shape its messages or work (an image, sort keys) must keep this
    #: ``True``; only one whose timing is provably seed-free may clear
    #: it, which lets the scheduler simulate it once per configuration
    #: instead of once per seed.
    seed_sensitive = True

    def make_workload(self, rng: RandomStreams) -> Any:
        """Build the application input (deterministic given ``rng``)."""
        raise NotImplementedError

    def program(self, comm, workload: Any):
        """The per-rank generator run under a tool (SPMD entry point)."""
        raise NotImplementedError

    def verify(self, workload: Any, results: List[Any]) -> None:
        """Raise :class:`ApplicationError` if the run's output is wrong.

        ``results`` is the per-rank return list; host-node applications
        look at ``results[0]``, distributed-result applications (PSRS,
        FFT) check all ranks.
        """
        raise NotImplementedError

    def run(
        self,
        tool: ToolRuntime,
        processors: Optional[int] = None,
        workload: Any = None,
        check: bool = True,
    ) -> AppRun:
        """Execute the application under ``tool`` and time it.

        The elapsed time is the simulated makespan: from launch to the
        moment the last rank finishes (the host rank holds the final
        result).
        """
        platform = tool.platform
        if processors is None:
            processors = platform.node_count
        if workload is None:
            workload = self.make_workload(platform.rng)

        start = platform.env.now
        stats_before = (
            platform.network.stats.messages,
            platform.network.stats.payload_bytes,
            platform.network.stats.wire_bytes,
        )
        results = tool.run_spmd(self.program, nprocs=processors, args=(workload,))
        elapsed = platform.env.now - start

        if check:
            self.verify(workload, results)
        stats_after = platform.network.stats
        return AppRun(
            app_name=self.name,
            tool_name=tool.name,
            platform_name=platform.name,
            processors=processors,
            elapsed_seconds=elapsed,
            output=results[0],
            rank_outputs=results,
            stats={
                "network_messages": stats_after.messages - stats_before[0],
                "network_payload_bytes": stats_after.payload_bytes - stats_before[1],
                "network_wire_bytes": stats_after.wire_bytes - stats_before[2],
            },
        )

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ApplicationError("%s: %s" % (self.name, message))
