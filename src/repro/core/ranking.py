"""Primitive-class rankings: the paper's Table 4 machinery.

Table 4 summarizes, per platform and primitive class, the order in
which the tools finish.  :func:`primitive_rankings` regenerates that
ordering from one scheduler pass over the platform's primitive jobs;
:func:`summary_table` renders the same row/column layout the paper
prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.jobs import broadcast_job, global_sum_job, ring_job, sendrecv_job
from repro.core.metrics import rank_by_value
from repro.core.scheduler import Scheduler
from repro.tools.registry import PAPER_TOOL_NAMES

__all__ = ["PRIMITIVE_CLASSES", "primitive_rankings", "summary_table"]

#: The primitive classes of Table 4, in column order.
PRIMITIVE_CLASSES = ("snd/rcv", "broadcast", "ring", "global sum")


def primitive_rankings(
    platform_name: str,
    nbytes: int = 65536,
    vector_ints: int = 25_000,
    processors: int = 4,
    tools: Sequence[str] = PAPER_TOOL_NAMES,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> Dict[str, List[str]]:
    """Tool orderings (best first) per primitive class on a platform,
    measured through ``scheduler`` (default: a serial in-process one).

    Tools that do not provide a primitive are *omitted* from its
    ranking, exactly as Table 4 leaves PVM out of the global-sum
    column.
    """
    jobs_by_class = {
        "snd/rcv": {
            tool: sendrecv_job(tool, platform_name, nbytes, seed=seed) for tool in tools
        },
        "broadcast": {
            tool: broadcast_job(tool, platform_name, nbytes, processors, seed=seed)
            for tool in tools
        },
        "ring": {
            tool: ring_job(tool, platform_name, nbytes, processors, seed=seed)
            for tool in tools
        },
        "global sum": {
            tool: global_sum_job(tool, platform_name, vector_ints, processors, seed=seed)
            for tool in tools
        },
    }
    samples = (scheduler or Scheduler()).run_jobs(
        [job for jobs in jobs_by_class.values() for job in jobs.values()]
    )
    return {
        class_name: rank_by_value(
            {tool: samples[job] for tool, job in jobs.items() if samples[job] is not None}
        )
        for class_name, jobs in jobs_by_class.items()
    }


def summary_table(rankings_by_platform: Dict[str, Dict[str, List[str]]]) -> str:
    """Render Table 4: platforms as column groups, ranks as rows."""
    lines = []
    for platform_name, rankings in rankings_by_platform.items():
        lines.append(platform_name)
        columns = [c for c in PRIMITIVE_CLASSES if c in rankings]
        widths = [max(len(c), 10) for c in columns]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        lines.append("  " + header)
        depth = max(len(rankings[c]) for c in columns)
        for position in range(depth):
            cells = []
            for column, width in zip(columns, widths):
                order = rankings[column]
                cell = order[position] if position < len(order) else ""
                cells.append(cell.ljust(width))
            lines.append("  " + "  ".join(cells).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
