"""One experiment per paper artifact (tables 1-5, figures 2-8).

Each ``run_*`` function measures its jobs in one pass of the
``scheduler`` it is lent (default: a serial in-process one), formats
the same rows/series the paper prints, runs the shape checks against
the paper's numbers/claims, and returns an :class:`ExperimentResult`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.suite import BENCHMARKED_APPS, SU_PDABS_TABLE
from repro.bench import compare, paper_data
from repro.bench.tables import format_series, format_table
from repro.core.jobs import application_job, broadcast_job, global_sum_job, ring_job, sendrecv_job
from repro.core.ranking import primitive_rankings, summary_table
from repro.core.report import render_usability_table
from repro.core.scheduler import Scheduler
from repro.tools.registry import PRIMITIVE_NAMES

__all__ = [
    "ExperimentResult",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_fig2_broadcast",
    "run_fig3_ring",
    "run_fig4_globalsum",
    "run_apl_figure",
    "EXPERIMENTS",
]

#: Tolerance for per-cell Table 3 agreement: the simulator is expected
#: to land within this factor of the paper's milliseconds.
TABLE3_CELL_FACTOR = 2.2

#: Message sizes used for the figure sweeps, in KB (the paper sweeps
#: 0-64 KB; we sample the curve).
FIGURE_SIZES_KB = (1, 4, 16, 64)


class ExperimentResult(object):
    """Rendered output plus shape checks for one paper artifact."""

    def __init__(self, exp_id: str, title: str, text: str, checks: List[compare.CheckResult]):
        self.exp_id = exp_id
        self.title = title
        self.text = text
        self.checks = checks

    def __repr__(self) -> str:
        return "<ExperimentResult %s: %d/%d checks passed>" % (
            self.exp_id,
            sum(1 for check in self.checks if check.passed),
            len(self.checks),
        )

    @property
    def passed(self) -> bool:
        return compare.all_passed(self.checks)

    def render(self) -> str:
        lines = ["== %s — %s ==" % (self.exp_id, self.title), "", self.text, ""]
        for check in self.checks:
            lines.append(repr(check))
        return "\n".join(lines)


def _measure(rows: Dict, scheduler: Optional[Scheduler]) -> Dict:
    """Each row of jobs as its samples (seconds), from one pass of
    ``scheduler`` (default: a serial in-process one)."""
    samples = (scheduler or Scheduler()).run_jobs([job for row in rows.values() for job in row])
    return {key: [samples[job] for job in row] for key, row in rows.items()}


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def run_table1() -> ExperimentResult:
    """Table 1 — communication primitives per tool."""
    rows = []
    for class_name, per_tool in PRIMITIVE_NAMES.items():
        row = [class_name]
        for tool in ("express", "p4", "pvm"):
            names = per_tool[tool]
            row.append("Not Available" if names is None else ", ".join(names))
        rows.append(row)
    text = format_table(["Primitive", "Express", "p4", "PVM"], rows)
    checks = [
        compare.CheckResult(
            "table1/pvm-global-sum-unavailable",
            PRIMITIVE_NAMES["global sum"]["pvm"] is None,
            "PVM offers no global operation",
        ),
        compare.CheckResult(
            "table1/four-primitive-classes",
            len(PRIMITIVE_NAMES) == 4,
            "%d classes" % len(PRIMITIVE_NAMES),
        ),
    ]
    return ExperimentResult("T1", "Communication primitives (Table 1)", text, checks)


def run_table2() -> ExperimentResult:
    """Table 2 — the SU PDABS application suite."""
    depth = max(len(apps) for apps in SU_PDABS_TABLE.values())
    classes = list(SU_PDABS_TABLE)
    rows = []
    for index in range(depth):
        row = [str(index + 1)]
        for class_name in classes:
            apps = SU_PDABS_TABLE[class_name]
            row.append(apps[index] if index < len(apps) else "")
        rows.append(row)
    text = format_table(["#"] + classes, rows)
    checks = [
        compare.CheckResult(
            "table2/four-classes", len(SU_PDABS_TABLE) == 4, ", ".join(classes)
        ),
        compare.CheckResult(
            "table2/benchmarked-apps-implemented",
            set(BENCHMARKED_APPS) == {"fft2d", "jpeg", "montecarlo", "psrs"},
            str(BENCHMARKED_APPS),
        ),
    ]
    return ExperimentResult("T2", "SU PDABS suite (Table 2)", text, checks)


def run_table3(
    sizes_kb: Sequence[int] = paper_data.TABLE3_SIZES_KB,
    cell_factor: float = TABLE3_CELL_FACTOR,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> ExperimentResult:
    """Table 3 — snd/recv round-trip times vs the paper's exact values."""
    rows = {
        combo: [sendrecv_job(*combo, kb * 1024, seed=seed) for kb in sizes_kb]
        for combo in paper_data.TABLE3_RTT_MS
    }
    measured: Dict[tuple, Dict[int, float]] = {
        combo: {kb: seconds * 1e3 for kb, seconds in zip(sizes_kb, row)}
        for combo, row in _measure(rows, scheduler).items()
    }

    headers = ["KB"]
    combos = sorted(paper_data.TABLE3_RTT_MS)
    for tool, platform in combos:
        headers.append("%s/%s" % (tool, platform.replace("sun-", "")))
    rows = []
    for kb in sizes_kb:
        row = [str(kb)]
        for combo in combos:
            paper_ms = paper_data.TABLE3_RTT_MS[combo][kb]
            row.append("%.1f (paper %.1f)" % (measured[combo][kb], paper_ms))
        rows.append(row)
    text = format_table(headers, rows, title="snd/recv round trip, ms (measured vs paper)")

    checks = []
    for combo in combos:
        tool, platform = combo
        for kb in sizes_kb:
            checks.append(
                compare.check_within_factor(
                    "table3/%s/%s/%dKB" % (tool, platform, kb),
                    measured[combo][kb],
                    paper_data.TABLE3_RTT_MS[combo][kb],
                    cell_factor,
                )
            )
    largest = max(sizes_kb)
    # Headline orderings at the large-message end.
    for platform in ("sun-ethernet", "sun-atm-lan"):
        values = {
            tool: measured[(tool, platform)][largest]
            for tool in ("p4", "pvm", "express")
            if (tool, platform) in measured
        }
        checks.append(
            compare.check_ordering(
                "table3/%s/%dKB-order" % (platform, largest),
                values,
                ["p4", "pvm", "express"],
            )
        )
    # Express beats PVM for small ATM messages (crossover claim);
    # needs both ends of the sweep to be present.
    if 1 in sizes_kb and largest >= 16:
        checks.append(
            compare.CheckResult(
                "table3/atm-small-message-crossover",
                measured[("express", "sun-atm-lan")][1]
                < measured[("pvm", "sun-atm-lan")][1]
                and measured[("express", "sun-atm-lan")][largest]
                > measured[("pvm", "sun-atm-lan")][largest],
                "express faster at 1KB, slower at %dKB on ATM LAN" % largest,
            )
        )
    # WAN ~ LAN (the NYNET feasibility claim).
    for tool in ("p4", "pvm"):
        checks.append(
            compare.check_ratio_band(
                "table3/%s/wan-vs-lan-%dKB" % (tool, largest),
                measured[(tool, "sun-atm-wan")][largest],
                measured[(tool, "sun-atm-lan")][largest],
                low=0.8,
                high=1.6,
            )
        )
    # ATM >> Ethernet for bulk transfers.
    if largest >= 16:
        for tool in ("p4", "pvm"):
            checks.append(
                compare.check_ratio_band(
                    "table3/%s/ethernet-vs-atm-%dKB" % (tool, largest),
                    measured[(tool, "sun-ethernet")][largest],
                    measured[(tool, "sun-atm-lan")][largest],
                    low=2.0,
                )
            )
    return ExperimentResult("T3", "snd/recv timing (Table 3)", text, checks)


def run_table4(seed: int = 0, scheduler: Optional[Scheduler] = None) -> ExperimentResult:
    """Table 4 — per-platform primitive ranking summary."""
    rankings = {
        platform: primitive_rankings(platform, seed=seed, scheduler=scheduler)
        for platform in paper_data.TABLE4_EXPECTED_RANKINGS
    }
    text = summary_table(rankings)
    checks = []
    for platform, expected_columns in paper_data.TABLE4_EXPECTED_RANKINGS.items():
        for class_name, expected in expected_columns.items():
            measured_order = [
                tool for tool in rankings[platform][class_name] if tool in expected
            ]
            checks.append(
                compare.CheckResult(
                    "table4/%s/%s" % (platform, class_name),
                    measured_order == list(expected),
                    "expected %s, measured %s" % (expected, measured_order),
                )
            )
    return ExperimentResult("T4", "Tool performance summary (Table 4)", text, checks)


def run_table5() -> ExperimentResult:
    """Section 3.3.1 — the usability (ADL) matrix."""
    from repro.core.usability import USABILITY_MATRIX
    from repro.core.criteria import NS, PS, WS

    text = render_usability_table()
    expected_cells = {
        ("ease-of-programming", "pvm"): WS,
        ("debugging-support", "express"): WS,
        ("customization", "pvm"): NS,
        ("integration", "express"): NS,
        ("error-handling", "p4"): PS,
    }
    checks = [
        compare.CheckResult(
            "table5/%s/%s" % (criterion, tool),
            USABILITY_MATRIX[criterion][tool] == rating,
            "expected %s" % rating.code,
        )
        for (criterion, tool), rating in expected_cells.items()
    ]
    return ExperimentResult("T5", "Usability assessment (Section 3.3.1)", text, checks)


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

def _tpl_figure(
    figure: int,
    primitive: str,
    make_job: Callable,
    network: str,
    sizes_kb: Sequence[int],
    seed: int,
    scheduler: Optional[Scheduler],
) -> ExperimentResult:
    """Figures 2 and 3: each tool's ``primitive`` time (ms) per message
    size, among 4 nodes."""
    claim = paper_data.FIGURE_CLAIMS["fig%d-%s-%s" % (figure, primitive, network)]
    rows = {
        tool: [make_job(tool, claim["platform"], kb * 1024, 4, seed=seed) for kb in sizes_kb]
        for tool in claim["tools"]
    }
    series = {
        tool: [seconds * 1e3 for seconds in row]
        for tool, row in _measure(rows, scheduler).items()
    }
    name = primitive.capitalize()
    text = format_series("KB", sizes_kb, series, title="%s, 4 nodes, %s" % (name, network))
    prefix = "fig%d/%s" % (figure, network)
    large = {tool: values[-1] for tool, values in series.items()}
    checks = [
        compare.check_ordering(
            prefix + "/large-message-order", large, claim["large_message_order"]
        )
    ]
    for tool, values in series.items():
        checks.append(
            compare.check_monotone_increasing("%s/%s-grows-with-size" % (prefix, tool), values)
        )
    title = "%s timing (Figure %d, %s)" % (name, figure, network)
    return ExperimentResult("F%d-%s" % (figure, network), title, text, checks)


def run_fig2_broadcast(
    network: str = "ethernet",
    sizes_kb: Sequence[int] = FIGURE_SIZES_KB,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> ExperimentResult:
    """Figure 2 — broadcast among 4 SUNs (Ethernet or ATM WAN)."""
    return _tpl_figure(2, "broadcast", broadcast_job, network, sizes_kb, seed, scheduler)


def run_fig3_ring(
    network: str = "ethernet",
    sizes_kb: Sequence[int] = FIGURE_SIZES_KB,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> ExperimentResult:
    """Figure 3 — ring (all nodes send and receive), 4 SUNs."""
    return _tpl_figure(3, "ring", ring_job, network, sizes_kb, seed, scheduler)


def run_fig4_globalsum(
    vector_sizes: Sequence[int] = (10_000, 30_000, 100_000),
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> ExperimentResult:
    """Figure 4 — global vector summation, 4 SUNs."""
    curves = {
        "p4-ethernet": ("p4", "sun-ethernet"),
        "express-ethernet": ("express", "sun-ethernet"),
        "p4-nynet": ("p4", "sun-atm-wan"),
    }
    rows = {
        name: [global_sum_job(*curve, n, 4, seed=seed) for n in vector_sizes]
        for name, curve in curves.items()
    }
    rows["pvm"] = [global_sum_job("pvm", "sun-ethernet", 1000, 4, seed=seed)]
    samples = _measure(rows, scheduler)
    (pvm_sample,) = samples.pop("pvm")
    series = {name: [seconds * 1e3 for seconds in row] for name, row in samples.items()}
    text = format_series("# ints", vector_sizes, series, title="Global vector sum, 4 nodes")
    at_max = {name: values[-1] for name, values in series.items()}
    checks = [
        compare.check_ordering(
            "fig4/order-at-100k",
            {"p4-ethernet": at_max["p4-ethernet"], "express-ethernet": at_max["express-ethernet"]},
            ["p4-ethernet", "express-ethernet"],
        ),
        compare.CheckResult(
            "fig4/pvm-not-plotted", pvm_sample is None, "PVM supports no global operation"
        ),
        compare.check_ratio_band(
            "fig4/express-p4-gap",
            at_max["express-ethernet"],
            at_max["p4-ethernet"],
            low=1.3,
            high=4.0,
        ),
    ]
    for name, values in series.items():
        checks.append(compare.check_monotone_increasing("fig4/%s-grows" % name, values))
    return ExperimentResult("F4", "Global summation (Figure 4)", text, checks)


def run_apl_figure(
    platform: str,
    processors: Optional[Sequence[int]] = None,
    apps: Sequence[str] = ("fft2d", "jpeg", "montecarlo", "psrs"),
    tools: Optional[Sequence[str]] = None,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> ExperimentResult:
    """Figures 5-8 — the four applications on one platform."""
    axes = paper_data.APL_PLATFORM_AXES[platform]
    if processors is None:
        # The paper plots 1..8 (1..4 on the WAN); sample the curve.
        full = axes["processors"]
        processors = [p for p in (1, 2, 4, 8) if p <= max(full)]
    if tools is None:
        tools = axes["tools"]

    samples = _measure(
        {
            (app, tool): [application_job(app, tool, platform, p, seed=seed) for p in processors]
            for app in apps
            for tool in tools
        },
        scheduler,
    )
    blocks = []
    checks = []
    for app_name in apps:
        times = {tool: samples[app_name, tool] for tool in tools}
        title = "%s on %s" % (app_name, platform)
        blocks.append(format_series("P", processors, times, title=title, unit="s", precision=4))
        # Headline claims: compute-heavy apps speed up; p4 leads the
        # communication-heavy ones (JPEG, FFT).
        for tool in tools:
            if app_name in ("jpeg", "montecarlo", "psrs"):
                checks.append(
                    compare.check_monotone_decreasing(
                        "%s/%s/%s-speedup" % (axes["figure"], app_name, tool),
                        times[tool],
                        slack=0.10,
                    )
                )
        if app_name in ("jpeg", "fft2d"):
            at_max_p = {tool: times[tool][-1] for tool in tools}
            best = min(at_max_p, key=lambda t: at_max_p[t])
            checks.append(
                compare.CheckResult(
                    "%s/%s/p4-best" % (axes["figure"], app_name),
                    best == "p4",
                    "best=%s (%s)" % (best, ", ".join("%s=%.3f" % i for i in at_max_p.items())),
                )
            )
    text = "\n\n".join(blocks)
    return ExperimentResult(
        axes["figure"].replace("Figure ", "F"),
        "%s applications (%s)" % (platform, axes["figure"]),
        text,
        checks,
    )


#: Experiment registry: id -> callable taking the scheduler to measure
#: through.
EXPERIMENTS: Dict[str, Callable[[Scheduler], ExperimentResult]] = {
    "table1": lambda scheduler: run_table1(),
    "table2": lambda scheduler: run_table2(),
    "table3": lambda scheduler: run_table3(scheduler=scheduler),
    "table4": lambda scheduler: run_table4(scheduler=scheduler),
    "table5": lambda scheduler: run_table5(),
    "fig2-ethernet": lambda scheduler: run_fig2_broadcast("ethernet", scheduler=scheduler),
    "fig2-atm": lambda scheduler: run_fig2_broadcast("atm", scheduler=scheduler),
    "fig3-ethernet": lambda scheduler: run_fig3_ring("ethernet", scheduler=scheduler),
    "fig3-atm": lambda scheduler: run_fig3_ring("atm", scheduler=scheduler),
    "fig4": lambda scheduler: run_fig4_globalsum(scheduler=scheduler),
    "fig5": lambda scheduler: run_apl_figure("alpha-fddi", scheduler=scheduler),
    "fig6": lambda scheduler: run_apl_figure("sp1-switch", scheduler=scheduler),
    "fig7": lambda scheduler: run_apl_figure("sun-atm-wan", scheduler=scheduler),
    "fig8": lambda scheduler: run_apl_figure("sun-ethernet", scheduler=scheduler),
}
