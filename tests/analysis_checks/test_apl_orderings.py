"""The paper's application-level orderings, as assertions.

The paper's application-level (APL) shape claims: serial execution is
tool-independent, the embarrassingly parallel Monte Carlo app scales
near-linearly with p4 <= express <= pvm, communication-heavy apps
still rank p4 first, and a faster interconnect (FDDI vs Ethernet)
dominates at every point.  Workloads are scaled down from the
applications' defaults — the orderings are qualitative, not
magnitude-dependent, and tier-1 must stay fast.
"""

from functools import lru_cache

import pytest

from repro.apps import create_application
from repro.hardware import build_platform
from repro.tools import create_tool

TOOLS = ("p4", "pvm", "express")
PROCESSORS = (1, 2, 4)
SMALL = {"montecarlo": {"samples": 100000}, "fft2d": {"size": 128}}


@lru_cache(maxsize=None)
def elapsed(app_name, tool_name, platform_name, processors):
    app = create_application(app_name, **SMALL[app_name])
    platform = build_platform(platform_name, processors=max(processors, 1))
    tool = create_tool(tool_name, platform)
    result = app.run(tool, processors=processors, check=False)
    return result.elapsed_seconds


class TestSerialBaseline:
    @pytest.mark.parametrize("app_name", sorted(SMALL))
    @pytest.mark.parametrize("platform", ("sun-ethernet", "alpha-fddi"))
    def test_serial_time_is_tool_independent(self, app_name, platform):
        times = {t: elapsed(app_name, t, platform, 1) for t in TOOLS}
        assert times["p4"] == times["pvm"] == times["express"]


class TestMonteCarloScaling:
    @pytest.mark.parametrize("platform", ("sun-ethernet", "alpha-fddi"))
    @pytest.mark.parametrize("tool", TOOLS)
    def test_near_linear_speedup(self, platform, tool):
        times = [elapsed("montecarlo", tool, platform, p) for p in PROCESSORS]
        assert times[0] > times[1] > times[2]

    @pytest.mark.parametrize("platform", ("sun-ethernet", "alpha-fddi"))
    @pytest.mark.parametrize("processors", (2, 4))
    def test_tool_overhead_ordering(self, platform, processors):
        times = {t: elapsed("montecarlo", t, platform, processors)
                 for t in TOOLS}
        assert times["p4"] <= times["express"] <= times["pvm"]


class TestCommunicationHeavyOrdering:
    @pytest.mark.parametrize("platform", ("sun-ethernet", "alpha-fddi"))
    @pytest.mark.parametrize("processors", (2, 4))
    def test_p4_leads_on_fft2d(self, platform, processors):
        times = {t: elapsed("fft2d", t, platform, processors) for t in TOOLS}
        assert times["p4"] <= times["pvm"]
        assert times["p4"] <= times["express"]


class TestPlatformOrdering:
    @pytest.mark.parametrize("app_name", sorted(SMALL))
    @pytest.mark.parametrize("tool", TOOLS)
    @pytest.mark.parametrize("processors", PROCESSORS)
    def test_fddi_platform_dominates_ethernet(self, app_name, tool, processors):
        assert (elapsed(app_name, tool, "alpha-fddi", processors)
                < elapsed(app_name, tool, "sun-ethernet", processors))
