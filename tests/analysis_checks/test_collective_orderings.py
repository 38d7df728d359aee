"""The paper's collective orderings, as assertions.

The paper's qualitative collective-ordering claims (Figs. 2-3): p4's
leaner collectives beat pvm's and express's on every medium, costs
grow monotonically with message size, and express's chunked broadcast
is the slowest at large messages.  `repro check --list` names this
suite as the dynamic counterpart of the static determinism pack —
the lint proves nothing about *values*, these tests pin the shapes.
"""

import numpy as np
import pytest

from repro.hardware import build_platform
from repro.tools import create_tool

TOOLS = ("p4", "pvm", "express")
PLATFORMS = ("sun-ethernet", "sun-atm-wan")
SIZES = (1024, 65536)


def _spmd_max_time(tool_name, platform_name, program, processors=4):
    platform = build_platform(platform_name, processors=processors)
    tool = create_tool(tool_name, platform)
    results = tool.run_spmd(program)
    return max(results)


def broadcast_time(tool_name, platform_name, nbytes):
    def program(comm):
        payload = b"x" if comm.rank == 0 else None
        yield from comm.broadcast(0, payload=payload, nbytes=nbytes)
        return comm.env.now

    return _spmd_max_time(tool_name, platform_name, program)


def ring_time(tool_name, platform_name, nbytes):
    def program(comm):
        yield from comm.ring_shift(nbytes=nbytes)
        return comm.env.now

    return _spmd_max_time(tool_name, platform_name, program)


def global_sum_time(tool_name, platform_name, nints):
    def program(comm):
        vector = np.ones(nints, dtype=np.int32)
        yield from comm.global_sum(vector)
        return comm.env.now

    return _spmd_max_time(tool_name, platform_name, program)


class TestBroadcastOrdering:
    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("nbytes", SIZES)
    def test_p4_broadcast_is_fastest(self, platform, nbytes):
        times = {t: broadcast_time(t, platform, nbytes) for t in TOOLS}
        assert times["p4"] < times["pvm"]
        assert times["p4"] < times["express"]

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_express_chunked_broadcast_slowest_at_large_messages(self, platform):
        times = {t: broadcast_time(t, platform, 65536) for t in TOOLS}
        assert times["express"] > times["pvm"] > times["p4"]

    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("tool", TOOLS)
    def test_broadcast_cost_grows_with_message_size(self, platform, tool):
        small, large = (broadcast_time(tool, platform, n) for n in SIZES)
        assert small < large


class TestRingOrdering:
    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("nbytes", SIZES)
    def test_p4_ring_shift_is_fastest(self, platform, nbytes):
        times = {t: ring_time(t, platform, nbytes) for t in TOOLS}
        assert times["p4"] < times["pvm"]
        assert times["p4"] < times["express"]

    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("tool", TOOLS)
    def test_ring_cost_grows_with_message_size(self, platform, tool):
        small, large = (ring_time(tool, platform, n) for n in SIZES)
        assert small < large


class TestGlobalSumOrdering:
    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("nints", (10000, 100000))
    def test_p4_global_sum_beats_express(self, platform, nints):
        assert (global_sum_time("p4", platform, nints)
                < global_sum_time("express", platform, nints))

    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("tool", ("p4", "express"))
    def test_global_sum_cost_grows_with_vector_length(self, platform, tool):
        assert (global_sum_time(tool, platform, 10000)
                < global_sum_time(tool, platform, 100000))
