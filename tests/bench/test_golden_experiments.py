"""Golden text of the paper artifacts, and their one measuring path.

``tests/data/golden_experiments.txt`` holds every artifact's
``render()`` (tables 1-5, figures 2-8), each followed by a blank line,
exactly as ``repro experiment`` prints them.  Simulation is
deterministic, so any diff is a behaviour change: regenerate the
fixture with ``scripts/regen_golden.py`` only when that change is
intended.
"""

import os

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import run_experiments
from repro.core.scheduler import Scheduler

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "golden_experiments.txt",
)

#: Distinct jobs the 14 artifacts measure at their current parameters
#: (306 measurements, 12 of them repeated across artifacts).
DISTINCT_JOBS = 294


def render(results):
    return "".join(result.render() + "\n\n" for result in results)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return handle.read()


def test_rendered_artifacts_match_the_fixture(golden):
    assert render(run_experiments(echo=False)) == golden


class TestOneSerialScheduler:
    """Every artifact lent one serial scheduler, twice over, as
    ``run_experiments`` lends its own."""

    @pytest.fixture(scope="class")
    def rounds(self):
        scheduler = Scheduler()
        rounds = []
        for _ in range(2):
            results = [factory(scheduler) for factory in EXPERIMENTS.values()]
            rounds.append((render(results), scheduler.simulations_run))
        return rounds

    def test_each_distinct_job_is_simulated_once(self, rounds, golden):
        (text, simulated), _ = rounds
        assert simulated == DISTINCT_JOBS
        assert text == golden

    def test_a_second_round_simulates_nothing(self, rounds, golden):
        _, (text, simulated) = rounds
        assert simulated == DISTINCT_JOBS
        assert text == golden
