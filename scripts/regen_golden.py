"""Regenerate the golden regression fixtures.

``tests/core/test_golden_report.py`` pins the full JSON export of one
small canonical spec — samples, scores and multi-seed statistics — so
any unintended drift in simulation, scoring or serialization fails a
test instead of silently changing published numbers.
``tests/bench/test_golden_experiments.py`` pins the rendered text of
every paper artifact (tables 1-5, figures 2-8), as ``repro
experiment`` prints it.

When a change *intentionally* moves those numbers (a calibration fix,
a scoring change, a new export field), regenerate the fixture and
commit it together with the change that explains it::

    PYTHONPATH=src python scripts/regen_golden.py

Telemetry (wall-clock times) is stripped: the golden file must be
bit-for-bit reproducible on any machine.
"""

import json
import os

from repro.bench.runner import run_experiments
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec

DATA_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "data")
)
SPEC_PATH = os.path.join(DATA_DIR, "golden_spec.json")
REPORT_PATH = os.path.join(DATA_DIR, "golden_report.json")
EXPERIMENTS_PATH = os.path.join(DATA_DIR, "golden_experiments.txt")


def render_experiments() -> str:
    """Every artifact's ``render()``, each followed by a blank line."""
    return "".join(result.render() + "\n\n" for result in run_experiments(echo=False))


def main() -> None:
    with open(SPEC_PATH) as handle:
        spec = EvaluationSpec.from_json(handle.read())
    result = Scheduler().run(spec)
    data = result.to_dict()
    data.pop("telemetry", None)  # wall times are machine-dependent
    with open(REPORT_PATH, "w") as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True))
        handle.write("\n")
    print("wrote %s (%d samples, %d score cells)"
          % (REPORT_PATH, len(data["samples"]), len(data["scores"])))
    with open(EXPERIMENTS_PATH, "w") as handle:
        handle.write(render_experiments())
    print("wrote %s" % EXPERIMENTS_PATH)


if __name__ == "__main__":
    main()
