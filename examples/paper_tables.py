"""Regenerate every table and figure of the paper in one run.

    python examples/paper_tables.py              # everything
    python examples/paper_tables.py table3 fig4  # a selection

Prints each artifact in the paper's layout followed by its shape
checks against the published data.
"""

import sys

from repro.bench import run_experiments
from repro.errors import ConfigurationError


def main() -> None:
    try:
        results = run_experiments(sys.argv[1:] or None)
    except ConfigurationError as error:
        raise SystemExit(str(error))
    failed = [result for result in results if not result.passed]
    print("=" * 72)
    print(
        "%d/%d artifacts reproduce the paper's claims"
        % (len(results) - len(failed), len(results))
    )
    if failed:
        raise SystemExit("failing: %s" % ", ".join(result.exp_id for result in failed))


if __name__ == "__main__":
    main()
