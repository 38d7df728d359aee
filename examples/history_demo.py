"""Regression intelligence: run history, cross-run diffs, a perf gate.

Single evaluations answer "which tool wins today?".  The history
subsystem answers the questions a long-lived reproduction actually
faces: did last night's commit slow the sendrecv sweep down, is that
movement noise or signal, and which tool has been winning lately?

This example walks the whole loop in-process:

1. record two honest evaluation runs into a SQLite history store;
2. diff them — every cell is classified ``noise`` because nothing
   changed, and the gate passes;
3. replay a third run with a deliberate 1.5x sendrecv slowdown —
   the diff flags the moved cells as regressions with Welch
   confidence intervals, and the CI gate fails with exit-code
   semantics a pipeline can act on;
4. print the tool leaderboard aggregated over the recorded window;
5. hand the same store to the evaluation service's job registry: a
   run submitted there is one more row of the history, written in one
   transaction when it completes, and ``latest`` now names it.

The same store backs ``repro evaluate --history-db``, the
``repro history`` CLI, and ``repro serve --db`` with its
``/api/history`` routes.

Run with::

    PYTHONPATH=src python examples/history_demo.py
"""

import copy
import os
import tempfile

from repro.core import EvaluationSpec, Scheduler
from repro.history import (
    HistoryStore,
    diff_runs,
    leaderboards,
    run_gate,
)
from repro.service import JobRegistry

#: Small grid keeps the example interactive; three seeds give the
#: Welch intervals something to work with.
SPEC = EvaluationSpec(
    tools=("p4", "pvm"),
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
    seeds=(0, 1, 2),
    noise=1.0,
)


def slowed(export, factor, kinds=("sendrecv",)):
    """A copy of an export with the given measurement kinds scaled."""
    copied = copy.deepcopy(export)
    for sample in copied["samples"]:
        if sample["kind"] in kinds and sample["seconds"] is not None:
            sample["seconds"] *= factor
    return copied


def gate_line(verdict):
    """The verdict line of a gate render (the diff table precedes it)."""
    return next(line for line in verdict.render().splitlines()
                if line.startswith("GATE"))


def main() -> None:
    export = Scheduler().run(SPEC).to_dict()

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "history.db")
        with HistoryStore(path) as store:
            store.record_result(export, label="monday", source="api")
            store.record_result(export, label="tuesday", source="api")

            print("two honest runs recorded:")
            for run in reversed(store.list_runs()):
                print("  %s  %s" % (run["run_id"][:12], run["label"]))

            diff = diff_runs(store, "latest~1", "latest")
            print("\ndiff monday..tuesday (nothing changed):")
            print("  " + diff.render().splitlines()[-1])
            verdict = run_gate(store, "latest~1", "latest")
            print("  " + gate_line(verdict))
            assert verdict.exit_code == 0

            # A bad commit lands: sendrecv gets 1.5x slower.
            store.record_result(slowed(export, 1.5), label="wednesday",
                                source="api")
            diff = diff_runs(store, "latest~1", "latest")
            print("\ndiff tuesday..wednesday (sendrecv 1.5x slower):")
            for delta in diff.regressions:
                print("  REGRESSION %-38s %+.1f%% (+/- %.1f%%)"
                      % (delta.label(), 100 * delta.relative,
                         100 * delta.ci_halfwidth / delta.baseline.mean))
            verdict = run_gate(store, "latest~1", "latest")
            print("  " + gate_line(verdict))
            assert verdict.exit_code == 1

            # Leaderboard over every run in the window, best first.
            print("\nleaderboards over the recorded window:")
            for board in leaderboards(store, window=10):
                print("  %s / %s -> winner: %s"
                      % (board.platform, board.profile, board.winner))

            # The service keeps its runs in the same store.
            with JobRegistry(store) as registry:
                run_id = registry.submit("demo", SPEC)["run_id"]
                for _ in registry.events(run_id):
                    pass  # the stream ends once the run is persisted
            assert store.resolve("latest") == run_id
            record = store.get(run_id)
            print("\nservice run %s: %s by %s, %d samples"
                  % (run_id, record["state"], record["user"],
                     len(store.samples_for(run_id))))
            diff = diff_runs(store, "latest~3", "latest")
            print("  diff monday..service run: "
                  + diff.render().splitlines()[-1])


if __name__ == "__main__":
    main()
