"""The service's runs are its history: ``/api/history/*`` over HTTP.

A server keeps every run in one run-history store.  A completed run is
a history run — listed, resolvable by id and as ``latest``, diffable
and ranked — while queued, running, cancelled and failed runs never
enter a history view.  ``repro history`` reads the same file the
server wrote.
"""

import json

from repro.cli import main
from repro.core.cache import ResultCache
from repro.core.scheduler import Scheduler
from repro.history import analyze_history
from service_helpers import FailingExecutor, GateExecutor, raw_request, tiny_spec


def get_json(harness, path):
    status, data = raw_request(harness.port, "GET", path)
    assert status == 200, (path, data)
    return data


def history_ids(harness):
    return [run["run_id"] for run in get_json(harness, "/api/history/runs")["runs"]]


class TestCompletedRunsAreHistory:
    def test_completed_run_is_listed_resolved_diffed_and_ranked(
        self, harness_factory
    ):
        harness = harness_factory()
        client = harness.client(user="alice")
        spec = tiny_spec()
        first = client.wait(client.submit(spec))["run_id"]
        assert history_ids(harness) == [first]

        record = get_json(harness, "/api/history/runs/%s" % first)
        assert record["run_id"] == first
        assert record["source"] == "service"
        assert record["user"] == "alice"
        assert record["state"] == "completed"
        assert len(record["payload"]["samples"]) == len(spec.jobs())
        assert record["payload"] == client.run(first)["result"]
        assert get_json(harness, "/api/history/runs/latest")["run_id"] == first
        assert get_json(harness, "/api/history/runs/%s" % first[:6])["run_id"] == first

        second = client.wait(client.submit(spec))["run_id"]
        assert history_ids(harness) == [second, first]
        assert get_json(harness, "/api/history/runs/latest~1")["run_id"] == first
        diff = get_json(
            harness,
            "/api/history/diff?baseline=%s&current=latest" % first,
        )
        assert (diff["baseline"], diff["current"]) == (first, second)
        assert diff["cells"]
        assert all(cell["classification"] == "noise" for cell in diff["cells"])
        boards = get_json(harness, "/api/history/leaderboard")["leaderboards"]
        assert boards
        assert all(board["runs"] == [second, first] for board in boards)

    def test_run_routes_list_only_service_runs(self, harness_factory, tmp_path):
        harness = harness_factory()
        client = harness.client()
        export = Scheduler().run(tiny_spec()).to_dict()
        recorded = harness.store.record_result(export, source="cli")
        assert client.runs() == []
        status, _ = raw_request(harness.port, "GET", "/api/runs/%s" % recorded)
        assert status == 404
        # ... while history sees every completed run, whoever wrote it
        assert history_ids(harness) == [recorded]

    def test_empty_history_is_an_empty_list_not_a_404(self, harness_factory):
        harness = harness_factory()
        assert history_ids(harness) == []
        status, data = raw_request(harness.port, "GET", "/api/history/runs/latest")
        assert status == 404
        assert "needs 1" in data["error"]


class TestUnfinishedRunsStayOutOfHistory:
    def test_queued_running_cancelled_and_failed_never_enter(
        self, harness_factory
    ):
        executors = [None]  # what the next admitted run executes on
        harness = harness_factory(
            scheduler_factory=lambda: Scheduler(
                executor=executors[0], cache=ResultCache()
            ),
            per_user_limit=1,
        )
        registry = harness.registry
        completed = harness.client("alice").wait(
            harness.client("alice").submit(tiny_spec())
        )["run_id"]

        executors[0] = FailingExecutor()
        failed = harness.client("bob").wait(harness.client("bob").submit(tiny_spec()))
        assert failed["state"] == "failed"

        cancelled_gate = GateExecutor()
        executors[0] = cancelled_gate
        carol = harness.client("carol")
        cancelled = carol.submit(tiny_spec())
        carol.cancel(cancelled)
        cancelled_gate.release.set()  # the in-flight job lands, then the run ends
        assert carol.wait(cancelled)["state"] == "cancelled"

        gate = GateExecutor()
        executors[0] = gate
        dave = harness.client("dave")
        try:
            running = dave.submit(tiny_spec())
            queued = dave.submit(tiny_spec(tools=("express",)))
            queued_cancelled = dave.submit(tiny_spec(tools=("pvm",)))
            dave.cancel(queued_cancelled)
            states = {run["run_id"]: run["state"] for run in dave.runs("dave")}
            assert states == {running: "running", queued: "queued",
                              queued_cancelled: "cancelled"}

            assert history_ids(harness) == [completed]
            assert get_json(harness, "/api/history/runs/latest")["run_id"] == completed
            for other in (failed["run_id"], cancelled, running, queued,
                          queued_cancelled):
                status, _ = raw_request(
                    harness.port, "GET", "/api/history/runs/%s" % other
                )
                assert status == 404, other
            boards = get_json(harness, "/api/history/leaderboard")["leaderboards"]
            assert boards
            assert all(board["runs"] == [completed] for board in boards)
            analysis = analyze_history(registry.store, window=10).to_dict()
            assert analysis["window"] == [completed]
        finally:
            gate.release.set()


class TestHistoryCliReadsAServerStore:
    def test_list_and_show_read_the_database_a_server_wrote(
        self, harness_factory, capsys
    ):
        harness = harness_factory()
        run_id = harness.client().wait(harness.client().submit(tiny_spec()))["run_id"]
        path = harness.store.path
        harness.stop()

        assert main(["history", "list", "--db", path]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "service" in out

        assert main(["history", "show", "--db", path, "--json", "latest"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == run_id
        assert shown["payload"]["samples"]
