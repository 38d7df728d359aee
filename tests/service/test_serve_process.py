"""``repro serve`` as a real process: boot, answer, stop, refuse.

The in-process harness covers the HTTP contract; these tests cover
what only a separate process shows — the ``serving on`` line an
ephemeral ``--port 0`` is parsed from, a graceful exit 0 on SIGTERM,
exit 2 when the port is already taken, and that ``--history-db`` is
another spelling of ``--db``: the server keeps its runs in one file.
"""

import os
import re
import signal
import subprocess
import sys
import threading

from repro.service.client import ServiceClient

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def serve_command(port, db_path, *extra):
    return [sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--db", str(db_path)] + list(extra)


def start(command, env):
    """Boot ``repro serve``; (process, watchdog, port, lines printed up
    to the ``serving on`` line).  The watchdog kills the process after
    120 s, which bounds every read of its output."""
    server = subprocess.Popen(
        command, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    watchdog = threading.Timer(120, server.kill)
    watchdog.start()
    lines = []
    for line in server.stdout:
        lines.append(line)
        match = re.search(r"^serving on http://[\d.]+:(\d+)$", line.strip())
        if match:
            return server, watchdog, int(match.group(1)), lines
    return server, watchdog, None, lines


def test_serve_binds_answers_refuses_a_taken_port_and_stops_on_sigterm(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    server, watchdog, port, _ = start(serve_command(0, tmp_path / "first.db"), env)
    try:
        assert port is not None, "server exited before binding"
        assert ServiceClient(port=port).health()["status"] == "ok"

        second = subprocess.run(
            serve_command(port, tmp_path / "second.db"), env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert second.returncode == 2
        assert "cannot bind" in second.stdout

        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=60)
        assert server.returncode == 0
        assert "service stopped" in output
    finally:
        watchdog.cancel()
        if server.poll() is None:
            server.kill()
            server.wait()


def test_history_db_is_the_db_the_server_writes(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    ignored, used = tmp_path / "A.db", tmp_path / "B.db"
    server, watchdog, port, lines = start(
        serve_command(0, ignored, "--history-db", str(used)), env,
    )
    try:
        assert port is not None, "server exited before binding"
        startup = server.stdout.readline()
        assert startup.startswith("db=%s " % used), lines + [startup]
        client = ServiceClient(port=port)
        spec = {"tools": ["p4"], "tpl_sizes": [1024], "global_sum_ints": 2000,
                "apps": ["montecarlo"],
                "app_params": {"montecarlo": {"samples": 5000}}}
        run_id = client.submit(spec)
        assert client.wait(run_id)["state"] == "completed"
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=60)
        assert server.returncode == 0
        assert "run history is in %s" % used in output
    finally:
        watchdog.cancel()
        if server.poll() is None:
            server.kill()
            server.wait()
    assert not ignored.exists()
    assert sorted(path.name for path in tmp_path.glob("*.db")) == ["B.db"]
    listed = subprocess.run(
        [sys.executable, "-m", "repro", "history", "list", "--db", str(used)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert listed.returncode == 0
    assert run_id in listed.stdout
