"""``repro serve`` as a real process: boot, answer, stop, refuse.

The in-process harness covers the HTTP contract; these tests cover
what only a separate process shows — the ``serving on`` line an
ephemeral ``--port 0`` is parsed from, a graceful exit 0 on SIGTERM,
and exit 2 when the port is already taken.
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


def serve_command(port, db_path):
    return [sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--db", str(db_path)]


def test_serve_binds_answers_refuses_a_taken_port_and_stops_on_sigterm(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    server = subprocess.Popen(
        serve_command(0, tmp_path / "first.db"), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    watchdog = threading.Timer(120, server.kill)  # bounds every read below
    watchdog.start()
    try:
        port = None
        for line in server.stdout:
            match = re.search(r"^serving on http://[\d.]+:(\d+)$", line.strip())
            if match:
                port = int(match.group(1))
                break
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
