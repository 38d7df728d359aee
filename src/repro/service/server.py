"""A stdlib-only threaded HTTP server over the job registry.

Evaluation-as-a-service: the REST surface other tooling (and the
bundled :mod:`repro.service.client`) talks to.  No framework — one
:class:`http.server.BaseHTTPRequestHandler` on a
:class:`http.server.ThreadingHTTPServer` is all a single-process job
server needs, and it keeps the subsystem free of dependencies the
container may not have.

The API::

    GET  /api/health              liveness + version
    GET  /api/runs                every run (newest first); ?user= filters
    POST /api/runs                submit an EvaluationSpec -> {run_id}
    GET  /api/runs/{id}           stored record + live progress snapshot
    POST /api/runs/{id}/cancel    cooperative cancel (queued or running)
    GET  /api/runs/{id}/events    Server-Sent Events: replay, then live
                                  (a finished run: its stored stream)

The runs live in the run-history store, so the regression-intelligence
views over its completed runs are readable too::

    GET  /api/history/runs            completed runs; ?kind=&limit= filter
    GET  /api/history/runs/{ref}      one run (id, unique prefix, latest~N)
    GET  /api/history/diff            ?baseline=REF&current=REF cell diff
    GET  /api/history/leaderboard     ?window=&platform=&profile= rankings

Submissions carry ``{"spec": {...}}`` (the JSON form of
:class:`~repro.core.spec.EvaluationSpec`) and are accounted to the
``X-User`` header for per-user concurrency limits.  The SSE stream
frames each :class:`~repro.core.progress.RunEvent` as ::

    event: job_finished
    data: {"type": "job_finished", "job": {...}, ...}

— one frame per event, terminated by the ``run_completed`` frame,
which the registry releases only once the run's final record is
persisted (a failed run's stream just ends).  A finished run's stream,
whichever server ran it, is rebuilt from its stored record.  Every
connection is answered on its own thread, so an SSE response simply
writes the registry's blocking event iterator to the socket: a slow
consumer never stalls the run (RunHandle buffers the replay), several
consumers can follow one run live, and a consumer that hangs up frees
its thread at the next event.

Connections are ``Connection: close`` — one request per connection.
That is deliberate: the expensive thing here is a simulation sweep,
not a TCP handshake.  Every error, the stdlib's own malformed-request
replies included, is a JSON ``{"error": ...}`` body.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.core.progress import event_to_dict
from repro.errors import EvaluationError, HistoryError, ServiceError
from repro.service.registry import JobRegistry

__all__ = ["ServiceServer"]

_RUN_PATH = re.compile(r"^/api/runs/(?P<run_id>[0-9a-f]+)(?P<rest>/events|/cancel)?$")
_HISTORY_RUN_PATH = re.compile(r"^/api/history/runs/(?P<ref>[0-9a-f]+|latest(~[0-9]+)?)$")

#: Request bodies above this are refused — a spec is a few KB, so a
#: larger payload is a mistake (or abuse), not a bigger evaluation.
MAX_BODY_BYTES = 1 << 20

#: How often the accept loop checks for :meth:`ServiceServer.close`;
#: it bounds how long closing the server takes.
_SHUTDOWN_POLL_SECONDS = 0.05


class _HttpError(Exception):
    """Internal: unwind request handling into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _HTTPServer(ThreadingHTTPServer):
    # The stdlib's listen backlog of 5 overflows when a burst of
    # clients connects at once, and each refused SYN costs its client
    # a one-second retransmit.
    request_queue_size = 100


class ServiceServer(object):
    """The threaded HTTP front of one :class:`JobRegistry`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` for the real one (what the CLI prints and the tests
    and the demo parse).
    """

    def __init__(
        self, registry: JobRegistry, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._httpd: Optional[_HTTPServer] = None

    def start(self) -> None:
        """Bind (``OSError`` if the address is taken) and serve from a
        background thread."""
        self._httpd = _HTTPServer((self.host, self.port), _Handler)
        self._httpd.registry = self.registry
        self.port = self._httpd.server_address[1]
        threading.Thread(
            target=self._httpd.serve_forever,
            args=(_SHUTDOWN_POLL_SECONDS,),
            name="repro-service-http", daemon=True,
        ).start()

    def close(self) -> None:
        """Stop accepting connections.  Idempotent.

        Requests in flight finish on their own (daemon) threads; an
        event stream ends when its run does, which
        :meth:`JobRegistry.shutdown` brings about.
        """
        if self._httpd is None:
            return
        self._httpd.shutdown()  # returns once the accept loop has exited
        self._httpd.server_close()
        self._httpd = None


class _Handler(BaseHTTPRequestHandler):
    """One request per connection, routed straight to the registry."""

    protocol_version = "HTTP/1.1"

    def __getattr__(self, name: str):
        # Every method reaches the router, which answers 405 (or 404)
        # for the ones a path does not take, instead of the stdlib's 501.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def log_message(self, format, *args) -> None:
        pass  # no per-request access log; the CLI prints its own status lines

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own refusals (malformed request line, oversized
        headers, ...) get the same JSON body as every other error."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self._respond_json(code, {"error": message})

    # -- request plumbing ----------------------------------------------

    def _dispatch(self) -> None:
        try:
            self._route()
        except _HttpError as error:
            self.send_error(error.status, error.message)
        except (ServiceError, EvaluationError) as error:
            # Library-level refusals the routes didn't map: client
            # errors, not server faults.
            self.send_error(400, str(error))
        except ConnectionError:
            pass  # the client went away; nothing to answer
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self.send_error(500, "internal error: %s" % error)

    def _respond_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:
            pass

    def _body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or "0")
        except ValueError:
            raise _HttpError(400, "malformed content-length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(400, "unacceptable content-length %d" % length)
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "request body must be a JSON object")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise _HttpError(400, "request body is not valid JSON: %s" % error)
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return data

    # -- routing -------------------------------------------------------

    def _route(self) -> None:
        registry = self.server.registry
        method = self.command
        body = self._body()
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        user = self._identity()

        if path == "/api/health":
            self._require("GET")
            self._respond_json(200, {"status": "ok", "version": __version__})
            return

        if path == "/api/runs":
            if method == "GET":
                query_user = (parse_qs(url.query).get("user") or [None])[0]
                self._respond_json(200, {"runs": registry.list_runs(query_user)})
                return
            if method == "POST":
                self._submit(user, body)
                return
            raise _HttpError(405, "method %s not allowed on %s" % (method, path))

        if path == "/api/history" or path.startswith("/api/history/"):
            self._require("GET")
            self._route_history(path, parse_qs(url.query))
            return

        match = _RUN_PATH.match(path)
        if match is None:
            raise _HttpError(404, "no route for %s" % path)
        run_id, rest = match.group("run_id"), match.group("rest")

        if rest is None:
            self._require("GET")
            self._respond_json(200, self._registry_call(registry.status, run_id))
        elif rest == "/cancel":
            self._require("POST")
            self._respond_json(202, self._registry_call(registry.cancel, run_id))
        else:  # /events
            self._require("GET")
            self._stream_events(run_id)

    def _route_history(self, path: str, query: dict) -> None:
        """The read-only regression-intelligence views over the
        registry's store."""
        history = self.server.registry.store

        def param(name: str) -> Optional[str]:
            return (query.get(name) or [None])[0]

        try:
            if path == "/api/history/runs":
                runs = history.list_runs(param("kind"), int(param("limit") or 50))
                self._respond_json(200, {"runs": runs})
                return
            match = _HISTORY_RUN_PATH.match(path)
            if match is not None:
                record = history.get(history.resolve(match.group("ref")))
                self._respond_json(200, record)
                return
            if path == "/api/history/diff":
                baseline, current = param("baseline"), param("current")
                if not baseline or not current:
                    raise _HttpError(
                        400, "diff needs ?baseline=REF&current=REF"
                    )
                from repro.history import diff_runs

                diff = diff_runs(history, baseline, current)
                self._respond_json(200, diff.to_dict())
                return
            if path == "/api/history/leaderboard":
                from repro.history import leaderboards

                boards = leaderboards(
                    history, int(param("window") or 10),
                    param("platform"), param("profile"),
                )
                self._respond_json(
                    200, {"leaderboards": [board.to_dict() for board in boards]},
                )
                return
        except ValueError as error:
            raise _HttpError(400, "bad query parameter: %s" % error)
        except HistoryError as error:
            message = str(error)
            missing = ("no recorded run" in message
                       or "needs" in message
                       or "unknown run" in message)
            raise _HttpError(404 if missing else 400, message)
        raise _HttpError(404, "no route for %s" % path)

    def _identity(self) -> Optional[str]:
        """The request's user id: absent means anonymous, present
        means non-blank.  A blank/whitespace X-User is always a
        misconfigured client — rejecting it with a 400 beats silently
        billing it to the shared anonymous quota bucket."""
        user = self.headers.get("X-User")
        if user is None:
            return None
        user = user.strip()
        if not user:
            raise _HttpError(400, "X-User header must not be blank")
        return user

    def _require(self, expected: str) -> None:
        if self.command != expected:
            raise _HttpError(405, "method %s not allowed here" % self.command)

    @staticmethod
    def _registry_call(call, run_id: str):
        """A registry call on one run; its only refusal is an unknown
        run, a 404."""
        try:
            return call(run_id)
        except ServiceError as error:
            raise _HttpError(404, str(error))

    def _submit(self, user: Optional[str], body: bytes) -> None:
        data = self._json_body(body)
        if "spec" not in data or not isinstance(data["spec"], dict):
            raise _HttpError(400, 'submission must carry a "spec" JSON object')
        try:
            record = self.server.registry.submit(user, data["spec"])
        except EvaluationError as error:
            raise _HttpError(400, "invalid spec: %s" % error)
        except ServiceError as error:
            raise _HttpError(503, str(error))
        self._respond_json(
            202,
            {"run_id": record["run_id"], "state": record["state"],
             "user": record["user"], "spec_hash": record["spec_hash"]},
        )

    # -- Server-Sent Events --------------------------------------------

    def _stream_events(self, run_id: str) -> None:
        # The registry resolves the run here, so an unknown id is a 404
        # before the stream commits to a 200.
        events = self._registry_call(self.server.registry.events, run_id)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            for event in events:
                payload = event_to_dict(event)
                frame = "event: %s\ndata: %s\n\n" % (
                    payload["type"], json.dumps(payload, sort_keys=True)
                )
                self.wfile.write(frame.encode("utf-8"))
        finally:
            events.close()  # a consumer that hung up stops following now
