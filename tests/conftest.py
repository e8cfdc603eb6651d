"""Shared test infrastructure: a programmable, recording mock upstream and
corpus paths."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlparse

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
MANIFEST_PATH = FIXTURES / "corpus_manifest.json"


@dataclass
class RecordedRequest:
    method: str
    path: str
    query: dict
    headers: dict
    body: bytes

    def json(self):
        return json.loads(self.body) if self.body else None


@dataclass
class Route:
    method: str
    template: str  # e.g. "/user/{id}"
    handler: object  # callable(RecordedRequest, params) -> (status, json-able)

    def match(self, method: str, path: str) -> dict | None:
        if method != self.method:
            return None
        want = [s for s in self.template.split("/") if s]
        got = [s for s in path.split("/") if s]
        if len(want) != len(got):
            return None
        params = {}
        for w, g in zip(want, got):
            if w.startswith("{") and w.endswith("}"):
                params[w[1:-1]] = g
            elif w != g:
                return None
        return params


class MockUpstream:
    """Minimal programmable REST upstream recording every request in order."""

    def __init__(self):
        self.routes: list[Route] = []
        self.requests: list[RecordedRequest] = []
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None

    def route(self, method: str, template: str, handler) -> None:
        """handler: callable(request, path_params) -> (status, payload) or payload."""
        self.routes.append(Route(method.upper(), template, handler))

    def static(self, method: str, template: str, payload, status: int = 200) -> None:
        self.route(method, template, lambda req, params: (status, payload))

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def paths_seen(self) -> list[str]:
        return [r.path for r in self.requests]

    def start(self) -> "MockUpstream":
        upstream = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _handle(self):
                parsed = urlparse(self.path)
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                record = RecordedRequest(
                    method=self.command,
                    path=parsed.path,
                    query=dict(parse_qsl(parsed.query)),
                    headers={k: v for k, v in self.headers.items()},
                    body=body,
                )
                with upstream._lock:
                    upstream.requests.append(record)
                for route in upstream.routes:
                    params = route.match(self.command, parsed.path)
                    if params is not None:
                        result = route.handler(record, params)
                        status, payload = result if isinstance(result, tuple) else (200, result)
                        raw = (payload.encode() if isinstance(payload, str)
                               else json.dumps(payload).encode())
                        self.send_response(status)
                        self.send_header("Content-Type", "application/json")
                        self.send_header("Content-Length", str(len(raw)))
                        self.end_headers()
                        self.wfile.write(raw)
                        return
                self.send_response(404)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"{}")

            do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _handle

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()


class CannedClient:
    """Answers every upstream request with one JSON body, without a socket."""

    def __init__(self, body):
        self.body = json.dumps(body).encode()

    def send(self, spec):
        return 200, {}, self.body


@pytest.fixture
def upstream():
    server = MockUpstream().start()
    yield server
    server.stop()


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())
