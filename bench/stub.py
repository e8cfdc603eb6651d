"""Stub upstream API for the serve workloads, run as its own process.

    python3 bench/stub.py MODEL_JSON SERVICE_MS

It answers GET requests from the model's routes and POST /users with
inputs.created_user(), after a fixed service time. It speaks HTTP/1.1 with
keep-alive, disables Nagle's algorithm and listens with a backlog of 128, so
bursts of parallel upstream calls from the wrapper neither wait for
retransmitted SYNs nor for delayed ACKs. It prints "PORT <n>" once it listens.

Control paths, not counted as upstream calls:
    GET /__log    counts of requests and of requests lacking the API key,
                  and every POST in arrival order
    GET /__reset  zero the counts and the POST log
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import created_user  # noqa: E402


class StubServer(ThreadingHTTPServer):
    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, model: dict, service_s: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.service_s = service_s
        self.key_header = model["api_key_header"]
        self.key = model["api_key"]
        self.bodies = {path: json.dumps(body).encode("utf-8")
                       for path, body in model["get"].items()}
        self.post_paths = set(model["post"])
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.missing_key = 0
            self.posts: list[dict] = []

    def log(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "missing_key": self.missing_key,
                    "posts": list(self.posts)}


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def _reply(self, status: int, body: bytes) -> None:
        reason = self.responses.get(status, ("",))[0]
        head = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def _count(self) -> None:
        server = self.server
        with server.lock:
            server.requests += 1
            if self.headers.get(server.key_header) != server.key:
                server.missing_key += 1

    def do_GET(self):
        server = self.server
        if self.path == "/__log":
            self._reply(200, json.dumps(server.log()).encode("utf-8"))
            return
        if self.path == "/__reset":
            server.reset()
            self._reply(200, b"{}")
            return
        self._count()
        body = server.bodies.get(self.path)
        if server.service_s:
            time.sleep(server.service_s)
        if body is None:
            self._reply(404, b'{"message": "no such resource"}')
        else:
            self._reply(200, body)

    def do_POST(self):
        server = self.server
        self._count()
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length)
        if self.path not in server.post_paths:
            self._reply(404, b'{"message": "no such resource"}')
            return
        payload = json.loads(raw)
        with server.lock:
            server.posts.append({"path": self.path, "body": payload})
        if server.service_s:
            time.sleep(server.service_s)
        self._reply(201, json.dumps(created_user(payload)).encode("utf-8"))


def main(argv: list[str]) -> None:
    model = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    server = StubServer(model, float(argv[2]) / 1000.0)
    sys.stdout.write(f"PORT {server.server_address[1]}\n")
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main(sys.argv)
