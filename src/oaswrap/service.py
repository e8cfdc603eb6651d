"""GraphQL-over-HTTP service for a generated wrapper.

POST /graphql executes queries (HTTP 200 even for execution errors, 400 for
request errors, 413 for a body over MAX_REQUEST_BYTES, 500 with an error ID
for an internal error); GET /sdl returns the schema text; GET /report the
generation report; any other method is a 405. A query text that comes a
second time is kept, its document and compiled plan, in a bounded
second-sighting cache (engine/cache.py), so that later requests with it skip
parsing and validation. The server speaks HTTP/1.1 with persistent
connections on a bounded set of worker threads (WrapperServer), framing each
request with the http11 codec that the upstream client shares.
"""

from __future__ import annotations

import json
import logging
import math
import os
import queue
import select
import socket
import threading
import time
from typing import Any

import orjson

from .engine import Executor, parse_query, validate_query
from .engine.ast import QueryDocument
from .engine.cache import SecondSightingCache
from .engine.execution import RequestFailed
from .errors import CoercionError, GraphQLSyntaxError
from .generator import GeneratedWrapper
# The head limits the edge enforces live with the codec that enforces them.
from .http11 import MAX_HEAD_BYTES, MAX_HEADERS  # noqa: F401
from .http11 import ProtocolError, Reader, imf_date, remaining, response_head, run
from .report import finalize_report
from .resolver_runtime import HttpClient

logger = logging.getLogger("oaswrap.service")

# The largest request body read; a longer one is refused unread.
MAX_REQUEST_BYTES = 1 << 20
# At most this many worker threads serve connections, one each; a further
# connection waits, unaccepted, in a listen backlog of this many. (A backlog
# of 5 drops connections under modest concurrency, and each dropped SYN costs
# the client a 1 s retransmit.)
WORKERS = 16
LISTEN_BACKLOG = 128
# A connection may idle this long before a request's first byte, and the
# request's head and body must then arrive within the read deadline.
IDLE_TIMEOUT_S = 5.0
READ_DEADLINE_S = 10.0
# On shutdown, workers get this long to finish the responses in flight; a
# worker still busy after it is a daemon thread, left to the process's exit.
SHUTDOWN_GRACE_S = 2.0
# The document cache keeps at most this many query texts, of at most this many
# UTF-8 bytes in all; the least recently used go first. A cached document with
# its compiled plan takes about 70 times its text's size.
DOCUMENT_CACHE_ENTRIES = 256
DOCUMENT_CACHE_BYTES = 1 << 18


class GraphQLService:
    """Request handling around one immutable generated wrapper. Its one state
    is a cache from query text to the parsed document and its validation
    errors; the document carries its compiled plan. Each request is a
    sighting of its text, and a text is kept from its second.

    The client (by default an HttpClient with its defaults) holds the timeout
    and the static headers of every upstream request, and the executor the
    bearer token."""

    def __init__(self, wrapper: GeneratedWrapper, client: HttpClient | None = None,
                 token: Any = None, max_parallel: int = 8):
        if not wrapper.ok:
            raise ValueError("cannot serve a wrapper whose generation failed")
        self.wrapper = wrapper
        self.executor = Executor(wrapper.schema, wrapper.plans, client,
                                 max_parallel=max_parallel, token=token)
        # query text -> (document, validation errors), weighed in UTF-8 bytes
        self._documents = SecondSightingCache(DOCUMENT_CACHE_ENTRIES, DOCUMENT_CACHE_BYTES)

    def handle_graphql(self, payload: Any) -> tuple[int, dict]:
        if not isinstance(payload, dict) or not isinstance(payload.get("query"), str):
            return 400, {"errors": [{"message": "request body must be a JSON object "
                                                "with a string 'query' member"}]}
        query = payload["query"]
        variables = payload.get("variables")
        operation_name = payload.get("operationName")
        if variables is not None and not isinstance(variables, dict):
            return 400, {"errors": [{"message": "'variables' must be an object"}]}

        try:
            doc, validation_errors = self._document(query)
        except GraphQLSyntaxError as exc:
            return 400, {"errors": [{"message": str(exc)}]}
        if validation_errors:
            return 400, {"errors": [{"message": message} for message in validation_errors]}
        try:
            result = self.executor.execute(doc, operation_name, variables)
        except (RequestFailed, CoercionError) as exc:
            return 400, {"errors": [{"message": str(exc)}]}
        return 200, result.to_payload()

    def _document(self, query: str) -> tuple[QueryDocument, list[str]]:
        """query parsed and validated, from the cache when it holds the text.
        A syntax error raises and is never cached; a text is cached when it
        comes a second time."""
        documents = self._documents
        hit = documents.get(query)
        if hit is not None:
            try:
                documents.refresh(query)
            except KeyError:  # another thread evicted it since
                pass
            return hit
        doc = parse_query(query)
        errors = validate_query(doc, self.wrapper.schema)
        if documents.sighted(query):
            documents.keep(query, (doc, errors), len(query.encode("utf-8", "surrogatepass")))
        return doc, errors

    def sdl_text(self) -> str:
        return self.wrapper.sdl or ""

    def report_json(self) -> str:
        return finalize_report(self.wrapper.report)


class WrapperServer:
    """An HTTP/1.1 server of one GraphQLService on a bounded set of worker
    threads.

    The serving thread (the caller of serve_forever) waits for a pending
    connection, takes the most recently idle worker, starting one while fewer
    than WORKERS run, and only then accepts. So a connection beyond the
    workers waits in the listen backlog and never adds a thread. Taking the
    most recently idle worker keeps the load on few threads, and so on few of
    the allocator's per-thread arenas.

    A worker serves its connection until the client closes it or asks for a
    close, the connection idles IDLE_TIMEOUT_S, a request's head and body
    miss READ_DEADLINE_S, or a request cannot be framed (http11 frames each
    request, its head within MAX_HEAD_BYTES and MAX_HEADERS). Each response goes
    out in one send. While a connection waits for a worker, every worker
    closes its connection after its current response, and the serving thread
    ends the kept connection that has waited longest for its next request,
    so that busy keep-alive clients cannot hold every worker."""

    def __init__(self, service: GraphQLService, address: tuple[str, int]):
        self.service = service
        self.socket = socket.create_server(address, backlog=LISTEN_BACKLOG)
        self.socket.setblocking(False)  # a pending connection can vanish before accept
        self.server_address = self.socket.getsockname()[:2]
        self._wake, self._waker = socket.socketpair()
        self._lock = threading.Condition(threading.Lock())
        self._idle: list[queue.SimpleQueue] = []  # workers' inboxes, most recently idle last
        self._threads: list[threading.Thread] = []
        # connections waiting for a request -> since when; math.inf for a new
        # connection, which is never ended to free its worker
        self._waiting: dict[socket.socket, float] = {}
        self._contended = False  # a connection waits for a worker
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        """Serve until shutdown() is called or the loop is interrupted; then
        return once every worker has finished its current response, or
        SHUTDOWN_GRACE_S has passed. A server serves once."""
        inbox = None  # a worker taken and not yet handed a connection
        try:
            while not self._stopping:
                if self._wake in select.select([self.socket, self._wake], [], [])[0]:
                    self._wake.recv(64)
                    continue
                if inbox is None:
                    inbox = self._free_worker()
                    if inbox is None:
                        break
                try:
                    conn = self.socket.accept()[0]
                except OSError:  # BlockingIOError or ConnectionAbortedError: none to take
                    continue
                inbox.put(conn)
                inbox = None
        finally:
            with self._lock:
                self._stopping = True
                idle, self._idle = self._idle, []
                if inbox is not None:
                    idle.append(inbox)
                threads, self._threads = self._threads, []
                for conn in self._waiting:  # a worker waiting for a request sees it end
                    _end_reading(conn)
            for inbox in idle:
                inbox.put(None)
            deadline = time.monotonic() + SHUTDOWN_GRACE_S
            for thread in threads:  # a worker still busy is a daemon, left to finish
                thread.join(max(0.0, deadline - time.monotonic()))
            self._stopped.set()

    def shutdown(self) -> None:
        """Make serve_forever return, and wait until it has; call it from
        another thread."""
        with self._lock:
            self._stopping = True
            self._lock.notify_all()
        self._waker.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        self.socket.close()
        self._wake.close()
        self._waker.close()

    def _free_worker(self) -> queue.SimpleQueue | None:
        """The inbox of the most recently idle worker, or of a new one while
        fewer than WORKERS run; None once stopping. While every worker holds
        a connection, the kept connection that has waited longest for its
        next request is ended to free its worker."""
        with self._lock:
            while not self._stopping:
                if self._idle:
                    self._contended = False
                    return self._idle.pop()
                if len(self._threads) < WORKERS:
                    inbox: queue.SimpleQueue = queue.SimpleQueue()
                    thread = threading.Thread(target=self._work, args=(inbox,),
                                              name=f"oaswrap-worker-{len(self._threads)}",
                                              daemon=True)
                    self._threads.append(thread)
                    thread.start()
                    self._contended = False
                    return inbox
                self._contended = True
                longest = min(self._waiting, key=self._waiting.__getitem__, default=None)
                if longest is not None and self._waiting[longest] < math.inf:
                    _end_reading(longest)
                self._lock.wait()
        return None

    def _work(self, inbox: queue.SimpleQueue) -> None:
        while (conn := inbox.get()) is not None:
            try:
                self._serve(conn)
            except TimeoutError:
                logger.debug("connection dropped: idle or read deadline passed")
            except OSError as exc:  # the client hung up, maybe mid-response
                logger.debug("connection lost: %r", exc)
            except Exception:  # the worker keeps serving
                logger.exception("internal error serving a connection")
            finally:
                conn.close()
                with self._lock:
                    if self._stopping:
                        return
                    self._idle.append(inbox)
                    self._lock.notify()

    def _serve(self, conn: socket.socket) -> None:
        """Answer the requests on conn until it is to close."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = Reader(self._next_request(conn, kept=False))
        deadline = 0.0

        def receive() -> bytes:
            conn.settimeout(remaining(deadline))
            return conn.recv(_RECV_BYTES)

        while reader.buffer and not self._stopping:
            deadline = time.monotonic() + READ_DEADLINE_S  # for the head and the body
            try:
                method, target, http10, keep_alive, length, expect_continue = run(
                    reader.request(MAX_REQUEST_BYTES), receive)
                if expect_continue and len(reader.buffer) < length:
                    conn.sendall(response_head(100, {}))
                body = run(reader.body(length), receive)
            except EOFError:  # the client closed the connection between requests
                return
            except ProtocolError as refused:  # what follows cannot be read as a request
                _respond(conn, refused.status, _error(str(refused)), _JSON,
                         {"Connection": "close"})
                return
            content_type, headers = _JSON, {}
            if method == "POST" and target == "/graphql":
                status, content = self._graphql(body)
            elif method not in ("GET", "POST"):
                status, content = 405, _error(f"method {method} is not allowed")
                headers = {"Allow": "GET, POST"}
            elif method == "GET" and target == "/sdl":
                status, content = 200, self.service.sdl_text().encode("utf-8")
                content_type = "text/plain; charset=utf-8"
            elif method == "GET" and target == "/report":
                status, content = 200, self.service.report_json().encode("utf-8")
            else:
                status, content = 404, _error("not found")
            keep_alive = keep_alive and not (self._contended or self._stopping)
            if not keep_alive:
                headers["Connection"] = "close"
            elif http10:
                headers["Connection"] = "keep-alive"
            _respond(conn, status, content, content_type, headers)
            logger.debug("%s %s -> %d", method, target, status)
            if not keep_alive:
                return
            if not reader.buffer:
                reader.buffer += self._next_request(conn, kept=True)

    def _next_request(self, conn: socket.socket, kept: bool) -> bytes:
        """The first bytes of the next request on conn, or b"" when it is to
        end first: the client closed it, the server is stopping, or, on a
        kept connection, a connection waits for a worker."""
        with self._lock:
            if self._stopping or (kept and self._contended):
                return b""
            self._waiting[conn] = time.monotonic() if kept else math.inf
        try:
            conn.settimeout(IDLE_TIMEOUT_S)
            return conn.recv(_RECV_BYTES)
        finally:
            with self._lock:
                self._waiting.pop(conn, None)

    def _graphql(self, raw: bytes) -> tuple[int, bytes]:
        """The status and JSON body answering a POST /graphql body."""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return 400, _error("request body is not valid JSON")
        except RecursionError:
            return 400, _error("request body is nested too deeply")
        except ValueError:  # an integer literal past sys.get_int_max_str_digits()
            return 400, _error("request body holds an integer too long to decode")
        try:
            status, body = self.service.handle_graphql(payload)
        except Exception:  # the server keeps serving; the client gets no stack trace
            error_id = os.urandom(8).hex()
            logger.exception("internal error %s handling POST /graphql", error_id)
            status, body = 500, {"errors": [{"message": f"internal error {error_id}",
                                             "extensions": {"errorId": error_id}}]}
        return status, encode_response(body)


def _end_reading(conn: socket.socket) -> None:
    """Make the worker blocked reading conn see the end of its input."""
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:  # the client is gone already
        pass


def _respond(conn: socket.socket, status: int, body: bytes, content_type: str,
             headers: dict[str, str]) -> None:
    """Send one response, with headers added, in one send."""
    head = response_head(status, {"Date": imf_date(), "Content-Type": content_type,
                                  "Content-Length": len(body), **headers})
    conn.settimeout(READ_DEADLINE_S)  # the client must take the response as fast
    conn.sendall(head + body)


def _error(message: str) -> bytes:
    return encode_response({"errors": [{"message": message}]})


_JSON = "application/json"
_RECV_BYTES = 1 << 16


def make_server(service: GraphQLService, host: str = "127.0.0.1",
                port: int = 0) -> WrapperServer:
    return WrapperServer(service, (host, port))


def encode_response(body: Any) -> bytes:
    """body as compact JSON in UTF-8. orjson refuses a lone surrogate, an
    integer past 64 bits and nesting past 254 levels; those take the standard
    library, whose output escapes every non-ASCII character."""
    try:
        return orjson.dumps(body)
    except orjson.JSONEncodeError:
        return json.dumps(body, separators=(",", ":")).encode("utf-8")


def serve_forever(service: GraphQLService, host: str, port: int) -> None:
    server = make_server(service, host, port)
    logger.info("serving GraphQL wrapper on http://%s:%d/graphql", host, server.server_address[1])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.executor.client.close()
