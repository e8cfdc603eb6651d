"""GraphQL-over-HTTP service for a generated wrapper.

POST /graphql executes queries (HTTP 200 even for execution errors, 400 for
request errors, 413 for a body over MAX_REQUEST_BYTES, 500 with an error ID
for an internal error); GET /sdl returns the schema text; GET /report the
generation report. A query text that comes a second time is kept, its
document and compiled plan, in a bounded second-sighting cache
(engine/cache.py), so that later requests with it skip parsing and validation.
"""

from __future__ import annotations

import json
import logging
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import orjson

from .engine import Executor, parse_query, validate_query
from .engine.ast import QueryDocument
from .engine.cache import SecondSightingCache
from .engine.execution import RequestFailed
from .errors import CoercionError, GraphQLSyntaxError
from .generator import GeneratedWrapper
from .report import finalize_report
from .resolver_runtime import HttpClient

logger = logging.getLogger("oaswrap.service")

# The largest request body read; a longer one is refused unread.
MAX_REQUEST_BYTES = 1 << 20
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


class WrapperServer(ThreadingHTTPServer):
    # socketserver's default backlog of 5 drops connections under modest
    # concurrency, and each dropped SYN costs the client a 1 s retransmit.
    request_queue_size = 128


def make_server(service: GraphQLService, host: str = "127.0.0.1",
                port: int = 0) -> WrapperServer:
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # route through logging, not stderr
            logger.debug("%s " + fmt, self.address_string(), *args)

        def _send(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/sdl":
                self._send(200, service.sdl_text().encode("utf-8"),
                           "text/plain; charset=utf-8")
            elif self.path == "/report":
                self._send(200, service.report_json().encode("utf-8"), "application/json")
            else:
                self._send(404, b'{"errors": [{"message": "not found"}]}', "application/json")

        def do_POST(self):
            if self.path != "/graphql":
                self._send(404, b'{"errors": [{"message": "not found"}]}', "application/json")
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                self._send(400, b'{"errors": [{"message": "Content-Length must be a '
                                b'non-negative integer"}]}', "application/json")
                return
            if length > MAX_REQUEST_BYTES:
                self.close_connection = True  # the unread body must not be parsed as a request
                self._send(413, json.dumps({"errors": [{"message": (
                    f"request body of {length} bytes exceeds the limit of "
                    f"{MAX_REQUEST_BYTES} bytes")}]}).encode("utf-8"), "application/json")
                return
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else None
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._send(400, b'{"errors": [{"message": "request body is not valid JSON"}]}',
                           "application/json")
                return
            except RecursionError:
                self._send(400, b'{"errors": [{"message": "request body is nested too deeply"}]}',
                           "application/json")
                return
            except ValueError:  # an integer literal past sys.get_int_max_str_digits()
                self._send(400, b'{"errors": [{"message": "request body holds an integer too '
                                b'long to decode"}]}', "application/json")
                return
            try:
                status, body = service.handle_graphql(payload)
            except Exception:  # the server keeps serving; the client gets no stack trace
                error_id = os.urandom(8).hex()
                logger.exception("internal error %s handling POST /graphql", error_id)
                status, body = 500, {"errors": [{"message": f"internal error {error_id}",
                                                 "extensions": {"errorId": error_id}}]}
            self._send(status, encode_response(body), "application/json")

    return WrapperServer((host, port), Handler)


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
