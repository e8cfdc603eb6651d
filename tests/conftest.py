"""Shared test infrastructure: a programmable, recording mock upstream, a
canned client, a switch to the executor's general completion path, an SDL
reader for round trips, a strategy of GraphQL query texts, and corpus
paths."""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlparse

import pytest
from hypothesis import strategies as st

from oaswrap.ir import (ENUM, INPUT_OBJECT, OBJECT, SCALAR_TYPE_NAMES, ArgIR, FieldIR, SchemaIR,
                        TypeIR, list_of, non_null, reference, scalar)

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


def schema_from_sdl(text: str) -> SchemaIR:
    """The SchemaIR graphql-core reads from SDL text, for print round trips.
    Descriptions are kept; bindings and raw names are not in SDL."""
    from graphql import (GraphQLEnumType, GraphQLInputObjectType, GraphQLList,
                         GraphQLNonNull, build_schema)

    built = build_schema(text)

    def type_ref(t) -> TypeIR:
        if isinstance(t, GraphQLNonNull):
            return non_null(type_ref(t.of_type))
        if isinstance(t, GraphQLList):
            return list_of(type_ref(t.of_type))
        return scalar(t.name) if t.name in SCALAR_TYPE_NAMES else reference(t.name)

    def fields(t) -> dict[str, FieldIR]:
        return {name: FieldIR(name, type_ref(f.type), description=f.description, args={
                    arg_name: ArgIR(arg_name, type_ref(arg.type))
                    for arg_name, arg in getattr(f, "args", {}).items()})
                for name, f in t.fields.items()}

    schema = SchemaIR(query_fields=fields(built.query_type),
                      mutation_fields=fields(built.mutation_type) if built.mutation_type else {})
    for name, t in built.type_map.items():
        if name.startswith("__") or name in SCALAR_TYPE_NAMES or t in (
                built.query_type, built.mutation_type):
            continue
        if isinstance(t, GraphQLEnumType):
            schema.types[name] = TypeIR(ENUM, name=name, enum_values={v: v for v in t.values},
                                        description=t.description)
        else:
            kind = INPUT_OBJECT if isinstance(t, GraphQLInputObjectType) else OBJECT
            schema.types[name] = TypeIR(kind, name=name, fields=fields(t),
                                        description=t.description)
    return schema


class CannedClient:
    """Answers every upstream request with one JSON body, without a socket."""

    def __init__(self, body):
        self.body = json.dumps(body).encode()

    def send(self, spec):
        return 200, {}, self.body


def general_path(doc) -> None:
    """Clear the kernel signature of every compiled set, and the inline shape
    of every compiled field, of doc's validated first operation, so that its
    execution completes every value through the executor's general path."""
    todo = [doc.operations[0].compiled[1]]
    while todo:
        compiled = todo.pop()
        compiled.signature = None
        for f in compiled.fields:
            f.shape = None
            if f.child is not None:
                todo.append(f.child)


# Pieces of query text: every token kind with the spec's edge numbers, escapes
# and block strings, each ignored token, and characters no token starts with.
QUERY_PIECES = [
    "{", "}", "(", ")", "[", "]", ":", "=", "!", "$", "@", "&", "|", "...", "..", ".",
    "query", "mutation", "subscription", "fragment", "on", "true", "false", "null",
    "user", "id", "name", "a", "x", "Q", "F", "User", "String", "Int", "_a1",
    "0", "-0", "7", "-12", "1.5", "0.25", "1e3", "1E-3", "-2.5e+2", "1e400", "9" * 30,
    "00", "01", "1.", ".5", "1e", "-", "1a", "1_", "1.5.1",
    '""', '"u1"', '"a b"', r'"\n\t\"\\\/"', r'"\u0041"', r'"\u{1F600}"', r'"\u{0}"',
    r'"\uD83D\uDE00"', r'"\ud800"', r'"\u{D800}"', r'"\ud83d\u{DC00}"', r'"\u{110000}"',
    r'"\u{FFFFFFFF}"', r'"\u{}"', r'"\x"', r'"\u12"', r'"\\u{41}"', '"\ta"', '"a\nb"', '"é"',
    '"\x00"', '"',
    '""""""', '"""a"""', '"""\n    hi\n  there\n"""', '"""a \\""" b"""', '"""\r\n  x\r  y"""',
    '"""', " ", ",", "\t", "\n", "\r\n", "\r", "\ufeff", "# note\n", "#", "é", "'", "\x00",
]

VALID_QUERIES = [
    '{ user(id: "u1") { id name } }',
    'query Q($id: String!) { user(id: $id) { ...F } }\nfragment F on User { id name }',
    'query { u: user(id: "x") { ... on User { name } id } }',
    'mutation M { createUser(user: {id: "a", tags: [1, 2.5, -3e2]}) { id } }',
    'query V($n: Int = 3, $s: [String!]!) { a(x: 1.5, e: RED, z: null, b: false, n: $n, '
    's: """ block""") { x } }',
]


# A VALID_QUERIES text split into pieces that mutations move whole.
_QUERY_PIECE = re.compile(r'"""(?:\\"""|[\s\S])*?"""|"(?:\\.|[^"\\])*"|\.\.\.|[-+.\w]+|\s+|.')


@st.composite
def query_texts(draw) -> str:
    """Soup of QUERY_PIECES, or one of VALID_QUERIES with QUERY_PIECES
    inserted or put in place of its own, and its pieces deleted or repeated."""
    if draw(st.booleans()):
        soup = draw(st.lists(st.sampled_from(QUERY_PIECES), max_size=30))
        return "".join(p + draw(st.sampled_from(["", " ", "\n"])) for p in soup)
    pieces = _QUERY_PIECE.findall(draw(st.sampled_from(VALID_QUERIES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from([k for k, p in enumerate(pieces) if not p.isspace()] or [0]))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        if edit == "insert":
            pieces.insert(i, draw(st.sampled_from(QUERY_PIECES)))
        elif edit == "replace":
            pieces[i:i + 1] = [draw(st.sampled_from(QUERY_PIECES))]
        elif edit == "delete":
            del pieces[i:i + draw(st.integers(1, 4))]
        else:
            pieces[i:i] = pieces[i:i + draw(st.integers(1, 4))]
    return "".join(pieces)


@pytest.fixture
def upstream():
    server = MockUpstream().start()
    yield server
    server.stop()


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())
