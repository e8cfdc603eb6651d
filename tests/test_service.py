"""GraphQL-over-HTTP service endpoints."""

import http.client
import json
import logging
import socket
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CannedClient, query_texts
from oaswrap import service as service_module
from oaswrap.engine.execution import KERNEL_TABLE_ENTRIES
from oaswrap.generator import generate
from oaswrap.resolver_runtime import MAX_FAST_BRACKETS
from oaswrap.service import (DOCUMENT_CACHE_BYTES, DOCUMENT_CACHE_ENTRIES, MAX_REQUEST_BYTES,
                             GraphQLService, make_server)


def build_wrapper(upstream):
    root = {
        "openapi": "3.0.0",
        "info": {"title": "Svc", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {
            "/user/{id}": {"get": {
                "operationId": "getUserById",
                "parameters": [{"name": "id", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": {"200": {"description": "ok", "content": {
                    "application/json": {"schema": {
                        "$ref": "#/components/schemas/User"}}}}},
            }},
        },
        "components": {"schemas": {"User": {"type": "object", "properties": {
            "id": {"type": "string"}, "name": {"type": "string"}}}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    return wrapper


@pytest.fixture
def service_url(upstream):
    upstream.static("GET", "/user/{id}", {"id": "u1", "name": "Uma"})
    wrapper = build_wrapper(upstream)
    service = GraphQLService(wrapper, extra_headers={"X-Static": "on"})
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}", wrapper, upstream
    server.shutdown()
    server.server_close()


@dataclass
class Reply:
    status_code: int
    text: str

    def json(self):
        return json.loads(self.text)


def fetch(url, method="GET", body=None, headers=None):
    """One request to the service under test, on its own connection."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        conn.request(method, parts.path, body, headers or {})
        response = conn.getresponse()
        return Reply(response.status, response.read().decode("utf-8"))
    finally:
        conn.close()


def post_graphql(url, payload):
    return fetch(f"{url}/graphql", "POST", json.dumps(payload).encode(),
                 {"Content-Type": "application/json"})


def test_post_graphql_success(service_url):
    url, wrapper, upstream = service_url
    response = post_graphql(url, {"query": '{ user(id: "u1") { name } }'})
    assert response.status_code == 200
    assert response.json() == {"data": {"user": {"name": "Uma"}}}


def test_execution_error_still_200(service_url):
    url, wrapper, upstream = service_url
    upstream.route("GET", "/user/{id}",
                   lambda req, p: (500, {"boom": True}))
    upstream.routes.reverse()  # newest route first
    response = post_graphql(url, {"query": '{ user(id: "u1") { name } }'})
    assert response.status_code == 200
    payload = response.json()
    assert payload["data"] == {"user": None}
    assert payload["errors"]


def test_parse_error_is_400(service_url):
    url, _, _ = service_url
    response = post_graphql(url, {"query": "{ user(id: }"})
    assert response.status_code == 400
    assert "errors" in response.json()


def test_an_exponent_without_digits_is_a_json_400(service_url):
    url, _, upstream = service_url
    response = post_graphql(url, {"query": "{ a(x: 1e) }"})
    assert response.status_code == 400
    assert response.json() == {"errors": [{"message": "invalid number '1e' (line 1, column 8)"}]}
    assert upstream.requests == []


def test_validation_error_is_400(service_url):
    url, _, _ = service_url
    response = post_graphql(url, {"query": "{ nonsense }"})
    assert response.status_code == 400


def test_unknown_operation_name_is_400(service_url):
    url, _, _ = service_url
    response = post_graphql(url, {
        "query": 'query A { user(id: "u1") { name } }', "operationName": "B"})
    assert response.status_code == 400


def test_malformed_body_is_400(service_url):
    url, _, _ = service_url
    response = fetch(f"{url}/graphql", "POST", b"not json",
                     {"Content-Type": "application/json"})
    assert response.status_code == 400


@pytest.mark.parametrize("length", ["ten", "-1"])
def test_bad_content_length_is_400(service_url, length):
    url, _, _ = service_url
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(f"POST /graphql HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n"
                     f"Connection: close\r\n\r\n".encode())
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 400")
    assert "Content-Length" in json.loads(body)["errors"][0]["message"]


def test_request_over_the_size_cap_is_413_unread(service_url):
    url, _, upstream = service_url
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        # The body is never sent: the reply must come without reading it, and
        # the server must close the connection rather than wait for it.
        sock.sendall(f"POST /graphql HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: {MAX_REQUEST_BYTES + 1}\r\n\r\n".encode())
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 413")
    assert str(MAX_REQUEST_BYTES) in json.loads(body)["errors"][0]["message"]
    assert upstream.requests == []


def test_server_listen_backlog(upstream):
    server = make_server(GraphQLService(build_wrapper(upstream)))
    try:
        assert server.request_queue_size == 128
    finally:
        server.server_close()


def test_missing_query_member_is_400(service_url):
    url, _, _ = service_url
    assert post_graphql(url, {"variables": {}}).status_code == 400


def test_variables_must_be_object(service_url):
    url, _, _ = service_url
    response = post_graphql(url, {"query": "{ placeholder }", "variables": [1]})
    assert response.status_code == 400


def test_get_sdl_matches_generated(service_url):
    url, wrapper, _ = service_url
    response = fetch(f"{url}/sdl")
    assert response.status_code == 200
    assert response.text == wrapper.sdl


def test_get_report_is_generation_report(service_url):
    url, wrapper, _ = service_url
    response = fetch(f"{url}/report")
    assert response.status_code == 200
    payload = response.json()
    assert payload["outcome"] == "success"
    assert payload["stats"]["operations_total"] == 1


def test_unknown_route_404(service_url):
    url, _, _ = service_url
    assert fetch(f"{url}/nope").status_code == 404


def test_static_extra_headers_reach_upstream(service_url):
    url, _, upstream = service_url
    post_graphql(url, {"query": '{ user(id: "u1") { name } }'})
    sent = [r for r in upstream.requests if r.path == "/user/u1"]
    assert sent and sent[-1].headers.get("X-Static") == "on"


def test_variables_flow_through_service(service_url):
    url, _, _ = service_url
    response = post_graphql(url, {
        "query": "query Q($i: String!) { user(id: $i) { id } }",
        "variables": {"i": "u1"},
    })
    assert response.status_code == 200
    assert response.json()["data"] == {"user": {"id": "u1"}}


def test_bearer_token_from_context_file(upstream):
    upstream.static("GET", "/private", {"v": "s3cret-data"})
    root = {
        "openapi": "3.0.0",
        "info": {"title": "Tok", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {"/private": {"get": {
            "security": [{"oauth": []}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"v": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {"oauth": {"type": "oauth2", "flows": {}}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    service = GraphQLService(wrapper, token="tok-42")
    status, payload = service.handle_graphql({"query": "{ getPrivate { v } }"})
    assert status == 200
    assert payload["data"] == {"getPrivate": {"v": "s3cret-data"}}
    sent = upstream.requests[-1]
    assert sent.headers.get("Authorization") == "Bearer tok-42"


def test_deep_query_is_400_before_any_upstream_call(upstream):
    service = GraphQLService(build_wrapper(upstream))
    query = "{ " + "children { " * 3000 + "id" + " }" * 3000 + " }"
    status, payload = service.handle_graphql({"query": query})
    assert status == 400
    assert "deeper than" in payload["errors"][0]["message"]
    assert upstream.requests == []


class RaisingClient:
    def send(self, spec):
        raise RuntimeError("client bug with a secret in it")


def test_unhandled_error_is_json_500_with_error_id(upstream, caplog):
    service = GraphQLService(build_wrapper(upstream), client=RaisingClient())
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        with caplog.at_level(logging.ERROR, logger="oaswrap.service"):
            response = post_graphql(f"http://{host}:{port}",
                                    {"query": '{ user(id: "u1") { name } }'})
    finally:
        server.shutdown()
        server.server_close()
    thread.join(5)
    assert not thread.is_alive()
    assert response.status_code == 500
    [error] = response.json()["errors"]
    error_id = error["extensions"]["errorId"]
    assert error["message"] == f"internal error {error_id}"
    assert "secret" not in response.text and "Traceback" not in response.text
    [record] = [r for r in caplog.records if error_id in r.getMessage()]
    assert record.levelno == logging.ERROR and record.exc_info is not None


@contextmanager
def serving(service):
    """The URL of service served on a loopback port until the block ends."""
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_a_deeply_nested_request_body_is_a_json_400(service_url):
    url, _, upstream = service_url
    response = fetch(f"{url}/graphql", "POST", b"[" * 1000 + b"]" * 1000,
                     {"Content-Type": "application/json"})
    assert response.status_code == 400
    assert response.json() == {"errors": [{"message": "request body is nested too deeply"}]}
    assert upstream.requests == []


def test_an_upstream_body_nested_past_both_decoders_is_a_field_error(upstream):
    depth = MAX_FAST_BRACKETS + 1
    upstream.static("GET", "/user/{id}", '{"id": "u1", "name": ' + "[" * depth + "]" * depth + "}")
    with serving(GraphQLService(build_wrapper(upstream))) as url:
        response = post_graphql(url, {"query": '{ user(id: "u1") { id } }'})
    assert response.status_code == 200
    assert response.json() == {"data": {"user": None}, "errors": [{
        "message": "upstream value of GET /user/{id} is nested too deeply",
        "path": ["user"], "locations": [{"line": 1, "column": 3}]}]}
    assert upstream.paths_seen == ["/user/u1"]


def test_a_request_body_integer_past_the_digit_limit_is_a_json_400(service_url):
    url, _, upstream = service_url
    body = (b'{"query": "query Q($n: Int) { user(id: \\"u1\\") { id } }", "variables": {"n": 1'
            + b"0" * sys.get_int_max_str_digits() + b"}}")
    response = fetch(f"{url}/graphql", "POST", body, {"Content-Type": "application/json"})
    assert response.status_code == 400
    assert response.json() == {"errors": [{"message": "request body holds an integer too long "
                                                      "to decode"}]}
    assert upstream.requests == []


def test_a_lone_surrogate_in_a_variable_is_a_400_before_any_upstream_call(service_url):
    url, _, upstream = service_url
    body = (b'{"query": "query Q($id: String!) { user(id: $id) { id } }", '
            b'"variables": {"id": "\\ud800"}}')
    response = fetch(f"{url}/graphql", "POST", body, {"Content-Type": "application/json"})
    assert response.status_code == 400
    assert response.json() == {"errors": [{"message": "$id holds a lone surrogate, which is "
                                                      "no Unicode scalar value"}]}
    assert upstream.requests == []


def test_a_lone_surrogate_inside_an_input_object_is_a_400_before_any_upstream_call(upstream):
    root = {
        "openapi": "3.0.0",
        "info": {"title": "Post", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {"/user": {"post": {
            "requestBody": {"content": {"application/json": {"schema": {
                "type": "object", "properties": {"name": {"type": "string"}}}}}},
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}}}}},
    }
    body = (b'{"query": "mutation M($u: postUserInput) { postUser(postUser: $u) { id } }", '
            b'"variables": {"u": {"name": "a\\udfffb"}}}')
    with serving(GraphQLService(generate(json.dumps(root).encode()))) as url:
        response = fetch(f"{url}/graphql", "POST", body, {"Content-Type": "application/json"})
    assert response.status_code == 400
    assert response.json() == {"errors": [{"message": "$u.name holds a lone surrogate, which "
                                                      "is no Unicode scalar value"}]}
    assert upstream.requests == []


# -- the document cache -----------------------------------------------------------------


@pytest.fixture
def parses(monkeypatch):
    """The query texts the service parses, in order."""
    seen = []
    parse = service_module.parse_query

    def counting(text):
        seen.append(text)
        return parse(text)

    monkeypatch.setattr(service_module, "parse_query", counting)
    return seen


def user_query(n: int, pad: int = 0) -> str:
    """A distinct valid query text, padded with a comment to pad UTF-8 bytes."""
    text = f'{{ user(id: "u1") {{ id }} }} # {n} '
    return text + "x" * (pad - len(text))


def test_a_text_is_cached_when_it_comes_a_second_time(canned_service, parses):
    service = GraphQLService(canned_service.wrapper, client=CannedClient({"id": "u1"}))
    for _ in range(3):
        assert service.handle_graphql({"query": user_query(0)})[0] == 200
    assert parses == [user_query(0)] * 2
    # The cache remembers at most DOCUMENT_CACHE_ENTRIES texts seen once.
    for n in range(1, DOCUMENT_CACHE_ENTRIES + 2):
        service.handle_graphql({"query": user_query(n)})
    assert len(service._seen_once) == DOCUMENT_CACHE_ENTRIES
    del parses[:]
    for n in (1, 1, 1, 3, 3):  # 1 was forgotten, and then 2 for 1; 3 is remembered
        assert service.handle_graphql({"query": user_query(n)})[0] == 200
    assert parses == [user_query(1)] * 2 + [user_query(3)]


def test_the_document_cache_evicts_the_least_recently_used_text_at_its_entry_bound(
        canned_service, parses):
    service = GraphQLService(canned_service.wrapper, client=CannedClient({"id": "u1"}))
    for n in range(DOCUMENT_CACHE_ENTRIES):
        for _ in range(2):
            assert service.handle_graphql({"query": user_query(n)})[0] == 200
    service.handle_graphql({"query": user_query(0)})  # now the most recently used
    for _ in range(2):
        service.handle_graphql({"query": user_query(DOCUMENT_CACHE_ENTRIES)})  # evicts 1
    del parses[:]
    for n in (0, 2, DOCUMENT_CACHE_ENTRIES, 1):
        assert service.handle_graphql({"query": user_query(n)})[0] == 200
    assert parses == [user_query(1)]


def test_the_document_cache_evicts_at_its_byte_bound(canned_service, parses):
    service = GraphQLService(canned_service.wrapper, client=CannedClient({"id": "u1"}))
    half = DOCUMENT_CACHE_BYTES // 2
    for n in (0, 0, 1, 1, 0):  # two halves fit
        service.handle_graphql({"query": user_query(n, half)})
    assert parses == [user_query(0, half)] * 2 + [user_query(1, half)] * 2
    for _ in range(2):
        service.handle_graphql({"query": user_query(2)})  # past the bound: 1, the older, goes
    del parses[:]
    for n, pad in ((0, half), (2, 0), (1, half)):
        assert service.handle_graphql({"query": user_query(n, pad)})[0] == 200
    assert parses == [user_query(1, half)]


def test_an_over_size_text_is_answered_but_never_cached(canned_service, parses):
    service = GraphQLService(canned_service.wrapper, client=CannedClient({"id": "u1"}))
    small, big = user_query(0), user_query(1, DOCUMENT_CACHE_BYTES + 1)
    for text in (small, small, big, big, big, small):
        assert service.handle_graphql({"query": text}) == (200, {"data": {"user": {"id": "u1"}}})
    assert parses == [small, small, big, big, big]


def test_one_cached_text_answers_each_variables_and_operation_name(upstream):
    upstream.route("GET", "/user/{id}", lambda req, params: {"id": params["id"], "name": "N"})
    service = GraphQLService(build_wrapper(upstream))
    text = ('query A($id: String!) { user(id: $id) { id } } '
            'query B($id: String = "b") { user(id: $id) { name id } }')
    answers = [service.handle_graphql({"query": text, "operationName": name,
                                       "variables": variables})
               for name, variables in (("A", {"id": "1"}), ("A", {"id": "2"}), ("B", None),
                                       ("B", {"id": "3"}), ("A", None), (None, {"id": "4"}))]
    assert answers[:4] == [(200, {"data": {"user": {"id": "1"}}}),
                           (200, {"data": {"user": {"id": "2"}}}),
                           (200, {"data": {"user": {"name": "N", "id": "b"}}}),
                           (200, {"data": {"user": {"name": "N", "id": "3"}}})]
    assert answers[4] == (400, {"errors": [{"message": "variable $id is non-null but was "
                                                       "not provided"}]})
    assert answers[5][0] == 400
    assert upstream.paths_seen == ["/user/1", "/user/2", "/user/b", "/user/3"]


def test_a_syntax_error_is_a_400_on_every_repeat_and_never_cached(canned_service, parses):
    for _ in range(3):
        status, body = canned_service.handle_graphql({"query": "{ user(id: }"})
        assert status == 400 and list(body) == ["errors"]
    assert parses == ["{ user(id: }"] * 3


def test_threads_sharing_the_caches_past_their_bounds_keep_them_consistent(canned_service):
    service = GraphQLService(canned_service.wrapper, client=CannedClient({"id": "u1"}))
    texts = [f"{{ user(id: \"u1\") {{ a{n}: id }} }}" for n in range(DOCUMENT_CACHE_ENTRIES + 64)]
    answers = {}

    def work(first):
        for n in range(first, len(texts), 8):
            for _ in range(2):
                answers.setdefault(n, []).append(service.handle_graphql({"query": texts[n]}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(first,)) for first in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(answers[n] == [(200, {"data": {"user": {f"a{n}": "u1"}}})] * 2
               for n in range(len(texts)))
    assert len(service._documents) == DOCUMENT_CACHE_ENTRIES
    assert service._document_bytes == sum(size for _, _, size in service._documents.values())
    assert len(service.executor._kernels) <= KERNEL_TABLE_ENTRIES


# Text, with lone surrogates among its characters, which the request decoder
# yields for JSON escapes such as "\ud800".
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner,
                                                               max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def canned_service():
    """The service of build_wrapper, whose every upstream call gets one user."""
    wrapper = build_wrapper(SimpleNamespace(base_url="http://127.0.0.1:9"))
    return GraphQLService(wrapper, client=CannedClient({"id": "u1", "name": "Uma"}))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(query_texts(),
       st.none() | st.fixed_dictionaries({"id": JSON_VALUES}) | JSON_VALUES
       | st.dictionaries(st.sampled_from(["id", "n", "s", "x"]), JSON_VALUES, max_size=3),
       st.none() | st.sampled_from(["Q", "M", "V", ""]) | JSON_VALUES)
def test_any_request_gets_a_spec_shaped_answer(canned_service, query, variables,
                                               operation_name):
    """handle_graphql answers any query text, variables and operationName with
    200 and data, or with 400 and one error message or more; it never raises."""
    status, body = canned_service.handle_graphql(
        {"query": query, "variables": variables, "operationName": operation_name})
    json.dumps(body, allow_nan=False)
    errors = body.get("errors", [])
    assert all(isinstance(error["message"], str) for error in errors)
    if status == 400:
        assert list(body) == ["errors"] and errors
    else:
        assert status == 200 and "data" in body
