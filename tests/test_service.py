"""GraphQL-over-HTTP service endpoints."""

import gc
import http.client
import json
import logging
import re
import select
import socket
import struct
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CannedClient, intermediates, query_texts
from oaswrap import service as service_module
from oaswrap.engine.execution import KERNEL_TABLE_ENTRIES
from oaswrap.generator import generate
from oaswrap.resolver_runtime import MAX_FAST_BRACKETS, HttpClient
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
    service = GraphQLService(wrapper, HttpClient(headers={"X-Static": "on"}))
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
    assert head.startswith(b"HTTP/1.1 400")
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
    assert head.startswith(b"HTTP/1.1 413")
    assert str(MAX_REQUEST_BYTES) in json.loads(body)["errors"][0]["message"]
    assert upstream.requests == []


def test_server_listen_backlog(upstream, monkeypatch):
    backlogs = []
    create_server = socket.create_server

    def recording(address, **options):
        backlogs.append(options.get("backlog"))
        return create_server(address, **options)

    monkeypatch.setattr(socket, "create_server", recording)
    server = make_server(GraphQLService(build_wrapper(upstream)))
    try:
        assert backlogs == [128]  # the backlog the listening socket gets
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


@pytest.mark.parametrize("static,query,name,expected", [
    ({"authorization": "Static"},
     '{ viewerBasicAuth(username: "u", password: "p") { getPrivate { v } } }',
     "Authorization", ["Basic dTpw"]),  # the viewer's credentials, base64 of "u:p"
    ({"x-trace": "static"}, '{ getTraced(XTrace: "t1") }', "X-Trace", ["t1"]),
    ({"user-agent": "static-agent"}, "{ getTraced }", "User-Agent", ["static-agent"]),
])
def test_a_request_header_replaces_a_static_header_and_a_static_header_a_default(
        upstream, static, query, name, expected):
    upstream.static("GET", "/private", {"v": "p"})
    upstream.static("GET", "/traced", "t")
    ok = {"200": {"description": "ok", "content": {"application/json": {"schema": {
        "type": "object", "properties": {"v": {"type": "string"}}}}}}}
    root = {
        "openapi": "3.0.0",
        "info": {"title": "Headers", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {
            "/private": {"get": {"security": [{"basicAuth": []}], "responses": ok}},
            "/traced": {"get": {"parameters": [{"name": "X-Trace", "in": "header",
                                                "schema": {"type": "string"}}],
                                "responses": {"200": {"description": "ok", "content": {
                                    "application/json": {"schema": {"type": "string"}}}}}}},
        },
        "components": {"securitySchemes": {"basicAuth": {"type": "http", "scheme": "basic"}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    status, payload = GraphQLService(wrapper, HttpClient(headers=static)).handle_graphql(
        {"query": query})
    assert status == 200 and "errors" not in payload, payload
    [sent] = upstream.requests
    assert sent.header_values(name) == expected


def test_a_credential_replaces_a_header_parameter_of_the_same_name_in_any_case(upstream):
    upstream.static("GET", "/p", {"v": "p"})
    root = {
        "openapi": "3.0.0",
        "info": {"title": "Headers", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {"/p": {"get": {
            "security": [{"b": []}],
            "parameters": [{"name": "authorization", "in": "header",
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"v": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {"b": {"type": "http", "scheme": "basic"}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    status, payload = GraphQLService(wrapper, HttpClient()).handle_graphql(
        {"query": '{ viewerB(username: "u", password: "p") { getP(authorization: "Arg") { v } } }'})
    assert status == 200 and "errors" not in payload, payload
    [sent] = upstream.requests
    assert [(k, v) for k, v in sent.header_lines if k.lower() == "authorization"] == [
        ("Authorization", "Basic dTpw")]


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


# -- the HTTP/1.1 edge -----------------------------------------------------------------


def connect(url):
    host, port = url.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=5)


def read_response(sock):
    """The status line with headers, and the body, of the next response on
    sock; what follows it stays unread."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        byte = sock.recv(1)
        assert byte, f"connection closed after {head!r}"
        head += byte
    length = int(re.search(rb"\r\ncontent-length: *(\d+)", head, re.IGNORECASE)[1])
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, f"connection closed after {len(body)} of {length} bytes"
        body += chunk
    return head[:-4], body


def closed(sock):
    """Whether the server has closed sock, within its timeout."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


GET_SDL = b"GET /sdl HTTP/1.1\r\nHost: x\r\n\r\n"


def graphql_request(query, extra=b""):
    body = json.dumps({"query": query}).encode()
    return (b"POST /graphql HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n%s\r\n" % (len(body), extra)), body


def test_two_requests_share_one_connection_and_pipelined_ones_are_answered_in_order(
        service_url):
    url, wrapper, _ = service_url
    head, body = graphql_request('{ user(id: "u1") { name } }')
    with connect(url) as sock:
        sock.sendall(GET_SDL)
        status, sdl = read_response(sock)
        assert status.startswith(b"HTTP/1.1 200 OK\r\n") and b"Connection" not in status
        assert sdl.decode() == wrapper.sdl
        sock.sendall(head + body)
        assert read_response(sock)[1] == b'{"data":{"user":{"name":"Uma"}}}'
        sock.sendall(head + body + GET_SDL + b"GET /nope HTTP/1.1\r\n\r\n")
        assert read_response(sock)[1] == b'{"data":{"user":{"name":"Uma"}}}'
        assert read_response(sock)[1].decode() == wrapper.sdl
        assert read_response(sock)[0].startswith(b"HTTP/1.1 404 ")


@pytest.mark.parametrize("request_head,stays_open", [
    (b"GET /sdl HTTP/1.0\r\n\r\n", False),
    (b"GET /sdl HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", False),
    (b"GET /sdl HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", True),
])
def test_http10_and_connection_close_end_in_a_close(service_url, request_head, stays_open):
    url, wrapper, _ = service_url
    with connect(url) as sock:
        sock.sendall(request_head)
        head, body = read_response(sock)
        assert head.startswith(b"HTTP/1.1 200 ") and body.decode() == wrapper.sdl
        if stays_open:
            assert b"\r\nConnection: keep-alive" in head
            sock.sendall(request_head)
            assert read_response(sock)[1].decode() == wrapper.sdl
        else:
            assert b"\r\nConnection: close" in head
            assert closed(sock)


def test_expect_100_continue_gets_an_interim_response_before_the_body_is_read(service_url):
    url, _, _ = service_url
    head, body = graphql_request('{ user(id: "u1") { name } }', b"Expect: 100-continue\r\n")
    with connect(url) as sock:
        sock.sendall(head)
        assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        head, body = read_response(sock)
    assert head.startswith(b"HTTP/1.1 200 ")
    assert body == b'{"data":{"user":{"name":"Uma"}}}'


def test_a_refused_body_gets_no_100_continue(service_url):
    url, _, _ = service_url
    with connect(url) as sock:
        sock.sendall(b"POST /graphql HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % (MAX_REQUEST_BYTES + 1))
        head, _ = read_response(sock)
        assert head.startswith(b"HTTP/1.1 413 ") and closed(sock)


SMUGGLED = b"GET /report HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize("request_head,status,message", [
    (b"POST /graphql HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED), 501, "Transfer-Encoding"),
    (b"POST /graphql HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
     b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501, "Transfer-Encoding"),
    (b"POST /graphql HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 30\r\n\r\n"
     b"{}", 400, "conflicting Content-Length"),
    (b"POST /graphql HTTP/1.1\r\nHost: x\r\nContent-Length: 2, 30\r\n\r\n{}", 400,
     "conflicting Content-Length"),
    (b"GET /sdl HTTP/1.1\r\nHost: x\r\nContent-Length : 30\r\n\r\n", 400, "malformed header"),
    (b"GET /sdl HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n", 400, "malformed header"),
    (b"GET /sdl\r\n\r\n", 400, "malformed request line"),
    (b"GET /sdl HTTP/2.0\r\n\r\n", 505, "HTTP/1.1"),
    (b"GET /sdl HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 16) + b"\r\n\r\n", 431, "exceeds"),
    (b"GET /" + b"a" * (1 << 16), 431, "exceeds"),
    (b"GET /sdl HTTP/1.1\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", 431, "header lines"),
])
def test_a_request_that_cannot_be_framed_is_refused_and_nothing_after_it_is_read(
        service_url, request_head, status, message):
    url, _, upstream = service_url
    with connect(url) as sock:
        sock.sendall(request_head + SMUGGLED)
        head, body = read_response(sock)
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close" in head
        assert message in json.loads(body)["errors"][0]["message"]
        assert closed(sock)
    assert upstream.requests == []


def test_a_head_at_the_bounds_is_served(service_url):
    url, wrapper, _ = service_url
    with connect(url) as sock:
        sock.sendall(b"GET /sdl HTTP/1.1\r\n" + b"X-A: b\r\n" * 99 + b"X-Pad: "
                     + b"a" * ((1 << 16) - 20 - 8 * 99 - 7) + b"\r\n\r\n")
        assert read_response(sock)[1].decode() == wrapper.sdl
        sock.sendall(b"\r\n" + GET_SDL)  # an empty line before a request line is skipped
        assert read_response(sock)[1].decode() == wrapper.sdl


@pytest.mark.parametrize("method", [b"PUT", b"DELETE", b"HEAD", b"OPTIONS", b"get"])
def test_another_method_is_a_json_405(service_url, method):
    url, wrapper, _ = service_url
    with connect(url) as sock:
        sock.sendall(method + b" /graphql HTTP/1.1\r\nHost: x\r\n\r\n")
        head, body = read_response(sock)
        assert head.startswith(b"HTTP/1.1 405 ") and b"\r\nAllow: GET, POST" in head
        assert json.loads(body) == {"errors": [{"message": f"method {method.decode()} is "
                                                           "not allowed"}]}
        sock.sendall(GET_SDL)  # the connection stays open
        assert read_response(sock)[1].decode() == wrapper.sdl


def test_a_body_sent_to_another_route_is_read_and_the_connection_kept(service_url):
    url, wrapper, upstream = service_url
    with connect(url) as sock:
        sock.sendall(b"POST /sdl HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(SMUGGLED), SMUGGLED) + GET_SDL)
        head, _ = read_response(sock)
        assert head.startswith(b"HTTP/1.1 404 ") and b"Connection" not in head
        assert read_response(sock)[1].decode() == wrapper.sdl  # not the report
    assert upstream.requests == []


@pytest.mark.parametrize("sent", [
    b"",  # idle
    b"GET /sdl HTTP/1.1\r\nHost",  # a head that stops
    b"POST /graphql HTTP/1.1\r\nContent-Length: 10\r\n\r\n{",  # a body that stops
])
def test_a_silent_client_is_dropped_at_its_deadline(service_url, monkeypatch, sent):
    monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.3)
    monkeypatch.setattr(service_module, "READ_DEADLINE_S", 0.3)
    url, _, upstream = service_url
    with connect(url) as sock:
        sock.sendall(sent)
        start = time.monotonic()
        assert closed(sock)
        assert 0.2 < time.monotonic() - start < 3
    assert upstream.requests == []


def test_a_slow_head_is_dropped_at_the_read_deadline_though_each_byte_comes_in_time(
        service_url, monkeypatch):
    monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(service_module, "READ_DEADLINE_S", 0.5)
    url, _, _ = service_url
    with connect(url) as sock:
        start = time.monotonic()
        for byte in b"GET /sdl HTTP/1.1\r\nHost: x\r\nX-Slow: " + b"a" * 100:
            if select.select([sock], [], [], 0.1)[0]:
                break
            sock.sendall(bytes([byte]))
        assert closed(sock)
        assert 0.4 < time.monotonic() - start < 2


def worker_threads():
    return sum(t.name.startswith("oaswrap-worker") for t in threading.enumerate())


def test_workers_bound_the_threads_whatever_the_connections(upstream, monkeypatch):
    monkeypatch.setattr(service_module, "WORKERS", 2)
    upstream.static("GET", "/user/{id}", {"id": "u1", "name": "Uma"})
    wrapper = build_wrapper(upstream)
    start = threading.active_count()  # threads of earlier tests may still end, none start
    server = make_server(GraphQLService(wrapper))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = "http://%s:%d" % server.server_address
    socks = [connect(url) for _ in range(4)]
    try:
        for sock in socks:
            sock.sendall(GET_SDL)
        # Four connections are answered on two workers: a kept connection
        # ends when another waits for a worker.
        for sock in socks:
            assert read_response(sock)[1].decode() == wrapper.sdl
            assert worker_threads() <= 2 and threading.active_count() <= start + 3
        assert all(closed(sock) for sock in socks[:2])
        # Shutting down ends the connections that the workers still hold.
        began = time.monotonic()
        server.shutdown()
        thread.join(5)
        assert not thread.is_alive() and time.monotonic() - began < 2
        assert worker_threads() == 0 and threading.active_count() <= start
        assert all(closed(sock) for sock in socks[2:])
    finally:
        for sock in socks:
            sock.close()
        server.server_close()


def test_a_connection_waiting_for_a_worker_is_answered_while_kept_ones_stay_busy(
        canned_service, monkeypatch):
    # Two clients each keep a connection and send a request every 50 ms, well
    # inside the idle timeout, on the only two workers.
    monkeypatch.setattr(service_module, "WORKERS", 2)
    answered = threading.Semaphore(0)
    stop = threading.Event()
    ended = []

    def busy(url):
        with connect(url) as sock:
            while not stop.is_set():
                try:
                    sock.sendall(GET_SDL)
                    head, _ = read_response(sock)
                except (AssertionError, OSError):  # ended while the request was sent
                    head = b"\r\nConnection: close"
                answered.release()
                if b"\r\nConnection: close" in head:
                    ended.append(sock)
                    return
                time.sleep(0.05)

    with serving(canned_service) as url:
        clients = [threading.Thread(target=busy, args=(url,)) for _ in range(2)]
        for client in clients:
            client.start()
        try:
            assert answered.acquire(timeout=5) and answered.acquire(timeout=5)
            began = time.monotonic()
            with connect(url) as sock:
                sock.sendall(GET_SDL)
                assert read_response(sock)[0].startswith(b"HTTP/1.1 200 ")
            assert time.monotonic() - began < 2  # not after IDLE_TIMEOUT_S (5 s)
            time.sleep(0.2)  # a busy client's next request finds its connection ended
        finally:
            stop.set()
            for client in clients:
                client.join(5)
    assert len(ended) >= 1


def test_shutdown_returns_within_its_grace_while_a_query_is_in_flight(
        canned_service, monkeypatch):
    monkeypatch.setattr(service_module, "SHUTDOWN_GRACE_S", 0.3)
    entered, release = threading.Event(), threading.Event()

    def blocked(payload):
        entered.set()
        release.wait(10)
        return 200, {"data": None}

    monkeypatch.setattr(canned_service, "handle_graphql", blocked)
    server = make_server(canned_service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    head, body = graphql_request("{ a }")
    try:
        with connect("http://%s:%d" % server.server_address) as sock:
            sock.sendall(head + body)
            assert entered.wait(5)
            began = time.monotonic()
            server.shutdown()
            thread.join(5)
            assert not thread.is_alive() and time.monotonic() - began < 2
            # The query in flight is still answered, and its worker then ends.
            release.set()
            head, body = read_response(sock)
            assert head.startswith(b"HTTP/1.1 200 ") and b"\r\nConnection: close" in head
            assert body == b'{"data":null}' and closed(sock)
    finally:
        release.set()
        server.server_close()
    for _ in range(100):
        if worker_threads() == 0:
            break
        time.sleep(0.02)
    assert worker_threads() == 0


def test_clients_outnumbering_the_workers_are_all_answered(canned_service, monkeypatch):
    # Eight clients share three workers, each client opening a connection per
    # request or keeping one, with thread switches as often as possible: a
    # worker lost from the idle stack would leave a client unanswered. A
    # keeping client opens a new connection when the server ends its own, and
    # sends again a request that the server ended before any answer, as
    # HTTP clients do on a kept connection.
    monkeypatch.setattr(service_module, "WORKERS", 3)
    server = make_server(canned_service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = "http://%s:%d" % server.server_address
    head, body = graphql_request('{ user(id: "u1") { name } }')
    answers = []

    def client(keep):
        sock = None
        for _ in range(10):
            while True:
                sock = sock or connect(url)
                try:
                    sock.sendall(head + body)
                    status, answer = read_response(sock)
                    break
                except AssertionError as exc:  # closed before any answer
                    assert keep and str(exc).startswith("connection closed after b''")
                except ConnectionResetError:
                    assert keep
                sock.close()
                sock = None
            answers.append(answer)
            if not keep or b"\r\nConnection: close" in status:
                sock.close()
                sock = None
        if sock:
            sock.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client, args=(n % 2 == 0,)) for n in range(8)]
        for c in clients:
            c.start()
        for c in clients:
            c.join(60)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not any(c.is_alive() for c in clients) and not thread.is_alive()
    assert answers == [b'{"data":{"user":{"name":"Uma"}}}'] * 80
    assert not server._waiting and not server._idle and not server._threads


def test_a_client_that_hangs_up_mid_response_leaves_one_debug_record(
        canned_service, monkeypatch, caplog, capsys):
    answer = threading.Event()
    big = {"data": {"user": {"name": "x" * (4 << 20)}}}

    def blocked(payload):
        answer.wait(5)
        return 200, big

    monkeypatch.setattr(canned_service, "handle_graphql", blocked)
    head, body = graphql_request("{ a }")
    with caplog.at_level(logging.DEBUG, logger="oaswrap.service"):
        with serving(canned_service) as url:
            sock = connect(url)
            sock.sendall(head + body)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset, not a close after the response
            answer.set()
            for _ in range(100):
                if any(r.name == "oaswrap.service" for r in caplog.records):
                    break
                time.sleep(0.05)
            with connect(url) as again:  # and the worker serves on
                again.sendall(GET_SDL)
                assert read_response(again)[0].startswith(b"HTTP/1.1 200 ")
    [record] = [r for r in caplog.records if r.name == "oaswrap.service"
                and r.getMessage() != "GET /sdl -> 200"]
    assert record.levelno == logging.DEBUG and "connection lost" in record.getMessage()
    assert record.exc_info is None
    assert "Traceback" not in capsys.readouterr().err


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
    assert service._documents.get(user_query(0)) is not None
    # The cache remembers at most DOCUMENT_CACHE_ENTRIES texts seen once, and
    # keeps none of them.
    for n in range(1, DOCUMENT_CACHE_ENTRIES + 2):
        service.handle_graphql({"query": user_query(n)})
    assert len(service._documents._once) == DOCUMENT_CACHE_ENTRIES
    assert len(service._documents._values) == 1
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
    for cache, entries in ((service._documents, DOCUMENT_CACHE_ENTRIES),
                           (service.executor._kernels, KERNEL_TABLE_ENTRIES)):
        assert cache._weights.keys() == cache._values.keys()
        assert cache.weight == sum(cache._weights.values())
        assert len(cache._values) <= entries and len(cache._once) <= entries
        assert cache.weight <= cache.max_weight
    assert len(service._documents._values) == DOCUMENT_CACHE_ENTRIES


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


# -- what the server keeps ----------------------------------------------------------------


def linked_resources_document(count: int) -> bytes:
    """count resources, each with a get (linked to the next resource), a list
    and a create operation over one record schema."""
    paths, schemas = {}, {}
    for i in range(count):
        name, following = f"R{i}", f"R{(i + 1) % count}"
        schemas[name] = {"type": "object", "required": ["id"], "properties": {
            "id": {"type": "string"}, "title_text": {"type": "string"},
            "count": {"type": "integer"}, "rate": {"type": "number"},
            "state": {"type": "string", "enum": ["open", "closed"]},
            "tags": {"type": "array", "items": {"type": "string"}},
            "next_id": {"type": "string"},
            "meta": {"type": "object", "properties": {
                "created_at": {"type": "string"}, "owner": {"type": "string"}}}}}
        record = {"$ref": f"#/components/schemas/{name}"}
        paths[f"/r{i}/{{id}}"] = {"get": {
            "operationId": f"get{name}",
            "parameters": [{"name": "id", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok",
                                  "content": {"application/json": {"schema": record}},
                                  "links": {f"Next{following}": {
                                      "operationId": f"get{following}",
                                      "parameters": {"id": "$response.body#/next_id"}}}}}}}
        paths[f"/r{i}"] = {
            "get": {"operationId": f"list{name}", "responses": {"200": {
                "description": "ok", "content": {"application/json": {
                    "schema": {"type": "array", "items": record}}}}}},
            "post": {"operationId": f"create{name}",
                     "requestBody": {"required": True, "content": {
                         "application/json": {"schema": record}}},
                     "responses": {"201": {"description": "created", "content": {
                         "application/json": {"schema": record}}}}}}
    return json.dumps({"openapi": "3.0.3", "info": {"title": "Linked", "version": "1"},
                       "servers": [{"url": "https://x.example.com"}], "paths": paths,
                       "components": {"schemas": schemas}}).encode()


def retained_bytes(build) -> tuple[object, int]:
    """What build() returns, and the bytes still allocated after it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_the_wrapper_retains_less_than_the_document_and_preprocessing_behind_it():
    # A served wrapper holds the schema, the plans, the SDL and the report;
    # the parsed document and the preprocessing result are not among them.
    data = linked_resources_document(200)
    assert generate(data).ok  # module-level memos are warm for both measurements
    wrapper, wrapper_bytes = retained_bytes(lambda: generate(data))
    assert wrapper.ok and len(wrapper.plans) == 600
    (doc, pre), pipeline_bytes = retained_bytes(lambda: intermediates(data))
    assert doc is not None and pre is not None
    assert wrapper_bytes < pipeline_bytes, (wrapper_bytes, pipeline_bytes)
