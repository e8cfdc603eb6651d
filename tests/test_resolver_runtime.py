"""Resolve plans, runtime binding precedence, link expressions, auth
injection, response shaping, and the HTTP round trip."""

import base64
import gzip
import itertools
import json
import socket
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from conftest import CannedClient
from oaswrap import resolver_runtime
from oaswrap.engine import Executor, parse_query
from oaswrap.engine.execution import Scope
from oaswrap.errors import (
    ExpressionUnresolvable,
    MissingCredentials,
    MissingRequiredParameter,
    NetworkError,
    RequestTimeout,
    UpstreamError,
    UpstreamNotJson,
)
from oaswrap.generator import generate
from oaswrap.ir import NON_NULL
from oaswrap.resolver_runtime import (
    HttpClient,
    HttpRequestSpec,
    bind_runtime,
    eval_link_expression,
    inject_auth,
    parse_upstream_body,
    read_token,
    shape_response,
)
from oaswrap.schema_gen import parse_link_expression


def build(paths, components=None, servers=None):
    root = {
        "openapi": "3.0.0",
        "info": {"title": "T", "version": "1"},
        "servers": servers or [{"url": "https://api.example.com"}],
        "paths": paths,
    }
    if components:
        root["components"] = components
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    return wrapper


def get_path(schema, parameters=None, security=None):
    op = {"responses": {"200": {"description": "ok", "content": {
        "application/json": {"schema": schema}}}}}
    if parameters:
        op["parameters"] = parameters
    if security is not None:
        op["security"] = security
    return {"get": op}


# -- make_resolve_plan -----------------------------------------------------------


def test_plan_binds_design_time_information():
    wrapper = build({"/user/{id}": get_path(
        {"type": "object", "properties": {"id": {"type": "string"}}},
        parameters=[{"name": "id", "in": "path", "required": True,
                     "schema": {"type": "string"}}],
    )})
    plan = wrapper.plans["GET /user/{id}"]
    assert plan.method == "GET"
    assert plan.base_url == "https://api.example.com"
    assert plan.path == "/user/{id}"
    arg = plan.args["id"]
    assert arg.location == "path"
    assert arg.raw == "id"
    assert arg.type.kind == NON_NULL  # required


def test_plan_records_declared_default():
    wrapper = build({"/items": get_path(
        {"type": "string"},
        parameters=[{"name": "limit", "in": "query",
                     "schema": {"type": "integer", "default": 10}}],
    )})
    plan = wrapper.plans["GET /items"]
    assert plan.args["limit"].default == 10


def test_plan_payload_arg_named_after_input_type():
    wrapper = build(
        {"/users": {"post": {
            "requestBody": {"required": True, "content": {"application/json": {
                "schema": {"$ref": "#/components/schemas/User"}}}},
            "responses": {"201": {"description": "ok", "content": {"application/json": {
                "schema": {"$ref": "#/components/schemas/User"}}}}},
        }}},
        components={"schemas": {"User": {"type": "object", "properties": {
            "id": {"type": "string"}}}}},
    )
    plan = wrapper.plans["POST /users"]
    assert list(plan.args) == ["user"]
    assert plan.args["user"].location == "body"
    assert plan.args["user"].type.kind == NON_NULL  # required


def test_plan_sanitizes_argument_names():
    wrapper = build({"/q": get_path(
        {"type": "string"},
        parameters=[{"name": "page-size", "in": "query", "schema": {"type": "integer"}}],
    )})
    plan = wrapper.plans["GET /q"]
    assert "pageSize" in plan.args
    assert plan.args["pageSize"].raw == "page-size"


# -- bind_runtime -----------------------------------------------------------------


def make_plan_fixture(default=None, required=False):
    parameters = [{"name": "p", "in": "query", "schema": {"type": "string"}}]
    if default is not None:
        parameters[0]["schema"]["default"] = default
    if required:
        parameters[0]["required"] = True
    wrapper = build({"/op": get_path({"type": "string"}, parameters=parameters)})
    return wrapper, wrapper.plans["GET /op"]


def test_bind_path_substitution_and_escaping():
    wrapper = build({"/user/{id}": get_path(
        {"type": "object", "properties": {"id": {"type": "string"}}},
        parameters=[{"name": "id", "in": "path", "required": True,
                     "schema": {"type": "string"}}],
    )})
    plan = wrapper.plans["GET /user/{id}"]
    spec = bind_runtime(plan, {"id": "erik"}, None, None, {}, wrapper.schema.types)
    assert spec.url == "https://api.example.com/user/erik"
    spec = bind_runtime(plan, {"id": "a/b c"}, None, None, {}, wrapper.schema.types)
    assert spec.url.endswith("/user/a%2Fb%20c")


def test_bind_applies_default_when_absent():
    wrapper, plan = make_plan_fixture(default="10")
    spec = bind_runtime(plan, {}, None, None, {}, wrapper.schema.types)
    assert ("p", "10") in spec.query


def test_bind_missing_required_parameter_raises():
    wrapper, plan = make_plan_fixture(required=True)
    with pytest.raises(MissingRequiredParameter):
        bind_runtime(plan, {}, None, None, {}, wrapper.schema.types)


def test_bind_desanitizes_argument_names():
    wrapper = build({"/q": get_path(
        {"type": "string"},
        parameters=[{"name": "page-size", "in": "query", "schema": {"type": "integer"}}],
    )})
    plan = wrapper.plans["GET /q"]
    spec = bind_runtime(plan, {"pageSize": 5}, None, None, {}, wrapper.schema.types)
    assert spec.query == [("page-size", "5")]


def test_bind_desanitizes_body_keys_recursively():
    wrapper = build(
        {"/things": {"post": {
            "requestBody": {"required": True, "content": {"application/json": {
                "schema": {"type": "object", "properties": {
                    "$id": {"type": "integer"},
                    "nested": {"type": "object", "properties": {
                        "x-y": {"type": "string"}}},
                }}}}},
            "responses": {"201": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"ok": {"type": "boolean"}}}}}}},
        }}},
    )
    plan = wrapper.plans["POST /things"]
    payload = {"id": 1, "nested": {"xY": "v"}}
    [body] = [arg.name for arg in plan.args.values() if arg.location == "body"]
    spec = bind_runtime(plan, {body: payload}, None, None, {},
                        wrapper.schema.types)
    assert spec.body == {"$id": 1, "nested": {"x-y": "v"}}


class RecordingClient(CannedClient):
    def __init__(self, body):
        super().__init__(body)
        self.sent = []

    def send(self, spec):
        self.sent.append(spec)
        return super().send(spec)


def test_bind_desanitizes_enum_values_in_lists_too():
    status = {"type": "string", "enum": ["in-stock", "sold-out"]}
    wrapper = build({"/items": get_path(
        {"type": "object", "properties": {"n": {"type": "integer"}}},
        parameters=[{"name": "status", "in": "query",
                     "schema": {"type": "array", "items": status}},
                    {"name": "one", "in": "query", "schema": status}],
    )})
    client = RecordingClient({"n": 1})
    executor = Executor(wrapper.schema, wrapper.plans, client)
    query = "{ getItems(status: [inStock, soldOut], one: inStock) { n } }"
    result = executor.execute(parse_query(query), None, None)
    assert result.errors == [] and result.data == {"getItems": {"n": 1}}
    assert [spec.query for spec in client.sent] == [
        [("status", "in-stock"), ("status", "sold-out"), ("one", "in-stock")]]


def test_literal_and_variable_arguments_send_the_same_request():
    # Both go through the argument's type: the Float 5 is sent as 5.0 either way.
    wrapper = build({"/items": get_path(
        {"type": "object", "properties": {"n": {"type": "integer"}}},
        parameters=[{"name": "min", "in": "query", "schema": {"type": "number"}}],
    )})
    client = RecordingClient({"n": 1})
    executor = Executor(wrapper.schema, wrapper.plans, client)
    for query, variables in (("{ getItems(min: 5) { n } }", None),
                             ("query($m: Float) { getItems(min: $m) { n } }", {"m": 5})):
        result = executor.execute(parse_query(query), None, variables)
        assert result.errors == [] and result.data == {"getItems": {"n": 1}}
    assert [spec.query for spec in client.sent] == [[("min", "5.0")], [("min", "5.0")]]


def test_same_named_parameters_in_two_locations_are_two_arguments():
    # A path "id" and a query "id" each keep their own argument and type.
    wrapper = build({"/s/{id}": get_path(
        {"type": "object", "properties": {"n": {"type": "integer"}}},
        parameters=[{"name": "id", "in": "path", "required": True,
                     "schema": {"type": "integer"}},
                    {"name": "id", "in": "query",
                     "schema": {"type": "string", "enum": ["a-b", "c"]}}],
    )})
    assert "getSId(id: Int!, id2: IdInput)" in wrapper.sdl
    client = RecordingClient({"n": 1})
    executor = Executor(wrapper.schema, wrapper.plans, client)
    query = "{ getSId(id: 7, id2: aB) { n } }"
    result = executor.execute(parse_query(query), None, None)
    assert result.errors == [] and result.data == {"getSId": {"n": 1}}
    [spec] = client.sent
    assert (spec.url, spec.query) == ("https://api.example.com/s/7", [("id", "a-b")])

@pytest.mark.parametrize(
    "has_arg,has_link,has_used,has_default",
    list(itertools.product([True, False], repeat=4)),
)
def test_bind_precedence_total_order(has_arg, has_link, has_used, has_default):
    """Enumerates all 2^4 presence combinations of the four value sources."""
    wrapper, plan = make_plan_fixture(default="from_default" if has_default else None)
    args = {"p": "from_arg"} if has_arg else {}
    link_params = {"p": parse_link_expression("$response.body#/v")} if has_link else {}
    parent = {"v": "from_link"}
    used = {"p": "from_used"} if has_used else {}
    spec = bind_runtime(plan, args, parent, None, used, wrapper.schema.types,
                        link_params=link_params)
    sent = dict(spec.query)
    if has_arg:
        expected = "from_arg"
    elif has_link:
        expected = "from_link"
    elif has_used:
        expected = "from_used"
    elif has_default:
        expected = "from_default"
    else:
        assert "p" not in sent  # optional and absent everywhere: omitted
        return
    assert sent["p"] == expected


def linked_same_named_parameters(key):
    """GET /p links to GET /s/{id}, which has a path id and a query id."""
    link = {"operationId": "getS", "parameters": {key: "$response.body#/x"}}
    paths = {
        "/p": get_path({"type": "object", "properties": {"x": {"type": "integer"}}}),
        "/s/{id}": get_path(
            {"type": "object", "properties": {"n": {"type": "integer"}}},
            parameters=[{"name": "id", "in": "path", "required": True,
                         "schema": {"type": "integer"}},
                        {"name": "id", "in": "query",
                         "schema": {"type": "string", "enum": ["a-b", "c"]}}]),
    }
    paths["/p"]["get"]["responses"]["200"]["links"] = {"S": link}
    paths["/s/{id}"]["get"]["operationId"] = "getS"
    return build(paths)


def run_linked(wrapper, query):
    client = RecordingClient({"x": 5})
    result = Executor(wrapper.schema, wrapper.plans, client).execute(
        parse_query(query), None, None)
    assert result.errors == [] and result.data == {"getP": {"s": {"n": None}}}
    return [(spec.url, spec.query) for spec in client.sent]


@pytest.mark.parametrize("key", ["id", "path.id"])
def test_link_key_binds_one_of_two_same_named_parameters(key):
    # An unqualified key binds the first declared "id", the path one; the
    # query "id" stays on the link field.
    wrapper = linked_same_named_parameters(key)
    assert "s(id2: IdInput)" in wrapper.sdl
    assert run_linked(wrapper, "{ getP { s { n } } }") == [
        ("https://api.example.com/p", []), ("https://api.example.com/s/5", [])]


def test_link_key_qualified_by_query_binds_the_query_parameter():
    wrapper = linked_same_named_parameters("query.id")
    assert "s(id: Int!)" in wrapper.sdl
    assert run_linked(wrapper, "{ getP { s(id: 3) { n } } }") == [
        ("https://api.example.com/p", []), ("https://api.example.com/s/3", [("id", "5")])]


def test_propagated_parameter_prefers_the_path_value():
    # A parent that sent a path "id" and a query "id" passes the path value
    # on to a linked child's parameter "id".
    string = {"type": "string"}
    paths = {
        "/p/{id}": get_path({"type": "object", "properties": {"x": {"type": "integer"}}},
                            parameters=[{"name": "id", "in": "path", "required": True,
                                         "schema": string},
                                        {"name": "id", "in": "query", "schema": string}]),
        "/c": get_path({"type": "object", "properties": {"n": {"type": "integer"}}},
                       parameters=[{"name": "id", "in": "query", "required": True,
                                    "schema": string}]),
    }
    paths["/p/{id}"]["get"]["responses"]["200"]["links"] = {
        "C": {"operationId": "getC", "parameters": {}}}
    paths["/c"]["get"]["operationId"] = "getC"
    wrapper = build(paths)
    client = RecordingClient({"x": 5})
    result = Executor(wrapper.schema, wrapper.plans, client).execute(
        parse_query('{ getPId(id: "p", id2: "q") { c { n } } }'), None, None)
    assert result.errors == []
    assert [(spec.url, spec.query) for spec in client.sent] == [
        ("https://api.example.com/p/p", [("id", "q")]),
        ("https://api.example.com/c", [("id", "p")])]


def test_bind_propagated_parameter_matches_on_raw_name():
    wrapper = build({"/child": get_path(
        {"type": "string"},
        parameters=[{"name": "api-version", "in": "query", "required": True,
                     "schema": {"type": "string"}}],
    )})
    plan = wrapper.plans["GET /child"]
    spec = bind_runtime(plan, {}, None, None, {"api-version": "7"}, wrapper.schema.types)
    assert spec.query == [("api-version", "7")]


def test_bind_header_parameters():
    wrapper = build({"/h": get_path(
        {"type": "string"},
        parameters=[{"name": "X-Trace", "in": "header", "schema": {"type": "string"}}],
    )})
    plan = wrapper.plans["GET /h"]
    spec = bind_runtime(plan, {"XTrace": "t1"}, None, None, {}, wrapper.schema.types)
    assert spec.headers["X-Trace"] == "t1"


def test_list_path_and_header_arguments_are_sent_in_simple_style():
    # OAS 3.0's default style for path and header parameters joins the items
    # with commas; in a path each item is escaped on its own.
    strings = {"type": "array", "items": {"type": "string"}}
    wrapper = build({"/p/{ids}": get_path({"type": "string"}, parameters=[
        {"name": "ids", "in": "path", "required": True, "schema": strings},
        {"name": "X-Tags", "in": "header", "schema": strings}])})
    plan = wrapper.plans["GET /p/{ids}"]
    spec = bind_runtime(plan, {"ids": ["a", "b"], "XTags": ["t1", "t2"]}, None, None, {},
                        wrapper.schema.types)
    assert spec.url == "https://api.example.com/p/a,b"
    assert spec.headers == {"X-Tags": "t1,t2"}
    spec = bind_runtime(plan, {"ids": ["x/y", "c,d"]}, None, None, {}, wrapper.schema.types)
    assert spec.url == "https://api.example.com/p/x%2Fy,c%2Cd"


def test_object_arguments_are_sent_in_each_location_s_default_style(monkeypatch):
    # OAS 3.0's defaults: simple style joins names and values with commas in a
    # path or header, and exploded form style sends one query pair per property.
    record = {"type": "object", "properties": {"user-role": {"type": "string"},
                                               "age": {"type": "integer"}}}
    wrapper = build({"/p/{who}": get_path({"type": "string"}, parameters=[
        {"name": "who", "in": "path", "required": True, "schema": record},
        {"name": "filter", "in": "query", "schema": record},
        {"name": "X-Who", "in": "header", "schema": record}])})
    plan = wrapper.plans["GET /p/{who}"]
    value = {"userRole": "a/b", "age": 3}
    spec = bind_runtime(plan, {"who": value, "filter": value, "XWho": value}, None, None, {},
                        wrapper.schema.types)
    assert spec.url == "https://api.example.com/p/user-role,a%2Fb,age,3"
    assert spec.query == [("user-role", "a/b"), ("age", "3")]
    assert spec.headers == {"X-Who": "user-role,a/b,age,3"}
    sent = []
    monkeypatch.setattr(HttpClient, "_exchange",
                        lambda self, method, url, headers, body, spec: (
                            sent.append((url, headers)) or (200, {}, b"{}")))
    HttpClient().send(spec)
    assert sent[0][0] == "https://api.example.com/p/user-role,a%2Fb,age,3?user-role=a%2Fb&age=3"
    assert sent[0][1]["X-Who"] == "user-role,a/b,age,3"


def test_bind_records_sent_params_for_propagation():
    wrapper, plan = make_plan_fixture(default="d")
    spec = bind_runtime(plan, {"p": "x"}, None, None, {}, wrapper.schema.types)
    assert spec.sent == {"path": {}, "query": {"p": "x"}, "header": {}}
    assert Scope({}, {}, {}).after(spec.sent).used == {"p": "x"}


# -- link expressions: parsed at generation, evaluated at serving --------------------


def evaluate(text, parent_response, parent_request=None):
    return eval_link_expression(parse_link_expression(text), parent_response, parent_request)


def test_expression_body_pointer():
    payload = {"employerId": "ibm", "name": "erik"}
    assert evaluate("$response.body#/employerId", payload) == "ibm"


def test_expression_array_index():
    payload = {"languages": [{"language": "en", "confidence": 0.9}]}
    assert evaluate("$response.body#/languages/0/language", payload) == "en"
    with pytest.raises(ExpressionUnresolvable, match=r"index '3' out of range"):
        evaluate("$response.body#/languages/3", payload)
    with pytest.raises(ExpressionUnresolvable,
                       match="cannot descend into non-container value"):
        evaluate("$response.body#/languages/0/language/x", payload)


def test_expression_missing_key_unresolvable():
    with pytest.raises(ExpressionUnresolvable) as raised:
        evaluate("$response.body#/nope", {"x": 1})
    assert str(raised.value) == ("expression '$response.body#/nope': key 'nope' absent "
                                 "in upstream response")


def test_expression_request_path_and_query():
    record = {"path": {"id": "u1"}, "query": {"limit": 5}}
    assert evaluate("$request.path.id", None, record) == "u1"
    assert evaluate("$request.query.limit", None, record) == 5
    with pytest.raises(ExpressionUnresolvable) as raised:
        evaluate("$request.query.absent", None, record)
    assert str(raised.value) == ("expression '$request.query.absent': parent request "
                                 "sent no query parameter 'absent'")


def test_expression_unsupported_form():
    # attach_links skips a link with such an expression, so serving never sees one.
    for text in ("$response.header.Location", "$request.path.", "$request.body#/id", "$url"):
        assert parse_link_expression(text) is None


def test_expression_pointer_escapes():
    expr = parse_link_expression("$response.body#/a~1b/c~0d")
    assert (expr.source, expr.tokens) == ("body", ("a/b", "c~d"))
    assert eval_link_expression(expr, {"a/b": {"c~d": 3}}) == 3


def test_expression_pointer_empty_tokens():
    # RFC 6901: only the one leading "/" goes; "//a" is key "" and then key "a".
    expr = parse_link_expression("$response.body#//a")
    assert expr.tokens == ("", "a")
    assert eval_link_expression(expr, {"": {"a": 1}, "a": 2}) == 1


# -- inject_auth ------------------------------------------------------------------


SECURED = {
    "schemas": {"Thing": {"type": "object", "properties": {"v": {"type": "string"}}}},
    "securitySchemes": {
        "keyHeader": {"type": "apiKey", "name": "X-Api-Key", "in": "header"},
        "keyQuery": {"type": "apiKey", "name": "token", "in": "query"},
        "basicAuth": {"type": "http", "scheme": "basic"},
        "oauth": {"type": "oauth2", "flows": {}},
    },
}


def secured_plan(scheme):
    wrapper = build(
        {"/s": get_path({"$ref": "#/components/schemas/Thing"},
                        security=[{scheme: []}])},
        components=SECURED,
    )
    return wrapper.plans["GET /s"]


def spec_stub():
    return HttpRequestSpec(method="GET", url="https://api.example.com/s")


def test_inject_api_key_header():
    plan = secured_plan("keyHeader")
    spec = inject_auth(spec_stub(), plan, {"keyHeader": {"apiKey": "abc"}})
    assert spec.headers["X-Api-Key"] == "abc"


def test_inject_api_key_query_location():
    plan = secured_plan("keyQuery")
    spec = inject_auth(spec_stub(), plan, {"keyQuery": {"apiKey": "q1"}})
    assert ("token", "q1") in spec.query


def test_a_query_credential_replaces_a_query_parameter_of_exactly_its_name():
    wrapper = build({"/s": get_path({"type": "string"}, parameters=[
        {"name": "api_key", "in": "query", "schema": {"type": "string"}},
        {"name": "API_KEY", "in": "query", "schema": {"type": "string"}}],
        security=[{"keyQuery": []}])},
        components={"securitySchemes": {
            "keyQuery": {"type": "apiKey", "name": "api_key", "in": "query"}}})
    plan = wrapper.plans["GET /s"]
    names = {arg.raw: arg.name for arg in plan.args.values()}
    spec = bind_runtime(plan, {names["api_key"]: "Arg", names["API_KEY"]: "Other"}, None,
                        None, {}, wrapper.schema.types)
    spec = inject_auth(spec, plan, {"keyQuery": {"apiKey": "Cred"}})
    assert spec.query == [("API_KEY", "Other"), ("api_key", "Cred")]


def test_inject_basic_credentials():
    plan = secured_plan("basicAuth")
    spec = inject_auth(spec_stub(), plan, {"basicAuth": {"username": "u", "password": "p"}})
    expected = "Basic " + base64.b64encode(b"u:p").decode()
    assert spec.headers["Authorization"] == expected


def test_inject_bearer_token_from_context_store():
    plan = secured_plan("oauth")
    spec = inject_auth(spec_stub(), plan, {}, token="tok123")
    assert spec.headers["Authorization"] == "Bearer tok123"


def test_inject_missing_credentials_raises():
    plan = secured_plan("keyHeader")
    with pytest.raises(MissingCredentials):
        inject_auth(spec_stub(), plan, {})


def test_no_credential_in_url_path():
    plan = secured_plan("keyHeader")
    spec = inject_auth(spec_stub(), plan, {"keyHeader": {"apiKey": "SECRET"}})
    assert "SECRET" not in spec.url


def test_read_token_json_path_forms():
    store = {"a": {"b": [{"c": "deep"}]}, "top": "t"}
    assert read_token(store, "top") == "t"
    assert read_token(store, "a.b[0].c") == "deep"
    assert read_token(store, "a.missing") is None
    assert read_token(None, "a") is None


# -- upstream body handling -----------------------------------------------------------


def test_parse_upstream_non_2xx_is_error_with_excerpt():
    with pytest.raises(UpstreamError) as excinfo:
        parse_upstream_body(404, b'{"message": "nope"}', True)
    assert excinfo.value.status == 404
    assert "nope" in excinfo.value.excerpt


def test_parse_upstream_excerpt_truncated_at_1k():
    big = b"x" * 5000
    with pytest.raises(UpstreamError) as excinfo:
        parse_upstream_body(500, big, True)
    assert len(excinfo.value.excerpt) == 1024


def test_parse_upstream_not_json_structured_raises():
    with pytest.raises(UpstreamNotJson):
        parse_upstream_body(200, b"<html>hello</html>", True)


def test_parse_upstream_not_json_string_fallback_passes_text():
    assert parse_upstream_body(200, b"plain text", False) == "plain text"


def test_shape_response_keeps_structured_body():
    # Completion reads structured bodies by raw key; nothing is copied.
    for body in ({"$id": 1}, [{"x-y": 1}, {"x-y": 2}]):
        assert shape_response(body, True) is body


def serve_shaped(schema, body, query):
    """Serve one query over GET /t returning schema, whose upstream answers
    body; the body goes through shape_response and completion."""
    wrapper = build({"/t": get_path(schema)})
    assert shape_response(body, True) is body
    executor = Executor(wrapper.schema, wrapper.plans, CannedClient(body))
    return executor.execute(parse_query(query), None, None)


def test_shape_response_sanitizes_keys():
    # The raw key "$id" reaches the client as the sanitized field "id".
    schema = {"type": "object", "properties": {"$id": {"type": "integer"}}}
    result = serve_shaped(schema, {"$id": 1}, "{ getT { id } }")
    assert result.errors == []
    assert result.data == {"getT": {"id": 1}}


def test_shape_response_arrays_elementwise():
    schema = {"type": "array", "items": {"type": "object", "title": "Item",
                                         "properties": {"x-y": {"type": "integer"}}}}
    result = serve_shaped(schema, [{"x-y": 1}, {"x-y": 2}], "{ getT { xY } }")
    assert result.errors == []
    assert result.data == {"getT": [{"xY": 1}, {"xY": 2}]}


def test_shape_response_string_fallback_stringifies():
    shaped = shape_response({"a": 1}, False)
    assert shaped == '{"a": 1}'


# -- HttpClient.send against a live mock ----------------------------------------------


def test_execute_request_round_trip(upstream):
    upstream.static("GET", "/ping", {"pong": True})
    spec = HttpRequestSpec(method="GET", url=f"{upstream.base_url}/ping")
    status, headers, body = HttpClient(timeout=5).send(spec)
    assert status == 200
    assert json.loads(body) == {"pong": True}


def test_execute_request_sends_query_headers_body(upstream):
    seen = {}

    def handler(request, params):
        seen.update(query=request.query, header=request.headers.get("X-H"),
                    body=request.json())
        return {"ok": True}

    upstream.route("POST", "/submit", handler)
    spec = HttpRequestSpec(
        method="POST", url=f"{upstream.base_url}/submit",
        headers={"X-H": "v"}, query=[("a", "1")], body={"k": "v"},
        content_type="application/json",
    )
    HttpClient(timeout=5).send(spec)
    assert seen == {"query": {"a": "1"}, "header": "v", "body": {"k": "v"}}


def test_execute_request_form_encoding(upstream):
    seen = {}

    def handler(request, params):
        seen["body"] = request.body.decode()
        seen["ct"] = request.headers.get("Content-Type")
        return {"ok": True}

    upstream.route("POST", "/form", handler)
    spec = HttpRequestSpec(
        method="POST", url=f"{upstream.base_url}/form",
        body={"field-one": "x", "count": 2, "tags": ["a", "b c"], "meta": {"a": 1, "b": [2]}},
        content_type="application/x-www-form-urlencoded",
    )
    HttpClient(timeout=5).send(spec)
    assert seen["ct"].startswith("application/x-www-form-urlencoded")
    # A list field is exploded form style: one pair per item; an object field
    # is JSON text, the Encoding Object's default for an object.
    assert seen["body"] == ("field-one=x&count=2&tags=a&tags=b+c"
                            "&meta=%7B%22a%22%3A1%2C%22b%22%3A%5B2%5D%7D")


def test_execute_request_unreachable_host_is_network_error():
    spec = HttpRequestSpec(method="GET", url="http://127.0.0.1:1/nope")
    with pytest.raises(NetworkError):
        HttpClient(timeout=2).send(spec)


@pytest.mark.parametrize("url", ["/relative/path", "ftp://files.example.com/x"])
def test_execute_request_without_http_host_is_network_error(url):
    spec = HttpRequestSpec(method="GET", url=url, query=[("key", "s3cret")])
    with pytest.raises(NetworkError) as caught:
        HttpClient(timeout=2).send(spec)
    assert "s3cret" not in str(caught.value)


# -- HttpClient connection reuse and protocol handling ---------------------------------


class KeepAliveUpstream(ThreadingHTTPServer):
    """An HTTP/1.1 upstream that keeps connections open, counts the
    connections it accepts and records each request it reads. answer(handler)
    returns (status, headers, body), or None to close without answering; it
    may set handler.close_connection to close after answering."""

    daemon_threads = True

    def __init__(self, answer):
        self.answer = answer
        self.connections = 0
        self.seen = []  # (method, request target, headers, body)
        upstream = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 5

            def log_message(self, *args):
                pass

            def _handle(self):
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                upstream.seen.append((self.command, self.path, dict(self.headers), body))
                reply = upstream.answer(self)
                if reply is None:
                    self.close_connection = True
                    return
                status, headers, payload = reply
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST = do_CONNECT = _handle

        super().__init__(("127.0.0.1", 0), Handler)

    def get_request(self):
        self.connections += 1
        return super().get_request()

    @property
    def base_url(self):
        host, port = self.server_address
        return f"http://{host}:{port}"


@pytest.fixture
def keepalive():
    servers = []

    def start(answer=lambda handler: (200, {}, b'{"ok": true}')):
        server = KeepAliveUpstream(answer)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def client():
    client = HttpClient(timeout=5)
    yield client
    client.close()


def get(url, client, **fields):
    return client.send(HttpRequestSpec(method="GET", url=url, **fields))


def in_thread(fn):
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    return result[0]


def test_sends_from_two_threads_share_one_connection(keepalive, client):
    server = keepalive()
    for _ in range(2):
        status, _, body = in_thread(lambda: get(f"{server.base_url}/a", client))
        assert (status, json.loads(body)) == (200, {"ok": True})
    assert server.connections == 1
    assert len(server.seen) == 2


def closes_after_each_answer(handler):
    handler.close_connection = True  # without a Connection: close header
    return 200, {}, b'{"ok": true}'


def test_idle_socket_closed_by_upstream_is_replaced(keepalive, client):
    server = keepalive(closes_after_each_answer)
    for _ in range(3):
        assert get(f"{server.base_url}/a", client)[0] == 200
    assert server.connections == 3


@pytest.fixture
def blind_reuse(monkeypatch):
    """Make every pooled socket look idle, so a request meets the closed
    socket itself instead of being moved to a new connection beforehand."""
    monkeypatch.setattr(resolver_runtime, "select",
                        SimpleNamespace(select=lambda r, w, x, timeout: ([], [], [])))


def test_get_on_a_closed_reused_socket_is_retried_once(keepalive, blind_reuse, client):
    server = keepalive(closes_after_each_answer)
    get(f"{server.base_url}/a", client)
    assert get(f"{server.base_url}/a", client)[0] == 200
    assert server.connections == 2


def test_post_on_a_reused_socket_is_sent_at_most_once(keepalive, blind_reuse, client):
    def answer(handler):  # reads the POST, then drops the connection unanswered
        return None if handler.command == "POST" else (200, {}, b"{}")

    server = keepalive(answer)
    get(f"{server.base_url}/warm", client)
    with pytest.raises(NetworkError):
        client.send(HttpRequestSpec(method="POST", url=f"{server.base_url}/submit",
                                    body={"n": 1}))
    assert [seen[0] for seen in server.seen].count("POST") == 1


def test_get_follows_relative_redirect(keepalive, client):
    def answer(handler):
        if handler.path == "/old":
            return 302, {"Location": "../new/place?x=1"}, b""
        return 200, {}, json.dumps({"at": handler.path}).encode()

    server = keepalive(answer)
    status, _, body = get(f"{server.base_url}/old", client)
    assert (status, json.loads(body)) == (200, {"at": "/new/place?x=1"})


def test_post_303_becomes_get_without_body(keepalive, client):
    def answer(handler):
        if handler.command == "POST":
            return 303, {"Location": "/result"}, b""
        return 200, {}, b'{"done": true}'

    server = keepalive(answer)
    spec = HttpRequestSpec(method="POST", url=f"{server.base_url}/make", body={"n": 1},
                           content_type="application/json")
    assert client.send(spec)[0] == 200
    (post, _, _, sent), (get_, target, headers, body) = server.seen
    assert (post, sent, get_, target, body) == ("POST", b'{"n": 1}', "GET", "/result", b"")
    assert "Content-Type" not in headers


def test_redirect_to_another_host_drops_authorization(keepalive, client):
    def answer(handler):
        if handler.headers["Host"].startswith("127.0.0.1"):
            port = handler.server.server_address[1]
            return 302, {"Location": f"http://localhost:{port}/there"}, b""
        return 200, {}, b"{}"

    server = keepalive(answer)
    get(f"{server.base_url}/here", client,
        headers={"Authorization": "Bearer t", "X-Keep": "k"})
    first, second = (seen[2] for seen in server.seen)
    assert first["Authorization"] == "Bearer t"
    assert "Authorization" not in second and second["X-Keep"] == "k"


def test_redirect_to_another_host_drops_an_api_key_header(keepalive, client):
    there = keepalive()
    here = keepalive(lambda handler: (
        302, {"Location": f"http://localhost:{there.server_address[1]}/there"}, b""))
    spec = HttpRequestSpec(method="GET", url=f"{here.base_url}/here", headers={"X-Keep": "k"})
    client.send(inject_auth(spec, secured_plan("keyHeader"), {"keyHeader": {"apiKey": "secret"}}))
    assert here.seen[0][2]["X-Api-Key"] == "secret"
    [(_, target, headers, _)] = there.seen
    assert target == "/there" and "X-Api-Key" not in headers and headers["X-Keep"] == "k"


def test_redirect_loop_stops_after_the_cap(keepalive, client):
    server = keepalive(lambda handler: (302, {"Location": "/loop"}, b""))
    with pytest.raises(NetworkError, match="redirects"):
        get(f"{server.base_url}/loop", client)
    assert len(server.seen) == resolver_runtime.MAX_REDIRECTS + 1


def test_gzip_body_is_decoded_and_default_headers_sent(keepalive, client):
    payload = json.dumps({"items": list(range(50))}).encode()
    server = keepalive(lambda handler: (200, {"Content-Encoding": "gzip"},
                                        gzip.compress(payload)))
    status, _, body = get(f"{server.base_url}/z", client)
    assert body == payload
    headers = server.seen[0][2]
    assert headers["Accept"] == "*/*"
    assert headers["Accept-Encoding"] == "gzip, deflate"


def test_deflate_body_is_decoded(keepalive, client):
    server = keepalive(lambda handler: (200, {"Content-Encoding": "deflate"},
                                        zlib.compress(b'{"d": 1}')))
    assert get(f"{server.base_url}/z", client)[2] == b'{"d": 1}'


def test_list_query_argument_is_sent_as_repeated_pairs(keepalive, client):
    server = keepalive()
    wrapper = build({"/items": get_path(
        {"type": "object", "properties": {"ok": {"type": "boolean"}}},
        parameters=[{"name": "tag", "in": "query",
                     "schema": {"type": "array", "items": {"type": "string"}}}],
    )}, servers=[{"url": server.base_url}])
    executor = Executor(wrapper.schema, wrapper.plans, client)
    result = executor.execute(parse_query('{ getItems(tag: ["a b", "c&d"]) { ok } }'),
                              None, None)
    assert result.errors == [] and result.data == {"getItems": {"ok": True}}
    assert server.seen[0][1] == "/items?tag=a+b&tag=c%26d"


def test_http_1_0_upstream_answers_every_send(upstream, client):
    upstream.static("GET", "/ping", {"pong": True})
    for _ in range(2):
        status, _, body = get(f"{upstream.base_url}/ping", client)
        assert (status, json.loads(body)) == (200, {"pong": True})
    assert len(upstream.requests) == 2


@pytest.fixture
def proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY",
                 "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_http_proxy_from_the_environment_gets_absolute_urls(keepalive, proxy_env, client):
    proxy = keepalive()
    proxy_env.setenv("http_proxy", f"http://user:pw@127.0.0.1:{proxy.server_address[1]}")
    get("http://api.example.invalid:8080/things?id=1", client)
    method, target, headers, _ = proxy.seen[0]
    assert (method, target) == ("GET", "http://api.example.invalid:8080/things?id=1")
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


def test_no_proxy_host_is_reached_directly(keepalive, proxy_env, client):
    server = keepalive()
    proxy_env.setenv("http_proxy", "http://127.0.0.1:1")  # nothing listens there
    proxy_env.setenv("no_proxy", "127.0.0.1")
    assert get(f"{server.base_url}/a", client)[0] == 200


def test_https_through_a_proxy_opens_a_tunnel(keepalive, proxy_env, client):
    proxy = keepalive(lambda handler: (403, {}, b""))
    proxy_env.setenv("https_proxy", f"http://127.0.0.1:{proxy.server_address[1]}")
    with pytest.raises(NetworkError):
        get("https://api.example.invalid/things", client)
    assert proxy.seen[0][:2] == ("CONNECT", "api.example.invalid:443")


@pytest.mark.parametrize("host, dialled", [
    ("127.0.0.1", b"127.0.0.1"), ("::1", b"::1"), ("localhost", b"localhost"),
    ("api.example.com", b"api.example.com"), ("bücher.example", "bücher.example")])
def test_an_ascii_host_is_dialled_as_bytes_and_any_other_as_text(monkeypatch, host, dialled):
    addresses = []

    def create_connection(address, timeout):
        addresses.append(address)
        return socket.socket()

    monkeypatch.setattr(socket, "create_connection", create_connection)
    with resolver_runtime._open(host, 8080, time.monotonic() + 5):
        pass
    assert addresses == [(dialled, 8080)]


def test_slow_upstream_is_request_timeout(keepalive):
    def answer(handler):
        time.sleep(0.5)
        return 200, {}, b"{}"

    server = keepalive(answer)
    with pytest.raises(RequestTimeout):
        get(f"{server.base_url}/slow", HttpClient(timeout=0.1))


def test_oversize_body_is_a_field_error_and_its_connection_is_closed(keepalive, client,
                                                                     monkeypatch):
    monkeypatch.setattr(resolver_runtime, "MAX_UPSTREAM_BYTES", 64)

    def answer(handler):
        if handler.path == "/big":
            return 200, {}, json.dumps({"s": "x" * 100}).encode()
        if handler.path == "/bomb":
            return 200, {"Content-Encoding": "gzip"}, gzip.compress(b" " * 1000)
        return 200, {}, b'{"s": "ok"}'

    server = keepalive(answer)
    # Distinct shapes, so that each operation keeps its own root field name.
    wrapper = build({f"/{name}": get_path({"type": "object", "properties": {
                         "s": {"type": "string"}, name: {"type": "string"}}})
                     for name in ("big", "bomb", "small")},
                    servers=[{"url": server.base_url}])
    executor = Executor(wrapper.schema, wrapper.plans, client)

    def run(query):
        return executor.execute(parse_query(query), None, None)

    for name in ("Bomb", "Big"):  # too large once decoded; too large on the wire
        result = run(f"{{ get{name} {{ s }} }}")
        assert result.data == {f"get{name}": None}
        assert [error["message"] for error in result.errors] == [
            f"upstream response of GET /{name.lower()} exceeds 64 bytes"]
    assert server.connections == 1
    assert run("{ getSmall { s } }").data == {"getSmall": {"s": "ok"}}
    assert server.connections == 2  # a body cut short leaves its connection unusable


@pytest.fixture
def raw_upstream():
    """start(reply) runs a loopback upstream that reads each connection's
    first request head, calls reply(conn) to write whatever bytes it likes,
    and closes the connection; it counts the connections it accepts."""
    stop = threading.Event()
    listeners = []

    def start(reply):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        listeners.append(listener)
        server = SimpleNamespace(connections=0,
                                 url="http://127.0.0.1:%d" % listener.getsockname()[1])

        def answer(conn):
            with conn:
                head = b""
                try:
                    while b"\r\n\r\n" not in head and (chunk := conn.recv(4096)):
                        head += chunk
                    reply(conn)
                except OSError:  # the client gave up first
                    pass

        def accept():
            while not stop.is_set():
                try:
                    conn = listener.accept()[0]
                except TimeoutError:
                    continue
                except OSError:  # closed at the test's end
                    return
                server.connections += 1
                threading.Thread(target=answer, args=(conn,), daemon=True).start()

        threading.Thread(target=accept, daemon=True).start()
        return server

    yield start
    stop.set()
    for listener in listeners:
        listener.close()


def test_a_dripping_body_ends_at_the_request_deadline(raw_upstream):
    def drip(conn):  # each byte comes well inside the timeout
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 21\r\n\r\n")
        for byte in b'{"drip": "drip-drip"}':
            conn.sendall(bytes([byte]))
            time.sleep(0.2)

    server = raw_upstream(drip)
    start = time.monotonic()
    with pytest.raises(RequestTimeout):
        get(f"{server.url}/drip", HttpClient(timeout=0.5))
    assert time.monotonic() - start < 0.55
    assert server.connections == 1


def test_redirects_share_the_request_deadline(keepalive):
    def answer(handler):
        time.sleep(0.2)
        return 302, {"Location": "/again"}, b""

    server = keepalive(answer)
    start = time.monotonic()
    with pytest.raises(RequestTimeout):
        get(f"{server.base_url}/first", HttpClient(timeout=0.5))
    assert time.monotonic() - start < 0.55
    assert len(server.seen) <= 3


def test_interim_and_chunked_responses_are_read(raw_upstream):
    server = raw_upstream(lambda conn: conn.sendall(
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5;ext=1\r\n{\"a\":\r\n2\r\n 1\r\n1\r\n}\r\n0\r\nX-Trailer: t\r\n\r\n"))
    status, headers, body = get(f"{server.url}/c", HttpClient(timeout=5))
    assert (status, headers.get("TRANSFER-ENCODING"), json.loads(body)) == (
        200, "chunked", {"a": 1})


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 2000 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    b"HTTP/1.1 200 OK\r\n" + b"X-A: b\r\n" * 101 + b"\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",  # closed inside the body
    b"",  # closed before a response
])
def test_a_response_that_cannot_be_framed_is_a_network_error(raw_upstream, reply):
    server = raw_upstream(lambda conn: conn.sendall(reply))
    with pytest.raises(NetworkError):
        get(f"{server.url}/bad", HttpClient(timeout=5))


def test_a_header_value_that_would_end_its_line_is_refused_unsent(keepalive, client):
    server = keepalive()
    for fields in ({"headers": {"X-Who": "a\r\nX-Injected: 1"}},
                   {"query": [("key", "s3cret")], "url": f"{server.base_url}/a b"}):
        fields.setdefault("url", f"{server.base_url}/a")
        with pytest.raises(NetworkError) as caught:
            client.send(HttpRequestSpec(method="GET", **fields))
        assert "s3cret" not in str(caught.value)
    assert server.seen == []


def test_a_proxy_url_without_a_host_is_a_network_error(proxy_env, client):
    proxy_env.setenv("http_proxy", "http://:8080")
    with pytest.raises(NetworkError, match="names no host"):
        get("http://api.example.invalid/things", client)
