"""Resolve plans, runtime binding precedence, link expressions, auth
injection, response shaping, and the HTTP round trip."""

import base64
import itertools
import json

import pytest

from conftest import CannedClient
from oaswrap.engine import Executor, parse_query
from oaswrap.errors import (
    ExpressionUnresolvable,
    MissingCredentials,
    MissingRequiredParameter,
    NetworkError,
    UpstreamError,
    UpstreamNotJson,
)
from oaswrap.generator import GenerationOptions, generate
from oaswrap.preprocessing import NameTables
from oaswrap.resolver_runtime import (
    ExecutionContext,
    HttpRequestSpec,
    bind_runtime,
    eval_link_expression,
    execute_request,
    inject_auth,
    parse_upstream_body,
    read_token,
    shape_response,
)


def build(paths, components=None, servers=None, token_path=None):
    root = {
        "openapi": "3.0.0",
        "info": {"title": "T", "version": "1"},
        "servers": servers or [{"url": "https://api.example.com"}],
        "paths": paths,
    }
    if components:
        root["components"] = components
    wrapper = generate(json.dumps(root).encode(),
                       GenerationOptions(token_path=token_path))
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


EMPTY_CTX = ExecutionContext()


def tables(wrapper):
    return NameTables(wrapper.schema.types, wrapper.pre.sanmap)


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
    binding = plan.parameter_map["id"]
    assert binding.location == "path"
    assert binding.raw_name == "id"
    assert binding.required is True


def test_plan_records_declared_default():
    wrapper = build({"/items": get_path(
        {"type": "string"},
        parameters=[{"name": "limit", "in": "query",
                     "schema": {"type": "integer", "default": 10}}],
    )})
    plan = wrapper.plans["GET /items"]
    assert plan.parameter_map["limit"].default == 10


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
    assert plan.payload_arg == "user"
    assert plan.payload_required is True


def test_plan_sanitizes_argument_names():
    wrapper = build({"/q": get_path(
        {"type": "string"},
        parameters=[{"name": "page-size", "in": "query", "schema": {"type": "integer"}}],
    )})
    plan = wrapper.plans["GET /q"]
    assert "pageSize" in plan.parameter_map
    assert plan.parameter_map["pageSize"].raw_name == "page-size"


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
    spec = bind_runtime(plan, {"id": "erik"}, None, None, EMPTY_CTX, tables(wrapper))
    assert spec.url == "https://api.example.com/user/erik"
    spec = bind_runtime(plan, {"id": "a/b c"}, None, None, EMPTY_CTX, tables(wrapper))
    assert spec.url.endswith("/user/a%2Fb%20c")


def test_bind_applies_default_when_absent():
    wrapper, plan = make_plan_fixture(default="10")
    spec = bind_runtime(plan, {}, None, None, EMPTY_CTX, tables(wrapper))
    assert ("p", "10") in spec.query


def test_bind_missing_required_parameter_raises():
    wrapper, plan = make_plan_fixture(required=True)
    with pytest.raises(MissingRequiredParameter):
        bind_runtime(plan, {}, None, None, EMPTY_CTX, tables(wrapper))


def test_bind_desanitizes_argument_names():
    wrapper = build({"/q": get_path(
        {"type": "string"},
        parameters=[{"name": "page-size", "in": "query", "schema": {"type": "integer"}}],
    )})
    plan = wrapper.plans["GET /q"]
    spec = bind_runtime(plan, {"pageSize": 5}, None, None, EMPTY_CTX, tables(wrapper))
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
    spec = bind_runtime(plan, {plan.payload_arg: payload}, None, None, EMPTY_CTX,
                        tables(wrapper))
    assert spec.body == {"$id": 1, "nested": {"x-y": "v"}}


@pytest.mark.parametrize(
    "has_arg,has_link,has_used,has_default",
    list(itertools.product([True, False], repeat=4)),
)
def test_bind_precedence_total_order(has_arg, has_link, has_used, has_default):
    """Enumerates all 2^4 presence combinations of the four value sources."""
    wrapper, plan = make_plan_fixture(default="from_default" if has_default else None)
    args = {"p": "from_arg"} if has_arg else {}
    link_params = {"p": "$response.body#/v"} if has_link else {}
    parent = {"v": "from_link"}
    ctx = EMPTY_CTX.with_used_params({"p": "from_used"}) if has_used else EMPTY_CTX
    spec = bind_runtime(plan, args, parent, None, ctx, tables(wrapper),
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


def test_bind_propagated_parameter_matches_on_raw_name():
    wrapper = build({"/child": get_path(
        {"type": "string"},
        parameters=[{"name": "api-version", "in": "query", "required": True,
                     "schema": {"type": "string"}}],
    )})
    plan = wrapper.plans["GET /child"]
    ctx = EMPTY_CTX.with_used_params({"api-version": "7"})
    spec = bind_runtime(plan, {}, None, None, ctx, tables(wrapper))
    assert spec.query == [("api-version", "7")]


def test_bind_header_parameters():
    wrapper = build({"/h": get_path(
        {"type": "string"},
        parameters=[{"name": "X-Trace", "in": "header", "schema": {"type": "string"}}],
    )})
    plan = wrapper.plans["GET /h"]
    spec = bind_runtime(plan, {"XTrace": "t1"}, None, None, EMPTY_CTX, tables(wrapper))
    assert spec.headers["X-Trace"] == "t1"


def test_bind_records_sent_params_for_propagation():
    wrapper, plan = make_plan_fixture(default="d")
    spec = bind_runtime(plan, {"p": "x"}, None, None, EMPTY_CTX, tables(wrapper))
    assert spec.sent_params == {"p": "x"}


# -- eval_link_expression ------------------------------------------------------------


def test_expression_body_pointer():
    payload = {"employerId": "ibm", "name": "erik"}
    assert eval_link_expression("$response.body#/employerId", payload) == "ibm"


def test_expression_array_index():
    payload = {"languages": [{"language": "en", "confidence": 0.9}]}
    assert eval_link_expression("$response.body#/languages/0/language", payload) == "en"


def test_expression_missing_key_unresolvable():
    with pytest.raises(ExpressionUnresolvable):
        eval_link_expression("$response.body#/nope", {"x": 1})


def test_expression_request_path_and_query():
    record = {"path": {"id": "u1"}, "query": {"limit": 5}}
    assert eval_link_expression("$request.path.id", None, record) == "u1"
    assert eval_link_expression("$request.query.limit", None, record) == 5
    with pytest.raises(ExpressionUnresolvable):
        eval_link_expression("$request.query.absent", None, record)


def test_expression_unsupported_form():
    with pytest.raises(ExpressionUnresolvable):
        eval_link_expression("$response.header.Location", {})


def test_expression_pointer_escapes():
    assert eval_link_expression("$response.body#/a~1b", {"a/b": 3}) == 3


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


def secured_plan(scheme, token_path=None):
    wrapper = build(
        {"/s": get_path({"$ref": "#/components/schemas/Thing"},
                        security=[{scheme: []}])},
        components=SECURED,
        token_path=token_path,
    )
    return wrapper.plans["GET /s"]


def spec_stub():
    return HttpRequestSpec(method="GET", url="https://api.example.com/s")


def test_inject_api_key_header():
    plan = secured_plan("keyHeader")
    ctx = EMPTY_CTX.with_credentials({"keyHeader": {"apiKey": "abc"}})
    spec = inject_auth(spec_stub(), plan, ctx)
    assert spec.headers["X-Api-Key"] == "abc"


def test_inject_api_key_query_location():
    plan = secured_plan("keyQuery")
    ctx = EMPTY_CTX.with_credentials({"keyQuery": {"apiKey": "q1"}})
    spec = inject_auth(spec_stub(), plan, ctx)
    assert ("token", "q1") in spec.query


def test_inject_basic_credentials():
    plan = secured_plan("basicAuth")
    ctx = EMPTY_CTX.with_credentials({"basicAuth": {"username": "u", "password": "p"}})
    spec = inject_auth(spec_stub(), plan, ctx)
    expected = "Basic " + base64.b64encode(b"u:p").decode()
    assert spec.headers["Authorization"] == expected


def test_inject_bearer_token_from_context_store():
    plan = secured_plan("oauth", token_path="security.oauthToken")
    ctx = ExecutionContext(token_store={"security": {"oauthToken": "tok123"}})
    spec = inject_auth(spec_stub(), plan, ctx)
    assert spec.headers["Authorization"] == "Bearer tok123"


def test_inject_missing_credentials_raises():
    plan = secured_plan("keyHeader")
    with pytest.raises(MissingCredentials):
        inject_auth(spec_stub(), plan, EMPTY_CTX)


def test_no_credential_in_url_path():
    plan = secured_plan("keyHeader")
    ctx = EMPTY_CTX.with_credentials({"keyHeader": {"apiKey": "SECRET"}})
    spec = inject_auth(spec_stub(), plan, ctx)
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
    executor = Executor(wrapper.schema, wrapper.plans, wrapper.pre.sanmap,
                        CannedClient(body))
    return executor.execute(parse_query(query), None, None, EMPTY_CTX)


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


# -- execute_request against a live mock ----------------------------------------------


def test_execute_request_round_trip(upstream):
    upstream.static("GET", "/ping", {"pong": True})
    spec = HttpRequestSpec(method="GET", url=f"{upstream.base_url}/ping")
    status, headers, body = execute_request(spec, timeout=5)
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
    execute_request(spec, timeout=5)
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
        body={"field-one": "x", "count": 2},
        content_type="application/x-www-form-urlencoded",
    )
    execute_request(spec, timeout=5)
    assert seen["ct"].startswith("application/x-www-form-urlencoded")
    assert seen["body"] == "field-one=x&count=2"


def test_execute_request_unreachable_host_is_network_error():
    spec = HttpRequestSpec(method="GET", url="http://127.0.0.1:1/nope")
    with pytest.raises(NetworkError):
        execute_request(spec, timeout=2)
