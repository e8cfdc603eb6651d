"""GraphQL engine: parsing, printing, validation, coercion, and execution."""

import json

import pytest

from conftest import CannedClient
from oaswrap.engine import (
    Executor,
    coerce_variables,
    parse_query,
    print_query,
    validate_query,
)
from oaswrap.engine.execution import RequestFailed
from oaswrap.errors import CoercionError, GraphQLSyntaxError
from oaswrap.generator import generate
from oaswrap.resolver_runtime import ExecutionContext, HttpClient

FIG2_QUERY = """
query {
  user(id: "erik") {
    name
    employerCompany {
      companyName
    }
  }
}
"""


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


def get_path(schema, parameters=None, links=None, operation_id=None):
    response = {"description": "ok", "content": {"application/json": {"schema": schema}}}
    if links:
        response["links"] = links
    op = {"responses": {"200": response}}
    if parameters:
        op["parameters"] = parameters
    if operation_id:
        op["operationId"] = operation_id
    return {"get": op}


LINKED_PATHS = {
    "/user/{id}": get_path(
        {"$ref": "#/components/schemas/User"},
        parameters=[{"name": "id", "in": "path", "required": True,
                     "schema": {"type": "string"}}],
        links={"EmployerCompany": {
            "operationId": "getCompanyById",
            "parameters": {"companyName": "$response.body#/employerId"},
        }},
        operation_id="getUserById",
    ),
    "/company/{companyName}": get_path(
        {"$ref": "#/components/schemas/Company"},
        parameters=[{"name": "companyName", "in": "path", "required": True,
                     "schema": {"type": "string"}}],
        operation_id="getCompanyById",
    ),
}

LINKED_COMPONENTS = {"schemas": {
    "User": {"type": "object", "properties": {
        "id": {"type": "string"}, "name": {"type": "string"},
        "employerId": {"type": "string"}}},
    "Company": {"type": "object", "properties": {
        "companyName": {"type": "string"}, "city": {"type": "string"}}},
}}


def linked_wrapper(upstream):
    return build(LINKED_PATHS, LINKED_COMPONENTS, servers=[{"url": upstream.base_url}])


def executor_for(wrapper, max_parallel=8):
    return Executor(wrapper.schema, wrapper.plans, wrapper.pre.sanmap,
                    HttpClient(timeout=5), max_parallel=max_parallel)


# -- parse_query -------------------------------------------------------------------


def test_parse_nested_link_query():
    doc = parse_query(FIG2_QUERY)
    op = doc.operations[0]
    assert op.kind == "query"
    user = op.selection_set[0]
    assert user.name == "user"
    assert user.arguments["id"].value == "erik"
    nested = [s.name for s in user.selection_set]
    assert nested == ["name", "employerCompany"]
    company = user.selection_set[1]
    assert [s.name for s in company.selection_set] == ["companyName"]


def test_parse_empty_selection_is_syntax_error():
    with pytest.raises(GraphQLSyntaxError):
        parse_query("{}")


def test_parse_alias():
    doc = parse_query('{ u: user(id: "x") { id } }')
    field = doc.operations[0].selection_set[0]
    assert field.alias == "u"
    assert field.name == "user"
    assert field.response_key == "u"


def test_parse_rejects_subscription():
    with pytest.raises(GraphQLSyntaxError):
        parse_query("subscription { tick }")


def test_parse_variables_fragments_inline():
    doc = parse_query("""
        query Q($id: String!, $n: Int = 3) {
          user(id: $id) { ...userBits ... on User { name } }
        }
        fragment userBits on User { id }
    """)
    op = doc.operations[0]
    assert [d.name for d in op.variable_definitions] == ["id", "n"]
    assert str(op.variable_definitions[0].type) == "String!"
    assert "userBits" in doc.fragments


def test_parse_values():
    doc = parse_query('{ f(a: [1, 2.5, "s", true, null, ENUMV], o: {k: 1}) }')
    args = doc.operations[0].selection_set[0].arguments
    kinds = [v.kind for v in args["a"].values]
    assert kinds == ["int", "float", "string", "boolean", "null", "enum"]
    assert args["o"].fields["k"].value == 1


def test_parse_print_round_trip_fixed_point():
    corpus = [
        FIG2_QUERY,
        '{ u: user(id: "x") { id } }',
        'query Q($id: String!) { user(id: $id) { id name } }',
        'mutation M { createUser(user: {id: "a", tags: [1, 2]}) { id } }',
        'query { a { ...f } }\nfragment f on A { x y }',
    ]
    for text in corpus:
        once = print_query(parse_query(text))
        twice = print_query(parse_query(once))
        assert once == twice


def test_syntax_error_carries_position():
    with pytest.raises(GraphQLSyntaxError) as excinfo:
        parse_query("{ user(id: }")
    assert excinfo.value.line == 1
    assert excinfo.value.column > 0


# -- validate_query --------------------------------------------------------------


def schema_for_validation():
    wrapper = build(LINKED_PATHS, LINKED_COMPONENTS)
    return wrapper.schema


def test_fig2_query_validates_cleanly():
    schema = schema_for_validation()
    assert validate_query(parse_query(FIG2_QUERY), schema) == []


def test_unknown_field_names_the_type():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ userx { id } }'), schema)
    assert len(errors) == 1
    assert "userx" in errors[0] and "Query" in errors[0]


def test_missing_required_argument():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ user { id } }"), schema)
    assert any("required argument" in e and "id" in e for e in errors)


def test_leaf_with_selection_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ user(id: "x") { name { x } } }'), schema)
    assert any("leaf" in e for e in errors)


def test_composite_without_selection_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ user(id: "x") }'), schema)
    assert any("selection set" in e for e in errors)


def test_argument_type_mismatch():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ user(id: 5) { id } }"), schema)
    assert any("expects String" in e for e in errors)


def test_undeclared_variable_usage():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ user(id: $who) { id } }"), schema)
    assert any("$who" in e and "not declared" in e for e in errors)


def test_unused_variable_rejected():
    schema = schema_for_validation()
    errors = validate_query(
        parse_query('query Q($x: String!) { user(id: "a") { id } }'), schema)
    assert any("never used" in e for e in errors)


def test_variable_type_compatibility():
    schema = schema_for_validation()
    ok = validate_query(parse_query("query Q($i: String!) { user(id: $i) { id } }"), schema)
    assert ok == []
    bad = validate_query(parse_query("query Q($i: Int!) { user(id: $i) { id } }"), schema)
    assert any("not compatible" in e for e in bad)


def test_directives_rejected():
    schema = schema_for_validation()
    errors = validate_query(
        parse_query('{ user(id: "x") @include(if: true) { id } }'), schema)
    assert any("directive" in e for e in errors)


def test_introspection_rejected_with_sdl_pointer():
    schema = schema_for_validation()
    errors = validate_query(parse_query("{ __schema { types { name } } }"), schema)
    assert any("SDL" in e for e in errors)


def test_fragment_cycle_rejected():
    schema = schema_for_validation()
    text = """
        { user(id: "x") { ...a } }
        fragment a on User { ...b }
        fragment b on User { ...a }
    """
    errors = validate_query(parse_query(text), schema)
    assert any("spreads itself" in e for e in errors)


def test_undefined_fragment_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query('{ user(id: "x") { ...nope } }'), schema)
    assert any("never defined" in e for e in errors)


def test_mutation_on_query_only_schema_rejected():
    schema = schema_for_validation()
    errors = validate_query(parse_query("mutation { anything }"), schema)
    assert any("no mutations" in e for e in errors)


def test_enum_argument_literal_checked():
    wrapper = build({"/sorted": get_path(
        {"type": "string"},
        parameters=[{"name": "order", "in": "query",
                     "schema": {"type": "string", "enum": ["asc", "desc"]}}],
    )})
    ok = validate_query(parse_query("{ getSorted(order: asc) }"), wrapper.schema)
    assert ok == []
    bad = validate_query(parse_query("{ getSorted(order: sideways) }"), wrapper.schema)
    assert any("expects enum" in e for e in bad)
    also_bad = validate_query(parse_query('{ getSorted(order: "asc") }'), wrapper.schema)
    assert any("expects enum" in e for e in also_bad)


# -- coerce_variables ---------------------------------------------------------------


def defs_of(text):
    return parse_query(text).operations[0].variable_definitions


def test_coerce_int_passthrough():
    schema = schema_for_validation()
    defs = defs_of("query Q($n: Int) { user(id: $n) { id } }")
    assert coerce_variables(defs, {"n": 3}, schema) == {"n": 3}


def test_coerce_int_for_float_accepted():
    schema = schema_for_validation()
    defs = defs_of("query Q($x: Float) { user(id: $x) { id } }")
    assert coerce_variables(defs, {"x": 3}, schema) == {"x": 3.0}


def test_coerce_missing_non_null_rejected():
    schema = schema_for_validation()
    defs = defs_of("query Q($s: String!) { user(id: $s) { id } }")
    with pytest.raises(CoercionError):
        coerce_variables(defs, {}, schema)


def test_coerce_default_applied():
    schema = schema_for_validation()
    defs = defs_of('query Q($s: String = "dft") { user(id: $s) { id } }')
    assert coerce_variables(defs, {}, schema) == {"s": "dft"}


def test_coerce_enum_variable():
    wrapper = build({"/sorted": get_path(
        {"type": "string"},
        parameters=[{"name": "order", "in": "query",
                     "schema": {"type": "string", "enum": ["asc", "desc"]}}],
    )})
    enum_name = next(n for n, t in wrapper.schema.types.items() if t.kind == "Enum")
    defs = defs_of(f"query Q($o: {enum_name}) {{ getSorted(order: $o) }}")
    assert coerce_variables(defs, {"o": "asc"}, wrapper.schema) == {"o": "asc"}
    with pytest.raises(CoercionError):
        coerce_variables(defs, {"o": "bad"}, wrapper.schema)


def test_coerce_int_range_checked():
    schema = schema_for_validation()
    defs = defs_of("query Q($n: Int) { user(id: $n) { id } }")
    with pytest.raises(CoercionError):
        coerce_variables(defs, {"n": 2**31}, schema)


def test_coerce_undeclared_variable_rejected():
    schema = schema_for_validation()
    defs = defs_of('query Q($n: Int) { user(id: "x") { id } }')
    with pytest.raises(CoercionError):
        coerce_variables(defs, {"m": 1}, schema)


# -- execute -------------------------------------------------------------------------


def run(wrapper, query, variables=None, operation_name=None, ctx=None, max_parallel=8):
    doc = parse_query(query)
    errors = validate_query(doc, wrapper.schema)
    assert errors == [], errors
    executor = executor_for(wrapper, max_parallel)
    return executor.execute(doc, operation_name, variables, ctx or ExecutionContext())


def test_execute_fig2_composition(upstream):
    upstream.static("GET", "/user/{id}",
                    {"id": "erik", "name": "Erik", "employerId": "ibm"})
    upstream.static("GET", "/company/{companyName}",
                    {"companyName": "International Business Machines", "city": "Armonk"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, FIG2_QUERY)
    assert result.errors == []
    assert result.data == {"user": {
        "name": "Erik",
        "employerCompany": {"companyName": "International Business Machines"},
    }}
    assert upstream.paths_seen == ["/user/erik", "/company/ibm"]


def test_execute_projection_drops_unrequested_fields(upstream):
    upstream.static("GET", "/user/{id}",
                    {"id": "erik", "name": "Erik", "employerId": "ibm"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ user(id: "erik") { id } }')
    assert result.data == {"user": {"id": "erik"}}


def test_execute_alias_shapes_response(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ me: user(id: "x") { id } }')
    assert result.data == {"me": {"id": "x"}}


def test_execute_upstream_error_yields_null_and_error_path(upstream):
    upstream.route("GET", "/user/{id}", lambda req, p: (404, {"message": "nope"}))
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ user(id: "ghost") { id } }')
    assert result.data == {"user": None}
    assert len(result.errors) == 1
    assert result.errors[0]["path"] == ["user"]
    assert "404" in result.errors[0]["message"]


def test_execute_expression_unresolvable_gives_null_link_field(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N"})  # no employerId
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ user(id: "x") { name employerCompany { companyName } } }')
    assert result.data == {"user": {"name": "N", "employerCompany": None}}
    assert result.errors and result.errors[0]["path"] == ["user", "employerCompany"]


def test_execute_unknown_operation_name_is_request_error(upstream):
    wrapper = linked_wrapper(upstream)
    doc = parse_query('query A { user(id: "x") { id } }')
    with pytest.raises(RequestFailed):
        executor_for(wrapper).execute(doc, "B", None, ExecutionContext())


def test_execute_deterministic_repeat(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    upstream.static("GET", "/company/{companyName}", {"companyName": "C", "city": "Y"})
    wrapper = linked_wrapper(upstream)
    results = [run(wrapper, FIG2_QUERY).data for _ in range(3)]
    assert results[0] == results[1] == results[2]


def test_execute_list_completion(upstream):
    upstream.static("GET", "/users", [{"id": "a"}, {"id": "b"}])
    wrapper = build(
        {"/users": get_path({"type": "array",
                             "items": {"$ref": "#/components/schemas/User"}})},
        {"schemas": {"User": {"type": "object", "properties": {"id": {"type": "string"}}}}},
        servers=[{"url": upstream.base_url}],
    )
    result = run(wrapper, "{ getUsers { id } }")
    assert result.data == {"getUsers": [{"id": "a"}, {"id": "b"}]}


def test_execute_fragments_and_variables(upstream):
    upstream.static("GET", "/user/{id}", {"id": "v1", "name": "Via", "employerId": "e"})
    wrapper = linked_wrapper(upstream)
    query = """
        query Q($who: String!) { user(id: $who) { ...bits } }
        fragment bits on User { id name }
    """
    result = run(wrapper, query, variables={"who": "v1"})
    assert result.data == {"user": {"id": "v1", "name": "Via"}}


def test_execute_sibling_concurrency_bounded(upstream):
    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    wrapper = linked_wrapper(upstream)
    query = '{ a: user(id: "1") { id } b: user(id: "2") { id } c: user(id: "3") { id } }'
    result = run(wrapper, query, max_parallel=2)
    assert set(result.data) == {"a", "b", "c"}
    assert sorted(upstream.paths_seen) == ["/user/1", "/user/2", "/user/3"]


def test_execute_enum_output_mapped(upstream):
    upstream.static("GET", "/items", {"sort": "asc"})
    wrapper = build({"/items": get_path({"type": "object", "properties": {
        "sort": {"type": "string", "enum": ["asc", "desc"]}}})},
        servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getItems { sort } }")
    assert result.data == {"getItems": {"sort": "asc"}}


def test_execute_string_fallback_stringifies(upstream):
    upstream.static("GET", "/blob", {"anything": [1, 2]})
    wrapper = build({"/blob": get_path({})}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getBlob }")
    assert result.errors == []
    assert json.loads(result.data["getBlob"]) == {"anything": [1, 2]}


def test_execute_int_overflow_surfaces_float(upstream):
    upstream.static("GET", "/big", {"n": 2**40})
    wrapper = build({"/big": get_path({"type": "object", "properties": {
        "n": {"type": "integer"}}})}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getBig { n } }")
    assert result.data == {"getBig": {"n": float(2**40)}}


def test_execute_any_auth_viewer_credential_groups(upstream):
    def check_key(request, params):
        assert request.headers.get("X-Api-Key") == "k-1"
        return {"v": "a"}

    def check_basic(request, params):
        assert request.headers.get("Authorization", "").startswith("Basic ")
        return {"v": "b"}

    upstream.route("GET", "/a", check_key)
    upstream.route("GET", "/b", check_basic)
    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {
            "/a": {"get": {"security": [{"key1": []}],
                           "responses": {"200": {"description": "ok", "content": {
                               "application/json": {"schema": {
                                   "$ref": "#/components/schemas/Thing"}}}}}}},
            "/b": {"get": {"security": [{"basicAuth": []}],
                           "responses": {"200": {"description": "ok", "content": {
                               "application/json": {"schema": {
                                   "$ref": "#/components/schemas/Thing"}}}}}}},
        },
        "components": {
            "schemas": {"Thing": {"type": "object",
                                  "properties": {"v": {"type": "string"}}}},
            "securitySchemes": {
                "key1": {"type": "apiKey", "name": "X-Api-Key", "in": "header"},
                "basicAuth": {"type": "http", "scheme": "basic"},
            },
        },
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    query = """
    {
      viewerAnyAuth(
        key1: {apiKey: "k-1"}
        basicAuth: {username: "u", password: "p"}
      ) {
        a: thing { v }
        b: thing2 { v }
      }
    }
    """
    result = run(wrapper, query)
    assert result.errors == []
    assert result.data == {"viewerAnyAuth": {"a": {"v": "a"}, "b": {"v": "b"}}}


def test_execute_mutation_root_fields_serial_in_order(upstream):
    upstream.static("POST", "/jobs", {"id": "j"})
    wrapper = build({"/jobs": {"post": {
        "operationId": "createJob",
        "responses": {"201": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
    }}}, servers=[{"url": upstream.base_url}])
    field = next(iter(wrapper.schema.mutation_fields))
    result = run(wrapper, "mutation { one: %s { id } two: %s { id } }" % (field, field))
    assert result.errors == []
    assert list(result.data) == ["one", "two"]
    assert upstream.paths_seen == ["/jobs", "/jobs"]


def test_execute_mutation_viewer_fields_serial_in_order():
    import time

    aliases = ["one", "two", "three"]

    class SlowFirstPost(HttpClient):
        """Answers every POST itself; the first alias's POST arrives late."""

        def __init__(self):
            super().__init__(timeout=5)
            self.tags: list[str] = []

        def send(self, spec):
            tag = spec.query_values["tag"]
            if tag == aliases[0]:
                time.sleep(0.2)
            self.tags.append(tag)
            return 201, {}, json.dumps({"id": tag}).encode()

    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://api.example.com"}],
        "paths": {"/jobs": {"post": {
            "operationId": "createJob",
            "security": [{"basicAuth": []}],
            "parameters": [{"name": "tag", "in": "query", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"201": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {"basicAuth": {"type": "http", "scheme": "basic"}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok, wrapper.report.error_message
    creates = " ".join('%s: postJobs(tag: "%s") { id }' % (a, a) for a in aliases)
    doc = parse_query('mutation { mutationViewerBasicAuth(username: "u", password: "p") '
                      '{ %s } }' % creates)
    assert validate_query(doc, wrapper.schema) == []
    client = SlowFirstPost()
    executor = Executor(wrapper.schema, wrapper.plans, wrapper.pre.sanmap, client)
    result = executor.execute(doc, None, None, ExecutionContext())
    assert result.errors == []
    assert client.tags == aliases
    assert list(result.data["mutationViewerBasicAuth"]) == aliases


def test_response_shape_matches_query_shape(upstream):
    upstream.static("GET", "/user/{id}",
                    {"id": "x", "name": "N", "employerId": "e", "extra": "ignored"})
    wrapper = linked_wrapper(upstream)
    result = run(wrapper, '{ renamed: user(id: "x") { theId: id name } }')
    assert result.data == {"renamed": {"theId": "x", "name": "N"}}


def test_no_credentials_in_default_verbosity_logs(upstream, caplog):
    import logging

    upstream.static("GET", "/user/{id}", {"id": "x", "name": "N", "employerId": "e"})
    root = {
        "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {"/user/{id}": {"get": {
            "security": [{"key1": []}],
            "parameters": [{"name": "id", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {
            "key1": {"type": "apiKey", "name": "X-Api-Key", "in": "query"}}},
    }
    wrapper = generate(json.dumps(root).encode())
    assert wrapper.ok
    with caplog.at_level(logging.WARNING):
        result = run(wrapper,
                     '{ viewerKey1(apiKey: "TOPSECRET") { getUserId(id: "x") { id } } }')
    assert result.errors == []
    for record in caplog.records:
        assert "TOPSECRET" not in record.getMessage()
    spec_urls = [r.path for r in upstream.requests]
    assert all("TOPSECRET" not in p for p in spec_urls)  # key went to query string only


def test_non_null_field_error_bubbles_to_parent(upstream):
    upstream.static("GET", "/must", {"other": "x"})  # required "id" absent
    wrapper = build({"/must": get_path({
        "type": "object", "required": ["id"],
        "properties": {"id": {"type": "string"}, "other": {"type": "string"}},
    })}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ getMust { id other } }")
    assert result.data == {"getMust": None}
    assert any("non-null" in e["message"] for e in result.errors)
    assert result.errors[0]["path"] == ["getMust", "id"]


def test_schema_debug_dump_is_json(upstream):
    wrapper = linked_wrapper(upstream)
    payload = json.loads(wrapper.schema.debug_dump())
    assert "query" in payload and "types" in payload
    assert payload["query"]["user"]["type"] == "User"


def test_execute_placeholder_resolves_null(upstream):
    wrapper = build({"/jobs": {"post": {
        "responses": {"201": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
    }}}, servers=[{"url": upstream.base_url}])
    result = run(wrapper, "{ placeholder }")
    assert result.data == {"placeholder": None}
    assert result.errors == []


# -- completion from raw upstream JSON ---------------------------------------------------


def test_list_item_links_resolve_against_each_item(upstream):
    users = [{"id": "a", "employerId": "ibm"}, {"id": "b", "employerId": "sap"},
             {"id": "c", "employerId": "ibm"}]
    cities = {"ibm": "Armonk", "sap": "Walldorf"}
    upstream.static("GET", "/users", users)
    upstream.static("GET", "/user/{id}", users[1])
    upstream.route("GET", "/company/{companyName}",
                   lambda req, p: {"companyName": p["companyName"],
                                   "city": cities[p["companyName"]]})
    paths = dict(LINKED_PATHS, **{"/users": get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/User"}})})
    wrapper = build(paths, LINKED_COMPONENTS, servers=[{"url": upstream.base_url}])

    result = run(wrapper, "{ getUsers { id employerCompany { city } } }")
    assert result.errors == []
    assert result.data == {"getUsers": [
        {"id": "a", "employerCompany": {"city": "Armonk"}},
        {"id": "b", "employerCompany": {"city": "Walldorf"}},
        {"id": "c", "employerCompany": {"city": "Armonk"}},
    ]}
    assert upstream.paths_seen == ["/users", "/company/ibm", "/company/sap", "/company/ibm"]

    result = run(wrapper, '{ user(id: "b") { employerCompany { city } } }')
    assert result.errors == []
    assert result.data == {"user": {"employerCompany": {"city": "Walldorf"}}}


def colliding_wrapper(base_url):
    """A{aB, a_b, child: B{a_b}}: A.a_b is aB2 while B.a_b is aB."""
    def response(schema):
        return {"200": {"description": "ok", "content": {"application/json": {
            "schema": schema}}}}

    a_ref = {"$ref": "#/components/schemas/A"}
    return build(
        {"/a": {
            "get": {"responses": response(a_ref)},
            "post": {"requestBody": {"required": True, "content": {
                         "application/json": {"schema": a_ref}}},
                     "responses": response({"type": "object", "properties": {
                         "ok": {"type": "boolean"}}})},
        }},
        {"schemas": {
            "A": {"type": "object", "properties": {
                "aB": {"type": "string"}, "a_b": {"type": "string"},
                "child": {"$ref": "#/components/schemas/B"}}},
            "B": {"type": "object", "properties": {"a_b": {"type": "string"}}},
        }},
        servers=[{"url": base_url}],
    )


def test_nested_key_is_not_renamed_by_ancestor_mapping(upstream):
    upstream.static("GET", "/a", {"aB": "TOP", "a_b": "UNDER", "child": {"a_b": "CHILD"}})
    wrapper = colliding_wrapper(upstream.base_url)
    result = run(wrapper, "{ a { aB aB2 child { aB } } }")
    assert result.errors == []
    assert result.data == {"a": {"aB": "TOP", "aB2": "UNDER", "child": {"aB": "CHILD"}}}


def test_nested_payload_key_is_not_renamed_by_ancestor_mapping(upstream):
    upstream.static("POST", "/a", {"ok": True})
    wrapper = colliding_wrapper(upstream.base_url)
    result = run(wrapper, 'mutation { postA(a: {aB: "TOP", aB2: "UNDER", '
                          'child: {aB: "CHILD"}}) { ok } }')
    assert result.errors == []
    assert upstream.requests[0].json() == {"aB": "TOP", "a_b": "UNDER",
                                           "child": {"a_b": "CHILD"}}


ITEM_COMPONENTS = {"schemas": {
    "Item": {"type": "object", "required": ["id"], "properties": {
        "id": {"type": "string"}, "n": {"type": "integer"},
        "sort": {"type": "string", "enum": ["up-down", "flat"]},
        "tags": {"type": "array", "items": {"type": "string"}},
        "box": {"type": "object", "properties": {"w-d": {"type": "integer"}}}}},
}}

ITEMS = [
    {"id": "i0", "n": 7, "sort": "up-down", "tags": ["a"], "box": {"w-d": 1}},
    {"n": 8, "sort": "flat"},  # required id absent: the item bubbles to null
    {"id": "i2", "n": "12", "sort": "sideways", "tags": [3, None]},  # Int as string, bad enum
    {"id": "i3", "n": 2**40, "box": {"w-d": "x"}},  # Int overflow, Int as string in a child
]


def execute_items(query, monkeypatch=None, general=False):
    """Complete a query over ITEMS, optionally with every leaf forced
    through the general path."""
    wrapper = build({"/items": get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/Item"}})}, ITEM_COMPONENTS)
    if general:
        monkeypatch.setattr(Executor, "_is_leaf", lambda self, field_ir: False)
    doc = parse_query(query)
    assert validate_query(doc, wrapper.schema) == []
    executor = Executor(wrapper.schema, wrapper.plans, wrapper.pre.sanmap, CannedClient(ITEMS))
    return executor.execute(doc, None, None, ExecutionContext()).to_payload()


ITEMS_QUERY = """
{ getItems { k: id n ...F sort tags box { wD } id } }
fragment F on Item { n k: id }
"""


def test_leaf_path_matches_general_path_on_list_items(monkeypatch):
    leaf = execute_items(ITEMS_QUERY)
    general = execute_items(ITEMS_QUERY, monkeypatch, general=True)
    assert leaf == general
    assert leaf["data"] == {"getItems": [
        {"k": "i0", "n": 7, "sort": "upDown", "tags": ["a"], "box": {"wD": 1}, "id": "i0"},
        None,
        {"k": "i2", "n": None, "sort": None, "tags": ["3", None], "box": None, "id": "i2"},
        {"k": "i3", "n": float(2**40), "sort": None, "tags": None, "box": {"wD": None},
         "id": "i3"},
    ]}
    assert [(e["message"], e["path"]) for e in leaf["errors"]] == [
        ("field 'k' of non-null type resolved to null", ["getItems", 1, "k"]),
        ("field 'id' of non-null type resolved to null", ["getItems", 1, "id"]),
        ("upstream value '12' is not an Int", ["getItems", 2, "n"]),
        ("upstream value 'sideways' is not a value of enum Sort", ["getItems", 2, "sort"]),
        ("upstream value 'x' is not an Int", ["getItems", 3, "box", "wD"]),
    ]
    assert all(e["locations"] for e in leaf["errors"])


def test_selection_sets_compile_once_per_query(monkeypatch):
    calls = []
    collect = Executor._collect_fields

    def counting(self, selections, parent_type, doc):
        calls.append(parent_type.name)
        return collect(self, selections, parent_type, doc)

    monkeypatch.setattr(Executor, "_collect_fields", counting)
    items = [{"id": f"i{n}", "n": n, "box": {"w-d": n}} for n in range(200)]
    wrapper = build({"/items": get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/Item"}})}, ITEM_COMPONENTS)
    executor = Executor(wrapper.schema, wrapper.plans, wrapper.pre.sanmap, CannedClient(items))
    doc = parse_query("{ getItems { id n box { wD } } }")
    for _ in range(2):
        result = executor.execute(doc, None, None, ExecutionContext())
        assert result.errors == [] and len(result.data["getItems"]) == 200
    # The root, item and box selection sets: once each per query.
    assert sorted(calls) == sorted(["Query", "Item", "Box"] * 2)
