"""Type translation, link attachment, viewers, schema assembly, SDL printing."""

import json
import re
from collections import namedtuple

import pytest

from conftest import CORPUS_DIR, CannedClient, load_manifest, schema_from_sdl
from oaswrap.engine import Executor, parse_query, validate_query
from oaswrap.generator import GenerationOptions, generate
from oaswrap.ir import ENUM, INPUT_OBJECT, LIST, OBJECT, REFERENCE, resolve_type, type_str
from oaswrap.schema_gen import print_sdl

NAME_RE = re.compile(r"^[_A-Za-z][_0-9A-Za-z]*$")


def build(paths, components=None, strict=False, title="T"):
    root = {
        "openapi": "3.0.0",
        "info": {"title": title, "version": "1"},
        "servers": [{"url": "https://x.example.com"}],
        "paths": paths,
    }
    if components:
        root["components"] = components
    return generate(json.dumps(root).encode(), GenerationOptions(strict=strict),
                    source_name="<inline>")


def get_path(schema, parameters=None, security=None, links=None, operation_id=None):
    response = {"description": "ok",
                "content": {"application/json": {"schema": schema}}}
    if links:
        response["links"] = links
    op = {"responses": {"200": response}}
    if parameters:
        op["parameters"] = parameters
    if security is not None:
        op["security"] = security
    if operation_id:
        op["operationId"] = operation_id
    return {"get": op}


# -- named types ---------------------------------------------------------------


def test_enum_translation():
    wrapper = build(get_path({"type": "object", "properties": {
        "sort": {"type": "string", "enum": ["asc", "desc"]}}}) and {
        "/items": get_path({"type": "object", "properties": {
            "sort": {"type": "string", "enum": ["asc", "desc"]}}})})
    assert wrapper.ok
    enums = [t for t in wrapper.schema.types.values() if t.kind == ENUM]
    assert len(enums) == 1
    assert list(enums[0].enum_values) == ["asc", "desc"]


def test_paper_user_example_shape():
    # The background example: user object with string id/name and a nested
    # address object; required wraps in NonNull.
    wrapper = build({"/user": get_path({
        "type": "object",
        "required": ["id"],
        "properties": {
            "id": {"type": "string"},
            "name": {"type": "string"},
            "address": {"type": "object", "properties": {
                "street": {"type": "string"}, "city": {"type": "string"}}},
        },
    })})
    assert wrapper.ok
    user = next(t for n, t in wrapper.schema.types.items() if n == "getUser")
    assert user.kind == OBJECT
    assert type_str(user.fields["id"].type) == "String!"
    assert type_str(user.fields["name"].type) == "String"
    assert type_str(user.fields["address"].type) == "Address"
    address = wrapper.schema.types["Address"]
    assert type_str(address.fields["city"].type) == "String"


def test_unknown_type_falls_back_to_string_with_warning():
    wrapper = build({"/dl": get_path({"type": "file"})})
    assert wrapper.ok
    assert [w.kind for w in wrapper.report.warnings] == ["UnknownSchemaType"]
    field = wrapper.schema.query_fields["getDl"]
    assert type_str(field.type) == "String"


def test_untyped_schema_strict_errors_non_strict_strings():
    paths = {"/blob": get_path({})}
    non_strict = build(paths)
    assert non_strict.ok
    assert [w.kind for w in non_strict.report.warnings] == ["InvalidSchemaType"]
    assert type_str(non_strict.schema.query_fields["getBlob"].type) == "String"

    strict = build(paths, strict=True)
    assert not strict.ok
    assert strict.report.error_kind == "InvalidSchemaType"


def test_composed_response_lends_no_type_to_an_equal_object():
    # Structural equality ignores oneOf, but the oneOf response falls back to
    # String, so the equal plain object below gets a type of its own.
    shape = {"type": "object", "properties": {"a": {"type": "integer"}}}
    wrapper = build({
        "/c": get_path({**shape, "oneOf": [{"type": "object"}]}),
        "/p": get_path({"type": "object", "properties": {"x": shape}}),
    })
    assert [w.kind for w in wrapper.report.warnings] == ["UnsupportedFeature"]
    assert type_str(wrapper.schema.query_fields["getC"].type) == "String"
    assert type_str(wrapper.schema.types["getP"].fields["x"].type) == "X"
    assert type_str(wrapper.schema.types["X"].fields["a"].type) == "Int"
    assert "getC" not in wrapper.schema.types


def test_boolean_enum_is_sanitation_error_in_both_modes():
    paths = {"/flags": get_path({
        "type": "object",
        "properties": {"flag": {"type": "string", "enum": [True, False]}},
    })}
    for strict in (False, True):
        wrapper = build(paths, strict=strict)
        assert not wrapper.ok
        assert wrapper.report.error_kind == "SanitationError"


def test_unsanitizable_parameter_name_fails_during_preprocessing():
    paths = {"/s": get_path({"type": "string"}, parameters=[
        {"name": "$$", "in": "query", "schema": {"type": "string"}}])}
    for strict in (False, True):
        wrapper = build(paths, strict=strict)
        assert not wrapper.ok
        assert wrapper.report.error_kind == "SanitationError"
        assert wrapper.report.stats.operations_total == 0  # preprocessing never finished


def test_scalar_mappings():
    wrapper = build({"/n": get_path({"type": "object", "properties": {
        "i": {"type": "integer"}, "f": {"type": "number"},
        "s": {"type": "string"}, "b": {"type": "boolean"},
    }})})
    fields = wrapper.schema.types["getN"].fields
    assert type_str(fields["i"].type) == "Int"
    assert type_str(fields["f"].type) == "Float"
    assert type_str(fields["s"].type) == "String"
    assert type_str(fields["b"].type) == "Boolean"


def test_array_response_becomes_list():
    wrapper = build(
        {"/all": get_path({"type": "array",
                           "items": {"$ref": "#/components/schemas/User"}})},
        components={"schemas": {"User": {"type": "object", "properties": {
            "id": {"type": "string"}}}}},
    )
    assert type_str(wrapper.schema.query_fields["getAll"].type) == "[User]"


def test_cyclic_schema_produces_finite_ir_and_sdl():
    wrapper = build(
        {"/me": get_path({"$ref": "#/components/schemas/Node"})},
        components={"schemas": {"Node": {"type": "object", "properties": {
            "label": {"type": "string"},
            "children": {"type": "array", "items": {"$ref": "#/components/schemas/Node"}},
        }}}},
    )
    assert wrapper.ok
    node = wrapper.schema.types["Node"]
    children = node.fields["children"].type
    assert children.kind == LIST and children.of_type.kind == REFERENCE
    assert "type Node" in wrapper.sdl  # printing terminated


def test_descriptions_carried_onto_types_and_fields():
    wrapper = build({"/d": get_path({
        "type": "object", "description": "A thing.",
        "properties": {"v": {"type": "string", "description": "Its value."}},
    })})
    type_ir = wrapper.schema.types["getD"]
    assert type_ir.description == "A thing."
    assert type_ir.fields["v"].description == "Its value."


# -- GET/mutation partition and argument typing ----------------------------------


def test_get_becomes_query_and_post_becomes_mutation():
    wrapper = build({
        "/users/{id}": {
            "get": {
                "parameters": [{"name": "id", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": {"200": {"description": "ok", "content": {
                    "application/json": {"schema": {"$ref": "#/components/schemas/User"}}}}},
            },
        },
        "/users": {
            "post": {
                "requestBody": {"required": True, "content": {"application/json": {
                    "schema": {"$ref": "#/components/schemas/User"}}}},
                "responses": {"201": {"description": "ok", "content": {
                    "application/json": {"schema": {"$ref": "#/components/schemas/User"}}}}},
            },
        },
    }, components={"schemas": {"User": {"type": "object", "properties": {
        "id": {"type": "string"}}}}})
    assert list(wrapper.schema.query_fields) == ["user"]
    assert list(wrapper.schema.mutation_fields) == ["user"]
    mutation = wrapper.schema.mutation_fields["user"]
    assert type_str(mutation.args["user"].type) == "UserInput!"


def test_only_posts_yield_empty_query_placeholder():
    wrapper = build({"/jobs": {"post": {
        "responses": {"201": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
    }}})
    assert wrapper.ok
    assert list(wrapper.schema.query_fields) == ["placeholder"]
    placeholder = wrapper.schema.query_fields["placeholder"]
    assert placeholder.binding.kind == "placeholder"
    assert type_str(placeholder.type) == "String"
    assert list(wrapper.schema.mutation_fields) == ["postJobs"]


def test_required_parameter_is_non_null_argument():
    wrapper = build({"/s": get_path(
        {"type": "string"},
        parameters=[
            {"name": "must", "in": "query", "required": True, "schema": {"type": "integer"}},
            {"name": "may", "in": "query", "schema": {"type": "integer"}},
        ],
    )})
    field = wrapper.schema.query_fields["getS"]
    assert type_str(field.args["must"].type) == "Int!"
    assert type_str(field.args["may"].type) == "Int"


def test_multiple_responses_selects_lowest_and_warns():
    wrapper = build({"/choice": {"get": {"responses": {
        "202": {"description": "slow", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"slow": {"type": "boolean"}}}}}},
        "200": {"description": "fast", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"fast": {"type": "string"}}}}}},
    }}}})
    assert [w.kind for w in wrapper.report.warnings] == ["MultipleResponses"]
    field = wrapper.schema.query_fields["getChoice"]
    inner = resolve_type(field.type, wrapper.schema.types)
    assert "fast" in inner.fields


# -- links -----------------------------------------------------------------------


LINKED_COMPONENTS = {"schemas": {
    "User": {"type": "object", "properties": {
        "id": {"type": "string"}, "employerId": {"type": "string"}}},
    "Company": {"type": "object", "properties": {
        "companyName": {"type": "string"}}},
}}


def linked_paths(link_def):
    return {
        "/user/{id}": get_path(
            {"$ref": "#/components/schemas/User"},
            parameters=[{"name": "id", "in": "path", "required": True,
                         "schema": {"type": "string"}}],
            links={"EmployerCompany": link_def},
            operation_id="getUserById",
        ),
        "/company/{companyName}": get_path(
            {"$ref": "#/components/schemas/Company"},
            parameters=[{"name": "companyName", "in": "path", "required": True,
                         "schema": {"type": "string"}}],
            operation_id="getCompanyById",
        ),
    }


def test_link_creates_field_with_satisfied_args_removed():
    wrapper = build(linked_paths({
        "operationId": "getCompanyById",
        "parameters": {"companyName": "$response.body#/employerId"},
    }), components=LINKED_COMPONENTS)
    assert wrapper.ok
    user = wrapper.schema.types["User"]
    link_field = user.fields["employerCompany"]
    assert type_str(link_field.type) == "Company"
    assert link_field.args == {}  # companyName satisfied by the expression
    assert link_field.binding.plan_key == "GET /company/{companyName}"
    assert wrapper.report.stats.links_attached == 1


def test_link_with_missing_target_is_skipped_with_warning():
    wrapper = build(linked_paths({
        "operationId": "noSuchOperation",
        "parameters": {"companyName": "$response.body#/employerId"},
    }), components=LINKED_COMPONENTS)
    assert wrapper.ok
    assert [w.kind for w in wrapper.report.warnings] == ["UnsupportedFeature"]
    assert "employerCompany" not in wrapper.schema.types["User"].fields


def test_link_with_exotic_expression_is_skipped():
    wrapper = build(linked_paths({
        "operationId": "getCompanyById",
        "parameters": {"companyName": "$response.header.Location"},
    }), components=LINKED_COMPONENTS)
    assert wrapper.ok
    assert [w.kind for w in wrapper.report.warnings] == ["UnsupportedFeature"]
    assert wrapper.report.stats.links_attached == 0


def test_link_keeps_unsatisfied_required_params_as_args():
    paths = linked_paths({
        "operationId": "searchCompanies",
        "parameters": {"name": "$response.body#/employerId"},
    })
    paths["/companies"] = get_path(
        {"$ref": "#/components/schemas/Company"},
        parameters=[
            {"name": "name", "in": "query", "required": True, "schema": {"type": "string"}},
            {"name": "country", "in": "query", "required": True, "schema": {"type": "string"}},
        ],
        operation_id="searchCompanies",
    )
    wrapper = build(paths, components=LINKED_COMPONENTS)
    link_field = wrapper.schema.types["User"].fields["employerCompany"]
    assert list(link_field.args) == ["country"]
    assert type_str(link_field.args["country"].type) == "String!"


def test_link_arg_shared_with_parent_relaxes_to_optional():
    # the parent's "id" propagates at runtime, so a same-named required param
    # on the linked operation must not force clients to repeat it
    paths = linked_paths({
        "operationId": "lookup",
        "parameters": {"name": "$response.body#/employerId"},
    })
    paths["/lookup"] = get_path(
        {"$ref": "#/components/schemas/Company"},
        parameters=[
            {"name": "name", "in": "query", "required": True, "schema": {"type": "string"}},
            {"name": "id", "in": "query", "required": True, "schema": {"type": "string"}},
        ],
        operation_id="lookup",
    )
    wrapper = build(paths, components=LINKED_COMPONENTS)
    link_field = wrapper.schema.types["User"].fields["employerCompany"]
    assert type_str(link_field.args["id"].type) == "String"  # shared -> optional
    # while the root field for the same operation keeps it required
    root_field = wrapper.schema.query_fields["company2"]
    assert type_str(root_field.args["id"].type) == "String!"


@pytest.mark.parametrize("parent_id, link_arg", [
    ({}, "s(id: String!)"),  # optional with no default: the parent may not send it
    ({"required": True}, "s(id: String)"),
    ({"schema": {"type": "string", "default": "d"}}, "s(id: String)"),
])
def test_link_arg_relaxes_only_when_the_parent_always_sends_its_name(parent_id, link_arg):
    # GET /p (query "id") links to GET /s/{id} with a key that binds nothing.
    string = {"type": "string"}
    paths = {
        "/p": get_path({"type": "object", "properties": {"x": string}},
                       parameters=[{"name": "id", "in": "query", "schema": string,
                                    **parent_id}],
                       links={"S": {"operationId": "getS",
                                    "parameters": {"k": "$response.body#/x"}}}),
        "/s/{id}": get_path({"type": "object", "properties": {"n": string}},
                            parameters=[{"name": "id", "in": "path", "required": True,
                                         "schema": string}],
                            operation_id="getS"),
    }
    wrapper = build(paths)
    assert wrapper.ok
    assert link_arg in wrapper.sdl
    query = "{ getP%s { s { n } } }" % ('(id: "a")' if parent_id.get("required") else "")
    errors = validate_query(parse_query(query), wrapper.schema)
    if link_arg == "s(id: String!)":  # it used to be optional, and failed at run time
        assert errors == ["required argument 'id' of field 's' is missing (line 1)"]
    else:
        assert errors == []


def test_multi_scheme_operation_under_every_matching_viewer():
    paths = {"/both": get_path({"$ref": "#/components/schemas/Thing"},
                               security=[{"key1": []}, {"basicAuth": []}])}
    wrapper = build(paths, components=SECURED_COMPONENTS)
    by_kind = {v.kind: v for v in viewers(wrapper)}
    assert set(by_kind) == {"apiKey", "basicAuth", "anyAuth"}
    for viewer in by_kind.values():
        viewer_type = wrapper.schema.types[viewer.type_name]
        assert len(viewer_type.fields) == 1
        field = next(iter(viewer_type.fields.values()))
        assert field.binding.plan_key == "GET /both"


def test_link_on_array_response_attaches_to_item_type():
    paths = {
        "/users": get_path(
            {"type": "array", "items": {"$ref": "#/components/schemas/User"}},
            links={"EmployerCompany": {
                "operationId": "getCompanyById",
                "parameters": {"companyName": "$response.body#/employerId"},
            }},
            operation_id="listUsers",
        ),
        "/company/{companyName}": get_path(
            {"$ref": "#/components/schemas/Company"},
            parameters=[{"name": "companyName", "in": "path", "required": True,
                         "schema": {"type": "string"}}],
            operation_id="getCompanyById",
        ),
    }
    wrapper = build(paths, components=LINKED_COMPONENTS)
    assert "employerCompany" in wrapper.schema.types["User"].fields


@pytest.mark.parametrize("strict", [False, True])
def test_link_indexing_a_list_response_is_skipped(strict):
    links = {"First": {"operationId": "getCompanyById",
                       "parameters": {"companyName": "$response.body#/0/employerId"}},
             "EmployerCompany": {"operationId": "getCompanyById",
                                 "parameters": {"companyName": "$response.body#/employerId"}}}
    paths = {
        "/users": get_path({"type": "array", "items": {"$ref": "#/components/schemas/User"}},
                           links=links, operation_id="listUsers"),
        "/company/{companyName}": get_path(
            {"$ref": "#/components/schemas/Company"},
            parameters=[{"name": "companyName", "in": "path", "required": True,
                         "schema": {"type": "string"}}],
            operation_id="getCompanyById",
        ),
    }
    wrapper = build(paths, components=LINKED_COMPONENTS, strict=strict)
    pointer = "#/paths/~1users/get/responses/200/links/First"
    if strict:
        assert wrapper.report.error_kind == "UnsupportedFeature"
        assert pointer in wrapper.report.error_message
        return
    assert [(w.kind, w.location) for w in wrapper.report.warnings] == [
        ("UnsupportedFeature", pointer)]
    fields = wrapper.schema.types["User"].fields
    assert "first" not in fields and "employerCompany" in fields


def test_link_name_collision_with_data_field_is_suffixed():
    components = {"schemas": {
        "User": {"type": "object", "properties": {
            "id": {"type": "string"},
            "employerCompany": {"type": "string"},
            "employerId": {"type": "string"}}},
        "Company": {"type": "object", "properties": {"companyName": {"type": "string"}}},
    }}
    wrapper = build(linked_paths({
        "operationId": "getCompanyById",
        "parameters": {"companyName": "$response.body#/employerId"},
    }), components=components)
    user = wrapper.schema.types["User"]
    assert type_str(user.fields["employerCompany"].type) == "String"  # data field kept
    assert type_str(user.fields["employerCompany2"].type) == "Company"


def _clean_links_with_user_list(link: dict) -> dict:
    """clean_links.json plus ``GET /users -> [User]`` declaring ``link`` as
    EmployerCompany, and a second company operation a link may target."""
    doc = json.loads((CORPUS_DIR / "clean_links.json").read_text(encoding="utf-8"))
    company = doc["paths"]["/company/{companyName}"]["get"]
    doc["paths"]["/users"] = get_path(
        {"type": "array", "items": {"$ref": "#/components/schemas/User"}},
        links={"EmployerCompany": link}, operation_id="listUsers")
    doc["paths"]["/firm/{companyName}"] = {"get": {**company, "operationId": "getFirm"}}
    return doc


@pytest.mark.parametrize("link, fields", [
    # the link clean_links.json declares on GET /user/{id}: one field
    ({"operationId": "getCompanyById",
      "parameters": {"companyName": "$response.body#/employerId"}}, ["employerCompany"]),
    # the same target by reference is the same link
    ({"operationRef": "#/paths/~1company~1{companyName}/get",
      "parameters": {"companyName": "$response.body#/employerId"}}, ["employerCompany"]),
    # another parameter expression or another target is another field
    ({"operationId": "getCompanyById", "parameters": {"companyName": "$response.body#/name"}},
     ["employerCompany", "employerCompany2"]),
    ({"operationId": "getFirm", "parameters": {"companyName": "$response.body#/employerId"}},
     ["employerCompany", "employerCompany2"]),
])
def test_one_link_on_one_type_is_one_field(link, fields):
    wrapper = generate(json.dumps(_clean_links_with_user_list(link)).encode())
    assert wrapper.ok and wrapper.report.warnings == []
    user = wrapper.schema.types["User"]
    assert [name for name, f in user.fields.items() if f.binding is not None] == fields
    assert wrapper.report.stats.links_attached == len(fields)
    assert wrapper.sdl.count("employerCompany") == len(fields)


@pytest.mark.parametrize("first", ["/user/{id}", "/users"])
def test_a_link_declared_twice_keeps_an_argument_either_operation_needs(first):
    # GET /user/{id} always sends `region` but GET /users, which reaches User
    # too, sends none, so the one field requires it whichever declares first.
    doc = _clean_links_with_user_list(json.loads(
        (CORPUS_DIR / "clean_links.json").read_text(encoding="utf-8"))
        ["paths"]["/user/{id}"]["get"]["responses"]["200"]["links"]["EmployerCompany"])
    region = {"name": "region", "in": "query", "required": True, "schema": {"type": "string"}}
    doc["paths"]["/user/{id}"]["get"]["parameters"].append(region)
    doc["paths"]["/company/{companyName}"]["get"]["parameters"].append(region)
    doc["paths"] = dict(sorted(doc["paths"].items(), key=lambda item: item[0] != first))
    wrapper = generate(json.dumps(doc).encode())
    link_field = wrapper.schema.types["User"].fields["employerCompany"]
    assert "employerCompany2" not in wrapper.schema.types["User"].fields
    assert type_str(link_field.args["region"].type) == "String!"


@pytest.mark.parametrize("path, response, region", [
    (None, None, "String"),
    # a list item, or an object field, whose operation sends no `region`
    ("/users", {"type": "array", "items": {"$ref": "#/components/schemas/User"}}, "String!"),
    ("/team", {"type": "object", "properties": {"lead": {"$ref": "#/components/schemas/User"}}},
     "String!"),
])
def test_a_link_relaxes_an_argument_only_if_every_operation_reaching_its_type_sends_it(
        path, response, region):
    # GET /user/{id} always sends `region` and declares the link; another
    # operation reaching User, which declares none, propagates no `region`.
    doc = json.loads((CORPUS_DIR / "clean_links.json").read_text(encoding="utf-8"))
    required = {"name": "region", "in": "query", "required": True, "schema": {"type": "string"}}
    doc["paths"]["/user/{id}"]["get"]["parameters"].append(required)
    doc["paths"]["/company/{companyName}"]["get"]["parameters"].append(required)
    if path is not None:
        doc["paths"][path] = get_path(response)
    wrapper = generate(json.dumps(doc).encode())
    assert wrapper.ok and wrapper.report.warnings == []
    assert f"employerCompany(region: {region})" in wrapper.sdl
    query = '{ user(id: "1", region: "eu") { employerCompany { city } } }'
    errors = validate_query(parse_query(query), wrapper.schema)
    assert errors == ([] if region == "String" else
                      ["required argument 'region' of field 'employerCompany' is missing "
                       "(line 1)"])


# -- viewers ---------------------------------------------------------------------


Viewer = namedtuple("Viewer", "kind root_side field_name type_name wrapped_fields")


def viewers(wrapper):
    """Every viewer root field: its kind and root side from the field and its
    binding, the fields it wraps from its object type."""
    found = []
    for side, root in (("query", wrapper.schema.query_fields),
                       ("mutation", wrapper.schema.mutation_fields)):
        for field in root.values():
            if field.binding.kind != "viewer":
                continue
            kind = ("anyAuth" if field.binding.credential_args
                    else "apiKey" if "apiKey" in field.args else "basicAuth")
            type_name = field.type.unwrap().name
            found.append(Viewer(kind, side, field.name, type_name,
                                sorted(wrapper.schema.types[type_name].fields)))
    return found


SECURED_COMPONENTS = {
    "schemas": {"Thing": {"type": "object", "properties": {"v": {"type": "string"}}}},
    "securitySchemes": {
        "key1": {"type": "apiKey", "name": "X-Api-Key", "in": "header"},
        "basicAuth": {"type": "http", "scheme": "basic"},
    },
}


def test_api_key_viewer_wraps_secured_fields():
    paths = {
        f"/{name}": get_path({"$ref": "#/components/schemas/Thing"},
                             security=[{"key1": []}])
        for name in ("a", "b", "c")
    }
    wrapper = build(paths, components=SECURED_COMPONENTS)
    [viewer] = [v for v in viewers(wrapper) if v.kind == "apiKey"]
    assert viewer.root_side == "query"
    assert viewer.field_name == "viewerKey1"
    assert len(viewer.wrapped_fields) == 3
    field = wrapper.schema.query_fields["viewerKey1"]
    assert type_str(field.args["apiKey"].type) == "String!"
    # viewer gating: wrapped fields' operations all declare the scheme
    viewer_type = wrapper.schema.types[viewer.type_name]
    for wrapped in viewer.wrapped_fields:
        binding = viewer_type.fields[wrapped].binding
        plan = wrapper.plans[binding.plan_key]
        assert any(s.name == "key1" for s in plan.security)


def test_no_security_schemes_no_viewers():
    wrapper = build({"/x": get_path({"type": "string"})})
    assert viewers(wrapper) == []


def test_two_schemes_produce_scheme_viewers_plus_any_auth():
    paths = {
        "/a": get_path({"$ref": "#/components/schemas/Thing"}, security=[{"key1": []}]),
        "/b": get_path({"$ref": "#/components/schemas/Thing"}, security=[{"basicAuth": []}]),
    }
    wrapper = build(paths, components=SECURED_COMPONENTS)
    kinds = sorted(v.kind for v in viewers(wrapper))
    assert kinds == ["anyAuth", "apiKey", "basicAuth"]
    assert wrapper.report.stats.viewers_created == 3
    any_auth = next(v for v in viewers(wrapper) if v.kind == "anyAuth")
    assert any_auth.field_name == "viewerAnyAuth"
    assert len(any_auth.wrapped_fields) == 2
    field = wrapper.schema.query_fields["viewerAnyAuth"]
    # one optional credential group per scheme
    assert set(field.args) == {"key1", "basicAuth"}
    for arg in field.args.values():
        assert arg.type.kind == REFERENCE
        cred_type = wrapper.schema.types[arg.type.name]
        assert cred_type.kind == INPUT_OBJECT


def test_oauth_scheme_produces_no_viewer_and_root_placement():
    components = {
        "schemas": {"Thing": {"type": "object", "properties": {"v": {"type": "string"}}}},
        "securitySchemes": {"oauth": {"type": "oauth2", "flows": {}}},
    }
    wrapper = build({"/a": get_path({"$ref": "#/components/schemas/Thing"},
                                    security=[{"oauth": []}])},
                    components=components)
    assert viewers(wrapper) == []
    assert "thing" in wrapper.schema.query_fields


def test_unsecured_operations_stay_at_root():
    paths = {
        "/a": get_path({"$ref": "#/components/schemas/Thing"}, security=[{"key1": []}]),
        "/open": get_path({"type": "string"}),
    }
    wrapper = build(paths, components=SECURED_COMPONENTS)
    assert "getOpen" in wrapper.schema.query_fields
    assert "thing" not in wrapper.schema.query_fields  # secured one is only under viewers


# -- SDL --------------------------------------------------------------------------


def test_print_sdl_nonnull_rendering():
    wrapper = build({"/u": get_path({
        "type": "object", "title": "User", "required": ["id"],
        "properties": {"id": {"type": "string"}},
    })})
    assert "type User {" in wrapper.sdl
    assert "id: String!" in wrapper.sdl


def test_sdl_round_trip_fixed_point():
    wrapper = build({
        "/users/{id}": {
            "get": {
                "description": "Fetch one user.",
                "parameters": [{"name": "id", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": {"200": {"description": "ok", "content": {
                    "application/json": {"schema": {"$ref": "#/components/schemas/User"}}}}},
            },
        },
        "/users": {
            "post": {
                "requestBody": {"content": {"application/json": {
                    "schema": {"$ref": "#/components/schemas/User"}}}},
                "responses": {"201": {"description": "made", "content": {
                    "application/json": {"schema": {"$ref": "#/components/schemas/User"}}}}},
            },
        },
    }, components={"schemas": {"User": {
        "type": "object", "description": "A user.",
        "required": ["id"],
        "properties": {"id": {"type": "string"},
                       "sort": {"type": "string", "enum": ["asc", "desc"]}},
    }}})
    first = wrapper.sdl
    reparsed = schema_from_sdl(first)
    second = print_sdl(reparsed)
    assert first == second


def test_title_equal_structures_still_deduplicate():
    # titles are excluded from the deep comparison, so same-shaped schemas
    # with different titles collapse to the first title's type
    wrapper = build({
        "/z": get_path({"type": "object", "title": "Zed",
                        "properties": {"v": {"type": "string"}}}),
        "/a": get_path({"type": "object", "title": "Alpha",
                        "properties": {"v": {"type": "string"}}}),
    })
    assert "Zed" in wrapper.schema.types
    assert "Alpha" not in wrapper.schema.types
    assert list(wrapper.schema.query_fields) == ["zed", "zed2"]


def test_sdl_types_sorted_by_name():
    wrapper = build({
        "/z": get_path({"type": "object", "title": "Zed",
                        "properties": {"deep": {"type": "boolean"}}}),
        "/a": get_path({"type": "object", "title": "Alpha",
                        "properties": {"v": {"type": "string"}}}),
    })
    alpha = wrapper.sdl.index("type Alpha")
    zed = wrapper.sdl.index("type Zed")
    query = wrapper.sdl.index("type Query")
    assert query < alpha < zed


def test_placeholder_sdl_for_empty_query_root():
    wrapper = build({"/jobs": {"post": {
        "responses": {"201": {"description": "ok", "content": {"application/json": {
            "schema": {"type": "object", "properties": {"id": {"type": "string"}}}}}}},
    }}})
    assert "placeholder: String" in wrapper.sdl
    reparsed = schema_from_sdl(wrapper.sdl)
    assert print_sdl(reparsed) == wrapper.sdl


def test_all_emitted_names_match_grammar():
    wrapper = build({
        "/weird-path/{item-id}": {"get": {
            "parameters": [{"name": "item-id", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {
                    "first-name": {"type": "string"},
                    "$meta": {"type": "object", "properties": {"x": {"type": "string"}}},
                }}}}}},
        }},
    })
    schema = wrapper.schema
    for name, type_ir in schema.types.items():
        assert NAME_RE.match(name)
        for field_name, field_ir in (type_ir.fields or {}).items():
            assert NAME_RE.match(field_name)
            for arg in field_ir.args.values():
                assert NAME_RE.match(arg.name)
    for field_name in list(schema.query_fields) + list(schema.mutation_fields):
        assert NAME_RE.match(field_name)


# -- reserved names ------------------------------------------------------------------


def graphql_core_errors(sdl):
    """graphql-core's schema validation messages for an SDL document."""
    from graphql import build_schema, validate_schema

    return [error.message for error in validate_schema(build_schema(sdl))]


def serve(wrapper, body, query):
    executor = Executor(wrapper.schema, wrapper.plans, CannedClient(body))
    result = executor.execute(parse_query(query), None, None)
    return result.errors, result.data


def reserved_name_document(name):
    """GET /s returning the component schema called name, with a String field."""
    return build({"/s": get_path({"$ref": f"#/components/schemas/{name}"})},
                 {"schemas": {name: {"type": "object", "properties": {
                     "a": {"type": "string"}}}}})


def test_component_named_query_yields_one_query_root():
    wrapper = reserved_name_document("Query")
    assert wrapper.ok, wrapper.report.error_message
    assert graphql_core_errors(wrapper.sdl) == []
    assert wrapper.sdl.count("type Query ") == 1


def test_component_named_string_leaves_the_scalar_alone():
    wrapper = reserved_name_document("String")
    assert wrapper.ok, wrapper.report.error_message
    assert graphql_core_errors(wrapper.sdl) == []
    assert "type String " not in wrapper.sdl and "a: String" in wrapper.sdl
    [root] = wrapper.schema.query_fields
    assert serve(wrapper, {"a": "x"}, f"{{ {root} {{ a }} }}") == ([], {root: {"a": "x"}})


def test_double_underscore_property_keeps_one_underscore_in_preserve_casing():
    # Mongoose's version key: names starting with "__" belong to introspection.
    root = {"openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://x.example.com"}],
            "paths": {"/s": get_path({"type": "object", "properties": {
                "__v": {"type": "integer"}, "name": {"type": "string"}}})}}
    wrapper = generate(json.dumps(root).encode(), GenerationOptions(casing="preserve"))
    assert wrapper.ok, wrapper.report.error_message
    assert graphql_core_errors(wrapper.sdl) == []
    assert "  _v: Int" in wrapper.sdl
    [root] = wrapper.schema.query_fields
    assert serve(wrapper, {"__v": 3, "name": "n"}, f"{{ {root} {{ _v name }} }}") == (
        [], {root: {"_v": 3, "name": "n"}})


def test_every_generating_fixture_passes_graphql_core_schema_validation():
    checked = 0
    for name in sorted(load_manifest()["files"]):
        for strict in (False, True):
            wrapper = generate(CORPUS_DIR / name, GenerationOptions(strict=strict))
            if wrapper.ok:
                assert graphql_core_errors(wrapper.sdl) == [], (name, strict)
                checked += 1
    assert checked >= 31
